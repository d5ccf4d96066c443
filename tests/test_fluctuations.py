"""Squeezed-quadrature variance: analytics, minima, criteria, sweeps.

Absolute anchors: the unmodulated stationary levels (exact rational
values in the pump ratio) and a below-threshold modulated oracle done
with a single scipy.quad, where the response exponent has a closed form
and the photon-number orbit drops out.  Above threshold with modulation
the two internal routes (ODE attractor and memory-integral evaluation)
are cross-checked against each other and against values frozen from
runs that were verified against the stochastic simulators.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from modnopo import (
    EPR_BOUND,
    INSEPARABILITY_BOUND,
    CriteriaReport,
    Harmonic,
    InvalidParameterError,
    ModelParams,
    MomentSet,
    TabulatedPeriodic,
    asymptotic_variance,
    classify_entanglement,
    derive_params,
    find_vmin,
    integrate_variance,
    linearization_validity,
    params_from_ratios,
    sweep_vmin,
)


def oracle_variance_below(p, t):
    """scipy.quad variance for a modulated pump held below threshold."""
    d = derive_params(p)
    m = p.modulation
    g = p.gamma
    r = m.fbar / d.f_th
    a = m.f1 * g / (d.f_th * m.delta)

    def integrand(s):
        acc = g * s * (1.0 + r) + a * (
            math.sin(m.delta * t + m.phi) - math.sin(m.delta * (t - s) + m.phi)
        )
        return math.exp(-2.0 * acc)

    val, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=600)
    assert err < 1e-8 * val
    return 2.0 * g * val


class TestStationaryLevels:
    @pytest.mark.parametrize(
        "ratio,want",
        [(1.5, 7.0 / 12.0), (2.0, 0.625), (3.0, 2.0 / 3.0)],
    )
    def test_above_threshold_flat(self, ratio, want):
        p = params_from_ratios(fbar_over_fth=ratio)
        assert float(asymptotic_variance(p, 0.7)) == pytest.approx(want, rel=1e-7)
        traj = integrate_variance(p)
        np.testing.assert_allclose(traj.V, want, rtol=1e-7)

    @pytest.mark.parametrize("ratio", [0.3, 0.8])
    def test_below_threshold_flat(self, ratio):
        p = params_from_ratios(fbar_over_fth=ratio)
        want = 1.0 / (1.0 + ratio)
        assert float(asymptotic_variance(p, 0.0)) == pytest.approx(want, rel=1e-7)

    def test_at_threshold_flat(self):
        p = params_from_ratios(fbar_over_fth=1.0)
        assert float(asymptotic_variance(p, 1.3)) == pytest.approx(0.5, rel=1e-7)


class TestBelowThresholdOracle:
    def test_modulated_matches_quad(self):
        p = params_from_ratios(
            fbar_over_fth=0.6, f1_over_fbar=0.8, delta_over_gamma=1.7, phi=0.4
        )
        d = derive_params(p)
        traj = integrate_variance(p)
        for t in np.linspace(0.0, d.period, 5):
            want = oracle_variance_below(p, float(t))
            assert float(asymptotic_variance(p, t)) == pytest.approx(want, rel=1e-6)
            assert float(traj.interp(t)) == pytest.approx(want, rel=1e-6)


class TestRouteAgreement:
    def test_modulated_above_threshold(self):
        p = params_from_ratios(f1_over_fbar=1.2)
        d = derive_params(p)
        traj = integrate_variance(p)
        t = np.linspace(0.0, d.period, 17)
        np.testing.assert_allclose(
            traj.interp(t), asymptotic_variance(p, t), atol=1e-8, rtol=0.0
        )

    def test_vmin_both_routes(self):
        p = params_from_ratios(f1_over_fbar=1.2)
        r_ode = find_vmin(p, route="ode")
        r_closed = find_vmin(p, route="closed")
        assert r_ode.v_min == pytest.approx(r_closed.v_min, abs=1e-8)
        assert r_ode.t0 == pytest.approx(r_closed.t0, abs=1e-5)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="route"):
            find_vmin(params_from_ratios(), route="euler")


class TestMinimaRegression:
    # values frozen from this build after cross-validation against the
    # phase-space and state-diffusion simulators
    def test_shallow_modulation(self):
        r = find_vmin(params_from_ratios(f1_over_fbar=0.4))
        assert r.v_min == pytest.approx(0.5576, rel=1e-3)
        assert r.t0 == pytest.approx(2.5038, abs=5e-3)
        assert r.n0_at_t0 == pytest.approx(1.689e8, rel=5e-3)
        assert r.period == pytest.approx(math.pi, rel=1e-12)

    def test_deep_modulation(self):
        r = find_vmin(params_from_ratios(f1_over_fbar=1.2))
        assert r.v_min == pytest.approx(0.27132, rel=1e-3)
        assert r.t0 == pytest.approx(2.6486, abs=5e-3)
        assert r.n0_at_t0 == pytest.approx(6.594e7, rel=5e-3)
        assert r.criteria.inseparable and r.criteria.epr
        assert r.validity_ratio == pytest.approx(5.465e6, rel=2e-3)

    def test_slow_and_fast_modulation_limits(self):
        slow = find_vmin(params_from_ratios(f1_over_fbar=1.2, delta_over_gamma=0.01))
        assert slow.v_min == pytest.approx(0.17384, rel=2e-3)
        fast = find_vmin(params_from_ratios(f1_over_fbar=1.2, delta_over_gamma=100.0))
        # fast modulation averages out toward the stationary 2/3
        assert fast.v_min == pytest.approx(0.62223, rel=2e-3)

    def test_flat_pump_reports_origin(self):
        r = find_vmin(params_from_ratios())
        assert r.t0 == 0.0
        assert r.v_min == pytest.approx(2.0 / 3.0, rel=1e-7)


class TestCriteria:
    def test_truth_table(self):
        vacuum = classify_entanglement(1.0, 1.0)
        assert not vacuum.inseparable and not vacuum.epr
        mild = classify_entanglement(0.6, 0.6)
        assert mild.inseparable and not mild.epr
        strong = classify_entanglement(0.27, 0.27)
        assert strong.inseparable and strong.epr
        assert strong.sum_value == pytest.approx(0.54)
        assert strong.product_value == pytest.approx(0.0729)

    def test_asymmetric_pair(self):
        rep = classify_entanglement(0.3, 1.8)
        assert not rep.inseparable
        assert not rep.epr

    def test_bounds_are_strict(self):
        at_sum = classify_entanglement(1.0, INSEPARABILITY_BOUND - 1.0)
        assert not at_sum.inseparable
        at_prod = classify_entanglement(0.5, EPR_BOUND / 0.5)
        assert not at_prod.epr

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, -0.2)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            classify_entanglement(*bad)

    @given(v=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_epr_implies_inseparable(self, v):
        rep = classify_entanglement(v, v)
        if rep.epr:
            assert rep.inseparable

    def test_moment_set_variance(self):
        m = MomentSet(n_plus=4.0, squeeze_corr=-0.375, imbalance_sq=6.0)
        assert m.variance == 0.625
        assert isinstance(classify_entanglement(m.variance, m.variance), CriteriaReport)


class TestValidity:
    def test_threshold_margin_vanishes(self):
        assert linearization_validity(params_from_ratios(fbar_over_fth=1.0)) == 0.0

    def test_slow_deep_modulation_kills_margin(self):
        p = params_from_ratios(f1_over_fbar=1.2, delta_over_gamma=1e-3)
        assert linearization_validity(p) == 0.0

    def test_no_modulation_margin(self):
        p = params_from_ratios()
        d = derive_params(p)
        want = (3.0 - 1.0) / (d.lam / p.gamma)
        assert linearization_validity(p) == pytest.approx(want, rel=1e-12)


class TestSweep:
    def test_grid_order_values_and_workers(self):
        p = params_from_ratios()
        ratios = [0.5, 1.0, 2.0]
        levels = [0.0, 0.75]
        cells = sweep_vmin(p, ratios, levels)
        assert [c.fbar_over_fth for c in cells] == ratios * 2
        assert [c.f1_over_fbar for c in cells] == [0.0] * 3 + [0.75] * 3
        assert [c.regime for c in cells[:3]] == ["below", "at", "above"]
        assert all(c.error is None for c in cells)
        # flat-pump column reproduces the stationary levels
        assert cells[0].v_min == pytest.approx(1.0 / 1.5, rel=1e-6)
        assert cells[1].v_min == pytest.approx(0.5, rel=1e-6)
        assert cells[2].v_min == pytest.approx(0.625, rel=1e-6)
        assert all(c.t0 == 0.0 for c in cells[:3])
        # modulation deepens every minimum on this grid
        for flat, mod in zip(cells[:3], cells[3:]):
            assert mod.v_min < flat.v_min
        assert cells == sweep_vmin(p, ratios, levels, n_workers=3)

    def test_tabulated_pump_rejected(self):
        h = Harmonic(fbar=1.0, f1=0.2, delta=2.0)
        s = tuple(float(h.value(t)) for t in np.linspace(0, h.period, 64, endpoint=False))
        p = ModelParams(
            gamma=1.0, gamma3=25.0, k=5e-4,
            modulation=TabulatedPeriodic(period=h.period, samples=s),
        )
        with pytest.raises(ValueError, match="harmonic"):
            sweep_vmin(p, [2.0], [0.5])
        for n_workers in (0, -2):
            with pytest.raises(InvalidParameterError, match="n_workers"):
                sweep_vmin(params_from_ratios(), [2.0], [0.5], n_workers=n_workers)


class TestPeriodicity:
    def test_interp_wraps_whole_periods(self):
        p = params_from_ratios(f1_over_fbar=0.4)
        traj = integrate_variance(p)
        t = np.linspace(0.0, traj.period, 9)
        np.testing.assert_allclose(
            traj.interp(t + 7.0 * traj.period), traj.interp(t), rtol=1e-12
        )
