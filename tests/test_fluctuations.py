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
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import sha256, tabulated_pump
from modnopo import (
    EPR_BOUND,
    INSEPARABILITY_BOUND,
    ConvergenceError,
    Harmonic,
    InvalidParameterError,
    ModelParams,
    TabulatedPeriodic,
    asymptotic_n0,
    asymptotic_variance,
    classify_entanglement,
    derive_params,
    find_vmin,
    integrate_n0,
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


class TestNoPeriodicState:
    # at fbar = -f_th the variance's period-averaged damping is zero, past it
    # negative, so no periodic state attracts.  The closed route returned
    # V = -1.73 and -3.12 at -1.5 f_th, and inf with only RuntimeWarnings at
    # -1.0 f_th; each route's kernel now refuses through the one rule on its
    # period decay D.  At -2 f_th and delta 0.01 the ODE route's multiplier,
    # exp(1257), overflowed float64 into an OverflowError.
    @pytest.mark.parametrize("ratio,delta", [(-1.5, 2.0), (-1.0, 2.0), (-2.0, 0.01)])
    @pytest.mark.parametrize("route", [
        lambda p: asymptotic_variance(p, np.array([0.0, 1.0])),
        lambda p: find_vmin(p, route="closed"),
        integrate_variance,
        find_vmin,
    ], ids=["asymptotic_variance", "find_vmin-closed", "integrate_variance", "find_vmin-ode"])
    def test_every_route_refuses(self, ratio, delta, route):
        p = params_from_ratios(fbar_over_fth=ratio, f1_over_fbar=0.3, delta_over_gamma=delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError, match="decay D = .* is not > 0"):
                route(p)


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


def v_stationary(r):
    """The flat-pump level at r = fbar/f_th: V = 3/4 - 1/(4r) above
    threshold, and V = 1/(1 + r) below it, where n0 = 0."""
    return 0.75 - 0.25 / r if r > 1.0 else 1.0 / (1.0 + r)


@pytest.mark.parametrize("route", ["ode", "closed"])
class TestModulationLimits:
    """Both routes' V_min at the two ends of delta against limits of the
    flat-pump level, above threshold at r = fbar/f_th = 3 and below it at
    r = 0.5."""

    def test_fast_limit(self, route):
        # V_min = Vbar - 2 eps1 Vbar/delta + O(delta^-2), Vbar = v_stationary(r),
        # eps1 = (f1/fbar) r.  At r = 3, f1 = 1.2 fbar: 4.8/delta, the
        # remainder 34.7-35.7/delta^2.  At r = 0.5, f1 = 0.3 fbar (1.2 would
        # cross threshold): 0.2/delta, the remainder 0.046-0.054/delta^2 on
        # the closed route; the ODE route's own integration error takes it
        # to 0.31/delta^2 at delta 800.
        for r, depth, bound in ((3.0, 1.2, 40.0), (0.5, 0.3, 0.4)):
            v_bar = v_stationary(r)
            lead = 2.0 * depth * r * v_bar
            for delta in (100.0, 200.0, 400.0, 800.0):
                p = params_from_ratios(fbar_over_fth=r, f1_over_fbar=depth,
                                       delta_over_gamma=delta)
                v_min = find_vmin(p, route=route).v_min
                assert abs(delta * (v_bar - v_min) - lead) <= bound / delta, (r, delta, v_min)

    def test_slow_limit(self, route):
        # the pump stays on one side of threshold all period, so V_min
        # follows the stationary level at the pump's point where it is
        # lowest: above threshold at r_min = r (1 - f1/fbar), from below,
        # 0.058-0.064 delta^2 off at r = 3; below threshold at
        # r_max = r (1 + f1/fbar), from above, 0.00253 delta^2 off at r = 0.5
        depth = 0.3
        for r, r_low, sign, bound in ((3.0, 1.0 - depth, 1.0, 0.08),
                                      (0.5, 1.0 + depth, -1.0, 0.003)):
            v_lowest = v_stationary(r * r_low)
            for delta in (0.2, 0.05, 0.01):
                p = params_from_ratios(fbar_over_fth=r, f1_over_fbar=depth,
                                       delta_over_gamma=delta)
                v_min = find_vmin(p, route=route).v_min
                assert 0.0 < sign * (v_lowest - v_min) <= bound * delta**2, (r, delta, v_min)


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

    def test_trusted_follows_the_validity_margin(self):
        p = params_from_ratios(lam_over_gamma=1e-3)
        cells = sweep_vmin(p, [1.05, -1.0], [0.0, 2.0])
        assert [c.trusted for c in cells] == [True, False, False, False]
        assert cells[2].validity_ratio == pytest.approx(6.12, rel=1e-3)
        assert cells[1].error is not None  # a failed cell is never trusted
        r = find_vmin(params_from_ratios(fbar_over_fth=1.05, f1_over_fbar=2.0,
                                         lam_over_gamma=1e-3))
        assert r.validity_ratio == pytest.approx(6.12, rel=1e-3) and not r.trusted
        assert find_vmin(params_from_ratios(f1_over_fbar=0.4)).trusted

    def test_non_finite_pump_names_the_ratio(self):
        # inf * f_th used to reach Harmonic as f1 = 0 * inf and blame f1
        for ratio in (math.inf, 1e308):
            with pytest.raises(InvalidParameterError, match="pump ratio"):
                sweep_vmin(params_from_ratios(), [ratio], [0.0])


class TestPeriodicity:
    def test_interp_wraps_whole_periods(self):
        p = params_from_ratios(f1_over_fbar=0.4)
        traj = integrate_variance(p)
        t = np.linspace(0.0, traj.period, 9)
        np.testing.assert_allclose(
            traj.interp(t + 7.0 * traj.period), traj.interp(t), rtol=1e-12
        )


def _tabulated(samples):
    """The reference rates with a tabulated pump of period pi."""
    return ModelParams(gamma=1.0, gamma3=25.0, k=5e-4,
                       modulation=TabulatedPeriodic(period=math.pi, samples=tuple(samples)))


class TestFrozenBytes:
    """Regression freezes of the ODE routes: sha256 of the periodic orbit,
    the periodic variance, find_vmin's (v_min, t0, n0_at_t0) and the float
    values of single-time evaluations of the orbit and the pump.  Taken
    before the right-hand sides moved to scalar code, and taken again when
    the periodic states came to be shot instead of iterated (the ODE
    routes' values, and the closed routes' n0_at_t0, which reads the ODE
    orbit).  A faster right-hand side must keep every byte."""

    POINTS = {
        "below": (lambda: params_from_ratios(fbar_over_fth=0.5, f1_over_fbar=1.0, phi=0.4),
                  "84c79bf08283876c344403467ba5ab68ca800e3f2501a63fd000f9e64453fe82"),
        "near": (lambda: params_from_ratios(fbar_over_fth=1.05, f1_over_fbar=0.75, phi=0.7),
                 "62ae7393a494c4a050b0d3e5502d75ef70b42aa48630aaf867719ee83c2561b4"),
        "sign_change": (lambda: params_from_ratios(fbar_over_fth=3.0, f1_over_fbar=2.0,
                                                   phi=1.1),
                        "a9e4e7a713c7a7ff5861c0391ffe27e9aceb998bca1f91095ffca9759a8c9059"),
        "fast": (lambda: params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.8,
                                            delta_over_gamma=15.0),
                 "e4de45710bbc8d2bedc7b04edaa21835762256194c16ff637035f302e4156cf6"),
        "tabulated": (tabulated_pump,
                      "6e922989896f071fce642d34701dcaba884428616ef315be1d9752914160578f"),
    }

    @pytest.mark.parametrize("name", list(POINTS))
    def test_ode_routes(self, name):
        make, want = self.POINTS[name]
        p = make()
        d = derive_params(p)
        traj = integrate_variance(p)
        r = find_vmin(p)
        times = [0.0, 0.37, -2.9, np.nextafter(d.period, 0.0), 7.0 * d.period + 0.1]
        got = sha256([
            ("n0", traj.n0_ref.n0), ("V", traj.V),
            ("vmin", (r.v_min, r.t0, r.n0_at_t0)),
            ("interp", [float(traj.n0_ref.interp(t)) for t in times]),
            ("eps", [float(d.eps(t)) for t in times]),
        ])
        assert got == want

    # (orbit passes, variance passes) of one period each: the orbit shoots
    # its periodic state in two and the variance in three at every point
    # (a period loop took 4 to 87 and 4 to 37 here); the below-threshold
    # orbit is the exact zero orbit
    PERIODS = {"below": (0, 3), "near": (2, 3), "sign_change": (2, 3), "fast": (2, 3),
               "tabulated": (2, 3), "delta100": (2, 3)}

    @pytest.mark.parametrize("name", list(PERIODS))
    def test_periods_to_converge(self, name):
        if name == "delta100":
            p = params_from_ratios(fbar_over_fth=2.5, f1_over_fbar=0.5,
                                   delta_over_gamma=100.0)
        else:
            p = self.POINTS[name][0]()
        traj = integrate_variance(p)
        got = (traj.n0_ref.periods_to_converge, traj.periods_to_converge)
        assert got == self.PERIODS[name]

    # closed routes: sha256 of asymptotic_variance and asymptotic_n0 on a
    # grid over two periods and a bit, at one float, and of
    # find_vmin(route="closed"); the below-threshold point has no n0 curve
    CLOSED = {
        "below": "1c0512f45386dca21ffb6b305397b6e5e96865f9c1d6d5ece1d571670401311b",
        "near": "7eaf4f0b6018467e4086ea0b30bd60da786dc5515c65a57e11871a9062e90e12",
        "sign_change": "6faf2cf75949258c3099734a44fa144b7a7b47ccc2fd52becfd38b37154f232f",
        "fast": "f6e407309525ca4d064a20b82a2e71d51248365c95792647443568dac8228cd6",
        "tabulated": "ab1b80f6135159ade729630d927a59a443d0611765096f24c6984fa262fb756c",
        "delta0.05": "e8a1e5eb689fbd6d2beb93220c7b029112f220896dac2825191c22b0cae43acb",
        "delta100": "bc50f4abe4113272829447cfa6f32f94d727bdc613d2a4351ef76b96f736b6bc",
    }

    @pytest.mark.parametrize("name", list(CLOSED))
    def test_closed_routes(self, name):
        if name.startswith("delta"):
            p = params_from_ratios(fbar_over_fth=2.5, f1_over_fbar=0.5,
                                   delta_over_gamma=float(name[5:]))
        else:
            p = self.POINTS[name][0]()
        d = derive_params(p)
        t = np.linspace(-0.3 * d.period, 2.1 * d.period, 41)
        items = [("V", asymptotic_variance(p, t)), ("V1", asymptotic_variance(p, 0.37))]
        if name != "below":
            items += [("n0", asymptotic_n0(p, t)), ("n01", asymptotic_n0(p, 0.37))]
        r = find_vmin(p, route="closed")
        items.append(("vmin", (r.v_min, r.t0, r.n0_at_t0)))
        assert sha256(items) == self.CLOSED[name]

    # sha256 of linearization_validity and of find_vmin's (v_min, t0,
    # n0_at_t0, validity_ratio) on both routes, for tabulated pumps: one
    # modulated, one flat and one whose spread is a single subnormal
    TABLES = {
        "modulated": (tabulated_pump,
                      "9681736a0cc6732f080b7ff57821612ecb75c1c82c38482c7c671477111edd28"),
        "flat": (lambda: _tabulated([2.0 * 25.0 / 5e-4] * 64),
                 "24da56bffe1875a9253e1081a6e7e54574e76dad7178c046e3d100126023908c"),
        "subnormal": (lambda: _tabulated([0.0] * 63 + [5e-324]),
                      "9546ce183bccd9ec0b26ba73bf5daaf76bba25e315c6df30a04bbd65f0eaa9af"),
    }

    @pytest.mark.parametrize("name", list(TABLES))
    def test_tabulated_vmin_and_validity(self, name):
        make, want = self.TABLES[name]
        p = make()
        items = [("validity", linearization_validity(p))]
        for route in ("ode", "closed"):
            r = find_vmin(p, route=route)
            items.append((route, (r.v_min, r.t0, r.n0_at_t0, r.validity_ratio)))
        assert sha256(items) == want

    def test_negative_depth_sweep_cell(self):
        # sha256 of a sweep cell whose depth is negative (a phase-flipped pump)
        cells = sweep_vmin(params_from_ratios(phi=0.4), [1.6], [-0.75])
        assert sha256([("cells", cells)]) == (
            "68f0acb637f3023f33b60090133bcc21e40bf60d60818b8cfcbec83e961d50bd")

    def test_transient_grid(self):
        # the same run's grid and photon numbers alone, without any
        # interpolation between them
        traj = integrate_n0(params_from_ratios(fbar_over_fth=3.0, f1_over_fbar=2.0, phi=1.1),
                            t_span=(1.3, 4.0), n0_init=2.0e7, n_points=257)
        assert sha256([("t_grid", traj.t_grid), ("n0", traj.n0)]) == (
            "cf4a795cbb7a2633d3e2829c5e64737ff80e6fa549c4be3582c51515f71142c7")
