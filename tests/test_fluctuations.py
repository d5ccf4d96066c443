"""Squeezed-quadrature variance: analytics, minima, criteria, sweeps.

Absolute anchors: the unmodulated stationary levels (exact rational
values in the pump ratio) and a below-threshold modulated oracle done
with a single scipy.quad, where the response exponent has a closed form
and the photon-number orbit drops out.  Above threshold with modulation
the two internal routes (ODE attractor and memory-integral evaluation)
are cross-checked against each other and against values frozen from
runs that were verified against the stochastic simulators.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from modnopo import (
    EPR_BOUND,
    INSEPARABILITY_BOUND,
    ConvergenceError,
    CriteriaReport,
    Harmonic,
    InvalidParameterError,
    ModelParams,
    MomentSet,
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
    # -1.0 f_th; each route's own kernel now refuses, from its own D or m.
    # At -2 f_th and delta 0.01 the ODE route's multiplier, exp(1257),
    # overflowed float64 into an OverflowError.
    @pytest.mark.parametrize("ratio,delta", [(-1.5, 2.0), (-1.0, 2.0), (-2.0, 0.01)])
    @pytest.mark.parametrize("route,message", [
        (lambda p: asymptotic_variance(p, np.array([0.0, 1.0])), "decay D = .* is not > 0"),
        (lambda p: find_vmin(p, route="closed"), "decay D = .* is not > 0"),
        (integrate_variance, "period multiplier, .* is not below 1"),
        (find_vmin, "period multiplier, .* is not below 1"),
    ], ids=["asymptotic_variance", "find_vmin-closed", "integrate_variance", "find_vmin-ode"])
    def test_every_route_refuses(self, ratio, delta, route, message):
        p = params_from_ratios(fbar_over_fth=ratio, f1_over_fbar=0.3, delta_over_gamma=delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError, match=message):
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


def _sha256(items) -> str:
    h = hashlib.sha256()
    for name, val in items:
        h.update(name.encode())
        h.update(np.ascontiguousarray(val).tobytes() if isinstance(val, np.ndarray)
                 else repr(val).encode())
    return h.hexdigest()


def _tabulated_above():
    """A two-harmonic tabulated pump at 1.6 times threshold."""
    x = np.arange(128) * (2.0 * math.pi / 128)
    f_th = 25.0 / 5e-4
    samples = f_th * (1.6 + 0.9 * np.cos(x) + 0.3 * np.sin(2.0 * x))
    return ModelParams(gamma=1.0, gamma3=25.0, k=5e-4,
                       modulation=TabulatedPeriodic(period=math.pi, samples=tuple(samples)))


def _tabulated(samples):
    """The reference rates with a tabulated pump of period pi."""
    return ModelParams(gamma=1.0, gamma3=25.0, k=5e-4,
                       modulation=TabulatedPeriodic(period=math.pi, samples=tuple(samples)))


class TestFrozenBytes:
    """Regression freezes of the ODE routes: sha256 of the periodic orbit,
    the periodic variance, find_vmin's (v_min, t0, n0_at_t0) and the float
    values of single-time evaluations of the orbit and the pump, taken before
    the right-hand sides moved to scalar code.  A faster right-hand side must
    keep every byte."""

    POINTS = {
        "below": (lambda: params_from_ratios(fbar_over_fth=0.5, f1_over_fbar=1.0, phi=0.4),
                  "6b6e0951dffbdd1a1d9fcd2b908caeee21358f61e3a6797e57704ef68e3a434b"),
        "near": (lambda: params_from_ratios(fbar_over_fth=1.05, f1_over_fbar=0.75, phi=0.7),
                 "08c4fa5472c49426750d94c582e85eb4fe8d88bbdf977c0a277465e9edbf315c"),
        "sign_change": (lambda: params_from_ratios(fbar_over_fth=3.0, f1_over_fbar=2.0,
                                                   phi=1.1),
                        "97cf29773d8e3d0cd8bcbda5a24b65d3ce31a6e989a4524a00910585081de704"),
        "fast": (lambda: params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.8,
                                            delta_over_gamma=15.0),
                 "3a5c94d9830488ef8c7fadb1f3dce154521945b8316873ae6b2913a4840f31ea"),
        "tabulated": (_tabulated_above,
                      "123a626f77bdfcf117f123c87637e1019f94663cbdbe822c2db224b0263860c4"),
    }

    @pytest.mark.parametrize("name", list(POINTS))
    def test_ode_routes(self, name):
        make, want = self.POINTS[name]
        p = make()
        d = derive_params(p)
        traj = integrate_variance(p)
        r = find_vmin(p)
        times = [0.0, 0.37, -2.9, np.nextafter(d.period, 0.0), 7.0 * d.period + 0.1]
        got = _sha256([
            ("n0", traj.n0_ref.n0), ("V", traj.V),
            ("vmin", (r.v_min, r.t0, r.n0_at_t0)),
            ("interp", [float(traj.n0_ref.interp(t)) for t in times]),
            ("eps", [float(d.eps(t)) for t in times]),
        ])
        assert got == want

    # (orbit periods, variance periods), counted before the two period loops
    # became one driver; the below-threshold orbit is the exact zero orbit
    PERIODS = {"below": (0, 4), "near": (57, 4), "sign_change": (4, 4), "fast": (19, 11),
               "tabulated": (7, 4), "delta100": (87, 37)}

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
        "near": "a4c4c854f3dc78309fdd62705ef44a6d2a71a0895c37fcf49c41b9daa751a0fb",
        "sign_change": "0118b8697af4c02348b3528027573d264a361db980cab3f203a538859d6480ab",
        "fast": "7b6c2c8083a8156f29a4f9f90e9bc4b4be8ba0acba3a119c6895881c76b74018",
        "tabulated": "e46d64a203e533fd321bc60e7e04048ce6418528fd2e602841f479890874352e",
        "delta0.05": "1c6aca018509943e6034d5941da3abe4ed1518b9614885f2b711c8e5efaf49b1",
        "delta100": "86b91399d473dc92822f9bbb14559aad233ad1f252d5d8d3ba41006b1c842707",
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
        assert _sha256(items) == self.CLOSED[name]

    # sha256 of linearization_validity and of find_vmin's (v_min, t0,
    # n0_at_t0, validity_ratio) on both routes, for tabulated pumps: one
    # modulated, one flat and one whose spread is a single subnormal
    TABLES = {
        "modulated": (_tabulated_above,
                      "71ca90ccfe1201f1775610eabdb392a0690ef27f8e2404a44f901018129a938a"),
        "flat": (lambda: _tabulated([2.0 * 25.0 / 5e-4] * 64),
                 "7e4bbac1382be9be7e3b94686d3f1feb81f1009869c9206ab20102d42083d8bd"),
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
        assert _sha256(items) == want

    def test_negative_depth_sweep_cell(self):
        # sha256 of a sweep cell whose depth is negative (a phase-flipped pump)
        cells = sweep_vmin(params_from_ratios(phi=0.4), [1.6], [-0.75])
        assert _sha256([("cells", cells)]) == (
            "7be01683dd6414d9f1c8e7ca1e4d70e484bec1b420aec3adb25ea4ed95405433")

    def test_transient(self):
        # a non-periodic spline over a span that starts after t = 0; the
        # digest was taken at the parent of the commit that made the curve
        # refuse times outside its span, which 0.5 and 5.5 are
        traj = integrate_n0(params_from_ratios(fbar_over_fth=3.0, f1_over_fbar=2.0, phi=1.1),
                            t_span=(1.3, 4.0), n0_init=2.0e7, n_points=257)
        times = [1.3, 2.77, 4.0]
        got = _sha256([("n0", traj.n0), ("interp", [float(traj.interp(t)) for t in times])])
        assert got == (
            "ca4db8415971d0fd44ef2a796a8474368070b28e1a6dba131c6eb11e45c449a4")
        for t in (0.5, 5.5):
            with pytest.raises(InvalidParameterError, match="span"):
                traj.interp(t)
