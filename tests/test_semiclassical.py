"""Photon-number orbit: ODE attractor vs independent closed-form oracle.

The oracle here is a direct scipy.quad evaluation of the inverse photon
number as a memory integral over the pump history, written independently of
the library's own composite-Gauss tail quadrature.  For a harmonic pump
f(t) = fbar + f1*cos(delta*t + phi) the exponent integrates in closed form,
so the oracle needs no nested quadrature.
"""

import math

import numpy as np
import pytest
from scipy.integrate import RK45, quad, solve_ivp

from modnopo import (
    BelowThresholdError,
    ConvergenceError,
    InvalidParameterError,
    ModelParams,
    TabulatedPeriodic,
    asymptotic_n0,
    derive_params,
    integrate_n0,
    integrate_variance,
    params_from_ratios,
    periodic_steady_state,
    zero_trajectory,
)
from modnopo import semiclassical
from modnopo.semiclassical import _periodic_attractor, asymptotic_log_n0


def oracle_inverse_n0(p, t):
    """2*lam * integral over the past of the exponentiated pump excess."""
    d = derive_params(p)
    m = p.modulation
    g = p.gamma
    r = m.fbar / d.f_th
    a = m.f1 * g / (d.f_th * m.delta)

    def integrand(tau):
        lin = 2.0 * g * tau * (r - 1.0)
        osc = 2.0 * a * (
            math.sin(m.delta * (t + tau) + m.phi) - math.sin(m.delta * t + m.phi)
        )
        return math.exp(lin + osc)

    val, err = quad(integrand, -np.inf, 0.0, epsabs=0.0, epsrel=1e-11, limit=600)
    assert err < 1e-8 * val
    return 2.0 * d.lam * val


FIG_SETS = [
    dict(fbar_over_fth=3.0, f1_over_fbar=0.4, delta_over_gamma=2.0),
    dict(fbar_over_fth=3.0, f1_over_fbar=1.2, delta_over_gamma=2.0),
    dict(fbar_over_fth=2.0, f1_over_fbar=0.9, delta_over_gamma=1.3, phi=0.7),
    # the ends of the benchmark's delta ladder: hundreds of panels per
    # period at 0.05, hundreds of periods per decay length at 100
    dict(fbar_over_fth=2.5, f1_over_fbar=0.5, delta_over_gamma=0.05),
    dict(fbar_over_fth=2.5, f1_over_fbar=0.5, delta_over_gamma=100.0),
]


class TestClosedFormOracle:
    @pytest.mark.parametrize("kw", FIG_SETS)
    def test_asymptotic_matches_oracle(self, kw):
        p = params_from_ratios(**kw)
        d = derive_params(p)
        for t in np.linspace(0.0, d.period, 7):
            want = 1.0 / oracle_inverse_n0(p, float(t))
            got = float(asymptotic_n0(p, t))
            assert got == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("kw", FIG_SETS[:2])
    def test_ode_attractor_matches_oracle(self, kw):
        p = params_from_ratios(**kw)
        d = derive_params(p)
        orbit = periodic_steady_state(p)
        assert orbit.converged_periodic
        for t in np.linspace(0.0, d.period, 5):
            want = 1.0 / oracle_inverse_n0(p, float(t))
            assert float(orbit.interp(t)) == pytest.approx(want, rel=1e-6)

    def test_slow_modulation_matches_oracle(self):
        # deep slow cycles: the hardest regime for the tail quadrature
        p = params_from_ratios(f1_over_fbar=1.2, delta_over_gamma=0.25)
        for t in (0.0, 5.0, 12.0):
            want = 1.0 / oracle_inverse_n0(p, t)
            assert float(asymptotic_n0(p, t)) == pytest.approx(want, rel=1e-7)


class TestStationary:
    def test_reference_level_at_three_fth(self):
        # (fbar/f_th - 1) * gamma / lam = 2e8 at the standard point
        p = params_from_ratios()
        assert float(asymptotic_n0(p, 0.0)) == pytest.approx(2e8, rel=1e-9)
        orbit = periodic_steady_state(p)
        t = np.linspace(0.0, math.pi, 9)
        np.testing.assert_allclose(orbit.interp(t), 2e8, rtol=1e-7)

    def test_general_stationary_formula(self):
        for r in (1.3, 1.9, 3.7):
            p = params_from_ratios(fbar_over_fth=r)
            d = derive_params(p)
            want = (r - 1.0) * p.gamma / d.lam
            assert float(asymptotic_n0(p, 1.0)) == pytest.approx(want, rel=1e-9)


class TestRegimeEdges:
    def test_below_threshold_raises(self):
        p = params_from_ratios(fbar_over_fth=0.9)
        with pytest.raises(BelowThresholdError):
            asymptotic_n0(p, 0.0)

    def test_at_threshold_raises(self):
        p = params_from_ratios(fbar_over_fth=1.0)
        with pytest.raises(BelowThresholdError):
            asymptotic_log_n0(p, 0.0)

    def test_zero_trajectory_is_zero(self):
        p = params_from_ratios(fbar_over_fth=0.5)
        traj = zero_trajectory(p)
        assert traj.is_zero
        assert float(traj.interp(0.3)) == 0.0
        assert traj.max_n0() == 0.0


class TestTransient:
    def test_growth_saturates_onto_orbit(self):
        p = params_from_ratios(f1_over_fbar=0.4)
        orbit = periodic_steady_state(p)
        traj = integrate_n0(p, t_span=(0.0, 40.0), n0_init=10.0, n_points=401)
        # after ~40 lifetimes the transient is long gone
        tail_t = traj.t_grid[-1]
        assert float(traj.n0[-1]) == pytest.approx(float(orbit.interp(tail_t)), rel=1e-6)

    def test_transient_matches_independent_ivp(self):
        # independent right-hand side in n (not log n), coarse but unbiased
        p = params_from_ratios(f1_over_fbar=0.4)
        d = derive_params(p)

        def rhs(t, y):
            return 2.0 * y * (float(d.eps(t)) - p.gamma - d.lam * y)

        ref = solve_ivp(rhs, (0.0, 3.0), [1e6], rtol=1e-10, atol=1.0, dense_output=True)
        traj = integrate_n0(p, t_span=(0.0, 3.0), n0_init=1e6, n_points=31)
        np.testing.assert_allclose(traj.n0, ref.sol(traj.t_grid)[0], rtol=1e-6)


class TestOrbitShape:
    def test_orbit_is_periodic(self):
        p = params_from_ratios(f1_over_fbar=1.2)
        d = derive_params(p)
        orbit = periodic_steady_state(p)
        t = np.linspace(0.0, d.period, 11)
        np.testing.assert_allclose(
            orbit.interp(t + d.period), orbit.interp(t), rtol=1e-9
        )

    def test_helpers_bound_the_orbit(self):
        p = params_from_ratios(f1_over_fbar=1.2)
        orbit = periodic_steady_state(p)
        assert orbit.max_n0() >= orbit.mean_n0() > 0.0

    def test_fig2_reference_photon_numbers(self):
        # regression oracles for the standard point, frozen from this build
        # and cross-verified against the quad oracle above
        p_deep = params_from_ratios(f1_over_fbar=1.2)
        assert float(asymptotic_n0(p_deep, 2.64)) == pytest.approx(6.2272e7, rel=1e-3)
        p_shallow = params_from_ratios(f1_over_fbar=0.4)
        assert float(asymptotic_n0(p_shallow, 2.51)) == pytest.approx(1.7027e8, rel=1e-3)


def _bits(values) -> np.ndarray:
    """The float64 bit patterns of values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


class TestScalarInterp:
    """interp at one float takes a scalar branch (the ODE right-hand sides
    call it so); it must give the array path's element bit for bit."""

    def test_periodic_orbit(self):
        orbit = periodic_steady_state(params_from_ratios(f1_over_fbar=1.2, phi=0.3))
        T = orbit.period
        # every knot, random times over several periods both ways, and the edges
        t = np.concatenate([orbit.t_grid, np.random.default_rng(1501).uniform(-4 * T, 6 * T, 400),
                            [0.0, np.nextafter(T, 0.0), T, 5.0 * T, -3.0 * T + 0.25]])
        assert type(orbit.interp(0.5)) is float
        want = _bits(orbit.interp(t))
        assert (_bits([orbit.interp(float(x)) for x in t]) == want).all()
        # np.float64, the solver's time type, is a float too
        assert (_bits([orbit.interp(x) for x in t]) == want).all()

    def test_transient_outside_its_span(self):
        # inside its span a transient agrees bit for bit at every knot, at
        # random times and at both exact edges; outside it refuses rather
        # than extrapolate the cubic of ln n0 (2.2e18 at t = 9, where the
        # run over (1.3, 9.0) gives 2.2e8), at a float and in an array
        traj = integrate_n0(params_from_ratios(f1_over_fbar=0.4), t_span=(1.3, 4.0),
                            n0_init=1e7, n_points=101)
        t = np.concatenate([traj.t_grid, np.random.default_rng(1502).uniform(1.3, 4.0, 300),
                            [1.3, 4.0]])
        assert (_bits([traj.interp(float(x)) for x in t]) == _bits(traj.interp(t))).all()
        for x in (np.nextafter(1.3, 0.0), np.nextafter(4.0, 5.0), 0.0, 5.5, 9.0, math.nan):
            with pytest.raises(InvalidParameterError, match="span"):
                traj.interp(float(x))
            with pytest.raises(InvalidParameterError, match="span"):
                traj.interp(np.array([2.0, x]))

    def test_zero_orbit(self):
        zero = zero_trajectory(params_from_ratios(fbar_over_fth=0.5))
        got = zero.interp(0.3)
        assert type(got) is float and _bits(got) == _bits(0.0)
        assert (zero.interp(np.linspace(-1.0, 9.0, 7)) == 0.0).all()


def _edge_times(knots, T, seed):
    """t = 0, every knot, just below and at T, negative times and many
    periods out."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0, -0.0, np.nextafter(T, 0.0), T, -T, -0.25, -7.5 * T],
                           knots, -knots, rng.uniform(-50.0 * T, 50.0 * T, 300),
                           1e4 * T + knots, 1e6 * T + rng.uniform(0.0, T, 20)])


class TestPrebuiltInterp:
    """interp_at_float, the function the variance's right-hand side
    evaluates the orbit through, gives interp's bits, at a float and on an
    array."""

    @pytest.mark.parametrize("pump", ["harmonic", "tabulated"])
    def test_periodic_orbit(self, pump):
        p = (params_from_ratios(f1_over_fbar=1.2, phi=0.3) if pump == "harmonic"
             else _tabulated_pump())
        orbit = periodic_steady_state(p)
        T = orbit.period
        t = _edge_times(np.append(orbit.t_grid, T), T, 1506)
        at = orbit.interp_at_float()
        got = [at(float(x)) for x in t]
        assert all(type(v) is float for v in got)
        assert (_bits(got) == _bits([orbit.interp(float(x)) for x in t])).all()
        assert (_bits(got) == _bits(orbit.interp(t))).all()

    def test_zero_orbit(self):
        zero = zero_trajectory(params_from_ratios(fbar_over_fth=0.5))
        t = _edge_times(zero.t_grid, zero.period, 1507)
        at = zero.interp_at_float()
        got = [at(float(x)) for x in t]
        assert all(type(v) is float for v in got)
        assert (_bits(got) == _bits(0.0)).all() and (_bits(zero.interp(t)) == _bits(0.0)).all()

    def test_transient_within_its_span(self):
        traj = integrate_n0(params_from_ratios(f1_over_fbar=0.4), t_span=(1.3, 4.0),
                            n0_init=1e7, n_points=101)
        t = np.concatenate([traj.t_grid, np.random.default_rng(1508).uniform(1.3, 4.0, 300)])
        at = traj.interp_at_float()
        assert (_bits([at(float(x)) for x in t]) == _bits(traj.interp(t))).all()
        with pytest.raises(InvalidParameterError, match="span"):
            at(4.5)


def _tabulated_pump():
    """A two-harmonic tabulated pump at 1.6 times threshold."""
    x = np.arange(128) * (2.0 * math.pi / 128)
    f_th = 25.0 / 5e-4
    samples = f_th * (1.6 + 0.9 * np.cos(x) + 0.3 * np.sin(2.0 * x))
    return ModelParams(gamma=1.0, gamma3=25.0, k=5e-4,
                       modulation=TabulatedPeriodic(period=math.pi, samples=tuple(samples)))


class TestRK45:
    """The ODE routes' own RK45 against the integrator it mirrors: solve_ivp's
    RK45 with t_eval and dense output must give the same float bits on the
    grid and at the end of every call the routes make."""

    @pytest.fixture
    def calls(self, monkeypatch):
        real = semiclassical._rk45
        routes = []

        def checked(rhs, t0, t1, y0, t_eval, rtol, atol, route):
            grid, end = real(rhs, t0, t1, y0, t_eval, rtol, atol, route)
            ref = solve_ivp(lambda t, y: rhs(float(t), y.tolist()), (t0, t1), y0,
                            method="RK45", t_eval=t_eval, rtol=rtol, atol=atol,
                            dense_output=True)
            assert ref.success
            assert grid.shape == ref.y.shape and (_bits(grid) == _bits(ref.y)).all(), (route, t0)
            assert (_bits(end) == _bits(ref.sol(t1))).all(), (route, t0)
            routes.append(route)
            return grid, end

        monkeypatch.setattr(semiclassical, "_rk45", checked)
        return routes

    def test_both_routes_every_period(self, calls):
        # seeded points over delta 0.3-15 and f1/fbar 0-2, the pump ratio in
        # each twelfth of 0.4-3.9 (below and above threshold), a tabulated
        # pump, and a stiff flat pump whose steps hold one grid point or none
        rng = np.random.default_rng(2111)
        points = [params_from_ratios(delta_over_gamma=rng.uniform(0.3, 15.0),
                                     fbar_over_fth=0.4 + 3.5 * (k + rng.uniform()) / 12,
                                     f1_over_fbar=rng.uniform(0.0, 2.0),
                                     phi=rng.uniform(0.0, 2.0 * math.pi))
                  for k in range(12)]
        for p in [*points, _tabulated_pump(), params_from_ratios(fbar_over_fth=1e3)]:
            integrate_variance(p)
        assert calls.count("the variance") >= 3 * 14
        assert calls.count("the photon-number orbit") >= 3 * 12

    def test_transient(self, calls):
        p = params_from_ratios(f1_over_fbar=0.4)
        integrate_n0(p, t_span=(0.0, 40.0), n0_init=10.0, n_points=401)
        integrate_n0(p, t_span=(1.3, 4.0), n0_init=1e7, n_points=101)
        assert calls == ["photon-number"] * 2

    def test_tableau_is_scipys(self):
        for name in "CABEP":
            ours, theirs = getattr(semiclassical, f"_{name}"), getattr(RK45, name)
            assert ours.shape == theirs.shape and (_bits(ours) == _bits(theirs)).all(), name

    def test_nan_rhs_raises_naming_the_route(self):
        # NaN from t = 0.3 on: scipy fails there too; NaN from the start,
        # where scipy's step size turns NaN and it never stops, fails at once
        def nan_late(t, y):
            return (math.nan if t > 0.3 else -y[0],)

        ref = solve_ivp(lambda t, y: nan_late(float(t), y.tolist()), (0.0, 1.0), [1.0],
                        t_eval=np.linspace(0.0, 1.0, 5), rtol=1e-10, atol=1e-12)
        assert ref.status == -1
        d = derive_params(params_from_ratios())
        for rhs in (nan_late, lambda t, y: (math.nan,)):
            with pytest.raises(RuntimeError, match=(
                    r"^the variance integration failed: Required step size is less than "
                    r"spacing between numbers\.$")):
                _periodic_attractor(d, rhs, [1.0], None, "the variance", 1.0, 0.5)

    @pytest.mark.parametrize("decay", [0.0, -1.0, math.nan, -math.inf])
    def test_decay_not_above_zero_is_refused_before_any_step(self, decay):
        # a rate far over the step budget: the existence rule comes first
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (-y[0],)

        d = derive_params(params_from_ratios())
        with pytest.raises(ConvergenceError, match=(
                rf"^the variance: one period's decay D = {decay:.3g} is not > 0, so its "
                rf"multiplier exp\(-D\) does not shrink a deviation and no periodic state "
                rf"attracts$")):
            _periodic_attractor(d, rhs, [1.0], None, "the variance", 1e12, decay)
        assert calls == []

    @staticmethod
    def _drift(monkeypatch, decay, most):
        """Run the loop on y' = 1, which never settles (each period moves y
        by T), and return the periods it integrated; more than ``most``
        fails at once."""
        periods = []
        rk45 = semiclassical._rk45

        def counted(*args):
            periods.append(args[1])
            assert len(periods) <= most, f"ran past {most} periods"
            return rk45(*args)

        monkeypatch.setattr(semiclassical, "_rk45", counted)
        d = derive_params(params_from_ratios())
        gap = lambda prev, now: (float(np.max(np.abs(now - prev))), semiclassical.PERIODIC_TOL)
        with pytest.raises(ConvergenceError) as err:
            _periodic_attractor(d, lambda t, y: (1.0,), [0.0], gap, "the variance", 1.0, decay)
        return len(periods), str(err.value)

    def test_decay_too_small_to_shrink_m_is_refused_after_two_periods(self, monkeypatch):
        # exp(-1e-300) rounds to 1; the predicted count divides by D, not by
        # 1 - m or ln m, so it neither divides by zero nor waits
        periods, message = self._drift(monkeypatch, 1e-300, 2)
        assert periods == 2
        assert message.startswith("the variance would need about 1.96e+301 periods"), message

    @pytest.mark.parametrize("decay,need", [(1e3, "2.02"), (math.inf, "2")])
    def test_fast_decay_gets_a_prediction(self, monkeypatch, decay, need):
        # exp(-D) underflows to 0 here; the loop skipped its prediction at a
        # zero multiplier, so a loop that never settles ran to MAX_PERIODS
        periods, message = self._drift(monkeypatch, decay, 15)
        assert periods == 15
        assert message == (f"the variance did not become periodic in 15 periods, over twice "
                           f"the {need} predicted after two (it chases integrator noise)")

    def test_change_below_rounding_is_no_convergence(self):
        # a state that stands still in float64 while exp(-D) rounds to 1
        # (the variance below threshold at delta 1e308) is not shown to be
        # periodic
        d = derive_params(params_from_ratios())
        gap = lambda prev, now: (0.0, semiclassical.PERIODIC_TOL)
        with pytest.raises(ConvergenceError, match="changed by only 0 in period 2, but with "
                                                   "decay D = 1e-300 a period it may still sit"):
            _periodic_attractor(d, lambda t, y: (0.0,), [0.0], gap, "the variance", 1.0, 1e-300)

    def test_backward_span_or_too_few_points_is_refused(self):
        # the integrator runs forward only; one point or none used to fail
        # with a bare IndexError or scipy's ValueError
        p = params_from_ratios()
        with pytest.raises(InvalidParameterError, match="forward"):
            integrate_n0(p, t_span=(3.0, 1.0), n0_init=1.0)
        for n in (0, 1):
            with pytest.raises(InvalidParameterError, match="n_points"):
                integrate_n0(p, t_span=(0.0, 1.0), n0_init=1.0, n_points=n)
        # an endless span hung; a nan or inf start failed deep in the
        # integrator or the spline, and a negative one with a bare ValueError
        for span in ((0.0, math.inf), (-math.inf, 1.0)):
            with pytest.raises(InvalidParameterError, match="finite"):
                integrate_n0(p, t_span=span, n0_init=1.0)
        for n0 in (math.nan, math.inf, -1.0):
            with pytest.raises(InvalidParameterError, match="n0_init"):
                integrate_n0(p, t_span=(0.0, 1.0), n0_init=n0)
