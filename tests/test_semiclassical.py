"""Photon-number orbit: ODE attractor vs independent closed-form oracle.

The oracle here is a direct scipy.quad evaluation of the inverse photon
number as a memory integral over the pump history, written independently of
the library's own composite-Gauss tail quadrature.  For a harmonic pump
f(t) = fbar + f1*cos(delta*t + phi) the exponent integrates in closed form,
so the oracle needs no nested quadrature.
"""

import math
import re

import numpy as np
import pytest
from scipy.integrate import RK45, quad, solve_ivp

from helpers import bits, tabulated_pump
from modnopo import (
    BelowThresholdError,
    ConvergenceError,
    CrossCheckError,
    InvalidParameterError,
    asymptotic_n0,
    derive_params,
    integrate_n0,
    integrate_variance,
    params_from_ratios,
    periodic_steady_state,
    sweep_vmin,
    zero_trajectory,
)
from modnopo import semiclassical
from modnopo.model import Regime, regime_classify
from modnopo.semiclassical import (_closing_pass, _period_pass, _require_passes,
                                   asymptotic_log_n0)


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
        for t in np.linspace(0.0, d.period, 5):
            want = 1.0 / oracle_inverse_n0(p, float(t))
            assert float(orbit.interp(t)) == pytest.approx(want, rel=1e-6)

    def test_slow_modulation_matches_oracle(self):
        # deep slow cycles: the hardest regime for the tail quadrature
        p = params_from_ratios(f1_over_fbar=1.2, delta_over_gamma=0.25)
        for t in (0.0, 5.0, 12.0):
            want = 1.0 / oracle_inverse_n0(p, t)
            assert float(asymptotic_n0(p, t)) == pytest.approx(want, rel=1e-7)

    def test_disagreeing_routes_are_refused(self, monkeypatch):
        # the ODE orbit is checked against the closed form at 64 points; a
        # closed form off by 1e-3 fails that check, and a sweep cell at the
        # point carries the failure instead of a minimum
        closed = semiclassical.asymptotic_n0
        monkeypatch.setattr(semiclassical, "asymptotic_n0",
                            lambda p, t: closed(p, t) * (1.0 + 1e-3))
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5)
        message = ("ODE and closed-form photon numbers disagree: max relative error "
                   r"9\.990e-04 > 0\.0001")
        with pytest.raises(CrossCheckError, match=message):
            periodic_steady_state(p)
        (cell,) = sweep_vmin(p, [2.0], [0.5])
        assert cell.error is not None and cell.error.startswith("CrossCheckError: ")
        assert re.search(message, cell.error) and math.isnan(cell.v_min)


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


_NO_INTERPOLANT = r"^a transient from integrate_n0 has no interpolant; its t_grid and n0 are the result$"


def _transient():
    return integrate_n0(params_from_ratios(f1_over_fbar=0.4), t_span=(1.3, 4.0),
                        n0_init=1e7, n_points=101)


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
        want = bits(orbit.interp(t))
        assert (bits([orbit.interp(float(x)) for x in t]) == want).all()
        # np.float64, the solver's time type, is a float too
        assert (bits([orbit.interp(x) for x in t]) == want).all()

    def test_transient_outside_its_span(self):
        # a transient's result is its grid: interp refuses, at a float and
        # on an array, past each edge of its span (1.3, 4.0), far out and at
        # NaN, with one error that points to t_grid and n0
        traj = _transient()
        for x in (np.nextafter(1.3, 0.0), np.nextafter(4.0, 5.0), 0.0, 5.5, 9.0, math.nan):
            with pytest.raises(ValueError, match=_NO_INTERPOLANT):
                traj.interp(float(x))
            with pytest.raises(ValueError, match=_NO_INTERPOLANT):
                traj.interp(np.array([2.0, x]))

    def test_zero_orbit(self):
        zero = zero_trajectory(params_from_ratios(fbar_over_fth=0.5))
        got = zero.interp(0.3)
        assert type(got) is float and bits(got) == bits(0.0)
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
             else tabulated_pump())
        orbit = periodic_steady_state(p)
        T = orbit.period
        t = _edge_times(np.append(orbit.t_grid, T), T, 1506)
        at = orbit.interp_at_float()
        got = [at(float(x)) for x in t]
        assert all(type(v) is float for v in got)
        assert (bits(got) == bits([orbit.interp(float(x)) for x in t])).all()
        assert (bits(got) == bits(orbit.interp(t))).all()

    def test_zero_orbit(self):
        zero = zero_trajectory(params_from_ratios(fbar_over_fth=0.5))
        t = _edge_times(zero.t_grid, zero.period, 1507)
        at = zero.interp_at_float()
        got = [at(float(x)) for x in t]
        assert all(type(v) is float for v in got)
        assert (bits(got) == bits(0.0)).all() and (bits(zero.interp(t)) == bits(0.0)).all()

    def test_transient_within_its_span(self):
        # inside its span too a transient has no interpolant: interp_at_float
        # refuses before building anything, and interp refuses at every
        # knot, at random interior times and at both exact edges
        traj = _transient()
        with pytest.raises(ValueError, match=_NO_INTERPOLANT):
            traj.interp_at_float()
        t = np.concatenate([traj.t_grid, np.random.default_rng(1508).uniform(1.3, 4.0, 300),
                            [1.3, 4.0]])
        with pytest.raises(ValueError, match=_NO_INTERPOLANT):
            traj.interp(t)
        for x in t:
            with pytest.raises(ValueError, match=_NO_INTERPOLANT):
                traj.interp(float(x))


class TestRK45:
    """The ODE routes' own RK45 against the integrator it mirrors: solve_ivp's
    RK45 with t_eval and dense output must give the same float bits on the
    grid and at the end of every call the routes make."""

    @pytest.fixture
    def calls(self, monkeypatch):
        real = semiclassical._rk45
        routes = []

        def checked(rhs, t0, t1, y0, t_eval, rtol, route):
            grid, end = real(rhs, t0, t1, y0, t_eval, rtol, route)
            ref = solve_ivp(lambda t, y: rhs(float(t), y.tolist()), (t0, t1), y0,
                            method="RK45", t_eval=t_eval, rtol=rtol,
                            atol=semiclassical.ODE_ATOL, dense_output=True)
            assert ref.success
            assert grid.shape == ref.y.shape and (bits(grid) == bits(ref.y)).all(), (route, t0)
            assert (bits(end) == bits(ref.sol(t1))).all(), (route, t0)
            routes.append(route)
            return grid, end

        monkeypatch.setattr(semiclassical, "_rk45", checked)
        return routes

    def test_both_routes_every_period(self, calls):
        # seeded points over delta 0.3-15 and f1/fbar 0-2, the pump ratio in
        # each twelfth of 0.4-3.9 (below and above threshold), a tabulated
        # pump, and a stiff flat pump whose steps hold one grid point or none;
        # each point shoots its orbit in two passes and its variance in three
        rng = np.random.default_rng(2111)
        points = [params_from_ratios(delta_over_gamma=rng.uniform(0.3, 15.0),
                                     fbar_over_fth=0.4 + 3.5 * (k + rng.uniform()) / 12,
                                     f1_over_fbar=rng.uniform(0.0, 2.0),
                                     phi=rng.uniform(0.0, 2.0 * math.pi))
                  for k in range(12)]
        above = 0
        for p in [*points, tabulated_pump(), params_from_ratios(fbar_over_fth=1e3)]:
            del calls[:]
            traj = integrate_variance(p)
            orbit = 2 if regime_classify(p) is Regime.ABOVE_THRESHOLD else 0
            above += orbit > 0
            assert calls == ["the photon-number orbit"] * orbit + ["the variance"] * 3
            assert (traj.n0_ref.periods_to_converge, traj.periods_to_converge) == (orbit, 3)
        assert above == 12

    def test_transient(self, calls):
        p = params_from_ratios(f1_over_fbar=0.4)
        integrate_n0(p, t_span=(0.0, 40.0), n0_init=10.0, n_points=401)
        integrate_n0(p, t_span=(1.3, 4.0), n0_init=1e7, n_points=101)
        assert calls == ["photon-number"] * 2

    def test_tableau_is_scipys(self):
        for name in "CABEP":
            ours, theirs = getattr(semiclassical, f"_{name}"), getattr(RK45, name)
            assert ours.shape == theirs.shape and (bits(ours) == bits(theirs)).all(), name

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
                _period_pass(d, rhs, [1.0], "the variance")

    @pytest.mark.parametrize("decay", [0.0, -1.0, math.nan, -math.inf])
    def test_decay_not_above_zero_is_refused_before_any_step(self, monkeypatch, decay):
        # a rate far over the step budget: the existence rule comes first,
        # and both routes check it before their first pass
        monkeypatch.setattr(semiclassical, "_rk45", None)
        d = derive_params(params_from_ratios())
        message = (rf"^the variance: one period's decay D = {decay:.3g} is not > 0, so its "
                   rf"multiplier exp\(-D\) does not shrink a deviation and no periodic state "
                   rf"attracts$")
        with pytest.raises(ConvergenceError, match=message):
            _require_passes(d, "the variance", 1e12, decay)
        if decay == 0.0:
            with pytest.raises(ConvergenceError, match="decay D = 0 is not > 0"):
                integrate_variance(params_from_ratios(fbar_over_fth=-1.0))

    @staticmethod
    def _close(monkeypatch, rhs, y0, decay):
        """_closing_pass from y0 with the period decay D, and the number of
        one-period passes it ran."""
        passes = []
        rk45 = semiclassical._rk45

        def counted(*args):
            passes.append(args[1])
            return rk45(*args)

        monkeypatch.setattr(semiclassical, "_rk45", counted)
        d = derive_params(params_from_ratios())
        try:
            return _closing_pass(d, rhs, y0, "the variance", decay, abs(y0[0])), len(passes)
        except ConvergenceError as err:
            return str(err), len(passes)

    def test_decay_too_small_to_shrink_m_is_refused_in_one_pass(self, monkeypatch):
        # exp(-1e-300) rounds to 1, and 1 - exp(-D) is taken as -expm1(-D),
        # so y' = 1, which never settles, is refused after its one pass with
        # the bound T/(1 - exp(-D)) and neither divides by zero nor waits
        message, passes = self._close(monkeypatch, lambda t, y: (1.0,), [1.0], 1e-300)
        assert passes == 1
        assert message == ("the variance may sit 3.14e+300 from its periodic state, over "
                           "CROSS_TOL = 0.0001: one period from its shot start changed it "
                           "by 3.14, and a period's decay is D = 1e-300")

    @pytest.mark.parametrize("decay", [1e3, math.inf])
    def test_fast_decay_answers_in_one_pass(self, monkeypatch, decay):
        # exp(-D) underflows to 0 here: a start one period returns to is
        # answered by that one pass, its change floored at a rounding of 1.0
        (offsets, grid, curve), passes = self._close(monkeypatch, lambda t, y: (0.0,), [1.0],
                                                     decay)
        assert passes == 1
        assert (grid == 1.0).all() and offsets.size == grid.size == semiclassical.N_GRID
        assert curve(0.37) == 1.0

    def test_change_below_rounding_is_no_convergence(self, monkeypatch):
        # a state that stands still in float64 while exp(-D) rounds to 1
        # (the variance below threshold at delta 1e308) is not shown to be
        # periodic: its change counts as a rounding of the start
        message, passes = self._close(monkeypatch, lambda t, y: (0.0,), [1.0], 1e-300)
        assert passes == 1
        assert message == ("the variance may sit 2.22e+284 from its periodic state, over "
                           "CROSS_TOL = 0.0001: one period from its shot start changed it "
                           "by 2.22e-16, and a period's decay is D = 1e-300")

    @pytest.mark.parametrize("fbar,delta", [(50.0, 1e17), (1e3, 1e18)])
    def test_pass_too_short_to_show_its_offset_is_refused_by_the_bound(self, fbar, delta):
        # one period moves ln n0 by D up to rounding, so u(T) - u0 - D comes
        # out positive and 1 - m e^(u(T) - u0) has no logarithm; the orbit
        # closes from the pass's end, and the bound, not a math domain
        # error, refuses it
        p = params_from_ratios(fbar_over_fth=fbar, f1_over_fbar=0.0, delta_over_gamma=delta)
        with pytest.raises(ConvergenceError, match=r"^the photon-number orbit may sit .* "
                                                   r"from its periodic state, over CROSS_TOL"):
            periodic_steady_state(p)

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
