"""Mean photon number of the subharmonic modes.

Two independent routes compute the same periodic orbit n0(t):

* integrate_n0 / periodic_steady_state: direct adaptive integration of the
  mean-field equation dn0/dt = 2 n0 (eps(t) - gamma - lam n0), carried out
  in u = ln(n0) so positivity is structural and 8-decade swings of n0 cost
  nothing in accuracy.  The integrator, _rk45, is the one both ODE routes
  use: scipy's RK45 taken operation for operation on Python floats, so it
  gives scipy's bits without scipy's per-step machinery;

* asymptotic_n0: the closed-form periodic solution, a backward-in-time
  Laplace-type integral 1/n0(t) = 2 lam * int_0^inf exp(-2 int_0^s
  (eps(t-u) - gamma) du) ds, which converges only when the period-averaged
  pump exceeds threshold.

periodic_steady_state cross-checks one route against the other; the pair is
also exercised as a randomized property in the test suite.  Keeping the
routes independent is the point: neither shares integration machinery with
the other beyond the pump profile itself.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import _tailquad
from .errors import (BelowThresholdError, ConvergenceError, CrossCheckError,
                     InvalidParameterError)
from .model import Curve, DerivedParams, ModelParams, Regime, derive_params, regime_classify

# Constants of the period loop both ODE routes share, and of the orbit's
# cross-check against the closed form.
PERIODIC_TOL = 1e-8
MAX_PERIODS = 10_000
N_GRID = 2048
CROSS_TOL = 1e-4
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12
# RK45 steps one period of either ODE route may take.  RK45 is stable for
# steps up to about 3.3/r on a damping of rate r, so a period takes about
# r*T/3.3 steps whatever the tolerance (flat pump at delta=2: 1,995 steps
# counted against 1,902 estimated at pump ratio 1e3, 19,073 against 19,038
# at 1e4).  _rk45 takes one component (the orbit) or two (the variance).
# At pump ratio 1e3 a step of the orbit costs 11-16 us and one of the
# variance 16-20 us on a 2-vCPU x86 VM (22-25 us and 30-37 us with a
# generic n-component step, 69-75 us for the orbit through scipy's
# solve_ivp), and the period iteration runs several periods, so the budget
# is a few seconds per period: pump ratio 1e4 still runs (a sweep cell in
# 5.2 s, 6.9 s with the generic step, 15.1 s through solve_ivp), 1e6
# would need about 2e6 steps per period.
_STEP_BUDGET = 100_000


@dataclass
class SemiclassicalTrajectory:
    """Photon-number curve n0(t) on a time grid.

    For converged periodic orbits t_grid covers exactly one period [0, T)
    and interp() evaluates the periodic extension at any time.  n0 can
    underflow to zero at double precision during deep below-threshold
    excursions of the pump; the internal log-grid keeps interpolation
    accurate through those dips.
    """

    t_grid: np.ndarray
    n0: np.ndarray
    converged_periodic: bool = False
    periods_to_converge: int = 0
    period: float = 0.0
    _log_n0: Curve | None = field(default=None, repr=False)
    is_zero: bool = field(init=False, default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_zero = not np.any(self.n0 > 0.0)

    def interp(self, t):
        """n0 at any time on a periodic orbit, and within t_span on a transient.

        A float t gives a float, with the bits of the array path's element;
        anything else gives an array.
        """
        if isinstance(t, float):
            return self.interp_at_float()(float(t))
        if self.is_zero:
            return np.zeros_like(np.asarray(t, dtype=float))
        if self._log_n0 is None:
            raise ValueError("trajectory carries no interpolant")
        return np.exp(self._log_n0(t))

    def interp_at_float(self):
        """interp as a function of one Python float, prebuilt, with its
        bits: the variance's right-hand side evaluates the orbit through it.
        It keeps np.exp, whose rounding math.exp does not share."""
        if self.is_zero:
            return lambda t: 0.0
        if self._log_n0 is None:
            raise ValueError("trajectory carries no interpolant")
        log_n0, exp = self._log_n0.at_float(), np.exp
        return lambda t: float(exp(log_n0(t)))

    def max_n0(self) -> float:
        return float(np.max(self.n0))

    def mean_n0(self) -> float:
        return float(np.mean(self.n0))


def zero_trajectory(p: ModelParams) -> SemiclassicalTrajectory:
    """The empty-cavity orbit n0 = 0, an exact fixed point at any pump."""
    d = derive_params(p)
    t = np.linspace(0.0, d.period, N_GRID, endpoint=False)
    return SemiclassicalTrajectory(
        t_grid=t, n0=np.zeros(N_GRID), converged_periodic=True,
        periods_to_converge=0, period=d.period,
    )


def classical_orbit(p: ModelParams) -> SemiclassicalTrajectory:
    """The periodic orbit above threshold, the empty cavity at or below it."""
    if regime_classify(p) is Regime.ABOVE_THRESHOLD:
        return periodic_steady_state(p)
    return zero_trajectory(p)


def _du_dt(d: DerivedParams):
    gamma, lam = d.gamma, d.lam
    eps, exp = d.eps_at_float(), np.exp

    def rhs(t, y):
        # Clip keeps rejected trial steps of the solver from overflowing;
        # any physical orbit stays far below exp(700).  Scalar floats carry
        # the arithmetic (a NaN u stays NaN); np.exp keeps numpy's bits.
        (u,) = y
        n0 = float(exp(u if not u > 700.0 else 700.0))
        return (2.0 * (eps(t) - gamma - lam * n0),)

    return rhs


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 19 (1980)) with Shampine's quartic dense output, written in the fractions
# of scipy's RK45, so that every coefficient carries scipy's bits.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_EXPONENT = -1 / 5      # -1/(error estimator order + 1)


def _rms(x: np.ndarray) -> float:
    """scipy's error norm, the root mean square of x."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _rk45(rhs, t0: float, t1: float, y0, t_eval: np.ndarray, rtol: float, atol: float,
          route: str):
    """RK45 from t0 to t1 > t0 on one or two components y0: y on the
    ascending t_eval as an (n, len(t_eval)) array, and y at t1 from the last
    step's dense output.

    Takes scipy's RK45 under solve_ivp(t_eval=..., dense_output=True)
    operation for operation, so it gives scipy's bits: the same initial
    step, step control and dense output.  Each sum scipy forms with np.dot
    over two or more terms stays a dot on scipy's operand shapes (this
    BLAS evaluates them as fused multiply-add chains); a one-term sum, the
    first stage's and the one-component norm's, is a float product.  A
    step's stages, update, error scale and error norm are straight-line
    code on Python floats, one body for each state size; rhs(t, y) takes
    and returns a sequence of floats.  A step that must shrink below ten
    float spacings of t (a NaN error does that) raises RuntimeError naming
    the route.
    """
    n = len(y0)
    rtol = max(rtol, 100 * np.finfo(float).eps)
    y = np.array(y0, dtype=float)
    f = np.array(rhs(t0, y.tolist()))

    # The first step, as scipy's select_initial_step takes it for order 4,
    # on arrays that overflow to inf and nan silently, as the floats do.
    with np.errstate(over="ignore", invalid="ignore"):
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
        f1 = np.array(rhs(t0 + h0, (y + h0 * f).tolist()))
        d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t1 - t0)

    # The stage matrix, and the bound K[:s].T.dot of each sum over it:
    # np.dot's own code without np.dot's dispatch, which costs as much again.
    K = np.empty((7, n))
    Kf = K.reshape(7 * n)
    dot2, dot3, dot4, dot5, dot_B, dot_E, dot_P = (K[:s].T.dot for s in (2, 3, 4, 5, 6, 7, 7))
    a1 = float(_A[1, 0])
    a2, a3, a4, a5 = (_A[s, :s] for s in (2, 3, 4, 5))
    c1, c2, c3, c4, c5 = _C[1:].tolist()

    if n == 1:
        def attempt(t, h, y, f):
            """(y, f at t + h, error norm) of one step of h from (t, y, f)."""
            (u,), (k,) = y, f
            Kf[0] = k
            Kf[1] = rhs(t + c1 * h, (u + k * a1 * h,))[0]
            Kf[2] = rhs(t + c2 * h, (u + dot2(a2).item() * h,))[0]
            Kf[3] = rhs(t + c3 * h, (u + dot3(a3).item() * h,))[0]
            Kf[4] = rhs(t + c4 * h, (u + dot4(a4).item() * h,))[0]
            Kf[5] = rhs(t + c5 * h, (u + dot5(a5).item() * h,))[0]
            u_new = u + h * dot_B(_B).item()
            Kf[6] = k = rhs(t + h, (u_new,))[0]
            # a NaN-propagating max, as np.maximum is
            a, b = abs(u), abs(u_new)
            x = dot_E(_E).item() * h / (atol + (b if b > a or b != b else a) * rtol)
            return (u_new,), (k,), math.sqrt(x * x)
    else:
        x = np.empty(2)
        root_2 = 2 ** 0.5

        def attempt(t, h, y, f):
            """(y, f at t + h, error norm) of one step of h from (t, y, f)."""
            (v, w), (kv, kw) = y, f
            Kf[0], Kf[1] = kv, kw
            Kf[2], Kf[3] = rhs(t + c1 * h, (v + kv * a1 * h, w + kw * a1 * h))
            dv, dw = dot2(a2).tolist()
            Kf[4], Kf[5] = rhs(t + c2 * h, (v + dv * h, w + dw * h))
            dv, dw = dot3(a3).tolist()
            Kf[6], Kf[7] = rhs(t + c3 * h, (v + dv * h, w + dw * h))
            dv, dw = dot4(a4).tolist()
            Kf[8], Kf[9] = rhs(t + c4 * h, (v + dv * h, w + dw * h))
            dv, dw = dot5(a5).tolist()
            Kf[10], Kf[11] = rhs(t + c5 * h, (v + dv * h, w + dw * h))
            dv, dw = dot_B(_B).tolist()
            y_new = v_new, w_new = v + h * dv, w + h * dw
            Kf[12], Kf[13] = f_new = rhs(t + h, y_new)
            ev, ew = dot_E(_E).tolist()
            # a NaN-propagating max, as np.maximum is
            a, b = abs(v), abs(v_new)
            x[0] = ev * h / (atol + (b if b > a or b != b else a) * rtol)
            a, b = abs(w), abs(w_new)
            x[1] = ew * h / (atol + (b if b > a or b != b else a) * rtol)
            return y_new, f_new, math.sqrt(x.dot(x)) / root_2

    te = t_eval.tolist()
    steps = []          # (grid points, t_old, h, y_old, Q) of each step that holds some
    i = 0
    t = t0
    y, f = tuple(y.tolist()), tuple(f.tolist())
    while t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise RuntimeError(f"{route} integration failed: Required step size "
                                   "is less than spacing between numbers.")
            t_new = t + h_abs
            if t_new > t1:
                t_new = t1
            h = h_abs = t_new - t
            y_new, f_new, error_norm = attempt(t, h, y, f)
            # scipy's SAFETY 0.9, MAX_FACTOR 10 and MIN_FACTOR 0.2
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** _EXPONENT)
            rejected = True
        t_old, t, y_old, y, f = t, t_new, y, y_new, f_new
        j = bisect_right(te, t)
        if j > i:
            steps.append((j - i, t_old, h, y_old, dot_P(_P)))
            i = j

    # Each step's quartic at its grid points, the elementwise work done for
    # all steps at once: y = h * Q.p + y_old, p = (x, x^2, x^3, x^4) by
    # running products, x = (t - t_old)/h.
    m, t_olds, hs, y_olds, Qs = zip(*steps)
    h_at = np.repeat(hs, m)
    x = (t_eval - np.repeat(t_olds, m)) / h_at
    p = np.empty((4, x.size))
    p[0] = x
    for k in 1, 2, 3:
        np.multiply(p[k - 1], x, out=p[k])
    ends = np.cumsum(m).tolist()
    qp = np.hstack([q.dot(p[:, b - k:b]) for q, k, b in zip(Qs, m, ends)])
    out = h_at * qp + np.repeat(np.array(y_olds).T, m, axis=1)
    # the last step's quartic at x = 1
    return out, np.array(y_old) + h * np.dot(dot_P(_P), np.ones(4))


def integrate_n0(
    p: ModelParams,
    t_span: tuple[float, float],
    n0_init: float,
    n_points: int = 1000,
) -> SemiclassicalTrajectory:
    """Integrate the photon-number equation over t_span from n0_init.

    n0_init = 0 returns the exact zero fixed point without touching the
    integrator.  Positive starts are integrated in u = ln n0.  t_span must
    run forward between finite times, n0_init is finite and n_points is at
    least 2.
    """
    if not 0.0 <= n0_init < math.inf:
        raise InvalidParameterError(f"n0_init must be finite and >= 0, got {n0_init}")
    if not math.isfinite(t_span[0]) or not math.isfinite(t_span[1]):
        raise InvalidParameterError(f"t_span must be finite, got {t_span}")
    if not t_span[1] > t_span[0]:
        raise InvalidParameterError(f"t_span must run forward, got {t_span}")
    if n_points < 2:
        raise InvalidParameterError(f"n_points must be at least 2, got {n_points}")
    d = derive_params(p)
    t_eval = np.linspace(t_span[0], t_span[1], n_points)
    if n0_init == 0.0:
        return SemiclassicalTrajectory(t_grid=t_eval, n0=np.zeros(n_points),
                                       period=d.period)
    u = _rk45(_du_dt(d), float(t_span[0]), float(t_span[1]), [math.log(n0_init)], t_eval,
              ODE_RTOL, ODE_ATOL, "photon-number")[0][0]
    with np.errstate(under="ignore"):
        n0 = np.exp(u)
    return SemiclassicalTrajectory(t_grid=t_eval, n0=n0, period=d.period,
                                   _log_n0=Curve(u, knots=t_eval))


def _periodic_attractor(d: DerivedParams, rhs, y0: list, gap, route: str, rate: float,
                        decay: float):
    """Integrate rhs period by period from y0 until its first component
    stops changing on the grid.

    rate is the ODE's fastest damping rate; one period shrinks a deviation
    from the attractor by m = exp(-decay).  gap(prev, now) returns the
    change between two consecutive grids and the bound it must fall below.
    Refuses before integrating a decay D not > 0 (no periodic state
    attracts) and a period needing over _STEP_BUDGET RK45 steps; after the
    second period a predicted count 2 + ln(change/bound)/D over twice
    MAX_PERIODS; a loop past twice that prediction plus ten periods (it
    chases integrator noise); and a stop whose error bound change*m/(1 - m)
    exceeds CROSS_TOL/PERIODIC_TOL times the bound, a relative 1e-4 (one
    period barely moved a slowly shrinking deviation, or moved it less than
    a rounding).  Returns the grid, the first component on it, its periodic
    Curve and the periods run.
    """
    _tailquad.require_decay(decay, route)
    T = d.period
    steps = rate * T / 3.3
    if steps > _STEP_BUDGET:
        raise InvalidParameterError(
            f"{route} is too stiff at pump ratio fbar/f_th={d.pump_ratio:.3g}: "
            f"RK45 would need about {steps:.3g} steps per period, over the budget "
            f"of {_STEP_BUDGET:,}")
    offsets = np.linspace(0.0, T, N_GRID, endpoint=False)
    prev = None
    # Solver reproducibility between consecutive periods must sit well below
    # the convergence tolerance, or the iteration chases integrator noise.
    rtol = min(ODE_RTOL, PERIODIC_TOL / 100.0)
    need = math.inf
    for period_idx in range(MAX_PERIODS):
        t0 = period_idx * T
        grid, y0 = _rk45(rhs, t0, t0 + T, y0, t0 + offsets, rtol, ODE_ATOL, route)
        now = grid[0]
        if prev is not None:
            change, bound = gap(prev, now)
            if change < bound:
                # a change under float64's spacing at the bound's scale is unseen
                seen = max(change, bound * np.finfo(float).eps / PERIODIC_TOL)
                error = seen * math.exp(-decay) / -math.expm1(-decay)
                if error > (CROSS_TOL / PERIODIC_TOL) * bound:
                    raise ConvergenceError(
                        f"{route} changed by only {change:.3g} in period {period_idx + 1}, "
                        f"but with decay D = {decay:.3g} a period it may still sit "
                        f"{error:.3g} from its periodic state, over "
                        f"{CROSS_TOL / PERIODIC_TOL:g} times the bound {bound:.3g}")
                break
            if period_idx + 1 > 2.0 * need + 10.0:
                raise ConvergenceError(
                    f"{route} did not become periodic in {period_idx + 1} periods, over "
                    f"twice the {need:.3g} predicted after two (it chases integrator noise)")
            if period_idx == 1:
                # the change shrinks by about exp(-D) a period from here on
                need = 2.0 + math.log(change / bound) / decay
                if need > 2 * MAX_PERIODS:
                    raise ConvergenceError(
                        f"{route} would need about {need:.3g} periods to become periodic "
                        f"(decay D = {decay:.3g} a period), over twice the limit of "
                        f"{MAX_PERIODS:,}")
        prev = now
    else:
        raise ConvergenceError(
            f"{route} did not become periodic in {MAX_PERIODS:,} periods "
            f"(pump ratio fbar/f_th={d.pump_ratio:.6g})")
    return offsets, now, Curve(now, T), period_idx + 1


def _orbit_gap(u_prev, u_now):
    with np.errstate(under="ignore"):
        n_now = np.exp(u_now)
        n_prev = np.exp(u_prev)
    scale = max(n_now.max(), n_prev.max())
    return np.max(np.abs(n_now - n_prev)), PERIODIC_TOL * scale


def periodic_steady_state(p: ModelParams) -> SemiclassicalTrajectory:
    """Drive the photon-number ODE to its periodic attractor.

    Starts from n0 = gamma/lam (any positive start reaches the same
    attractor; this one is within an order of magnitude of it for typical
    above-threshold pumping) and integrates period by period until the
    grid-sampled orbit changes by less than PERIODIC_TOL relative to its
    peak.  The converged orbit is cross-checked pointwise against the
    closed-form route.
    """
    if regime_classify(p) is not Regime.ABOVE_THRESHOLD:
        raise BelowThresholdError(
            "periodic photon-number orbit requires period-averaged pump above threshold"
        )
    d = derive_params(p)
    # Near the orbit ln n0 relaxes at rate 2*lam*n0, about 2*(eps - gamma);
    # w = 1/n0 obeys a linear ODE whose period map multiplies by exp(-D),
    # D = 2 (eps_bar - gamma) T.
    offsets, u_grid, log_n0, periods = _periodic_attractor(
        d, _du_dt(d), [math.log(d.gamma / d.lam)], _orbit_gap, "the photon-number orbit",
        2.0 * max(d.eps_peak - d.gamma, 0.0), 2.0 * (d.eps_bar - d.gamma) * d.period)
    with np.errstate(under="ignore"):
        n0 = np.exp(u_grid)
    traj = SemiclassicalTrajectory(
        t_grid=offsets, n0=n0, converged_periodic=True,
        periods_to_converge=periods, period=d.period, _log_n0=log_n0,
    )

    idx = np.linspace(0, N_GRID - 1, 64).astype(int)
    n_ref = asymptotic_n0(p, offsets[idx])
    n_here = n0[idx]
    # Relative where the orbit is alive, floored where it underflows:
    # agreement at e^-600 photons is not a meaningful demand.
    floor = 1e-12 * max(n_ref.max(), n_here.max())
    err = np.abs(n_here - n_ref) / np.maximum(np.maximum(n_here, n_ref), floor)
    if np.max(err) > CROSS_TOL:
        raise CrossCheckError(
            f"ODE and closed-form photon numbers disagree: "
            f"max relative error {np.max(err):.3e} > {CROSS_TOL:g}"
        )
    return traj


def asymptotic_log_n0(p: ModelParams, t) -> np.ndarray:
    """ln n0(t) from the closed-form periodic solution (internal route).

    Kept separate from asymptotic_n0 so downstream consumers can stay in
    log space through deep modulation dips where n0 underflows.
    """
    regime = regime_classify(p)
    if regime is not Regime.ABOVE_THRESHOLD:
        raise BelowThresholdError(
            "closed-form photon number diverges at or below period-averaged threshold; "
            "use the zero orbit instead"
        )
    d = derive_params(p)
    gamma = d.gamma

    def k_int(t, s, past):
        # w = 1/n0 obeys w' = -2(eps - gamma) w + 2 lam
        return 2.0 * (d.eps_integral(past, t) - gamma * s)

    M, A = _tailquad.periodic_solution(
        t, k_int, lambda past: 1.0, d.period, rate=2.0 * (d.eps_peak + gamma),
        k_min=2.0 * (d.eps_min - gamma), b_max=1.0)
    # 1/n0 = 2 lam exp(M) A  =>  ln n0 = -(M + ln(2 lam A))
    return -(M + np.log(2.0 * d.lam * A))


def asymptotic_n0(p: ModelParams, t):
    """n0(t) from the closed-form periodic solution.

    Only defined above (period-averaged) threshold; may underflow to 0.0
    where the orbit dips below double precision.
    """
    log_n0 = asymptotic_log_n0(p, t)
    with np.errstate(under="ignore"):
        out = np.exp(log_n0)
    return out if np.ndim(t) else float(out[0])
