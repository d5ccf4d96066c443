"""Linearized two-mode squeezing: the quadrature variance V(t).

V is the variance of the squeezed joint quadrature of the two subharmonic
modes, evaluated at the optimal quadrature angle where the pump and
coupling phases cancel.  V = 1 is the vacuum level, V < 1 witnesses
inseparability, V^2 < 1/4 the EPR criterion.

Two routes again, mirrors of the photon-number pair:

* integrate_variance: the linearized ODE
      dV/dt = -2 (gamma + eps(t) + lam n0(t)) V + 2 lam n0(t) + 2 gamma + J(t)
  where J is the memory of the pump-depletion channel,
      dJ/dt = -4 gamma J + 4 gamma lam n0(t),
  driven to its periodic attractor;

* asymptotic_variance: the closed-form periodic solution, a backward
  tail integral with the same kernel structure as the photon-number one.

The two must agree pointwise; dual-route agreement is part of the
acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from . import _tailquad
from ._ensemble import map_ordered
from .errors import ConvergenceError
from .model import (
    Harmonic,
    ModelParams,
    Regime,
    TabulatedPeriodic,
    derive_params,
    regime_classify,
)
from .semiclassical import (
    MAX_PERIODS,
    N_GRID,
    ODE_ATOL,
    ODE_RTOL,
    PERIODIC_TOL,
    SemiclassicalTrajectory,
    asymptotic_log_n0,
    periodic_steady_state,
    zero_trajectory,
)

INSEPARABILITY_BOUND = 2.0   # on the two-angle variance sum
EPR_BOUND = 0.25             # on the two-angle variance product
VALIDITY_MARGIN = 10.0       # default "much greater" factor


@dataclass(frozen=True)
class MomentSet:
    """Point values of the three coupled second-order moments.

    n_plus is the total photon number of the subharmonic pair, squeeze_corr
    the correlator whose mean shifts the squeezed-quadrature variance off
    the vacuum level, imbalance_sq the squared photon-number imbalance.
    """

    n_plus: float
    squeeze_corr: float
    imbalance_sq: float

    @property
    def variance(self) -> float:
        return 1.0 + self.squeeze_corr


@dataclass(frozen=True)
class CriteriaReport:
    """Entanglement classification of a two-angle variance pair."""

    sum_value: float
    product_value: float
    inseparable: bool
    epr: bool


def classify_entanglement(v_plus: float, v_minus: float) -> CriteriaReport:
    """Apply the inseparability-sum and EPR-product criteria.

    v_plus and v_minus are the variances of the two jointly squeezed
    quadrature combinations; for this system both equal V(t) at the
    optimal angle, so pass the same value twice for the standard checks
    V < 1 and V^2 < 1/4.
    """
    if v_plus <= 0 or v_minus <= 0:
        raise ValueError(f"variances must be positive, got {v_plus}, {v_minus}")
    s = v_plus + v_minus
    prod = v_plus * v_minus
    return CriteriaReport(
        sum_value=s,
        product_value=prod,
        inseparable=bool(s < INSEPARABILITY_BOUND),
        epr=bool(prod < EPR_BOUND),
    )


@dataclass
class VarianceTrajectory:
    """Periodic V(t) on one period, with its photon-number reference orbit."""

    t_grid: np.ndarray
    V: np.ndarray
    period: float
    n0_ref: SemiclassicalTrajectory
    theta_opt: float
    converged_periodic: bool = False
    periods_to_converge: int = 0
    _spline: CubicSpline | None = field(default=None, repr=False)

    def interp(self, t):
        """Periodic extension of V at arbitrary times."""
        if self._spline is None:
            raise ValueError("trajectory carries no interpolant")
        return self._spline(np.mod(t, self.period))


def _pick_n0(p: ModelParams) -> SemiclassicalTrajectory:
    if regime_classify(p) is Regime.ABOVE_THRESHOLD:
        return periodic_steady_state(p)
    return zero_trajectory(p)


def integrate_variance(
    p: ModelParams,
    n0_traj: SemiclassicalTrajectory | None = None,
    n_grid: int = N_GRID,
    periodic_tol: float = PERIODIC_TOL,
    max_periods: int = MAX_PERIODS,
) -> VarianceTrajectory:
    """Drive the variance ODE to its periodic attractor.

    Integrates the (V, J) pair from the vacuum start V = 1 with J seeded
    at its stationary value for the mean photon number, period by period
    until the sampled V changes by less than periodic_tol anywhere.
    """
    d = derive_params(p)
    if n0_traj is None:
        n0_traj = _pick_n0(p)
    gamma, lam, T = d.gamma, d.lam, d.period
    offsets = np.linspace(0.0, T, n_grid, endpoint=False)

    def rhs(t, y):
        V, J = y
        n0 = float(n0_traj.interp(t))
        dV = -2.0 * (gamma + d.eps(t) + lam * n0) * V + 2.0 * lam * n0 + 2.0 * gamma + J
        dJ = -4.0 * gamma * J + 4.0 * gamma * lam * n0
        return (dV, dJ)

    y_start = [1.0, lam * n0_traj.mean_n0()]
    V_prev = None
    # Two orders below the period-convergence tolerance, as in the
    # photon-number driver: otherwise the loop chases integrator noise.
    rtol = min(ODE_RTOL, periodic_tol / 100.0)
    for period_idx in range(max_periods):
        t0 = period_idx * T
        sol = solve_ivp(
            rhs, (t0, t0 + T), y_start, method="RK45",
            t_eval=t0 + offsets, rtol=rtol, atol=ODE_ATOL,
            dense_output=True,
        )
        if not sol.success:
            raise RuntimeError(f"variance integration failed: {sol.message}")
        V_grid = sol.y[0]
        y_start = [float(v) for v in sol.sol(t0 + T)]
        if V_prev is not None and np.max(np.abs(V_grid - V_prev)) < periodic_tol:
            break
        V_prev = V_grid
    else:
        raise ConvergenceError(
            f"variance did not reach a periodic state in {max_periods} periods"
        )

    traj = VarianceTrajectory(
        t_grid=offsets, V=V_grid, period=T, n0_ref=n0_traj,
        theta_opt=d.theta_opt, converged_periodic=True,
        periods_to_converge=period_idx + 1,
    )
    t_ext = np.append(offsets, T)
    traj._spline = CubicSpline(t_ext, np.append(V_grid, V_grid[0]), bc_type="periodic")
    return traj


# --- closed-form route ------------------------------------------------

@lru_cache(maxsize=8)
def _variance_evaluator(p: ModelParams):
    """Build a callable V(t) for the closed-form periodic solution.

    Above threshold the photon-number orbit enters three ways: pointwise
    (lam*n0 in the decay rate and in the bracket), through its running
    integral (the accumulated decay), and through the damping-filtered
    memory term.  All three are precomputed on a one-period grid here,
    so repeated evaluations share the setup.
    """
    d = derive_params(p)
    gamma, lam, T = d.gamma, d.lam, d.period
    above = regime_classify(p) is Regime.ABOVE_THRESHOLD

    if above:
        tau_grid = np.linspace(0.0, T, N_GRID, endpoint=False)
        log_n0 = asymptotic_log_n0(p, tau_grid)
        u_ext = np.append(log_n0, log_n0[0])
        t_ext = np.append(tau_grid, T)
        u_spl = CubicSpline(t_ext, u_ext, bc_type="periodic")

        def n0_at(tau):
            with np.errstate(under="ignore"):
                return np.exp(u_spl(np.mod(tau, T)))

        n0_grid = n0_at(tau_grid)
        n0_mean = float(np.mean(n0_grid))
        n0_peak = float(np.max(n0_grid))

        # Running integral of n0: periodic part by spline antiderivative,
        # plus the linear-in-time mean growth across whole periods.
        n0_spl = CubicSpline(t_ext, np.append(n0_grid, n0_grid[0]), bc_type="periodic")
        n0_anti = n0_spl.antiderivative()
        per_period = float(n0_anti(T))

        def n0_cumulative(tau):
            tau = np.asarray(tau, dtype=float)
            wraps = np.floor(tau / T)
            return n0_anti(tau - wraps * T) + wraps * per_period

        # Memory of the depletion channel: damping-filtered history of n0.
        def g_mem(s):
            return np.broadcast_to(-4.0 * gamma * s, (tau_grid.size, s.size))

        def b_mem(s):
            return n0_at(tau_grid[:, None] - s[None, :])

        M_mem, A_mem = _tailquad.tail_integral(
            g_mem, b_mem, n_t=tau_grid.size,
            chunk=min(T / 4.0, 1.0 / gamma),
            nodes=32,
            min_s=max(10.0 / (4.0 * gamma), T),
            max_s=max(100.0 / (4.0 * gamma), T) + 2.0 * T,
        )
        with np.errstate(under="ignore"):
            mem_grid = 2.0 * gamma * lam * np.exp(M_mem) * A_mem
        mem_spl = CubicSpline(
            t_ext, np.append(mem_grid, mem_grid[0]), bc_type="periodic"
        )

        def mem_at(tau):
            return mem_spl(np.mod(tau, T))
    else:
        n0_mean = 0.0
        n0_peak = 0.0

        def n0_at(tau):
            return np.zeros_like(np.asarray(tau, dtype=float))

        def n0_cumulative(tau):
            return np.zeros_like(np.asarray(tau, dtype=float))

        def mem_at(tau):
            return np.zeros_like(np.asarray(tau, dtype=float))

    eps_grid = d.eps(np.linspace(0.0, T, 512, endpoint=False))
    eps_peak = float(np.max(np.abs(eps_grid)))
    decay = 2.0 * (gamma + d.eps_bar + lam * n0_mean)
    rate_max = 2.0 * (gamma + eps_peak + lam * n0_peak)

    def evaluate(t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))

        def g(s):
            past = t[:, None] - s[None, :]
            acc = gamma * s[None, :] + d.eps_integral(past, t[:, None])
            acc = acc + lam * (n0_cumulative(t)[:, None] - n0_cumulative(past))
            return -2.0 * acc

        def b(s):
            past = t[:, None] - s[None, :]
            return gamma + lam * n0_at(past) + mem_at(past)

        M, A = _tailquad.tail_integral(
            g, b, n_t=t.size,
            chunk=min(T / 4.0, 4.0 / rate_max),
            nodes=32,
            min_s=max(10.0 / decay, T),
            max_s=max(400.0 / decay, T) + 2.0 * T,
        )
        return 2.0 * np.exp(M) * A

    return evaluate


def asymptotic_variance(p: ModelParams, t):
    """V(t) from the closed-form periodic solution.

    Valid in any regime: below and at threshold the photon-number orbit
    is zero and only the vacuum-noise bracket survives.
    """
    out = _variance_evaluator(p)(t)
    return out if np.ndim(t) else float(out[0])


# --- minima, sweeps, validity ------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimum of a unimodal f on [a, b], to width tol."""
    c = b - _INVPHI * (b - a)
    e = a + _INVPHI * (b - a)
    fc, fe = f(c), f(e)
    while (b - a) > tol:
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + _INVPHI * (b - a)
            fe = f(e)
    return (a + b) / 2.0


_FLAT_REL = 1e-12


def _pump_is_flat(m) -> bool:
    if isinstance(m, Harmonic):
        return m.f1 == 0.0
    samples = np.asarray(m.samples, dtype=float)
    return float(samples.max()) == float(samples.min())


@dataclass(frozen=True)
class VminResult:
    """Location and value of the per-period variance minimum."""

    v_min: float
    t0: float
    n0_at_t0: float
    period: float
    criteria: CriteriaReport
    validity_ratio: float


def find_vmin(
    p: ModelParams,
    route: str = "ode",
    n_scan: int = 2048,
    refine_frac: float = 1e-6,
) -> VminResult:
    """Locate the minimum of the periodic V(t) over one period.

    Coarse scan on n_scan points, then golden-section refinement of the
    bracketing interval down to refine_frac of the period.  A flat V
    (no modulation) reports t0 = 0 by convention.
    """
    if route == "ode":
        traj = integrate_variance(p)
        f = traj.interp
        n0_traj = traj.n0_ref
        T = traj.period
    elif route == "closed":
        ev = _variance_evaluator(p)
        f = lambda t: float(ev(t)[0]) if np.ndim(t) == 0 else ev(t)
        n0_traj = _pick_n0(p)
        T = derive_params(p).period
    else:
        raise ValueError(f"unknown route {route!r}, expected 'ode' or 'closed'")

    t_s = np.linspace(0.0, T, n_scan, endpoint=False)
    v_s = np.asarray(f(t_s), dtype=float)
    i = int(np.argmin(v_s))
    # flat pump: the curve is constant up to integrator noise, which the
    # refinement loop would otherwise mistake for structure
    if _pump_is_flat(p.modulation) or (
        np.max(v_s) - np.min(v_s) < _FLAT_REL * max(1.0, abs(np.max(v_s)))
    ):
        t0, v_min = 0.0, float(v_s[0])
    else:
        h = T / n_scan
        fp = lambda t: float(np.asarray(f(np.mod(t, T))).reshape(()))
        t0 = _golden_min(fp, t_s[i] - h, t_s[i] + h, refine_frac * T)
        t0 = float(np.mod(t0, T))
        v_min = fp(t0)
    return VminResult(
        v_min=v_min,
        t0=t0,
        n0_at_t0=float(n0_traj.interp(t0)),
        period=T,
        criteria=classify_entanglement(v_min, v_min),
        validity_ratio=linearization_validity(p),
    )


def linearization_validity(p: ModelParams, margin: float = VALIDITY_MARGIN) -> float:
    """Margin ratio of the linearized theory near threshold.

    Returns |fbar/f_th - 1| divided by the critical-region width
    (lam/gamma) * exp(2 (f1/f_th) (gamma/delta)); values >= `margin`
    (default 10) mean the linearized results can be trusted.  Computed in
    log space: the exponential easily overflows for slow deep modulation.
    Tabulated profiles use the half peak-to-trough swing for f1 and the
    fundamental for delta.
    """
    d = derive_params(p)
    m = p.modulation
    if isinstance(m, Harmonic):
        f1, delta = m.f1, m.delta
    else:
        samples = np.asarray(m.samples, dtype=float)
        f1 = (float(samples.max()) - float(samples.min())) / 2.0
        delta = 2.0 * math.pi / m.period
    r = d.eps_bar / d.gamma  # == fbar/f_th
    if r == 1.0:
        return 0.0
    log_width = math.log(d.lam / d.gamma) + 2.0 * (f1 / d.f_th) * (d.gamma / delta)
    log_ratio = math.log(abs(r - 1.0)) - log_width
    if log_ratio > 700.0:
        return math.inf
    with np.errstate(under="ignore"):
        return float(math.exp(log_ratio)) if log_ratio > -745.0 else 0.0


@dataclass(frozen=True)
class SweepCell:
    """One (pump strength, modulation depth) cell of a minimum-variance sweep."""

    fbar_over_fth: float
    f1_over_fbar: float
    regime: str
    v_min: float
    t0: float
    n0_at_t0: float
    inseparable: bool
    epr: bool
    validity_ratio: float
    error: str | None = None


def _sweep_cell(p: ModelParams, ratio: float, level: float) -> SweepCell:
    d = derive_params(p)
    m = p.modulation
    fbar = ratio * d.f_th
    f1 = level * fbar
    phi = m.phi
    if f1 < 0:
        f1, phi = -f1, phi + math.pi
    cell_p = ModelParams(
        gamma=p.gamma, gamma3=p.gamma3, k=p.k,
        modulation=Harmonic(fbar=fbar, f1=f1, delta=m.delta, phi=phi),
        phi_L=p.phi_L, phi_K=p.phi_K,
    )
    regime = regime_classify(cell_p).value
    try:
        r = find_vmin(cell_p)
        return SweepCell(
            fbar_over_fth=ratio, f1_over_fbar=level, regime=regime,
            v_min=r.v_min, t0=r.t0, n0_at_t0=r.n0_at_t0,
            inseparable=r.criteria.inseparable, epr=r.criteria.epr,
            validity_ratio=r.validity_ratio,
        )
    except Exception as exc:  # keep the sweep alive; the cell reports its failure
        return SweepCell(
            fbar_over_fth=ratio, f1_over_fbar=level, regime=regime,
            v_min=math.nan, t0=math.nan, n0_at_t0=math.nan,
            inseparable=False, epr=False, validity_ratio=math.nan,
            error=f"{type(exc).__name__}: {exc}",
        )


def sweep_vmin(
    p: ModelParams,
    fbar_over_fth_grid,
    f1_over_fbar_levels,
    n_workers: int = 1,
) -> list[SweepCell]:
    """Minimum variance over a grid of pump strengths and modulation depths.

    Keeps gamma, gamma3, k, delta, and all phases of p fixed and rescans
    (fbar, f1).  Cells are computed independently (optionally in a thread
    pool) and always returned in grid order, levels outer, so output does
    not depend on worker count.  Failed cells carry their error message
    instead of poisoning the whole sweep.
    """
    if not isinstance(p.modulation, Harmonic):
        raise ValueError("sweep_vmin rescans harmonic pump families only")
    jobs = [(float(ratio), float(level))
            for level in f1_over_fbar_levels
            for ratio in fbar_over_fth_grid]
    return map_ordered(lambda job: _sweep_cell(p, *job), jobs, n_workers)
