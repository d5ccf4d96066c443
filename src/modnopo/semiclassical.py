"""Mean photon number of the subharmonic modes.

Two independent routes compute the same periodic orbit n0(t):

* integrate_n0 / periodic_steady_state: direct adaptive integration of the
  mean-field equation dn0/dt = 2 n0 (eps(t) - gamma - lam n0), carried out
  in u = ln(n0) so positivity is structural and 8-decade swings of n0 cost
  nothing in accuracy;

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
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from . import _tailquad
from .errors import BelowThresholdError, ConvergenceError, CrossCheckError
from .model import DerivedParams, ModelParams, Regime, derive_params, regime_classify

# Defaults shared by the periodic-orbit drivers.
PERIODIC_TOL = 1e-8
MAX_PERIODS = 10_000
N_GRID = 2048
CROSS_TOL = 1e-4
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12


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
    _log_spline: CubicSpline | None = field(default=None, repr=False)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.n0 > 0.0)

    def interp(self, t):
        """n0 at arbitrary times; periodic extension for converged orbits."""
        t = np.asarray(t, dtype=float)
        if self.is_zero:
            return np.zeros_like(t)
        if self._log_spline is None:
            raise ValueError("trajectory carries no interpolant")
        tau = np.mod(t, self.period) if self.converged_periodic else t
        return np.exp(self._log_spline(tau))

    def max_n0(self) -> float:
        return float(np.max(self.n0))

    def mean_n0(self) -> float:
        return float(np.mean(self.n0))


def _attach_periodic_spline(traj: SemiclassicalTrajectory, u_grid: np.ndarray) -> None:
    t_ext = np.append(traj.t_grid, traj.period)
    u_ext = np.append(u_grid, u_grid[0])
    traj._log_spline = CubicSpline(t_ext, u_ext, bc_type="periodic")


def zero_trajectory(p: ModelParams, n_grid: int = N_GRID) -> SemiclassicalTrajectory:
    """The empty-cavity orbit n0 = 0, an exact fixed point at any pump."""
    d = derive_params(p)
    t = np.linspace(0.0, d.period, n_grid, endpoint=False)
    return SemiclassicalTrajectory(
        t_grid=t, n0=np.zeros(n_grid), converged_periodic=True,
        periods_to_converge=0, period=d.period,
    )


def _du_dt(d: DerivedParams):
    gamma = d.gamma
    lam = d.lam

    def rhs(t, u):
        # Clip keeps rejected trial steps of the solver from overflowing;
        # any physical orbit stays far below exp(700).
        return 2.0 * (d.eps(t) - gamma - lam * np.exp(np.minimum(u, 700.0)))

    return rhs


def integrate_n0(
    p: ModelParams,
    t_span: tuple[float, float],
    n0_init: float,
    n_points: int = 1000,
) -> SemiclassicalTrajectory:
    """Integrate the photon-number equation over t_span from n0_init.

    n0_init = 0 returns the exact zero fixed point without touching the
    integrator.  Positive starts are integrated in u = ln n0.
    """
    if n0_init < 0:
        raise ValueError(f"n0_init must be >= 0, got {n0_init}")
    d = derive_params(p)
    t_eval = np.linspace(t_span[0], t_span[1], n_points)
    if n0_init == 0.0:
        return SemiclassicalTrajectory(t_grid=t_eval, n0=np.zeros(n_points),
                                       period=d.period)
    sol = solve_ivp(
        _du_dt(d), t_span, [math.log(n0_init)], method="RK45",
        t_eval=t_eval, rtol=ODE_RTOL, atol=ODE_ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"photon-number integration failed: {sol.message}")
    u = sol.y[0]
    with np.errstate(under="ignore"):
        n0 = np.exp(u)
    traj = SemiclassicalTrajectory(t_grid=t_eval, n0=n0, period=d.period)
    traj._log_spline = CubicSpline(t_eval, u)
    return traj


def periodic_steady_state(
    p: ModelParams,
    n_grid: int = N_GRID,
    periodic_tol: float = PERIODIC_TOL,
    max_periods: int = MAX_PERIODS,
    cross_check: bool = True,
    cross_tol: float = CROSS_TOL,
    cross_points: int = 64,
) -> SemiclassicalTrajectory:
    """Drive the photon-number ODE to its periodic attractor.

    Starts from n0 = gamma/lam (any positive start reaches the same
    attractor; this one is within an order of magnitude of it for typical
    above-threshold pumping) and integrates period by period until the
    grid-sampled orbit changes by less than periodic_tol relative to its
    peak.  The converged orbit is cross-checked pointwise against the
    closed-form route.
    """
    if regime_classify(p) is not Regime.ABOVE_THRESHOLD:
        raise BelowThresholdError(
            "periodic photon-number orbit requires period-averaged pump above threshold"
        )
    d = derive_params(p)
    T = d.period
    offsets = np.linspace(0.0, T, n_grid, endpoint=False)
    rhs = _du_dt(d)

    u_start = math.log(d.gamma / d.lam)
    u_prev_grid = None
    # Solver reproducibility between consecutive periods must sit well below
    # the convergence tolerance, or the iteration chases integrator noise.
    rtol = min(ODE_RTOL, periodic_tol / 100.0)
    for period_idx in range(max_periods):
        t0 = period_idx * T
        sol = solve_ivp(
            rhs, (t0, t0 + T), [u_start], method="RK45",
            t_eval=t0 + offsets, rtol=rtol, atol=ODE_ATOL,
            dense_output=True,
        )
        if not sol.success:
            raise RuntimeError(f"photon-number integration failed: {sol.message}")
        u_grid = sol.y[0]
        u_start = float(sol.sol(t0 + T)[0])
        if u_prev_grid is not None:
            with np.errstate(under="ignore"):
                n_now = np.exp(u_grid)
                n_prev = np.exp(u_prev_grid)
            scale = max(n_now.max(), n_prev.max())
            if np.max(np.abs(n_now - n_prev)) < periodic_tol * scale:
                break
        u_prev_grid = u_grid
    else:
        raise ConvergenceError(
            f"no periodic convergence after {max_periods} periods "
            f"(pump margin {d.eps_bar / d.gamma - 1.0:.3g})"
        )

    with np.errstate(under="ignore"):
        n0 = np.exp(u_grid)
    traj = SemiclassicalTrajectory(
        t_grid=offsets, n0=n0, converged_periodic=True,
        periods_to_converge=period_idx + 1, period=T,
    )
    _attach_periodic_spline(traj, u_grid)

    if cross_check:
        idx = np.linspace(0, n_grid - 1, min(cross_points, n_grid)).astype(int)
        n_ref = asymptotic_n0(p, offsets[idx])
        n_here = n0[idx]
        # Relative where the orbit is alive, floored where it underflows:
        # agreement at e^-600 photons is not a meaningful demand.
        floor = 1e-12 * max(n_ref.max(), n_here.max())
        err = np.abs(n_here - n_ref) / np.maximum(np.maximum(n_here, n_ref), floor)
        if np.max(err) > cross_tol:
            raise CrossCheckError(
                f"ODE and closed-form photon numbers disagree: "
                f"max relative error {np.max(err):.3e} > {cross_tol:g}"
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
    t = np.atleast_1d(np.asarray(t, dtype=float))
    T = d.period

    # Envelope decay rate of the kernel and the fastest its exponent can
    # move; both set the chunking of the tail quadrature.
    a = 2.0 * (d.eps_bar - gamma)
    eps_peak = float(np.max(np.abs(d.eps(np.linspace(0.0, T, 512, endpoint=False)))))
    rate_max = 2.0 * (eps_peak + gamma)
    chunk = min(T / 4.0, 4.0 / rate_max)
    min_s = max(10.0 / a, T)
    max_s = max(400.0 / a, min_s) + 2.0 * T

    def g(s):
        # -2 * int_0^s (eps(t-u) - gamma) du, shape (n_t, n_s)
        return -2.0 * (d.eps_integral(t[:, None] - s[None, :], t[:, None]) - gamma * s[None, :])

    M, A = _tailquad.tail_integral(
        g, lambda s: 1.0, n_t=t.size, chunk=chunk, nodes=32,
        min_s=min_s, max_s=max_s,
    )
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
