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
  shot to its periodic state;

* asymptotic_variance: the closed-form periodic solution, a backward
  tail integral with the same kernel structure as the photon-number one.

The two must agree pointwise; dual-route agreement is part of the
acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import _tailquad
from ._ensemble import map_ordered
from .model import (
    Curve,
    Harmonic,
    ModelParams,
    Regime,
    derive_params,
    regime_classify,
)
from .semiclassical import (
    N_GRID,
    SemiclassicalTrajectory,
    _closing_pass,
    _period_pass,
    _require_passes,
    asymptotic_log_n0,
    classical_orbit,
)

INSEPARABILITY_BOUND = 2.0   # on the two-angle variance sum
EPR_BOUND = 0.25             # on the two-angle variance product
VALIDITY_MARGIN = 10.0       # default "much greater" factor
# Bound on the tail integrands between grid points, over their grid peak.
# They are periodic cubic splines (or the exponential of one) through smooth
# data on N_GRID knots per period, which overshoot their knot values by far
# less than this; the factor costs the early stop one bit of its 2^-60.
B_MAX_FACTOR = 2.0


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
    periods_to_converge: int = 0
    _curve: Curve | None = field(default=None, repr=False)

    def interp(self, t):
        """Periodic extension of V at arbitrary times; a float t gives a float."""
        return self._curve(t)


def integrate_variance(p: ModelParams) -> VarianceTrajectory:
    """The periodic (V, J) pair of the variance ODE, by shooting.

    The pair obeys an affine ODE in which J does not see V, so one period
    maps J to exp(-4 gamma T) J + c_J and, with J periodic, V to
    exp(-D) V + c_V, D = 2 T <gamma + eps + lam n0>.  A period from
    (0, 0) gives J* = J(T)/(1 - exp(-4 gamma T)), one from the vacuum
    (1, J*) gives V* = 1 + (V(T) - 1)/(1 - exp(-D)), and a third from
    (V*, J*) is the periodic state (see semiclassical._closing_pass for its
    error bound).  With the pump off the vacuum is the periodic state, and
    every pass from it stays exactly at V = 1.
    """
    d = derive_params(p)
    n0_traj = classical_orbit(p)
    gamma, lam, T = d.gamma, d.lam, d.period
    eps, n0_at = d.eps_at_float(), n0_traj.interp_at_float()
    # the constant factors, grouped as the left-to-right products group them
    two_lam, two_gamma = 2.0 * lam, 2.0 * gamma
    minus_four_gamma, four_gamma_lam = -4.0 * gamma, 4.0 * gamma * lam

    def rhs(t, y):
        V, J = y
        n0 = n0_at(t)
        dV = -2.0 * (gamma + eps(t) + lam * n0) * V + two_lam * n0 + two_gamma + J
        return (dV, minus_four_gamma * J + four_gamma_lam * n0)

    route = "the variance"
    decay_V = 2.0 * (gamma + d.eps_bar + lam * n0_traj.mean_n0()) * T
    decay_J = 4.0 * gamma * T
    _require_passes(d, route, 2.0 * (gamma + d.eps_peak + lam * n0_traj.max_n0()),
                    min(decay_V, decay_J))
    J_end = _period_pass(d, rhs, [0.0, 0.0], route)[2][1]
    J_star = J_end / -math.expm1(-decay_J)
    V_end = _period_pass(d, rhs, [1.0, J_star], route)[2][0]
    V_star = 1.0 + (V_end - 1.0) / -math.expm1(-decay_V)
    offsets, V_grid, curve = _closing_pass(d, rhs, [V_star, J_star], route, decay_V,
                                           abs(V_star))
    return VarianceTrajectory(t_grid=offsets, V=V_grid, period=T, n0_ref=n0_traj,
                              periods_to_converge=3, _curve=curve)


# --- closed-form route ------------------------------------------------

@lru_cache(maxsize=8)
def _variance_evaluator(p: ModelParams):
    """Build a callable V(t) for the closed-form periodic solution.

    Above threshold the photon-number orbit enters three ways: pointwise
    (lam*n0 in the damping rate and in the bracket), through its running
    integral (the accumulated damping), and through the damping-filtered
    memory term.  All three are precomputed on a one-period grid here,
    so repeated evaluations share the setup.
    """
    d = derive_params(p)
    gamma, lam, T = d.gamma, d.lam, d.period
    above = regime_classify(p) is Regime.ABOVE_THRESHOLD

    if above:
        tau_grid = np.linspace(0.0, T, N_GRID, endpoint=False)
        log_n0 = Curve(asymptotic_log_n0(p, tau_grid), T)

        def n0_at(tau):
            with np.errstate(under="ignore"):
                return np.exp(log_n0(tau))

        n0_grid = n0_at(tau_grid)
        # n0 itself as a spline too, for its running integral
        n0_curve = Curve(n0_grid, T)
        n0_cumulative = n0_curve.running_integral
        n0_floor = n0_curve.minimum()

        # Memory of the depletion channel, J' = -4 gamma J + 4 gamma lam n0:
        # the damping-filtered history of n0.
        M_mem, A_mem = _tailquad.periodic_solution(
            tau_grid, lambda t, s, past: 4.0 * gamma * s, n0_at, T, rate=4.0 * gamma,
            k_min=4.0 * gamma, b_max=B_MAX_FACTOR * float(np.max(n0_grid)))
        with np.errstate(under="ignore"):
            mem_grid = 2.0 * gamma * lam * np.exp(M_mem) * A_mem
        mem_at = Curve(mem_grid, T)
    else:
        n0_grid = mem_grid = np.zeros(1)
        n0_floor = 0.0

        def n0_at(tau):
            return np.zeros_like(np.asarray(tau, dtype=float))

        n0_cumulative = mem_at = n0_at

    # V' = -2(gamma + eps + lam n0) V + 2(gamma + lam n0 + J/2).  The
    # running integral integrates the spline through n0, which can
    # undershoot the grid values, so k is bounded below with its exact
    # minimum.
    rate = 2.0 * (gamma + d.eps_peak + lam * float(np.max(n0_grid)))
    k_min = 2.0 * (gamma + d.eps_min + lam * n0_floor)
    b_max = B_MAX_FACTOR * float(np.max(gamma + lam * n0_grid + mem_grid))

    def k_int(t, s, past):
        acc = gamma * s + d.eps_integral(past, t)
        return 2.0 * (acc + lam * (n0_cumulative(t) - n0_cumulative(past)))

    def b(past):
        return gamma + lam * n0_at(past) + mem_at(past)

    def evaluate(t: np.ndarray) -> np.ndarray:
        M, A = _tailquad.periodic_solution(t, k_int, b, T, rate, k_min, b_max)
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


def is_trusted(validity_ratio: float) -> bool:
    """Whether the linearization holds at this validity ratio: at least
    VALIDITY_MARGIN.  NaN, a failed sweep cell's ratio, is not trusted."""
    return validity_ratio >= VALIDITY_MARGIN


@dataclass(frozen=True)
class VminResult:
    """Location and value of the per-period variance minimum."""

    v_min: float
    t0: float
    n0_at_t0: float
    period: float
    criteria: CriteriaReport
    validity_ratio: float

    @property
    def trusted(self) -> bool:
        """Whether the linearization holds here (see is_trusted)."""
        return is_trusted(self.validity_ratio)


def find_vmin(p: ModelParams, route: str = "ode") -> VminResult:
    """Locate the minimum of the periodic V(t) over one period.

    Coarse scan on N_GRID points, then golden-section refinement of the
    bracketing interval down to 1e-6 of the period.  A flat V
    (no modulation) reports t0 = 0 by convention.
    """
    if route == "ode":
        traj = integrate_variance(p)
        f = traj.interp
        n0_traj = traj.n0_ref
        T = traj.period
    elif route == "closed":
        ev = _variance_evaluator(p)
        T = derive_params(p).period
        f = lambda t: float(ev(np.mod(t, T))[0]) if np.ndim(t) == 0 else ev(t)
        n0_traj = classical_orbit(p)
    else:
        raise ValueError(f"unknown route {route!r}, expected 'ode' or 'closed'")

    t_s = np.linspace(0.0, T, N_GRID, endpoint=False)
    v_s = np.asarray(f(t_s), dtype=float)
    i = int(np.argmin(v_s))
    # flat pump: the curve is constant up to integrator noise, which the
    # refinement loop would otherwise mistake for structure
    if p.modulation.swing() == 0.0 or (
        np.max(v_s) - np.min(v_s) < _FLAT_REL * max(1.0, abs(np.max(v_s)))
    ):
        t0, v_min = 0.0, float(v_s[0])
    else:
        h = T / N_GRID
        t0 = _golden_min(f, t_s[i] - h, t_s[i] + h, 1e-6 * T)
        t0 = float(np.mod(t0, T))
        v_min = f(t0)
    return VminResult(
        v_min=v_min,
        t0=t0,
        n0_at_t0=float(n0_traj.interp(t0)),
        period=T,
        criteria=classify_entanglement(v_min, v_min),
        validity_ratio=linearization_validity(p),
    )


def linearization_validity(p: ModelParams) -> float:
    """Margin ratio of the linearized theory near threshold.

    Returns |fbar/f_th - 1| divided by the critical-region width
    (lam/gamma) * exp(2 (swing/f_th) (gamma/delta)); values >= VALIDITY_MARGIN
    (10) mean the linearized results can be trusted.  Computed in
    log space: the exponential easily overflows for slow deep modulation.
    The profile supplies its swing (f1 for a harmonic pump, half the
    samples' peak-to-trough range for a table) and its fundamental delta.
    """
    d = derive_params(p)
    m = p.modulation
    if d.pump_ratio == 1.0:
        return 0.0
    log_width = math.log(d.lam / d.gamma) + 2.0 * (m.swing() / d.f_th) * (d.gamma / m.delta)
    log_ratio = math.log(abs(d.pump_ratio - 1.0)) - log_width
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

    @property
    def trusted(self) -> bool:
        """Whether the linearization holds here; a failed cell is not trusted."""
        return is_trusted(self.validity_ratio)


def _sweep_cell(p: ModelParams, cell: tuple[float, float]) -> SweepCell:
    ratio, level = cell
    m = Harmonic.from_ratios(derive_params(p).f_th, ratio, level, p.modulation.delta,
                             p.modulation.phi)
    cell_p = replace(p, modulation=m)
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
    (fbar, f1).  Cells are computed independently (on up to n_workers
    processes) and always returned in grid order, levels outer, so output
    does not depend on worker count.  Failed cells carry their error
    message instead of poisoning the whole sweep.
    """
    if not isinstance(p.modulation, Harmonic):
        raise ValueError("sweep_vmin rescans harmonic pump families only")
    jobs = [(float(ratio), float(level))
            for level in f1_over_fbar_levels
            for ratio in fbar_over_fth_grid]
    return map_ordered(partial(_sweep_cell, p), jobs, n_workers)
