"""Positive-P phase-space simulation of the two subharmonic modes.

Each mode carries two independent complex amplitudes (alpha_i, beta_i);
beta_i = conj(alpha_i) only in the classical limit.  The drift couples the
modes through the pump and the two-photon-absorption nonlinearity, and the
noise is the characteristic cross-correlated pair: within the alpha group
the two mode increments correlate as (eps - lam*alpha1*alpha2) dt while
every self-correlation vanishes, and the beta group mirrors that with its
own amplitudes.  The conjugate-pair construction in _increments realizes
this covariance exactly, no matrix square root needed.

Ensembles are Euler-Maruyama (Ito) with fixed step, per-trajectory
counter-based RNG streams, and fixed-order reduction, so results are
byte-identical for a given seed regardless of worker count.  Two widths
are kept apart: a job steps up to four batches as one array, for
throughput, while the sums are taken over each batch of BATCH
trajectories on its own, and only those fix the bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._ensemble import (DIVERGENCE_BUDGET, SALT_PHASE_SPACE, check_seed, check_survivors,
                        map_ordered, mean_and_stderr, run_lockstep, slice_sums,
                        step_layout, std_error, sum_parts)
from .errors import InvalidParameterError
from .model import DerivedParams, ModelParams, derive_params
from .semiclassical import classical_orbit

BATCH = 256                 # trajectories summed together; fixed for determinism
# Batches stepped as one array.  Serial kernel throughput at criterion 7's
# modulated point (2-vCPU x86 VM, the step without its draws) goes from
# 6.5M trajectory-steps/s at one batch to 9.9M at four and 11.4M at eight,
# but with the draws and two workers eight batches are no faster than four
# while a job's arrays keep growing.
_STEP_GROUP = 4
DEFAULT_DT = 1e-3
RELAX_WINDOW = 5.0          # discarded settling time before the grid, in 1/gamma
DIVERGENCE_GUARD_FACTOR = 1e3


def divergence_guard(d: DerivedParams) -> float:
    """Amplitude bound past which a trajectory counts as diverged."""
    return DIVERGENCE_GUARD_FACTOR * math.sqrt(d.gamma / d.lam)


def _workspace(B: int) -> tuple:
    """The arrays _increments writes into for a batch of B; one set per job."""
    shapes = ((3, B), (2, B), (2, B), (2, 2, B), (2, 2, B))
    return tuple(np.empty(s, dtype=np.complex128) for s in shapes)


def _increments(amps, eps_t, gamma, lam, dt, z, work):
    """Euler-Maruyama increment of a batch of trajectories, and its noise part.

    amps holds the batch as a (4, B) array with rows alpha1, alpha2, beta1,
    beta2, seen as A = [[alpha1, alpha2], [beta1, beta2]]; both increments
    come back in the (2, 2, B) shape of A, as views of work (_workspace(B)),
    so they hold until the next call.  z is always a noise block: one step
    of run_lockstep's complex pairs, shape (2, B) with rows for the alpha
    and beta groups.  Within each group the pair sqrt(d dt/2)*z and
    sqrt(d dt/2)*conj(z) has cross-correlation d*dt and vanishing
    self-correlations; d is complex in general and the principal branch of
    the square root is used (either branch gives identical statistics, the
    sign folds into the Gaussians).
    The drift is formed as eps*A' - g*A, which rounds as -g*A + eps*A'
    does, since negation is exact.
    """
    la, g, root, part, u = work
    A = amps.reshape(2, 2, -1)
    np.multiply(lam, amps[:3], out=la)          # lam * [alpha1, alpha2, beta1]
    np.multiply(la[:2], amps[2:], out=g)
    np.add(gamma, g, out=g)                     # decay seen by modes 2 and 1
    np.multiply(eps_t, A[::-1, ::-1], out=u)
    np.multiply(g[::-1], A, out=part)
    np.subtract(u, part, out=u)
    np.multiply(u, dt, out=u)
    np.multiply(la[::2], amps[1::2], out=root)  # [alpha, beta] groups
    np.subtract(eps_t, root, out=root)
    np.multiply(0.5 * dt, root, out=root)
    np.sqrt(root, out=root)
    np.multiply(root, z, out=part[:, 0])
    np.conjugate(z, out=part[:, 1])
    np.multiply(root, part[:, 1], out=part[:, 1])
    np.add(u, part, out=u)
    return u, part


def _past_guard(amps: np.ndarray, guard: float):
    """(np.abs(amps) > guard).any(axis=0), or None where that is all false.

    A screen on the float view comes first: |a| <= sqrt(2) max(|Re a|,
    |Im a|), so when every part lies within guard/2, no amplitude is past
    the guard and no modulus is taken.  Otherwise, NaN included, the exact
    test runs; NaN is past the guard under neither rule.
    """
    parts = amps.view(np.float64)
    half = 0.5 * guard
    if -half <= parts.min() and parts.max() <= half:
        return None
    bad = (np.abs(amps) > guard).any(axis=0)
    return bad if bad.any() else None


@dataclass(frozen=True)
class EnsembleMoments:
    """Grid-sampled ensemble moments of a positive-P run.

    Means are the real parts of the ensemble averages (the imaginary parts
    vanish in expectation); stderr is the across-trajectory standard error
    of the real part.  alive[j] counts the trajectories still inside the
    divergence guard at grid point j; discarded counts those that left it
    at any time during the run and were frozen out of all later averages.

    Extended runs also carry the means of n_plus^2 and n_plus*R and the
    per-trajectory residual statistics of the three moment evolution
    equations, consumed by check_moment_equations.
    """

    t_grid: np.ndarray
    n_plus_mean: np.ndarray
    n_plus_stderr: np.ndarray
    R_mean: np.ndarray
    R_stderr: np.ndarray
    Z_mean: np.ndarray
    Z_stderr: np.ndarray
    V_mean: np.ndarray
    V_stderr: np.ndarray
    pair1_mean: np.ndarray
    pair2_mean: np.ndarray
    pair_diff_stderr: np.ndarray
    alive: np.ndarray
    n_traj: int
    discarded: int
    seed: int
    dt: float
    n_plus_sq_mean: np.ndarray | None = None
    n_plus_R_mean: np.ndarray | None = None
    residual_mean: np.ndarray | None = None     # (3, n_interior)
    residual_stderr: np.ndarray | None = None   # (3, n_interior)


def _classical_start(p: ModelParams, t_start: float) -> tuple[float, float]:
    """Deterministic periodic starting point, all amplitudes sqrt(n0), and
    the classical orbit's peak n0 (both 0 at or below threshold)."""
    orbit = classical_orbit(p)
    return math.sqrt(max(float(orbit.interp(t_start)), 0.0)), orbit.max_n0()


def _run_batch(
    indices: np.ndarray,
    d: DerivedParams,
    seed: int,
    amp0: float,
    eps_steps: list,
    n_relax: int,
    spi: int,
    t_grid: np.ndarray,
    dt: float,
    guard: float,
    extended: bool,
) -> list[dict]:
    """Step consecutive batches of trajectories as one; return each batch's sums.

    indices holds up to _STEP_GROUP batches of BATCH trajectories (the last
    may be partial).  All of them advance through run_lockstep as one
    (4, B) array; diverged ones are zeroed and masked out of every
    subsequent update and average.  eps_steps[k] is the pump at the start
    of step k.  Each trajectory's update touches only its own column, so
    the width stepped together moves no byte.  The moments are formed once
    over the full rows and then summed per BATCH slice of indices, in
    trajectory order, so each slice's accumulator dict, returned in slice
    order, is the one a batch stepped alone gives.
    """
    B = indices.size
    gamma, lam = d.gamma, d.lam
    slices = [slice(lo, lo + BATCH) for lo in range(0, B, BATCH)]

    amps = np.full((4, B), amp0, dtype=np.complex128)
    A = amps.reshape(2, 2, B)
    a1, a2, b1, b2 = amps   # row views, read by record
    mask = None             # alive as complex, once a trajectory has died
    work = _workspace(B)

    def advance(step, z, alive):
        nonlocal mask
        u, _ = _increments(amps, eps_steps[step], gamma, lam, dt, z, work)
        if mask is not None:
            u *= mask
        np.add(A, u, out=A)
        bad = _past_guard(amps, guard)
        if bad is not None:
            bad &= alive
            amps[:, bad] = 0.0
            alive &= ~bad
            mask = alive.astype(np.complex128)

    def record() -> dict:
        return {"n1": a1 * b1, "n2": a2 * b2, "R": (a1 - b2) * (b1 - a2)}

    rows = run_lockstep(seed, SALT_PHASE_SPACE, indices, 4, n_relax, spi, t_grid.size,
                        advance, record)
    n1, n2, R, live = rows["n1"], rows["n2"], rows["R"], rows["live"]
    np_ = n1 + n2
    Z = (n1 - n2) ** 2 + np_
    sums = {"np": np_, "R": R, "Z": Z, "p1": n1, "p2": n2}
    squares = {"np": np_.real, "R": R.real, "Z": Z.real, "pd": (n1 - n2).real}
    if extended:
        sums["np2"] = np2 = np_ * np_
        sums["npR"] = npR = np_ * R
        # Centered difference of each trajectory's moment across the grid
        # against the moment-equation drift integrated over the same window
        # (Simpson rule on the three grid points).  Comparing against the
        # midpoint drift alone leaves an O(h^2) truncation bias that a large
        # ensemble resolves as a spurious residual on modulated runs;
        # Simpson pushes the bias to O(h^4).
        h = float(t_grid[1] - t_grid[0])
        eps = d.eps(t_grid)[:, None]
        rhs = {
            "np": ((2.0 * eps - 2.0 * gamma - lam) * np_
                   - lam * np2 - 2.0 * eps * R + lam * Z),
            "R": (-(2.0 * eps + 2.0 * gamma + lam) * R
                  - lam * npR - 2.0 * eps + lam * Z),
            "Z": -4.0 * gamma * Z + 2.0 * gamma * np_,
        }
        res = {}
        for x, f in rhs.items():
            mid = (f[:-2] + 4.0 * f[1:-1] + f[2:]) / 6.0
            res[x] = ((sums[x][2:] - sums[x][:-2]) / (2.0 * h) - mid).real
        ok = live[:-2] & live[1:-1] & live[2:]
    accs = []
    for s in slices:
        acc = slice_sums(live, s, sums, squares)
        if extended:
            r = slice_sums(ok, s, res, res)
            acc["res_sum"] = np.array([r[f"sum_{x}"] for x in res])
            acc["res_sq"] = np.array([r[f"sq_{x}"] for x in res])
            acc["res_count"] = r["count"]
        acc["alive_final"] = int(rows["alive"][s].sum())
        accs.append(acc)
    return accs


def simulate_ensemble(
    p: ModelParams,
    n_traj: int,
    t_grid,
    seed: int,
    dt: float = DEFAULT_DT,
    relax: float = RELAX_WINDOW,
    n_workers: int = 1,
    collect_extended: bool = False,
) -> EnsembleMoments:
    """Run n_traj independent trajectories and accumulate grid moments.

    Trajectories start from the deterministic periodic point (all four
    amplitudes sqrt(n0) at the start time; vacuum at or below threshold),
    relax for `relax` before the first grid time, and are sampled at
    t_grid, which must be uniform.  The step dt is rounded down so grid
    times land exactly on steps, and refused at or past the explicit
    step's stability limit, dt*(gamma + max|eps| + 2 lam n0_max) = 1 with
    n0_max the classical orbit's peak.  Trajectories whose amplitude leaves the
    divergence guard are frozen and dropped from later averages; a
    discarded fraction above DIVERGENCE_BUDGET raises (check_survivors).

    The trajectories form batches of BATCH; each job of the ordered pool
    steps up to _STEP_GROUP consecutive batches as one array, with at least
    as many jobs as workers where there are enough batches, and the
    batches' sums are reduced in batch order, so the grouping (which
    depends on n_workers) changes no byte.
    """
    check_seed(seed)
    t_grid, spi, dt_eff, n_relax, t_start, n_steps = step_layout(
        t_grid, dt, relax, n_traj, n_workers)
    if collect_extended and t_grid.size < 3:
        raise InvalidParameterError("extended collection needs at least 3 grid points")

    d = derive_params(p)
    guard = divergence_guard(d)
    amp0, n0_max = _classical_start(p, t_start)
    # The explicit step overshoots once dt times the fastest drift rate
    # reaches 1 (Kloeden & Platen 1992); gamma + max|eps| + 2 lam n0_max
    # bounds that rate along the classical orbit.
    rate = d.gamma + d.eps_peak + 2.0 * d.lam * n0_max
    if dt_eff * rate >= 1.0:
        raise InvalidParameterError(
            f"dt={dt_eff:.4g} is unstable for the positive-P step: the explicit "
            f"step needs dt < {1.0 / rate:.4g} here")

    # The pump at the start of each step.  The step times are a running sum
    # from t_start, as a step-by-step clock gives; t_start + k*dt_eff would
    # differ in the last bits.
    times = np.add.accumulate(np.r_[t_start, np.full(max(n_steps - 1, 0), dt_eff)])
    eps_steps = d.eps(times[:n_steps]).tolist()
    job = partial(_run_batch, d=d, seed=seed, amp0=amp0, eps_steps=eps_steps,
                  n_relax=n_relax, spi=spi, t_grid=t_grid, dt=dt_eff, guard=guard,
                  extended=collect_extended)
    # The ceiling alone can leave a worker idle (4 batches on 3 workers).
    n_batches = -(-n_traj // BATCH)
    group = min(_STEP_GROUP, -(-n_batches // n_workers))
    while -(-n_batches // group) < min(n_workers, n_batches):
        group -= 1
    width = group * BATCH
    jobs = [np.arange(lo, min(lo + width, n_traj)) for lo in range(0, n_traj, width)]
    total = sum_parts(acc for accs in map_ordered(job, jobs, n_workers) for acc in accs)

    cnt = total["count"]
    discarded = n_traj - total["alive_final"]
    check_survivors(cnt, discarded, n_traj)
    np_mean, np_se = mean_and_stderr(total, "np")
    R_mean, R_se = mean_and_stderr(total, "R")
    Z_mean, Z_se = mean_and_stderr(total, "Z")
    p1_mean = total["sum_p1"].real / cnt
    p2_mean = total["sum_p2"].real / cnt
    pd_se = std_error(total["sq_pd"], p1_mean - p2_mean, cnt)

    extended = {}
    if collect_extended:
        rc = total["res_count"].astype(float)
        res_mean = total["res_sum"] / rc
        extended = dict(n_plus_sq_mean=total["sum_np2"].real / cnt,
                        n_plus_R_mean=total["sum_npR"].real / cnt, residual_mean=res_mean,
                        residual_stderr=std_error(total["res_sq"], res_mean, rc))
    return EnsembleMoments(
        t_grid=t_grid,
        n_plus_mean=np_mean, n_plus_stderr=np_se,
        R_mean=R_mean, R_stderr=R_se,
        Z_mean=Z_mean, Z_stderr=Z_se,
        V_mean=1.0 + R_mean, V_stderr=R_se,
        pair1_mean=p1_mean, pair2_mean=p2_mean, pair_diff_stderr=pd_se,
        alive=total["count"].copy(), n_traj=n_traj, discarded=discarded,
        seed=seed, dt=dt_eff, **extended,
    )


@dataclass(frozen=True)
class MomentResidualReport:
    """Outcome of the moment-equation consistency check."""

    z_scores: np.ndarray          # (3, n_interior)
    frac_within_3: float
    max_abs_z: float
    ok: bool


# Across hundreds of grid points, pure Gaussian scatter alone would leave
# a few points outside 3 sigma; the gate asks for the bulk inside 3 and
# nothing past 6.
RESIDUAL_BULK_FRACTION = 0.97
RESIDUAL_HARD_Z = 6.0


def check_moment_equations(
    moments: EnsembleMoments, p: ModelParams
) -> MomentResidualReport:
    """Verify the three coupled moment equations against the ensemble.

    Uses the per-trajectory residuals recorded during an extended run
    (central time difference minus the predicted drift); their across-
    trajectory standard errors make the z-scores honest, correlations
    between the difference and drift terms included.
    """
    if moments.residual_mean is None:
        raise ValueError(
            "moment-equation check needs simulate_ensemble(collect_extended=True)"
        )
    z = moments.residual_mean / moments.residual_stderr
    frac = float(np.mean(np.abs(z) <= 3.0))
    max_z = float(np.max(np.abs(z)))
    return MomentResidualReport(
        z_scores=z,
        frac_within_3=frac,
        max_abs_z=max_z,
        ok=(frac >= RESIDUAL_BULK_FRACTION) and (max_z <= RESIDUAL_HARD_Z),
    )
