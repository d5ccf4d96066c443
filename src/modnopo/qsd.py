"""State-diffusion trajectories of the two-mode cavity in a truncated Fock space.

This is the fully quantum check on the linearized variance results: each
trajectory evolves a pure state |psi> under the Gisin-Percival diffusion
unraveling of the open two-mode dynamics (two single-photon loss channels,
one pair-loss channel, and the time-dependent pair-creation drive), and the
squeezed quadrature variance is accumulated as an ensemble average of
state expectations.

The Fock cutoff is chosen adaptively: start from a classical estimate, grow
until the population of the top few levels stays below a tail tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConvergenceError, FockDimensionError, InvalidParameterError, TruncationError
from ._ensemble import (DIVERGENCE_BUDGET, SALT_STATE_DIFFUSION, check_seed,
                        check_survivors, map_ordered, mean_and_stderr, run_lockstep,
                        slice_sums, step_layout, std_error, sum_parts)
from .model import DerivedParams, ModelParams, derive_params
from .semiclassical import classical_orbit

DEFAULT_DT = 1e-3
RELAX_WINDOW = 5.0
TAIL_TOL = 1e-6
TAIL_LEVELS = 3
GROW_STEP = 4
# Hard ceiling on the product-basis dimension (n_max+1)^2.  Above this the
# dense state batches stop fitting comfortably in memory and the run should
# be reconsidered rather than silently ground through.
MAX_PRODUCT_DIM = 40_000
_MAX_GROW_ROUNDS = 25
_BATCH = 64                 # trajectories per job after the pilot
_PILOT_TRAJ = 32


@dataclass(frozen=True)
class OperatorSet:
    """The |n1,n2> product basis at cutoff n_max, plus the model's rates.

    |n1,n2> is row n1*(n_max+1) + n2 of a state.  No operator is held as a
    matrix: ``images`` applies the ladder operators through the complex
    (dim, 1) columns ``root1`` = sqrt(n1+1), ``root2`` = sqrt(n2+1) and
    ``root_pair`` = their product.  The rates and the drive ``eps(t)``
    are read from ``derived``; everything else is time independent and
    shared read-only across trajectories.  ``loss_diag`` carries the diagonal
    1/2 sum(L^dag L) = gamma*(n1+n2) + lam*n1*n2 used by the drift, and
    ``tail_mask`` marks basis states within TAIL_LEVELS of either cutoff.
    """

    n_max: int
    dim: int
    root1: np.ndarray
    root2: np.ndarray
    root_pair: np.ndarray
    n1_diag: np.ndarray
    n2_diag: np.ndarray
    loss_diag: np.ndarray
    tail_mask: np.ndarray
    derived: DerivedParams


def build_operators(p: ModelParams, n_max: int) -> OperatorSet:
    if n_max < 2:
        raise InvalidParameterError("build_operators needs n_max >= 2")
    dim = (n_max + 1) ** 2
    if dim > MAX_PRODUCT_DIM:
        raise FockDimensionError(
            f"product basis dimension {dim} exceeds budget {MAX_PRODUCT_DIM} "
            f"(n_max={n_max})"
        )
    d = derive_params(p)
    levels = np.arange(n_max + 1.0)
    n1_diag = np.repeat(levels, n_max + 1)
    n2_diag = np.tile(levels, n_max + 1)
    # complex with zero imaginary parts, as the Kronecker-built matrices and
    # their product hold sqrt(n+1) and sqrt(n1+1)*sqrt(n2+1)
    root1, root2 = np.sqrt(n1_diag + 1.0), np.sqrt(n2_diag + 1.0)
    loss_diag = d.gamma * (n1_diag + n2_diag) + d.lam * n1_diag * n2_diag
    tail = (n1_diag > n_max - TAIL_LEVELS) | (n2_diag > n_max - TAIL_LEVELS)
    return OperatorSet(
        n_max=n_max,
        dim=dim,
        root1=root1.astype(np.complex128)[:, None],
        root2=root2.astype(np.complex128)[:, None],
        root_pair=(root1 * root2).astype(np.complex128)[:, None],
        n1_diag=n1_diag,
        n2_diag=n2_diag,
        loss_diag=loss_diag,
        tail_mask=tail,
        derived=d,
    )


def images(psi, ops: OperatorSet) -> np.ndarray:
    """a1 psi, a2 psi, a1 a2 psi and (a1 a2)^dag psi as one (4, dim, batch) array.

    Row i of each image is row i + m, i + 1, i + m + 1 or i - m - 1 of psi
    (m = n_max + 1) times a complex coefficient; the rows the operator
    empties, where a product wrapped across a mode, are zeroed.  The bits
    are those of sparse products of the Kronecker-built operators: psi is
    added to +0 first, as a zero-started row sum is, and after that the sign
    of a zero imaginary part reaches no bit, so the adjoint reuses the pair's.
    """
    m = ops.n_max + 1
    z = psi + 0.0
    out = np.empty((4, ops.dim, psi.shape[1]), dtype=np.complex128)
    a1, a2, pair, pair_dag = out
    np.multiply(ops.root1[:-m], z[m:], out=a1[:-m])
    np.multiply(ops.root2[:-1], z[1:], out=a2[:-1])
    np.multiply(ops.root_pair[:-m - 1], z[m + 1:], out=pair[:-m - 1])
    np.multiply(ops.root_pair[:-m - 1], z[:-m - 1], out=pair_dag[m + 1:])
    a1[-m:] = a2[m - 1::m] = pair[m - 1::m] = pair[-m:] = 0.0
    pair_dag[:m] = pair_dag[::m] = 0.0
    return out


def _step_batch(psi, eps_t, ops, dt, xi):
    """One Euler-Maruyama diffusion step on a (dim, batch) state block.

    The Gisin-Percival update
    psi + [-iH - 1/2 sum L^dag L + sum <L>* L - 1/2 sum |<L>|^2] psi dt
        + sum (L - <L>) psi dxi
    is folded into one linear combination of psi and its four ladder images,
    psi k0 - dt loss psi + k1 a1 psi + k2 a2 psi + k3 pair psi + k4 pair^dag psi,
    whose coefficients are per-trajectory scalars.  xi holds three complex
    pairs of standard normals per trajectory, shape (3, batch), as
    run_lockstep hands them over, and dxi_k = sqrt(dt/2) xi[k].  Returns
    the unnormalized updated block; the caller renormalizes and checks tails.
    """
    a1p, a2p, prp, pdp = images(psi, ops)

    psi_c = psi.conj()
    e_a1 = np.einsum("ib,ib->b", psi_c, a1p)
    e_a2 = np.einsum("ib,ib->b", psi_c, a2p)
    e_pr = np.einsum("ib,ib->b", psi_c, prp)

    two_g = 2.0 * ops.derived.gamma
    two_l = 2.0 * ops.derived.lam
    # sqrt(2 rate) dxi per channel
    root = math.sqrt(0.5 * dt)
    w1 = (math.sqrt(two_g) * root) * xi[0]
    w2 = (math.sqrt(two_g) * root) * xi[1]
    w3 = (math.sqrt(two_l) * root) * xi[2]
    half_sq = 0.5 * (
        two_g * (np.abs(e_a1) ** 2 + np.abs(e_a2) ** 2) + two_l * np.abs(e_pr) ** 2
    )

    k0 = 1.0 - dt * half_sq - w1 * e_a1 - w2 * e_a2 - w3 * e_pr
    k1 = (dt * two_g) * e_a1.conj() + w1
    k2 = (dt * two_g) * e_a2.conj() + w2
    k3 = dt * (two_l * e_pr.conj() - eps_t) + w3
    k4 = dt * eps_t

    out = (k0 - dt * ops.loss_diag[:, None]) * psi
    a1p *= k1
    out += a1p
    a2p *= k2
    out += a2p
    prp *= k3
    out += prp
    pdp *= k4
    out += pdp
    return out


@dataclass(frozen=True)
class QsdEnsemble:
    """Trajectory-averaged expectations on the requested time grid."""

    t_grid: np.ndarray
    V_mean: np.ndarray
    V_stderr: np.ndarray
    n1_mean: np.ndarray
    n2_mean: np.ndarray
    diff_stderr: np.ndarray
    pair_mean: np.ndarray
    tail_max: np.ndarray
    n_traj: int
    discarded: int
    n_max: int
    dt: float
    seed: int


class _TailTripped(Exception):
    """Internal: some trajectory exceeded the tail bound; grow the cutoff."""


def auto_n_max(p: ModelParams) -> int:
    """Starting cutoff: four times the classical orbit peak plus headroom.

    Where the orbit's shooting bound refuses it (ConvergenceError: at very
    fast modulation, delta >= 1e12 at the default lam, one period changes
    ln n0 by less than a rounding of it over 1 - exp(-D)), the headroom
    alone is taken, as at or below threshold, and the cutoff grows as the
    run needs.
    """
    try:
        peak = classical_orbit(p).max_n0()
    except ConvergenceError:
        peak = 0.0
    return int(math.ceil(4.0 * peak + 10.0))


def _run_batch(indices, ops, seed, eps_steps, n_relax, spi, n_grid, dt):
    """Run one batch of trajectories; returns run_lockstep's rows.

    All trajectories start from vacuum at the first step.  Raises
    _TailTripped once a live trajectory's tail population passes TAIL_TOL.
    Dead (non-finite) trajectories are zeroed.  The rows are V, n1, n2, the
    pair expectation and the tail population.  A trajectory's rows do not
    depend on the batch it runs in when the batch is cut at a multiple of 8
    into pieces of 8 or more, which lets the pilot run as two jobs.
    """
    psi = np.zeros((ops.dim, len(indices)), dtype=np.complex128)
    psi[0, :] = 1.0
    tail_rows = ops.tail_mask.astype(float)

    def advance(step, xi, alive):
        nonlocal psi
        psi = _step_batch(psi, eps_steps[step], ops, dt, xi)
        # One pass of weights gives both the norm and the tail.
        w = np.abs(psi) ** 2
        nrm2 = w.sum(axis=0)
        bad = ~np.isfinite(nrm2) | (nrm2 <= 0.0)
        if bad.any():
            alive &= ~bad
            nrm2[bad] = 1.0
            psi[:, bad] = 0.0
        if ((tail_rows @ w > TAIL_TOL * nrm2) & alive).any():
            raise _TailTripped
        psi *= 1.0 / np.sqrt(nrm2)  # far cheaper than complex division

    # Recording reuses the diagonal number vectors; only the pair
    # expectation needs an image.
    def record():
        w = np.abs(psi) ** 2
        n1 = ops.n1_diag @ w
        n2 = ops.n2_diag @ w
        pair = np.einsum("ib,ib->b", psi.conj(), images(psi, ops)[2])
        return {"v": 1.0 + n1 + n2 - 2.0 * pair.real, "n1": n1, "n2": n2,
                "pair": pair, "tail": tail_rows @ w}

    return run_lockstep(seed, SALT_STATE_DIFFUSION, indices, 6, n_relax, spi, n_grid,
                        advance, record)


def simulate_qsd_ensemble(
    p: ModelParams,
    n_traj: int,
    t_grid,
    seed: int,
    dt: float = DEFAULT_DT,
    relax: float = RELAX_WINDOW,
    n_workers: int = 1,
    n_max: int | None = None,
) -> QsdEnsemble:
    """Diffusion-unraveling ensemble estimate of V(t) from vacuum.

    Takes simulate_ensemble's leading arguments in its order, then the
    starting cutoff.  The cutoff starts at ``n_max``, an integer >= 2 (or an
    automatic classical estimate), and grows by GROW_STEP whenever any
    trajectory pushes population past the tail bound.  At each cutoff a
    pilot batch of the leading trajectories runs first, so an undersized
    cutoff is found cheaply, and then the rest in batches; the pilot's sums
    count toward the ensemble.  The pilot runs as two jobs, sent ahead of
    the batches through one pool, and the first trip stops the jobs still
    running.  Jobs return rows for each trajectory, and the batch layout,
    fixed by n_traj alone, sets the order of every sum.  Growth reruns the
    whole ensemble with the same per-trajectory noise streams, so results
    depend only on (params, seed, final cutoff) and not on n_workers.
    Trajectories whose norm is lost are dropped from later averages; a lost
    fraction above DIVERGENCE_BUDGET raises (check_survivors).
    """
    if n_max is not None and not (isinstance(n_max, (int, np.integer)) and n_max >= 2):
        raise InvalidParameterError(f"n_max must be an integer >= 2, got {n_max!r}")
    check_seed(seed)
    t_grid, spi, dt_eff, n_relax, t_start, n_steps = step_layout(
        t_grid, dt, relax, n_traj, n_workers)
    n_grid = t_grid.size

    d = derive_params(p)
    n_here = int(n_max) if n_max is not None else auto_n_max(p)

    eps_steps = np.asarray(
        d.eps(t_start + dt_eff * np.arange(max(n_steps, 1))), dtype=float
    )

    n_pilot = min(_PILOT_TRAJ, n_traj)
    # The pilot runs as two jobs, so that both workers look for a trip.  A
    # trajectory's rows keep their bytes in a narrower batch when the cut
    # falls on a multiple of 8 and leaves 8 or more on each side; narrower
    # or unaligned pieces switch BLAS and einsum kernels.
    cuts = (0, 8 * round(n_pilot / 16), n_pilot) if n_pilot >= 16 else (0, n_pilot)
    pilot = [np.arange(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    rest = [np.arange(lo, min(lo + _BATCH, n_traj)) for lo in range(n_pilot, n_traj, _BATCH)]
    for _ in range(_MAX_GROW_ROUNDS + 1):
        ops = build_operators(p, n_here)
        # The explicit step damps the top Fock level by 1 - dt*loss; past
        # dt*loss = 1 it overshoots and the run gives garbage.
        dt_max = 1.0 / float(ops.loss_diag.max())
        if dt_eff >= dt_max:
            raise InvalidParameterError(
                f"dt={dt_eff:.4g} is unstable at cutoff n_max={n_here}: the "
                f"explicit step needs dt < {dt_max:.4g} there"
            )
        job = partial(_run_batch, ops=ops, seed=seed, eps_steps=eps_steps,
                      n_relax=n_relax, spi=spi, n_grid=n_grid, dt=dt_eff)
        try:
            rows = map_ordered(job, pilot + rest, n_workers)
            break
        except _TailTripped:
            n_here += GROW_STEP
    else:
        raise TruncationError("tail bound still violated after repeated cutoff growth")

    # Join the pilot's halves, then reduce each batch of the layout in order.
    joined = {k: np.concatenate([r[k] for r in rows[:len(pilot)]], axis=-1)
              for k in rows[0]}
    total = sum_parts(
        slice_sums(r["live"], slice(None),
                   {"v": r["v"], "n1": r["n1"], "n2": r["n2"], "pair": r["pair"]},
                   {"v": r["v"], "d": r["n1"] - r["n2"]})
        for r in [joined, *rows[len(pilot):]])
    tail_max = np.max([r["tail"].max(axis=1, initial=0.0, where=r["live"])
                       for r in rows], axis=0)
    count = total["count"]
    dead = sum(int((~r["alive"]).sum()) for r in rows)
    check_survivors(count, dead, n_traj)
    v_mean, v_se = mean_and_stderr(total, "v")
    n1_mean = total["sum_n1"] / count
    n2_mean = total["sum_n2"] / count

    return QsdEnsemble(
        t_grid=t_grid, V_mean=v_mean, V_stderr=v_se, n1_mean=n1_mean, n2_mean=n2_mean,
        diff_stderr=std_error(total["sq_d"], n1_mean - n2_mean, count),
        pair_mean=total["sum_pair"] / count, tail_max=tail_max, n_traj=n_traj,
        discarded=dead, n_max=n_here, dt=dt_eff, seed=seed,
    )
