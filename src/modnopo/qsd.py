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

import numpy as np
import scipy.sparse as sp

from .errors import (
    BelowThresholdError,
    ConvergenceError,
    DivergenceBudgetError,
    FockDimensionError,
    InvalidParameterError,
    TruncationError,
)
from ._ensemble import check_workers, map_ordered, step_layout, std_error, sum_parts
from ._streams import SALT_STATE_DIFFUSION, trajectory_stream
from .model import DerivedParams, ModelParams, derive_params
from .semiclassical import periodic_steady_state

DEFAULT_DT = 1e-3
RELAX_WINDOW = 5.0
TAIL_TOL = 1e-6
TAIL_LEVELS = 3
GROW_STEP = 4
# Hard ceiling on the product-basis dimension (n_max+1)^2.  Above this the
# dense state batches stop fitting comfortably in memory and the run should
# be reconsidered rather than silently ground through.
MAX_PRODUCT_DIM = 40_000
# Target elements per state batch; caps batches at 64 trajectories.
_BATCH_ELEMENTS = 4_194_304
_MAX_GROW_ROUNDS = 25
_PILOT_TRAJ = 32
DIVERGENCE_BUDGET = 1e-3


def ladder(n_max: int) -> sp.csr_matrix:
    """Single-mode annihilation operator on n_max+1 Fock levels."""
    if n_max < 1:
        raise InvalidParameterError("ladder operator needs n_max >= 1")
    off = np.sqrt(np.arange(1.0, n_max + 1.0))
    return sp.diags(off, offsets=1, format="csr", dtype=np.complex128)


@dataclass(frozen=True)
class OperatorSet:
    """Sparse operators over the |n1,n2> product basis, plus model rates.

    The drive enters through ``eps(t)``; everything else is time independent
    and shared read-only across trajectories.  ``loss_diag`` carries the
    diagonal 1/2 sum(L^dag L) = gamma*(n1+n2) + lam*n1*n2 used by the drift,
    and ``tail_mask`` marks basis states within TAIL_LEVELS of either cutoff.
    """

    n_max: int
    dim: int
    a1: sp.csr_matrix
    a2: sp.csr_matrix
    pair: sp.csr_matrix
    pair_dag: sp.csr_matrix
    n1_diag: np.ndarray
    n2_diag: np.ndarray
    loss_diag: np.ndarray
    tail_mask: np.ndarray
    gamma: float
    lam: float
    derived: DerivedParams

    def eps(self, t):
        return self.derived.eps(t)

    def hamiltonian(self, t: float) -> sp.csr_matrix:
        e = float(self.derived.eps(t))
        return (1j * e) * (self.pair_dag - self.pair)

    def lindblad_ops(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        root_g = math.sqrt(2.0 * self.gamma)
        root_l = math.sqrt(2.0 * self.lam)
        return root_g * self.a1, root_g * self.a2, root_l * self.pair


@dataclass(frozen=True)
class FockState:
    """Normalized amplitude vector over the product basis at time t."""

    amplitudes: np.ndarray
    t: float

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tail_population(self, ops: OperatorSet) -> float:
        w = np.abs(self.amplitudes[ops.tail_mask]) ** 2
        return float(w.sum())


def vacuum_state(ops: OperatorSet, t: float = 0.0) -> FockState:
    amps = np.zeros(ops.dim, dtype=np.complex128)
    amps[0] = 1.0
    return FockState(amplitudes=amps, t=t)


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
    a = ladder(n_max)
    eye = sp.identity(n_max + 1, format="csr", dtype=np.complex128)
    a1 = sp.kron(a, eye, format="csr")
    a2 = sp.kron(eye, a, format="csr")
    pair = (a1 @ a2).tocsr()
    levels = np.arange(n_max + 1.0)
    n1_diag = np.repeat(levels, n_max + 1)
    n2_diag = np.tile(levels, n_max + 1)
    loss_diag = d.gamma * (n1_diag + n2_diag) + d.lam * n1_diag * n2_diag
    tail = (n1_diag > n_max - TAIL_LEVELS) | (n2_diag > n_max - TAIL_LEVELS)
    return OperatorSet(
        n_max=n_max,
        dim=dim,
        a1=a1,
        a2=a2,
        pair=pair,
        pair_dag=pair.conj().T.tocsr(),
        n1_diag=n1_diag,
        n2_diag=n2_diag,
        loss_diag=loss_diag,
        tail_mask=tail,
        gamma=d.gamma,
        lam=d.lam,
        derived=d,
    )


def expectation(psi: FockState, op) -> complex:
    """<psi|op|psi> via sparse (or dense) action."""
    v = psi.amplitudes
    if op.shape != (v.size, v.size):
        raise FockDimensionError(
            f"operator shape {op.shape} does not match state dimension {v.size}"
        )
    return complex(np.vdot(v, op @ v))


def _step_batch(psi, eps_t, ops, dt, xi):
    """One Euler-Maruyama diffusion step on a (dim, batch) state block.

    The Gisin-Percival update
    psi + [-iH - 1/2 sum L^dag L + sum <L>* L - 1/2 sum |<L>|^2] psi dt
        + sum (L - <L>) psi dxi
    is folded into one linear combination of psi and its four sparse images,
    psi k0 - dt loss psi + k1 a1 psi + k2 a2 psi + k3 pair psi + k4 pair^dag psi,
    whose coefficients are per-trajectory scalars.  xi holds six standard
    normals per trajectory, shape (6, batch), and dxi_k = sqrt(dt/2) times
    (xi[2k] + i xi[2k+1]).  Returns the unnormalized updated block; callers
    renormalize and check tails so that scalar and ensemble paths share the
    same kernel.
    """
    a1p = ops.a1 @ psi
    a2p = ops.a2 @ psi
    prp = ops.pair @ psi
    pdp = ops.pair_dag @ psi

    psi_c = psi.conj()
    e_a1 = np.einsum("ib,ib->b", psi_c, a1p)
    e_a2 = np.einsum("ib,ib->b", psi_c, a2p)
    e_pr = np.einsum("ib,ib->b", psi_c, prp)

    two_g = 2.0 * ops.gamma
    two_l = 2.0 * ops.lam
    # sqrt(2 rate) dxi per channel
    root = math.sqrt(0.5 * dt)
    w1 = (math.sqrt(two_g) * root) * (xi[0] + 1j * xi[1])
    w2 = (math.sqrt(two_g) * root) * (xi[2] + 1j * xi[3])
    w3 = (math.sqrt(two_l) * root) * (xi[4] + 1j * xi[5])
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


def qsd_step(
    psi: FockState,
    ops: OperatorSet,
    dt: float,
    rng: np.random.Generator,
    tail_tol: float = TAIL_TOL,
) -> FockState:
    """Advance one trajectory by dt and renormalize."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParameterError(f"dt must be positive and finite, got {dt}")
    v = psi.amplitudes.reshape(-1, 1)
    if v.shape[0] != ops.dim:
        raise FockDimensionError(
            f"state dimension {v.shape[0]} does not match operator set {ops.dim}"
        )
    eps_t = float(ops.derived.eps(psi.t))
    xi = rng.standard_normal(6).reshape(6, 1)
    out = _step_batch(v, eps_t, ops, dt, xi)[:, 0]
    nrm = np.linalg.norm(out)
    if not np.isfinite(nrm) or nrm <= 0.0:
        raise TruncationError("state norm lost during step; reduce dt")
    out = out / nrm
    new = FockState(amplitudes=out, t=psi.t + dt)
    tail = new.tail_population(ops)
    if tail > tail_tol:
        raise TruncationError(
            f"tail population {tail:.3e} exceeds {tail_tol:.1e} at n_max={ops.n_max}"
        )
    return new


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


def _classical_orbit_max(p: ModelParams) -> float:
    d = derive_params(p)
    if d.eps_bar <= d.gamma * (1.0 + 1e-6):
        return 0.0
    try:
        return periodic_steady_state(p).max_n0()
    except (BelowThresholdError, ConvergenceError):
        return 0.0


def auto_n_max(p: ModelParams) -> int:
    """Starting cutoff: four times the classical orbit peak plus headroom."""
    return int(math.ceil(4.0 * _classical_orbit_max(p) + 10.0))


def _run_batch(indices, ops, seed, eps_steps, n_relax, spi, n_grid, dt, tail_tol):
    """Run one batch of trajectories; returns partial sums.

    All trajectories start from vacuum at the first step.  Raises
    _TailTripped once a live trajectory's tail population passes tail_tol.
    Dead (non-finite) trajectories are zeroed and excluded from every
    accumulator.
    """
    nb = len(indices)
    psi = np.zeros((ops.dim, nb), dtype=np.complex128)
    psi[0, :] = 1.0
    alive = np.ones(nb, dtype=bool)
    tail_rows = ops.tail_mask.astype(float)

    rngs = [trajectory_stream(seed, int(i), SALT_STATE_DIFFUSION) for i in indices]
    n_steps = n_relax + (n_grid - 1) * spi

    out = {
        "count": np.zeros(n_grid),
        "sum_v": np.zeros(n_grid),
        "sq_v": np.zeros(n_grid),
        "sum_n1": np.zeros(n_grid),
        "sum_n2": np.zeros(n_grid),
        "sq_d": np.zeros(n_grid),
        "sum_pair": np.zeros(n_grid, dtype=np.complex128),
        "tail_max": np.zeros(n_grid),
        "dead": 0,
    }

    # Recording reuses the diagonal number vectors; only the pair
    # expectation needs a matvec.
    def record_at(j):
        w = np.abs(psi) ** 2
        n1 = ops.n1_diag @ w
        n2 = ops.n2_diag @ w
        pair = np.einsum("ib,ib->b", psi.conj(), ops.pair @ psi)
        tail = tail_rows @ w
        v = 1.0 + n1 + n2 - 2.0 * pair.real
        m = alive
        out["count"][j] += m.sum()
        out["sum_v"][j] += v[m].sum()
        out["sq_v"][j] += (v[m] ** 2).sum()
        out["sum_n1"][j] += n1[m].sum()
        out["sum_n2"][j] += n2[m].sum()
        out["sq_d"][j] += ((n1[m] - n2[m]) ** 2).sum()
        out["sum_pair"][j] += pair[m].sum()
        if m.any():
            out["tail_max"][j] = max(out["tail_max"][j], float(tail[m].max()))

    chunk = 512
    step = 0
    if n_relax == 0:
        record_at(0)
    while step < n_steps:
        take = min(chunk, n_steps - step)
        # One contiguous block of normals per trajectory keeps the stream
        # layout independent of chunk size.
        xis = np.stack([g.standard_normal((take, 6)) for g in rngs], axis=-1)
        for k in range(take):
            psi = _step_batch(psi, eps_steps[step], ops, dt, xis[k])
            # One pass of weights gives both the norm and the tail.
            w = np.abs(psi) ** 2
            nrm2 = w.sum(axis=0)
            bad = ~np.isfinite(nrm2) | (nrm2 <= 0.0)
            if bad.any():
                alive &= ~bad
                nrm2[bad] = 1.0
                psi[:, bad] = 0.0
            if ((tail_rows @ w > tail_tol * nrm2) & alive).any():
                raise _TailTripped
            psi *= 1.0 / np.sqrt(nrm2)  # far cheaper than complex division
            step += 1
            past_relax = step - n_relax
            if past_relax >= 0 and past_relax % spi == 0 and past_relax // spi < n_grid:
                record_at(past_relax // spi)
    out["dead"] = int((~alive).sum())
    return out


def simulate_qsd_ensemble(
    p: ModelParams,
    n_max: int | None = None,
    n_traj: int = 512,
    t_grid=None,
    seed: int = 0,
    dt: float = DEFAULT_DT,
    relax: float = RELAX_WINDOW,
    tail_tol: float = TAIL_TOL,
    n_workers: int = 1,
) -> QsdEnsemble:
    """Diffusion-unraveling ensemble estimate of V(t) from vacuum.

    The cutoff starts at ``n_max`` (or an automatic classical estimate) and
    grows by GROW_STEP whenever any trajectory pushes population past the
    tail bound.  At each cutoff a pilot batch of the leading trajectories
    runs first, so an undersized cutoff is found cheaply, and then the rest
    in batches; the pilot's sums count toward the ensemble.  Growth reruns
    the whole ensemble with the same per-trajectory noise streams and a
    batch layout fixed by (n_traj, cutoff), so results depend only on
    (params, seed, final cutoff) and not on n_workers.
    """
    if n_traj < 2:
        raise InvalidParameterError("need at least 2 trajectories")
    check_workers(n_workers)
    t_grid = np.asarray(t_grid, dtype=float)
    spi, dt_eff, n_relax, t_start = step_layout(t_grid, dt, relax)
    n_grid = t_grid.size

    d = derive_params(p)
    n_here = int(n_max) if n_max is not None else auto_n_max(p)
    n_here = max(n_here, 2)

    n_steps = n_relax + (n_grid - 1) * spi
    eps_steps = np.asarray(
        d.eps(t_start + dt_eff * np.arange(max(n_steps, 1))), dtype=float
    )

    def run(ops, indices):
        return _run_batch(
            indices, ops, seed, eps_steps, n_relax, spi, n_grid, dt_eff, tail_tol
        )

    n_pilot = min(_PILOT_TRAJ, n_traj)
    for _ in range(_MAX_GROW_ROUNDS + 1):
        ops = build_operators(p, n_here)
        batch = min(64, max(1, _BATCH_ELEMENTS // ops.dim))
        rest = [
            np.arange(lo, min(lo + batch, n_traj))
            for lo in range(n_pilot, n_traj, batch)
        ]
        try:
            parts = [run(ops, np.arange(n_pilot))]
            parts += map_ordered(lambda idx: run(ops, idx), rest, n_workers)
            break
        except _TailTripped:
            n_here += GROW_STEP
    else:
        raise TruncationError("tail bound still violated after repeated cutoff growth")

    total = sum_parts(parts)
    count = total["count"]
    dead = int(total["dead"])
    if (count < 2).any():
        raise DivergenceBudgetError("fewer than 2 surviving trajectories")
    if dead > DIVERGENCE_BUDGET * n_traj:
        raise DivergenceBudgetError(
            f"{dead} of {n_traj} trajectories lost ({dead / n_traj:.2%})"
        )

    v_mean = total["sum_v"] / count
    n1_mean = total["sum_n1"] / count
    n2_mean = total["sum_n2"] / count

    return QsdEnsemble(
        t_grid=t_grid,
        V_mean=v_mean,
        V_stderr=std_error(total["sq_v"], v_mean, count),
        n1_mean=n1_mean,
        n2_mean=n2_mean,
        diff_stderr=std_error(total["sq_d"], n1_mean - n2_mean, count),
        pair_mean=total["sum_pair"] / count,
        tail_max=total["tail_max"],
        n_traj=n_traj,
        discarded=dead,
        n_max=n_here,
        dt=dt_eff,
        seed=seed,
    )
