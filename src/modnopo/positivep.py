"""Positive-P phase-space simulation of the two subharmonic modes.

Each mode carries two independent complex amplitudes (alpha_i, beta_i);
beta_i = conj(alpha_i) only in the classical limit.  The drift couples the
modes through the pump and the two-photon-absorption nonlinearity, and the
noise is the characteristic cross-correlated pair: within the alpha group
the two mode increments correlate as (eps - lam*alpha1*alpha2) dt while
every self-correlation vanishes, and the beta group mirrors that with its
own amplitudes.  The sum/difference construction in _noise_batch realizes
this covariance exactly, no matrix square root needed.

Ensembles are Euler-Maruyama (Ito) with fixed step, per-trajectory
counter-based RNG streams, and fixed-order reduction, so results are
byte-identical for a given seed regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ensemble import check_workers, map_ordered, step_layout, std_error, sum_parts
from ._streams import SALT_PHASE_SPACE, trajectory_stream
from .errors import DivergenceBudgetError, DivergenceError
from .model import DerivedParams, ModelParams, Regime, derive_params, regime_classify
from .semiclassical import periodic_steady_state

BATCH = 256                 # trajectories stepped together; fixed for determinism
NOISE_CHUNK = 1024          # steps of pre-drawn normals per trajectory
DEFAULT_DT = 1e-3
RELAX_WINDOW = 5.0          # discarded settling time before the grid, in 1/gamma
DIVERGENCE_GUARD_FACTOR = 1e3
DIVERGENCE_BUDGET = 1e-3


@dataclass(frozen=True)
class PPState:
    """Phase-space point of one trajectory: two amplitudes per mode."""

    alpha1: complex
    alpha2: complex
    beta1: complex
    beta2: complex
    t: float


@dataclass(frozen=True)
class NoiseIncrement:
    """Correlated complex noise increments for one Euler step."""

    dW_alpha1: complex
    dW_alpha2: complex
    dW_beta1: complex
    dW_beta2: complex


def divergence_guard(p: ModelParams | DerivedParams) -> float:
    """Amplitude bound past which a trajectory counts as diverged."""
    d = p if isinstance(p, DerivedParams) else derive_params(p)
    return DIVERGENCE_GUARD_FACTOR * math.sqrt(d.gamma / d.lam)


def _noise_batch(a1, a2, b1, b2, eps_t, lam, dt, eta):
    """Correlated noise increments (dW_a1, dW_a2, dW_b1, dW_b2) of a batch.

    Within each group the construction sqrt(d/2)*(eta1 + i*eta2) and
    sqrt(d/2)*(eta1 - i*eta2) gives cross-correlation d*dt and vanishing
    self-correlations; d is complex in general and the principal branch of
    the square root is used (either branch gives identical statistics, the
    sign folds into the Gaussians).  eta holds four standard normals per
    trajectory, shape (batch, 4).
    """
    root_a = np.sqrt(0.5 * dt * (eps_t - lam * a1 * a2))
    root_b = np.sqrt(0.5 * dt * (eps_t - lam * b1 * b2))
    za = eta[:, 0] + 1j * eta[:, 1]
    zb = eta[:, 2] + 1j * eta[:, 3]
    return root_a * za, root_a * np.conj(za), root_b * zb, root_b * np.conj(zb)


def _step_batch(a1, a2, b1, b2, eps_t, gamma, lam, dt, eta):
    """Euler-Maruyama increments (da1, da2, db1, db2) of a batch of trajectories.

    The drift plus, unless eta is None, the noise of _noise_batch.  The
    ensemble and the scalar helpers share this one kernel.
    """
    g12 = gamma + lam * a2 * b2   # decay seen by mode 1
    g21 = gamma + lam * a1 * b1   # decay seen by mode 2
    u_a1 = (-g12 * a1 + eps_t * b2) * dt
    u_a2 = (-g21 * a2 + eps_t * b1) * dt
    u_b1 = (-g12 * b1 + eps_t * a2) * dt
    u_b2 = (-g21 * b2 + eps_t * a1) * dt
    if eta is not None:
        w_a1, w_a2, w_b1, w_b2 = _noise_batch(a1, a2, b1, b2, eps_t, lam, dt, eta)
        u_a1 += w_a1
        u_a2 += w_a2
        u_b1 += w_b1
        u_b2 += w_b2
    return u_a1, u_a2, u_b1, u_b2


def _amplitudes(state: PPState) -> np.ndarray:
    """The state as a batch of one: rows alpha1, alpha2, beta1, beta2."""
    amps = [[state.alpha1], [state.alpha2], [state.beta1], [state.beta2]]
    return np.array(amps, dtype=np.complex128)


def _draw_eta(rng: np.random.Generator, dt: float) -> np.ndarray:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return rng.standard_normal((1, 4))


def sample_noise(
    state: PPState, eps_t: float, lam: float, dt: float, rng: np.random.Generator
) -> NoiseIncrement:
    """Draw one set of noise increments at the current state."""
    w = _noise_batch(*_amplitudes(state), eps_t, lam, dt, _draw_eta(rng, dt))
    return NoiseIncrement(*(complex(x[0]) for x in w))


def step_trajectory(
    state: PPState,
    p: ModelParams | DerivedParams,
    dt: float,
    rng: np.random.Generator,
    with_noise: bool = True,
) -> PPState:
    """One Euler-Maruyama step of a single trajectory.

    The ensemble's batch kernel at batch size 1, plus the divergence guard;
    with_noise=False exposes the deterministic drift for the
    classical-limit checks.
    """
    d = p if isinstance(p, DerivedParams) else derive_params(p)
    amps = _amplitudes(state)
    eta = _draw_eta(rng, dt) if with_noise else None
    incs = _step_batch(*amps, float(d.eps(state.t)), d.gamma, d.lam, dt, eta)
    new = [complex(x[0] + u[0]) for x, u in zip(amps, incs)]
    guard = divergence_guard(d)
    if max(abs(z) for z in new) > guard:
        raise DivergenceError(
            f"trajectory amplitude exceeded {guard:.3e} at t={state.t + dt:.4f}"
        )
    return PPState(*new, t=state.t + dt)


@dataclass
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


def _initial_amplitude(p: ModelParams, t_start: float) -> float:
    """Deterministic periodic starting point: all amplitudes sqrt(n0)."""
    if regime_classify(p) is Regime.ABOVE_THRESHOLD:
        n0 = float(periodic_steady_state(p).interp(t_start))
        return math.sqrt(max(n0, 0.0))
    return 0.0


def _run_batch(
    indices: np.ndarray,
    d: DerivedParams,
    seed: int,
    amp0: float,
    t_start: float,
    n_relax: int,
    spi: int,
    t_grid: np.ndarray,
    dt: float,
    guard: float,
    with_noise: bool,
    extended: bool,
) -> dict:
    """Step one batch of trajectories and return its accumulated sums.

    All trajectories in the batch advance in lockstep; diverged ones are
    zeroed and masked out of every subsequent update and average.  Sums are
    taken in fixed trajectory order so the reduction is deterministic.
    """
    B = indices.size
    m = t_grid.size
    gamma, lam = d.gamma, d.lam
    rngs = [trajectory_stream(seed, int(i), SALT_PHASE_SPACE) for i in indices]

    a1 = np.full(B, amp0, dtype=np.complex128)
    a2 = a1.copy()
    b1 = a1.copy()
    b2 = a1.copy()
    alive = np.ones(B, dtype=bool)

    n_steps = n_relax + (m - 1) * spi
    acc: dict = {
        "count": np.zeros(m, dtype=np.int64),
        "sum_np": np.zeros(m, dtype=np.complex128),
        "sq_np": np.zeros(m),
        "sum_R": np.zeros(m, dtype=np.complex128),
        "sq_R": np.zeros(m),
        "sum_Z": np.zeros(m, dtype=np.complex128),
        "sq_Z": np.zeros(m),
        "sum_p1": np.zeros(m, dtype=np.complex128),
        "sum_p2": np.zeros(m, dtype=np.complex128),
        "sq_pd": np.zeros(m),
    }
    if extended:
        acc["sum_np2"] = np.zeros(m, dtype=np.complex128)
        acc["sum_npR"] = np.zeros(m, dtype=np.complex128)
        acc["res_sum"] = np.zeros((3, m - 2))
        acc["res_sq"] = np.zeros((3, m - 2))
        acc["res_count"] = np.zeros(m - 2, dtype=np.int64)
        ring: list[dict | None] = [None, None, None]  # per-grid slices j-1, j, j+1
    h = float(t_grid[1] - t_grid[0]) if m > 1 else 0.0

    def record(j: int) -> None:
        af = alive
        n1 = a1 * b1
        n2 = a2 * b2
        np_ = n1 + n2
        R = (a1 - b2) * (b1 - a2)
        Z = (n1 - n2) ** 2 + np_
        acc["count"][j] += int(af.sum())
        acc["sum_np"][j] += np_[af].sum()
        acc["sq_np"][j] += (np_.real[af] ** 2).sum()
        acc["sum_R"][j] += R[af].sum()
        acc["sq_R"][j] += (R.real[af] ** 2).sum()
        acc["sum_Z"][j] += Z[af].sum()
        acc["sq_Z"][j] += (Z.real[af] ** 2).sum()
        acc["sum_p1"][j] += n1[af].sum()
        acc["sum_p2"][j] += n2[af].sum()
        acc["sq_pd"][j] += ((n1 - n2).real[af] ** 2).sum()
        if extended:
            np2 = np_ * np_
            npR = np_ * R
            acc["sum_np2"][j] += np2[af].sum()
            acc["sum_npR"][j] += npR[af].sum()
            ring[0], ring[1], ring[2] = ring[1], ring[2], {
                "np": np_.copy(), "R": R.copy(), "Z": Z.copy(),
                "np2": np2, "npR": npR, "alive": af.copy(),
            }
            if j >= 2:
                _record_residuals(j - 1, ring)

    def _rhs_rows(slc: dict, eps_j: float) -> dict:
        rhs_np = ((2.0 * eps_j - 2.0 * gamma - lam) * slc["np"]
                  - lam * slc["np2"] - 2.0 * eps_j * slc["R"] + lam * slc["Z"])
        rhs_R = (-(2.0 * eps_j + 2.0 * gamma + lam) * slc["R"]
                 - lam * slc["npR"] - 2.0 * eps_j + lam * slc["Z"])
        rhs_Z = -4.0 * gamma * slc["Z"] + 2.0 * gamma * slc["np"]
        return {"np": rhs_np, "R": rhs_R, "Z": rhs_Z}

    def _record_residuals(jc: int, ring: list) -> None:
        # Centered difference of each trajectory's moment across the grid
        # against the moment-equation drift integrated over the same window
        # (Simpson rule on the three recorded slices).  Comparing against
        # the midpoint drift alone leaves an O(h^2) truncation bias that a
        # large ensemble resolves as a spurious residual on modulated runs;
        # Simpson pushes the bias to O(h^4).
        prev, mid, nxt = ring
        ok = prev["alive"] & mid["alive"] & nxt["alive"]
        rp = _rhs_rows(prev, float(d.eps(t_grid[jc - 1])))
        rm = _rhs_rows(mid, float(d.eps(t_grid[jc])))
        rn = _rhs_rows(nxt, float(d.eps(t_grid[jc + 1])))
        for row, x in enumerate(("np", "R", "Z")):
            rhs = (rp[x] + 4.0 * rm[x] + rn[x]) / 6.0
            r = ((nxt[x] - prev[x]) / (2.0 * h) - rhs).real[ok]
            acc["res_sum"][row, jc - 1] += r.sum()
            acc["res_sq"][row, jc - 1] += (r ** 2).sum()
        acc["res_count"][jc - 1] += int(ok.sum())

    chunk_noise = None
    chunk_pos = NOISE_CHUNK
    t = t_start
    record_at = n_relax   # step count at which the next grid point is hit
    next_j = 0
    if n_relax == 0:
        record(0)
        next_j = 1
        record_at = spi

    eta = None
    for step in range(n_steps):
        if with_noise:
            if chunk_pos >= NOISE_CHUNK:
                take = min(NOISE_CHUNK, n_steps - step)
                chunk_noise = np.stack(
                    [g.standard_normal((take, 4)) for g in rngs], axis=0
                )
                chunk_pos = 0
            eta = chunk_noise[:, chunk_pos, :]
            chunk_pos += 1
        u_a1, u_a2, u_b1, u_b2 = _step_batch(
            a1, a2, b1, b2, float(d.eps(t)), gamma, lam, dt, eta
        )
        af = alive.astype(np.complex128)
        a1 += u_a1 * af
        b1 += u_b1 * af
        a2 += u_a2 * af
        b2 += u_b2 * af
        t += dt
        bad = alive & (
            (np.abs(a1) > guard) | (np.abs(a2) > guard)
            | (np.abs(b1) > guard) | (np.abs(b2) > guard)
        )
        if bad.any():
            for arr in (a1, a2, b1, b2):
                arr[bad] = 0.0
            alive &= ~bad
        if step + 1 == record_at:
            record(next_j)
            next_j += 1
            record_at += spi

    acc["alive_final"] = int(alive.sum())
    return acc


def simulate_ensemble(
    p: ModelParams,
    n_traj: int,
    t_grid,
    seed: int,
    dt: float = DEFAULT_DT,
    relax: float = RELAX_WINDOW,
    n_workers: int = 1,
    with_noise: bool = True,
    collect_extended: bool = False,
) -> EnsembleMoments:
    """Run n_traj independent trajectories and accumulate grid moments.

    Trajectories start from the deterministic periodic point (all four
    amplitudes sqrt(n0) at the start time; vacuum at or below threshold),
    relax for `relax` before the first grid time, and are sampled at
    t_grid, which must be uniform.  The step dt is rounded down so grid
    times land exactly on steps.  Trajectories whose amplitude leaves the
    divergence guard are frozen and dropped from later averages; a
    discarded fraction above 0.1% raises, since further bias would not be
    visible in the statistical error.
    """
    if n_traj < 2:
        raise ValueError(f"need at least 2 trajectories, got {n_traj}")
    check_workers(n_workers)
    t_grid = np.asarray(t_grid, dtype=float)
    spi, dt_eff, n_relax, t_start = step_layout(t_grid, dt, relax)
    if collect_extended and t_grid.size < 3:
        raise ValueError("extended collection needs at least 3 grid points")

    d = derive_params(p)
    guard = divergence_guard(d)
    amp0 = _initial_amplitude(p, t_start)

    def job(idx: np.ndarray) -> dict:
        return _run_batch(idx, d, seed, amp0, t_start, n_relax, spi,
                          t_grid, dt_eff, guard, with_noise, collect_extended)

    batches = [np.arange(lo, min(lo + BATCH, n_traj)) for lo in range(0, n_traj, BATCH)]
    total = sum_parts(map_ordered(job, batches, n_workers))

    cnt = total["count"].astype(float)
    if np.any(cnt < 2):
        raise DivergenceBudgetError(
            "fewer than 2 surviving trajectories at some grid point"
        )

    def mean_and_stderr(s_key: str, q_key: str):
        mean = total[s_key].real / cnt
        return mean, std_error(total[q_key], mean, cnt)

    np_mean, np_se = mean_and_stderr("sum_np", "sq_np")
    R_mean, R_se = mean_and_stderr("sum_R", "sq_R")
    Z_mean, Z_se = mean_and_stderr("sum_Z", "sq_Z")
    p1_mean = total["sum_p1"].real / cnt
    p2_mean = total["sum_p2"].real / cnt
    pd_se = std_error(total["sq_pd"], p1_mean - p2_mean, cnt)

    discarded = n_traj - total["alive_final"]
    if discarded > DIVERGENCE_BUDGET * n_traj:
        raise DivergenceBudgetError(
            f"{discarded}/{n_traj} trajectories diverged, over the "
            f"{DIVERGENCE_BUDGET:.1%} budget; results would be biased"
        )

    out = EnsembleMoments(
        t_grid=t_grid,
        n_plus_mean=np_mean, n_plus_stderr=np_se,
        R_mean=R_mean, R_stderr=R_se,
        Z_mean=Z_mean, Z_stderr=Z_se,
        V_mean=1.0 + R_mean, V_stderr=R_se,
        pair1_mean=p1_mean, pair2_mean=p2_mean, pair_diff_stderr=pd_se,
        alive=total["count"].copy(), n_traj=n_traj, discarded=discarded,
        seed=seed, dt=dt_eff,
    )
    if collect_extended:
        out.n_plus_sq_mean = total["sum_np2"].real / cnt
        out.n_plus_R_mean = total["sum_npR"].real / cnt
        rc = total["res_count"].astype(float)
        out.residual_mean = total["res_sum"] / rc
        out.residual_stderr = std_error(total["res_sq"], out.residual_mean, rc)
    return out


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
