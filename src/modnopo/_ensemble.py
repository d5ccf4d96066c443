"""Plumbing shared by the batched trajectory ensembles.

Both stochastic routes (positive-P and state diffusion) lay their fixed
Euler steps onto a uniform output grid the same way, run batches of
trajectories through the same ordered process pool (the V_min sweep runs
its cells through it too), and reduce the batches' partial sums in the
same fixed order, so their results depend on the seed and never on the
worker count.

Within a batch both routes step their trajectories in lockstep through one
loop, run_lockstep.  It builds each trajectory's noise stream, draws its
normals in chunks (draw_noise), calls the route's advance(step, z, alive)
once per step, with z the step's normals as complex pairs, and its
record() once per grid point after the relaxation window, owns the alive
mask that advance may clear, and returns the records as rows.  One
reducer, slice_sums, sums rows over their live trajectories.

Each trajectory owns a counter-based Philox stream, trajectory_stream,
keyed by (seed XOR the route's salt, the trajectory's global index).  The
stream depends only on the seed, the route and the index: batching,
worker count and scheduling cannot change what any trajectory draws, and
the two salts keep the routes' draws for one seed decorrelated.

Both drivers share their front and back too.  The front is check_seed,
which refuses a seed outside [0, 2**64), and step_layout, which refuses
fewer than 2 trajectories, a bad worker count or grid and a run past
MAX_TRAJ_STEPS, and lays the steps onto the grid.  The back is
check_survivors, which refuses a grid point with fewer than 2 live
trajectories and a run that lost more than DIVERGENCE_BUDGET, and
mean_and_stderr, which turns the reduced sums into a mean and its standard
error.  A route keeps only its step kernel, its guard, what it records and
sums, its job layout and its pump clock; state diffusion also keeps its
pilot and cutoff growth.

Each pool has one stop event, handed to its workers when they start.  The
pool sets it as soon as a job fails, and run_lockstep checks it once per
step in a worker, so the sibling jobs already running end with Aborted
instead of running to their last step.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

import numpy as np

from .errors import DivergenceBudgetError, InvalidParameterError

# Euler steps one trajectory may take: 2000 times the default relaxation
# window at the default step, and already minutes to hours per batch.
MAX_STEPS = 10**7
# Trajectory-steps one ensemble may take, n_traj times the steps of one
# trajectory (at least 1): about 3 days of positive-P at 4.25M
# trajectory-steps/s.
# Criterion 7 takes about 8.1e7 (10,000 x 8,142) and criterion 8 about
# 4.2e6, so the headroom is over 10^4.
MAX_TRAJ_STEPS = 2**40
NOISE_CHUNK = 1024          # steps of normals drawn per stream at a time
# Normals held per chunk, 8 MB: NOISE_CHUNK steps of positive-P's 4 normals
# for one batch of 256 streams.  Wider lockstep groups draw fewer steps at
# a time instead of a larger buffer.
NOISE_NORMALS = 1_048_576
# Streams drawn between transposing copies.  At 256-1,024 streams, 64 drew
# 3-9% faster than 16 (fewer, longer runs in the copy).
DRAW_BLOCK = 64
# Largest share of a run's trajectories that may leave through the route's
# guard; past it the bias of dropping them would not show in the errors.
DIVERGENCE_BUDGET = 1e-3
# Salts of the two routes' streams (trajectory_stream).
SALT_PHASE_SPACE = 0
SALT_STATE_DIFFUSION = 0x9E3779B97F4A7C15

_stop = None                # the pool's stop event, in a worker process


class Aborted(Exception):
    """A pooled job stopped because another job of its pool failed."""


def step_layout(t_grid, dt: float, relax: float, n_traj: int, n_workers: int):
    """Check an ensemble's request and lay its fixed steps onto the grid.

    Refuses fewer than 2 trajectories, a worker count below 1, a t_grid
    that is not uniform and increasing, a bad dt or relax, and a run past
    MAX_STEPS or an ensemble past MAX_TRAJ_STEPS.  dt is rounded down so
    that every grid time lands on a step, and the relaxation window before
    the first grid time is a whole number of steps (a negative relax means
    none).  Returns (t_grid, spi, dt_eff, n_relax, t_start, n_steps): the
    grid as floats, steps per grid interval, the step used, the relaxation
    steps, the start time and the steps of one trajectory.
    """
    if n_traj < 2:
        raise InvalidParameterError(f"need at least 2 trajectories, got {n_traj}")
    check_workers(n_workers)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or not np.isfinite(t_grid).all():
        raise InvalidParameterError("t_grid must be a nonempty 1-d array of finite times")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParameterError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(relax):
        raise InvalidParameterError(f"relax must be finite, got {relax}")
    if t_grid.size > 1:
        steps = np.diff(t_grid)
        h = float(steps[0])
        if steps.min() <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(h, 1.0):
            raise InvalidParameterError("t_grid must be uniform and increasing")
        spi = max(1, math.ceil(h / dt - 1e-12))
        dt_eff = h / spi
    else:
        spi = 1
        dt_eff = float(dt)
    n_relax = math.ceil(max(relax, 0.0) / dt_eff - 1e-12)
    n_steps = n_relax + (t_grid.size - 1) * spi
    if n_steps > MAX_STEPS:
        raise InvalidParameterError(
            f"relax={relax} and the grid at dt={dt} need {n_steps} steps per "
            f"trajectory, more than {MAX_STEPS}; shorten relax or the grid, or raise dt"
        )
    per_traj = max(n_steps, 1)   # a trajectory of no step still records once
    if n_traj * per_traj > MAX_TRAJ_STEPS:
        raise InvalidParameterError(
            f"{n_traj} trajectories x {per_traj} steps exceed the budget of "
            f"{MAX_TRAJ_STEPS} trajectory-steps; run fewer trajectories or steps")
    t_start = float(t_grid[0]) - n_relax * dt_eff
    return t_grid, spi, dt_eff, n_relax, t_start, n_steps


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64): trajectory_stream keys on the seed
    modulo 2**64, so any other seed would repeat the draws of one inside."""
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must be in [0, 2**64), got {seed}")


def trajectory_stream(seed: int, index: int, salt: int) -> np.random.Generator:
    """The noise stream of trajectory index of a run with this seed and salt."""
    key = np.array([(seed ^ salt) % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_noise(streams: list, out: np.ndarray) -> None:
    """Fill out, shape (steps, k, B) complex, with normals from the B streams.

    Each stream draws its 2k normals per step in order, and normals 2r and
    2r + 1 of step s of stream i land at out[s, r, i] as its real and
    imaginary parts, a view of the draws and so unrounded; a stream's draws
    are sequential, so splitting a run into chunks of any length gives the
    same values.  Streams draw DRAW_BLOCK at a time into a small buffer, so
    the transpose to trajectory-last order stays in cache.
    """
    steps, k = out.shape[:2]
    eta = np.empty((min(DRAW_BLOCK, len(streams)), steps, 2 * k))
    pairs = eta.view(np.complex128)
    for lo in range(0, len(streams), DRAW_BLOCK):
        group = streams[lo:lo + DRAW_BLOCK]
        for g, buf in zip(group, eta):
            g.standard_normal(out=buf)
        out[:, :, lo:lo + len(group)] = pairs[:len(group)].transpose(1, 2, 0)


def run_lockstep(seed: int, salt: int, indices, n_normals: int, n_relax: int,
                 spi: int, n_grid: int, advance, record) -> dict:
    """Step the B trajectories of the global indices together; return their rows.

    Trajectory i draws from trajectory_stream(seed, i, salt), so its draws
    do not depend on the batch it runs in.  The run is n_relax relaxation
    steps and then spi steps per grid interval (step_layout).  Each step
    calls advance(step, z, alive), with z that step's n_normals normals per
    trajectory as n_normals/2 complex pairs (draw_noise), shape
    (n_normals/2, B).  advance may clear entries of alive, a boolean array
    of B that starts all true.  record() is called once per grid point j, in
    order: before the first step when there is no relaxation, else after the
    step that reaches it.  It returns a dict of per-trajectory arrays, which
    become row j of (n_grid, B) arrays under the same keys; "live" holds the
    alive mask at each grid point and "alive" the final mask.  In a pool
    worker it raises Aborted before any step taken once the pool's stop
    event is set.  The normals are drawn NOISE_CHUNK steps at a time, or
    fewer where that would hold more than NOISE_NORMALS values.
    """
    stop = _stop
    streams = [trajectory_stream(seed, int(i), salt) for i in indices]
    n_steps = n_relax + (n_grid - 1) * spi
    alive = np.ones(len(streams), dtype=bool)
    kept = []   # each grid point's record, with the alive mask as "live"

    def keep() -> None:
        kept.append({**record(), "live": alive.copy()})

    chunk = min(NOISE_CHUNK, NOISE_NORMALS // (n_normals * len(streams)))
    noise = np.empty((min(chunk, n_steps), n_normals // 2, len(streams)),
                     dtype=np.complex128)
    if n_relax == 0:
        keep()
    for step in range(n_steps):
        if stop is not None and stop.is_set():
            raise Aborted
        k = step % chunk
        if k == 0:
            draw_noise(streams, noise[:n_steps - step])
        advance(step, noise[k], alive)
        done = step + 1 - n_relax   # steps taken past the relaxation window
        if done >= 0 and done % spi == 0:
            keep()
    rows = {key: np.stack([r[key] for r in kept]) for key in kept[0]}
    rows["alive"] = alive
    return rows


def slice_sums(live: np.ndarray, cols, sums: dict, squares: dict) -> dict:
    """Partial sums over the live trajectories of columns cols at each grid point.

    live and every value of sums and squares are (n, B) rows.  Row j adds
    the live entries of x[j, cols], in column order, to count[j], sum_<k>[j]
    and, squared, to sq_<k>[j]; each total starts from zeros of x's dtype
    (count from int64 zeros), so an empty or -0.0 sum gives +0.0.
    """
    n = live.shape[0]
    out = {"count": np.zeros(n, dtype=np.int64)}
    out.update((f"sum_{k}", np.zeros(n, dtype=x.dtype)) for k, x in sums.items())
    out.update((f"sq_{k}", np.zeros(n, dtype=x.dtype)) for k, x in squares.items())
    for j in range(n):
        m = live[j, cols]
        out["count"][j] += int(m.sum())
        for k, x in sums.items():
            out[f"sum_{k}"][j] += x[j, cols][m].sum()
        for k, x in squares.items():
            out[f"sq_{k}"][j] += (x[j, cols][m] ** 2).sum()
    return out


def check_workers(n_workers: int) -> None:
    if not n_workers >= 1:
        raise InvalidParameterError(f"n_workers must be at least 1, got {n_workers}")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_worker(stop) -> None:
    global _stop
    _stop = stop


def _run_pickled(fn: bytes, job: bytes):
    return pickle.loads(fn)(pickle.loads(job))


def map_ordered(fn, jobs: list, n_workers: int) -> list:
    """[fn(job) for job in jobs], on up to n_workers processes, in job order.

    The pool holds min(n_workers, len(jobs), usable CPUs) processes; at one
    it runs serially in this process.  fn, the jobs and the results must
    pickle.  fn and the jobs are pickled here, before any worker starts, so
    one that cannot be pickled raises at once; a pickling error inside the
    pool's feeder thread would leave the pool waiting for good.  Workers
    are forked where the platform can, since a fresh interpreter per pool
    re-imports numpy and the package.  A failed job cancels the jobs not yet
    started and sets the pool's stop event, so jobs inside run_lockstep end
    with Aborted at their next step.  The exception raised is the first
    failure in job order that is not Aborted; with no job stopped early
    that is the failure a serial run raises.
    """
    check_workers(n_workers)
    size = min(n_workers, len(jobs), _usable_cpus())
    if size <= 1:
        return [fn(job) for job in jobs]
    fn = pickle.dumps(fn)
    jobs = [pickle.dumps(job) for job in jobs]
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    ctx = multiprocessing.get_context(method)
    stop = ctx.Event()
    with ProcessPoolExecutor(max_workers=size, mp_context=ctx,
                             initializer=_start_worker, initargs=(stop,)) as pool:
        futures = [pool.submit(_run_pickled, fn, job) for job in jobs]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            # Jobs start in submission order, so every cancelled job comes
            # after the failed one; an interrupt also stops the queue.
            stop.set()
            pool.shutdown(cancel_futures=True)
    for f in futures:
        if f.cancelled() or not isinstance(f.exception(), Aborted):
            f.result()  # re-raises the job's failure
    return [f.result() for f in futures]


def sum_parts(parts) -> dict:
    """Key-wise sum of partial-sum dicts in list order."""
    total: dict = {}
    for part in parts:
        for key, val in part.items():
            total[key] = total.get(key, 0) + val
    return total


def std_error(sq, mean, count):
    """Standard error of a mean from the sum of squares of count samples."""
    var = (sq - count * mean**2) / (count - 1.0)
    return np.sqrt(np.maximum(var, 0.0) / count)


def mean_and_stderr(total: dict, key: str):
    """Mean of the real part of sum_<key> over count, and its standard error."""
    mean = total[f"sum_{key}"].real / total["count"]
    return mean, std_error(total[f"sq_{key}"], mean, total["count"])


def check_survivors(count: np.ndarray, discarded: int, n_traj: int) -> None:
    """Refuse a grid point with fewer than 2 live trajectories, and a run
    that discarded more than DIVERGENCE_BUDGET of its trajectories."""
    if (count < 2).any():
        raise DivergenceBudgetError(
            "fewer than 2 surviving trajectories at some grid point")
    if discarded > DIVERGENCE_BUDGET * n_traj:
        raise DivergenceBudgetError(
            f"{discarded} of {n_traj} trajectories diverged, over the "
            f"{DIVERGENCE_BUDGET:.1%} budget; results would be biased")
