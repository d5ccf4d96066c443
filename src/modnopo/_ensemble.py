"""Plumbing shared by the batched trajectory ensembles.

Both stochastic routes (positive-P and state diffusion) lay their fixed
Euler steps onto a uniform output grid the same way, run batches of
trajectories through the same ordered worker map, and reduce the batches'
partial sums in the same fixed order, so their results depend on the seed
and never on the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidParameterError


def step_layout(t_grid: np.ndarray, dt: float, relax: float):
    """Fixed-step layout of a run sampled on the uniform grid t_grid.

    dt is rounded down so that every grid time lands on a step, and the
    relaxation window before the first grid time is a whole number of
    steps (a negative relax means none).  Returns (spi, dt_eff, n_relax,
    t_start): steps per grid interval, the step used, the relaxation
    steps and the start time.
    """
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
    t_start = float(t_grid[0]) - n_relax * dt_eff
    return spi, dt_eff, n_relax, t_start


def check_workers(n_workers: int) -> None:
    if not n_workers >= 1:
        raise InvalidParameterError(f"n_workers must be at least 1, got {n_workers}")


def map_ordered(fn, jobs: list, n_workers: int) -> list:
    """[fn(job) for job in jobs], on up to n_workers threads, in job order."""
    check_workers(n_workers)
    if n_workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))


def sum_parts(parts) -> dict:
    """Key-wise sum of partial-sum dicts in list order; tail_max takes the max."""
    total: dict = {}
    for part in parts:
        for key, val in part.items():
            if key == "tail_max" and key in total:
                total[key] = np.maximum(total[key], val)
            else:
                total[key] = total.get(key, 0) + val
    return total


def std_error(sq, mean, count):
    """Standard error of a mean from the sum of squares of count samples."""
    var = (sq - count * mean**2) / (count - 1.0)
    return np.sqrt(np.maximum(var, 0.0) / count)
