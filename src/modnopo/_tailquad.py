"""Periodic solutions of y' = -k(t) y + b(t) by one-period quadrature.

n0 (through w = 1/n0), the depletion memory and V are such solutions,
with k and b periodic in the modulation period T.  The periodic solution
is y(t) = integral_0^inf exp(-K(t, s)) b(t - s) ds with K(t, s) the
integral of k over [t - s, t].  K(t, s + T) = K(t, s) + D with
D = K(T, T), which must be > 0 (else no periodic state attracts, and the
solution is refused), so the tail is a geometric series of period integrals
(Floquet theory: exp(-D) is the period multiplier) and exactly

    y(t) = integral_0^T exp(-K(t, s)) b(t - s) ds / (1 - exp(-D)).

Within the period the exponent can swing through hundreds of nats where
the pump dips below threshold for long, so panels accumulate in
shifted-exponent form (a running maximum M of -K factored out,
log-sum-exp style) and the partial sums stay inside the float64 range.
Each time stops its period on its own once a proven bound holds after a
panel: past a node s, -K climbs at most at rate -k_min, so the rest of
the period is at most R = (T - s) b_max exp(-K(t, s) + max(-k_min, 0)
(T - s)), and the time leaves the loop once R < 2^-60 A, with A its sum
at running maximum M.  No later panel could move its bits: every later
node has -K < M + ln(A / ((T - s) b_max)) - 60 ln 2, where A / b_max is
at most the length integrated so far, under 730 n (T - s) with n <= 2^41
panels (rate * T <= 2^43), so -K < M and each later rescaling is
exp(0) = 1 exactly; and each later panel adds under 2^-60 A, less than
half an ulp of A, so A plus it rounds to A.  Where k dips below zero the
bound rarely falls far enough, and the whole period runs; such a period
is refused up front when its work is over WORK_BUDGET, priced as if no
time stopped early.

Each panel walks the times still in the loop, in grid order, in equal
blocks of at most BLOCK_ROWS rows, so the memory a panel needs does not
grow with the grid; each row sums over its own 32 nodes, so no bit
depends on the blocks.  On a 2-CPU x86 host `variance --points 100001`
peaks at 59 MB where the grid in one block peaked at 481 MB, and at
20,001 points at 40 MB instead of 124 MB.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

# A row's rest of the period is dropped once bounded below this share of
# its sum (as a logarithm): far below float64 rounding.
LOG_STOP = -60.0 * math.log(2.0)

# K(t, s) is a difference of integrals that grow like rate*(|t| + T), so
# past this bound its rounding error reaches about 1e-3.
MAX_RATE_TIME = 2.0**43

# Work of a period that runs all its panels, in units of panels * (times
# + 60): a panel costs about as much as 60 rows of the time grid.  At 513
# and 20,001 times on a 2-CPU x86 host one unit took 0.5-0.8 us for n0 and
# 1.6-5 us for V, so the budget is 2-4 minutes of n0 or 7-24 of V.
WORK_BUDGET = 2**28

# Rows of the time grid per block.  Each panel runs block by block, so its
# (rows, 32) float64 temporaries hold at most 256 KB each whatever the grid
# size; blocks of 512 rows saved little more memory and ran about 5% slower.
BLOCK_ROWS = 1024


def require_decay(decay: float, route: str) -> None:
    """Refuse a period decay D not > 0, where no periodic state attracts."""
    if not decay > 0.0:
        raise ConvergenceError(
            f"{route}: one period's decay D = {decay:.3g} is not > 0, so its "
            f"multiplier exp(-D) does not shrink a deviation and no periodic state attracts")


@lru_cache(maxsize=1)
def _gauss_legendre():
    """The 32-point Gauss-Legendre nodes and weights on [-1, 1], built on
    first use: leggauss solves an eigenvalue problem each time it runs."""
    return np.polynomial.legendre.leggauss(32)


def periodic_solution(t, k_int, b, period: float, rate: float, k_min: float,
                      b_max: float):
    """The periodic solution y(t) of y' = -k y + b on a grid of times t.

    k_int(t, s, past) is K(t, s), the integral of k over [past, t] with
    past = t - s.  The quadrature calls it with t of shape (rows, 1), a
    block of at most BLOCK_ROWS times, s of shape (nq,) and past of shape
    (rows, nq), which b(past) receives too, and once with the floats
    (T, T, 0.0) for D.  b may return a scalar.
    rate bounds |k|, k_min is k's minimum and b_max bounds b.  [0, T] is
    tiled by equal panels of the 32-point Gauss-Legendre rule, at most
    min(T/4, 4/rate) wide.

    Refuses, in this order: times where rate*(|t| + T) exceeds
    MAX_RATE_TIME (InvalidParameterError); a decay D = K(T, T) that is
    not > 0, where no periodic state attracts (ConvergenceError); and a
    period with k_min < 0 whose work is over WORK_BUDGET
    (InvalidParameterError).

    Returns (M, A) with y = exp(M) * A elementwise: callers that need the
    logarithm of y use log(A) + M directly and never materialize y when it
    would over- or underflow.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    reach = rate * (float(np.max(np.abs(t), initial=0.0)) + period)
    if not reach <= MAX_RATE_TIME:
        raise InvalidParameterError(
            f"closed form: times reach rate*(|t| + T) = {reach:.3g}, over {MAX_RATE_TIME:.3g}, "
            f"where the pump integral has lost its digits")
    decay = float(k_int(period, period, period - period))
    require_decay(decay, "closed form")
    x, w = _gauss_legendre()
    n = math.ceil(period / min(period / 4.0, 4.0 / rate))
    work = n * (t.size + 60)
    if k_min < 0.0 and work > WORK_BUDGET:
        raise InvalidParameterError(
            f"closed form: the decay rate dips below zero, so one period needs all "
            f"{n} panels on {t.size} times, {work:.3g} units of panels*(times + 60), "
            f"over the budget of {WORK_BUDGET:.3g}")
    half = 0.5 * period / n
    M = np.full(t.size, -np.inf)
    A = np.zeros(t.size)
    live = np.arange(t.size)  # the rows still in the loop, in grid order
    for k in range(n):
        if not live.size:
            break
        s_nodes = half * (2 * k + 1 + x)
        rest = period - s_nodes[-1]
        log_slope = math.log(rest * b_max) + max(-k_min, 0.0) * rest
        blocks = -(-live.size // BLOCK_ROWS)
        edges = [live.size * i // blocks for i in range(blocks + 1)]
        done = np.empty(live.size, dtype=bool)
        for lo, hi in zip(edges[:-1], edges[1:]):
            rows = live[lo:hi]
            col = t[rows, None]
            past = col - s_nodes[None, :]
            gv = np.broadcast_to(-k_int(col, s_nodes, past), past.shape)
            bv = b(past) * (half * w)  # fold quadrature weights into b
            m = M[rows]
            M[rows] = M_new = np.maximum(m, gv.max(axis=1))
            # exp(-inf - -inf) would be nan; guard the first panel explicitly.
            scale = np.where(np.isneginf(m), 0.0, np.exp(m - M_new))
            A[rows] = a = A[rows] * scale + (np.exp(gv - M_new[:, None]) * bv).sum(axis=1)
            with np.errstate(divide="ignore"):
                done[lo:hi] = log_slope + gv[:, -1] < M_new + np.log(a) + LOG_STOP
        if done.any():
            live = live[~done]
    return M, A / -math.expm1(-decay)
