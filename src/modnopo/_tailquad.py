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
The period stops early only on a proven bound: past a node s, -K climbs
at most at rate -k_min, so the rest of the period is at most
(T - s) * b_max * exp(-K(t, s) + max(-k_min, 0) (T - s)).
Where k dips below zero that bound rarely falls far enough, and the whole
period runs; such a period is refused up front when its work is over
WORK_BUDGET.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

# The rest of the period is dropped once bounded below this share of the
# sum (as a logarithm) in every row: far below float64 rounding.
LOG_STOP = -60.0 * math.log(2.0)

# K(t, s) is a difference of integrals that grow like rate*(|t| + T), so
# past this bound its rounding error reaches about 1e-3.
MAX_RATE_TIME = 2.0**43

# Work of a period that runs all its panels, in units of panels * (times
# + 60): a panel costs about as much as 60 rows of the time grid.  One unit
# took about 1 us on a 2-CPU x86 host, so the budget is a few minutes.
WORK_BUDGET = 2**28


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
    past = t - s.  The quadrature calls it with t of shape (n_t, 1), s of
    shape (nq,) and past of shape (n_t, nq), which b(past) receives too,
    and once with the floats (T, T, 0.0) for D.  b may return a scalar.
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
    col = t[:, None]
    M = np.full(t.size, -np.inf)
    A = np.zeros(t.size)
    for k in range(n):
        s_nodes = half * (2 * k + 1 + x)
        past = col - s_nodes[None, :]
        gv = np.broadcast_to(-k_int(col, s_nodes, past), past.shape)
        bv = b(past) * (half * w)  # fold quadrature weights into b
        M_new = np.maximum(M, gv.max(axis=1))
        # exp(-inf - -inf) would be nan; guard the first panel explicitly.
        scale = np.where(np.isneginf(M), 0.0, np.exp(M - M_new))
        A = A * scale + (np.exp(gv - M_new[:, None]) * bv).sum(axis=1)
        M = M_new
        rest = period - s_nodes[-1]
        with np.errstate(divide="ignore"):
            log_rest = math.log(rest * b_max) + max(-k_min, 0.0) * rest + gv[:, -1]
            if np.all(log_rest < M + np.log(A) + LOG_STOP):
                break
    return M, A / -math.expm1(-decay)
