"""One-period Gauss-Legendre evaluation of exponential-tail integrals.

Both closed-form routes (the periodic photon-number formula and the
periodic variance formula) reduce to integrals of the shape

    I(t) = integral_0^inf  exp(g(t, s)) * b(t, s) ds,    b >= 0,

whose kernel repeats itself each modulation period T up to a fixed decay:
b(t, s + T) = b(t, s) and g(t, s + T) = g(t, s) - D with D > 0.  The tail
is a geometric series of period integrals, so exactly

    I(t) = integral_0^T exp(g) b ds / (1 - exp(-D)).

Within the period the kernel can swing through hundreds of nats where the
pump dips below threshold for long, so panels accumulate in shifted-exponent
form (a running maximum M of g factored out, log-sum-exp style) and the
partial sums stay inside the float64 range.  The period stops early only on
a proven bound: past a node s, g climbs at most at rate slope, so the rest
of the period is at most (T - s) * b_max * exp(g(s) + max(slope, 0) (T - s)).
"""

from __future__ import annotations

import math

import numpy as np

# The rest of the period is dropped once bounded below this share of the
# sum (as a logarithm) in every row: far below float64 rounding.
LOG_STOP = -60.0 * math.log(2.0)


def period_integral(g, b, n_t: int, period: float, panel: float, decay: float,
                    slope: float, b_max: float):
    """Accumulate I(t) = int_0^inf exp(g(t,s)) b(t,s) ds for a grid of t.

    g(s_nodes) and b(s_nodes) receive an array of s values of shape (nq,)
    and return arrays of shape (n_t, nq): the caller bakes the t grid into
    them.  b may return a scalar 1.0 for a pure kernel integral.  [0, period]
    is tiled by ceil(period/panel) equal panels of the 32-point
    Gauss-Legendre rule.  decay is D; slope and b_max bound dg/ds and b
    over the period.

    Returns (M, A) with I = exp(M) * A elementwise: callers that need the
    logarithm of I use log(A) + M directly and never materialize I when it
    would over- or underflow.
    """
    x, w = np.polynomial.legendre.leggauss(32)
    n = math.ceil(period / panel)
    half = 0.5 * period / n
    M = np.full(n_t, -np.inf)
    A = np.zeros(n_t)
    for k in range(n):
        s_nodes = half * (2 * k + 1 + x)
        gv = g(s_nodes)
        bv = b(s_nodes) * (half * w)  # fold quadrature weights into b
        M_new = np.maximum(M, gv.max(axis=1))
        # exp(-inf - -inf) would be nan; guard the first panel explicitly.
        scale = np.where(np.isneginf(M), 0.0, np.exp(M - M_new))
        A = A * scale + (np.exp(gv - M_new[:, None]) * bv).sum(axis=1)
        M = M_new
        rest = period - s_nodes[-1]
        with np.errstate(divide="ignore"):
            log_rest = math.log(rest * b_max) + max(slope, 0.0) * rest + gv[:, -1]
            if np.all(log_rest < M + np.log(A) + LOG_STOP):
                break
    return M, A / -math.expm1(-decay)
