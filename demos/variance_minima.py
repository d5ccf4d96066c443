"""
Squeezing below the stationary limit
====================================

Stationary operation caps the squeezed two-mode variance at 1/2 (reached
exactly at threshold).  A modulated pump beats the cap transiently: during
the low-pump phase of the cycle the variance dips below the stationary
value before the photon number catches up.
"""

import numpy as np

from modnopo import find_vmin, linearization_validity, params_from_ratios

print("stationary levels (f1 = 0):")
for r in (1.5, 2.0, 3.0):
    p = params_from_ratios(fbar_over_fth=r)
    res = find_vmin(p)
    # closed form: 3/4 - f_th/(4 fbar)
    print(f"  fbar = {r} f_th   V = {res.v_min:.6f}   expect {0.75 - 0.25 / r:.6f}")

print("modulated minima at fbar = 3 f_th:")
for level in (0.4, 1.2):
    p = params_from_ratios(fbar_over_fth=3.0, f1_over_fbar=level)
    res = find_vmin(p)
    print(
        f"  f1 = {level} fbar   V_min = {res.v_min:.4f} at t0 = {res.t0:.3f}"
        f"   n0(t0) = {res.n0_at_t0:.3e}"
    )

# Both quadratures of the minimum come with a validity ratio; values well
# above 1 mean the linearization is trustworthy at the minimum.
p = params_from_ratios(fbar_over_fth=3.0, f1_over_fbar=1.2)
print(f"validity ratio: {linearization_validity(p):.3e}")

# Route cross-check: the shot ODE periodic state and the quadrature closed form are
# independent implementations of the same curve.
ode = find_vmin(p, route="ode").v_min
closed = find_vmin(p, route="closed").v_min
print(f"ode {ode:.10f}  closed {closed:.10f}  |diff| {abs(ode - closed):.2e}")
