"""Non-Markovianity of damped-cosine rate schedules.

Whenever an instantaneous rate dips below zero the evolution cannot be cut
into memoryless pieces.  The accumulated weight of the negative windows is
the per-channel measure; it has a closed form through the antiderivative
of the rate, checked here against plain quadrature, and the onset in the
(kappa, omega) plane follows the tangency condition on the first negative
cosine lobe.
"""

import numpy as np

from pontus import (
    boundary_curve,
    channel_report,
    is_non_markovian,
    markov_boundary_alpha,
    negative_intervals,
    nm_measure_closed_form,
    nm_measure_quadrature,
)

g_s, g_f, kappa, omega = 0.5, 0.1, 0.1, 1.0
print(f"channel with rates {g_s} -> {g_f}, kappa={kappa}, omega={omega}:")

windows = negative_intervals(g_s, g_f, kappa, omega)
print("  negative windows:", [(round(a, 3), round(b, 3)) for a, b in windows])

closed = nm_measure_closed_form(g_s, g_f, kappa, omega)
quad = nm_measure_quadrature(g_s, g_f, kappa, omega, T=200.0)
print(f"  measure, closed form: {closed:.12f}")
print(f"  measure, quadrature:  {quad:.12f}  (|diff| = {abs(closed - quad):.1e})")

alpha = markov_boundary_alpha(g_s, g_f)
print(f"  tangency slope alpha = {alpha:.6f}")
print(f"  boundary at this kappa: omega_min = {kappa / alpha:.6f}")

# three channels at once: the least boundary decides
rates_s = (0.75, 0.75, 0.75)
rates_f = (0.05, 0.1, 0.15)
print("\nthree-channel schedule", rates_s, "->", rates_f)
for name in ("plus", "minus", "z"):
    idx = ("plus", "minus", "z").index(name)
    rep = channel_report(rates_s[idx], rates_f[idx], 0.5, 1.0, name)
    print(f"  {name:5s}: F = {rep.f_value:.6f}, windows = {rep.n_intervals}")
flag, total = is_non_markovian(rates_s, rates_f, kappa=0.5, omega=1.0)
print(f"  total F = {total:.6f}, non-Markovian = {flag}")

print("\nboundary curve omega_min(kappa):")
for k, w in boundary_curve(rates_s, rates_f, np.geomspace(0.01, 10, 7)):
    print(f"  kappa = {k:8.3f}  omega_min = {w:.5f}")
