"""Curve crossings and the inconclusive regime under oscillating rates.

With an oscillatory component, gamma(t) = gamma_F + dg exp(-kappa t) cos(omega t),
the engineered trace-distance curve can cross the direct one (the detour
starts slower but finishes faster), and if the cutoff is reached while the
modulation is still alive, no claim about a speed-up is justified at all:
the threshold crossing happens inside a transient excursion.
"""

from pathlib import Path

import numpy as np

from pontus import (
    ParameterPoint,
    classify_continuous,
    gain,
    relevant_crossings,
    run_continuous,
    run_direct,
    trajectory_to_csv,
)

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

S = ParameterPoint.make((0.183, 0.183, -0.966), (0.5, 0.1, 0.0), "S")
F = ParameterPoint.make((0.183, 0.183, -0.966), (0.1, 0.5, 0.0), "F")

direct = run_direct(S, F)
print(f"direct quench: tau = {direct.tau:.2f}")
trajectory_to_csv(direct.trajectory, out / "osc_direct.csv")

# a clean crossing: the ramp is initially slower, overtakes around t ~ 13
res = run_continuous(S, F, kappa=0.6, omega=0.2)
n_cross = relevant_crossings(res, direct)
print(
    f"kappa=0.6 omega=0.20: tau = {res.tau:.2f}, gain = "
    f"{gain(direct.tau, res.tau).g:+.3f}, curve crossings = {n_cross}, "
    f"class = {classify_continuous(res, direct).value}"
)
trajectory_to_csv(res.trajectory, out / "osc_crossing.csv")

# locate the crossing instant from the shared sample grid; the curves
# coincide at t = 0, so sub-noise differences must not count
n = min(len(res.trajectory.t), len(direct.trajectory.t))
diff = res.trajectory.dist[:n] - direct.trajectory.dist[:n]
sign = np.sign(diff)
sign[np.abs(diff) <= 1e-8] = 0
nz = np.nonzero(sign)[0]
k = nz[np.nonzero(sign[nz][:-1] != sign[nz][1:])[0][0]]
print(f"  the curves cross near t = {res.trajectory.t[k]:.2f}")

# stronger oscillation: the cutoff is hit while the modulation is alive
res = run_continuous(S, F, kappa=0.4, omega=0.45)
print(
    f"kappa=0.4 omega=0.45: tau = {res.tau:.2f}, inconclusive = "
    f"{res.inconclusive} (envelope at tau = "
    f"{res.trajectory.envelope(res.tau):.2e} > eps = 1e-4)"
)
print(f"  class = {classify_continuous(res, direct).value}")
trajectory_to_csv(res.trajectory, out / "osc_inconclusive.csv")
