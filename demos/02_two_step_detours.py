"""Two-step detours that beat the direct quench.

Both system copies start in the steady state S.  The first is quenched
straight into the F environment; the second spends a time t_I under an
auxiliary environment A before the final quench.  Depending on where the
detour has carried it by t_I, the speed-up comes in three flavors:

  weak type-A : already closer to F than the direct copy,
  weak type-B : farther than the direct copy but closer than the start,
  strong      : farther from F than the start, yet still faster overall.

The parameter choices here realize all three by scanning t_I.
"""

from pathlib import Path

import numpy as np

from pontus import (
    ParameterPoint,
    classify_two_step,
    gain,
    run_direct,
    run_two_step,
    trajectory_to_csv,
)

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

S = ParameterPoint.make((0.0, 0.998, 0.062), (0.0, 0.2, 0.0), "S")
A = ParameterPoint.make((0.0, 2.0, 2.0), (1.0, 0.0, 0.0), "A")
F = ParameterPoint.make((0.0, -0.966, 0.258), (0.0, 0.2, 0.0), "F")

direct = run_direct(S, F)
print(f"direct quench: tau = {direct.tau:.2f}")
trajectory_to_csv(direct.trajectory, out / "two_step_direct.csv")

print("\nscanning the switching time:")
found = {}
for t_i in np.arange(0.05, 30.0, 0.05):
    res = run_two_step(S, A, F, round(float(t_i), 2))
    if not res.converged or res.tau >= direct.tau:
        continue
    cls = classify_two_step(res, direct).value
    if cls in found:
        continue
    found[cls] = res
    # the distances the class is read from: the start's, and at the switch
    # the detour's and the direct copy's
    d_s = direct.trajectory.dist[0]
    d_i = res.trajectory.distance_of(res.t_intermediate)
    d_sf = direct.trajectory.distance_of(res.t_intermediate)
    print(
        f"  t_I={t_i:5.2f}  tau={res.tau:6.2f}  {cls:12s}"
        f"  d_S={d_s:.3f}  d_I={d_i:.3f}  d_SF={d_sf:.3f}"
    )
    trajectory_to_csv(res.trajectory, out / f"two_step_{cls}.csv")
    if len(found) == 3:
        break

speedups = {k: gain(direct.tau, v.tau).g for k, v in found.items()}
print("\nspeed-ups over the direct quench:")
for cls, g in speedups.items():
    print(f"  {cls:12s} gain = {g:+.3f}")
print(f"\ntrajectories written to {out}/two_step_*.csv")
