"""Tour of the basic machinery: generators, attractors, exact propagation.

A two-level system in a static field with excitation/relaxation/dephasing
channels obeys an affine equation for its Bloch vector, r' = Lambda r + b.
This script assembles a few generators, finds their attractors, propagates
states exactly, and cross-checks the drift matrix against the
density-matrix route.
"""

from pathlib import Path

import numpy as np

from pontus import (
    ConstantFlow,
    ParameterPoint,
    assemble_generator,
    steady_state,
    superoperator_oracle,
    trace_distances,
    velocity_field_grid,
    velocity_field_to_csv,
)

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# pure excitation pumps everything to the north pole, whatever the field
p = ParameterPoint.make((0, 0, 1), (1, 0, 0))
g = assemble_generator(p)
print("drift matrix for pure excitation in a z-field:\n", g.Lambda)
print("forcing:", g.b)
print("attractor:", steady_state(g).as_array(), "(north pole)")

# balanced pumping and relaxing always ends in the maximally mixed state
p = ParameterPoint.make((0.3, -0.8, 0.2), (0.4, 0.4, 0.1))
print("\nbalanced rates attractor:", steady_state(assemble_generator(p)).as_array())

# pure relaxation along z: the closed-form solution r_z = -1 + 2 exp(-g t)
p = ParameterPoint.make((0, 0, 0.5), (0.0, 0.2, 0.0))
g = assemble_generator(p)
north = np.array([0.0, 0.0, 1.0])
flow = ConstantFlow(g)
print("\nz-relaxation from the north pole (rate 0.2):")
for t in (0.0, 5.0, 10.0, 20.0):
    r_z = flow.state(north, t)[2]
    print(f"  t={t:5.1f}  r_z={r_z:+.6f}  analytic={-1 + 2 * np.exp(-0.2 * t):+.6f}")

# the attractor is a fixed point of the velocity field Lambda r + b
rss = steady_state(g).as_array()
print("\nspeed at the attractor:", np.linalg.norm(g.Lambda @ rss + g.b))

# the same generator, rebuilt from the 2x2 master equation, must agree
p = ParameterPoint.make((0.707, 0.707, 0.0), (0.5, 0.1, 0.0))
a = assemble_generator(p)
o = superoperator_oracle(p)
print("max |direct - superoperator| entry:", np.max(np.abs(a.Lambda - o.Lambda)))

# trace distance between two-level states is half the Euclidean distance
print("distance between the poles:", trace_distances(north[None, :], -north)[0])

# export a velocity-field grid around the attractor for plotting
rows = velocity_field_grid(a, spacing=0.1, max_radius=1.0)
velocity_field_to_csv(rows, out / "velocity_field.csv")
print(f"\nwrote {out / 'velocity_field.csv'} ({len(rows)} grid points)")
