"""Generator assembly and propagation of the affine Bloch equation.

Constant-parameter dynamics is propagated exactly through the drift's
eigenmodes, or a matrix exponential where those are unusable;
time-dependent schedules go through an adaptive embedded Runge-Kutta 5(4)
pair with dense output.  Two independent oracles
(a density-matrix-level rebuild of the generator and a time-ordered
product integrator) cross-check both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .core import (
    TOL_BALL,
    AffineGenerator,
    BlochVector,
    ParameterPoint,
    Trajectory,
)
from .errors import BallViolation, SingularGenerator, StepSizeUnderflow

_COND_CAP = 1e12
_RESIDUAL_CAP = 1e-10
#: Largest condition number of the drift's eigenvector matrix V for which
#: ``ConstantFlow`` uses its eigenmodes; the round-off of that route grows
#: like cond(V) times machine epsilon, so nearer a defective drift the
#: augmented matrix exponential takes over.
_EIGVEC_COND_CAP = 1e4


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and sampling of the adaptive integrator."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-10
    max_step: float = np.inf
    t_cap: float = 1e4
    sample_stride: float = 0.05

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.t_cap <= 0 or self.sample_stride <= 0:
            raise ValueError("t_cap and sample_stride must be positive")


def assemble_generator(p: ParameterPoint) -> AffineGenerator:
    """Drift matrix and forcing vector for one static parameter point.

    The field enters antisymmetrically (precession), the rates damp the
    diagonal; only the pumping imbalance forces the z component.
    """
    hx, hy, hz = p.h.as_array()
    gp, gm, gz = p.gamma.as_array()
    d = -(gp + gm) / 4.0 - gz
    lam = 2.0 * np.array(
        [
            [d, -hz, hy],
            [hz, d, -hx],
            [-hy, hx, -(gp + gm) / 2.0],
        ]
    )
    b = np.array([0.0, 0.0, gp - gm])
    return AffineGenerator(lam, b)


def generator_parts(rates: np.ndarray, h: np.ndarray):
    """(Lambda, b) from raw arrays; permits transiently negative rates."""
    gp, gm, gz = rates
    hx, hy, hz = h
    d = -(gp + gm) / 4.0 - gz
    lam = 2.0 * np.array(
        [
            [d, -hz, hy],
            [hz, d, -hx],
            [-hy, hx, -(gp + gm) / 2.0],
        ]
    )
    return lam, np.array([0.0, 0.0, gp - gm])


def steady_state(g: AffineGenerator) -> BlochVector:
    """Fixed point -Lambda^{-1} b of the constant-parameter flow."""
    cond = np.linalg.cond(g.Lambda)
    if not np.isfinite(cond) or cond >= _COND_CAP:
        raise SingularGenerator(f"drift matrix condition number {cond:.3g}")
    r = np.linalg.solve(g.Lambda, -g.b)
    residual = float(np.linalg.norm(g.Lambda @ r + g.b))
    if residual >= _RESIDUAL_CAP:
        raise SingularGenerator(f"steady-state residual {residual:.3g}")
    return BlochVector.from_array(r)


def velocity(g: AffineGenerator, r: BlochVector) -> np.ndarray:
    """Instantaneous velocity Lambda r + b of the Bloch vector at r."""
    return g.Lambda @ r.as_array() + g.b


def _augmented(g: AffineGenerator) -> np.ndarray:
    m = np.zeros((4, 4))
    m[:3, :3] = g.Lambda
    m[:3, 3] = g.b
    return m


def propagate_constant(g: AffineGenerator, r0: BlochVector, t: float) -> BlochVector:
    """Exact state at time t under constant parameters (see ``ConstantFlow``)."""
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    if t == 0.0:
        return r0
    return BlochVector.from_array(ConstantFlow(g).state(r0.as_array(), t))


class ConstantFlow:
    """Exact flow of r' = Lambda r + b, at arbitrary times or on a stride grid.

    Construction does the expensive work once: the steady state r_ss and the
    eigendecomposition Lambda = V diag(lam) V^-1.  Every evaluation is then
    the closed form

        r(t) = r_ss + Re(V e^{lam t} V^-1 (r0 - r_ss)),

    vectorised over an array of times; each sample is computed from r0
    directly, so round-off does not accumulate along a grid.  A drift with no
    steady state (pure precession, dephasing along the field axis) or with
    near-dependent eigenvectors (cond(V) above ``_EIGVEC_COND_CAP``, as at a
    defective drift) is evaluated instead through the augmented exponential
    expm(t [[Lambda, b], [0, 0]]), batched over the times.  ``stride`` is
    needed only by ``grid`` and ``run_until``.
    """

    _CHUNK = 1024

    def __init__(self, g: AffineGenerator, stride: Optional[float] = None):
        self.g = g
        self.stride = stride
        self._modes = None
        try:
            r_ss = steady_state(g).as_array()
        except SingularGenerator:
            return
        lam, vec = np.linalg.eig(g.Lambda)
        if np.linalg.cond(vec) <= _EIGVEC_COND_CAP:
            self._modes = (r_ss, lam, vec.T, np.linalg.inv(vec))

    def states(self, r0: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """States at the nonnegative times ``ts``, starting from r0 at t = 0."""
        r0 = np.asarray(r0, dtype=float)
        ts = np.asarray(ts, dtype=float)
        if self._modes is None:
            e = expm(ts[:, None, None] * _augmented(self.g))
            out = e[:, :3, :3] @ r0 + e[:, :3, 3]
        else:
            r_ss, lam, vec_t, coef = self._modes
            w = (coef @ (r0 - r_ss))[:, None] * vec_t  # row j: c_j V[:, j]
            z = np.exp(np.multiply.outer(ts, lam))
            # modes summed term by term, so no sample depends on the batch
            out = r_ss + (z[:, :1] * w[0] + z[:, 1:2] * w[1] + z[:, 2:] * w[2]).real
        out[ts == 0.0] = r0
        return out

    def state(self, r0: np.ndarray, t: float) -> np.ndarray:
        return self.states(r0, np.array([t]))[0]

    def grid(self, r0: np.ndarray, n_strides: int) -> np.ndarray:
        """States at 0, stride, ..., n_strides*stride (inclusive)."""
        return self.states(r0, np.arange(n_strides + 1) * self.stride)

    def run_until(
        self,
        r0: np.ndarray,
        target: np.ndarray,
        threshold: float,
        t_max: float,
    ):
        """Propagate until the trace distance to ``target`` drops below
        ``threshold`` or ``t_max`` is exceeded.

        Returns ``(states, reached)`` with states at stride multiples from 0
        up to and including the first satisfying sample (or the time cap).
        """
        r = np.array(r0, dtype=float)
        if 0.5 * np.linalg.norm(r - target) < threshold:
            return r[None, :], True
        cap = int(np.floor(t_max / self.stride))
        pieces = [r[None, :]]
        for first in range(1, cap + 1, self._CHUNK):
            ks = np.arange(first, min(first + self._CHUNK, cap + 1))
            chunk = self.states(r, ks * self.stride)
            hit = np.flatnonzero(0.5 * np.linalg.norm(chunk - target, axis=1) < threshold)
            if len(hit):
                pieces.append(chunk[: hit[0] + 1])
                return np.concatenate(pieces), True
            pieces.append(chunk)
        return np.concatenate(pieces), False


def integrate(
    schedule,
    r0: BlochVector,
    target: BlochVector,
    cfg: IntegratorConfig,
    eps: float,
    t_end: Optional[float] = None,
) -> Trajectory:
    """Solve r' = Lambda(t) r + b(t) under a rate schedule.

    Integration stops once the trace distance to ``target`` is below
    ``eps/10`` while the schedule's remaining deviation from its final
    generator is below ``eps``; from that point on the flow is a plain
    contraction toward the target and no further threshold crossing can
    occur.  Passing ``t_end`` disables the stop rule and integrates the
    fixed horizon instead.
    """
    tgt = target.as_array()
    y0 = r0.as_array()

    def rhs(t, y):
        lam, b = schedule.generator(t)
        return lam @ y + b

    def stop(t, y):
        d = 0.5 * np.linalg.norm(y - tgt)
        return max(d - eps / 10.0, schedule.settle_bound(t) - eps)

    stop.terminal = True

    if t_end is None and stop(0.0, y0) < 0.0:
        # nothing to do: already settled at t = 0
        return Trajectory(
            t=np.array([0.0]),
            r=y0[None, :],
            rates=schedule.rates_array(np.array([0.0])),
            dist=np.array([0.5 * np.linalg.norm(y0 - tgt)]),
            target=target,
            epsilon=eps,
            distance_of=lambda t: 0.5 * float(np.linalg.norm(y0 - tgt)),
            modulation=schedule.modulation,
        )

    horizon = cfg.t_cap if t_end is None else t_end
    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        y0,
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        dense_output=True,
        events=[stop] if t_end is None else None,
    )
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)

    t_stop = float(sol.t[-1])
    ts = np.arange(0.0, t_stop, cfg.sample_stride)
    if t_stop - (ts[-1] if len(ts) else 0.0) > 1e-12:
        ts = np.append(ts, t_stop)
    rs = sol.sol(ts).T

    worst = max(
        float(np.max(np.linalg.norm(rs, axis=1))),
        float(np.max(np.linalg.norm(sol.y, axis=0))),
    )
    if worst > 1.0 + TOL_BALL:
        raise BallViolation(
            f"trajectory left the Bloch ball (max |r| = {worst:.12g})"
        )

    dense = sol.sol

    def distance_of(t: float) -> float:
        return 0.5 * float(np.linalg.norm(dense(t) - tgt))

    return Trajectory(
        t=ts,
        r=rs,
        rates=schedule.rates_array(ts),
        dist=0.5 * np.linalg.norm(rs - tgt, axis=1),
        target=target,
        epsilon=eps,
        timed_out=(t_end is None and sol.status == 0),
        distance_of=distance_of,
        modulation=schedule.modulation,
    )


def product_integration_oracle(
    schedule, r0: BlochVector, t: float, n_steps: int
) -> BlochVector:
    """Time-ordered product approximation of the propagated state.

    The horizon is split into ``n_steps`` slices; on each, the generator is
    frozen at the midpoint and applied exactly via an augmented matrix
    exponential.  Converges to the adaptive solution as the slicing refines.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if t == 0.0:
        return r0
    dt = t / n_steps
    y = r0.as_array()
    m = np.zeros((4, 4))
    for k in range(n_steps):
        lam, b = schedule.generator((k + 0.5) * dt)
        m[:3, :3] = lam * dt
        m[:3, 3] = b * dt
        e = expm(m)
        y = e[:3, :3] @ y + e[:3, 3]
    return BlochVector.from_array(y)


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = (_SX, _SY, _SZ)
_JUMPS = (0.5 * (_SX + 1j * _SY), 0.5 * (_SX - 1j * _SY), _SZ)


def superoperator_oracle(p: ParameterPoint) -> AffineGenerator:
    """Rebuild (Lambda, b) from the density-matrix-level master equation.

    Works directly with 2x2 operators: commutator with h·sigma plus the
    dissipators of the excitation/relaxation/dephasing jump operators, then
    projects onto the Pauli basis.  Must agree entrywise with
    ``assemble_generator``.
    """
    h = p.h.as_array()
    g = p.gamma.as_array()
    ham = h[0] * _SX + h[1] * _SY + h[2] * _SZ

    def liouville(rho: np.ndarray) -> np.ndarray:
        out = -1j * (ham @ rho - rho @ ham)
        for gam, jump in zip(g, _JUMPS):
            jdj = jump.conj().T @ jump
            out = out + gam * (
                jump @ rho @ jump.conj().T - 0.5 * (jdj @ rho + rho @ jdj)
            )
        return out

    lam = np.empty((3, 3))
    b = np.empty(3)
    for i, si in enumerate(_PAULI):
        b[i] = 0.5 * np.real(np.trace(si @ liouville(np.eye(2, dtype=complex))))
        for j, sj in enumerate(_PAULI):
            lam[i, j] = 0.5 * np.real(np.trace(si @ liouville(sj)))
    return AffineGenerator(lam, b)


def velocity_field_grid(
    g: AffineGenerator, spacing: float, max_radius: float = 1.0
) -> np.ndarray:
    """Velocity samples on a regular grid inside a ball of given radius.

    Returns rows (rx, ry, rz, vx, vy, vz, speed).
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    axis = np.arange(-max_radius, max_radius + 0.5 * spacing, spacing)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    pts = pts[np.linalg.norm(pts, axis=1) < max_radius]
    vel = pts @ g.Lambda.T + g.b
    speed = np.linalg.norm(vel, axis=1)
    return np.column_stack([pts, vel, speed])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write the dense samples as CSV: t,rx,ry,rz,dist,gp,gm,gz."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,rx,ry,rz,dist,gp,gm,gz\n")
        for k in range(len(traj)):
            row = (
                traj.t[k],
                traj.r[k, 0],
                traj.r[k, 1],
                traj.r[k, 2],
                traj.dist[k],
                traj.rates[k, 0],
                traj.rates[k, 1],
                traj.rates[k, 2],
            )
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def velocity_field_to_csv(rows: np.ndarray, path) -> None:
    """Write velocity-field samples as CSV: rx,ry,rz,vx,vy,vz,speed."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rx,ry,rz,vx,vy,vz,speed\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
