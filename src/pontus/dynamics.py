"""Generator assembly and propagation of the affine Bloch equation, and the
threshold analysis of a run.

Constant-parameter dynamics is propagated exactly through the drift's
eigenmodes, or a matrix exponential where those are unusable
(``ConstantFlow``).  The library's one time-dependent schedule, the
damped-cosine ramp (``protocols.ExponentialCosineSchedule``), goes through an
in-house adaptive Dormand-Prince 5(4) stepper specialised to its affine form
Lambda(t) = lam_f + m(t) dlam, b(t) = b_f + m(t) db with
m(t) = exp(-kappa t) cos(omega t): scalar floats, the stages formed inline,
the stop rule checked inline, and the quartic dense output of all steps
built in one pass (``_DenseOutput``).  It copies the initial step, error
norm, controller and event location of scipy's RK45; the event's root is
found by the in-house Brent solver (``_roots.brentq``, bit for bit scipy's).
The compiled kernel (``_stepper.c``, loaded by ``_stepper.kernel``) repeats
these float operations in the same order: the step loop with the event's
root, then in one call the dense output at the sample times that Python
lays out (``_sample_times``) and ``_threshold_analysis`` of them, so one
run of ``_ramp_run`` serves both ``integrate``'s Trajectory and a gain-map
cell, which builds none.  The Python routes serve every process where no
kernel loads.  Two independent oracles (a density-matrix-level rebuild of
the generator and a time-ordered product integrator) cross-check both
routes.  scipy is imported only by ``expm``, on its first call.
"""

from __future__ import annotations

import ctypes
import math
import struct
from array import array
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import _stepper
from ._measure import compiled_total, measure_total
from ._roots import brentq
from .core import (
    TOL_BALL,
    AffineGenerator,
    BlochVector,
    ParameterPoint,
    Trajectory,
    distance_evaluator,
    trace_distances,
    write_csv,
)
from .errors import BallViolation, NotConverged, PontusError, SingularGenerator, StepSizeUnderflow

_COND_CAP = 1e12
_RESIDUAL_CAP = 1e-10
#: Largest condition number of the drift's eigenvector matrix V for which
#: ``ConstantFlow`` uses its eigenmodes; the round-off of that route grows
#: like cond(V) times machine epsilon, so nearer a defective drift the
#: augmented matrix exponential takes over.
_EIGVEC_COND_CAP = 1e4


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, imported on the first call: only the rare
    routes need it (a flow without usable eigenmodes, the product oracle),
    so importing pontus loads no scipy."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and sampling of the adaptive integrator."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-10
    max_step: float = np.inf
    t_cap: float = 1e4
    sample_stride: float = 0.05

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not (0 < self.t_cap < math.inf and 0 < self.sample_stride < math.inf):
            raise ValueError("t_cap and sample_stride must be positive and finite")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")

    def as_dict(self) -> dict:
        """The settings as a config's ``integrator`` section, which reproduces
        them; ``max_step`` is left out while it is unbounded."""
        return {k: v for k, v in asdict(self).items() if k != "max_step" or v < math.inf}


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


def _augmented(g: AffineGenerator) -> np.ndarray:
    m = np.zeros((4, 4))
    m[:3, :3] = g.Lambda
    m[:3, 3] = g.b
    return m


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

    An evaluation splits into a table that depends on the times alone,
    e^{lam t} or the augmented exponentials, and its combination with the
    start state (``sampler``).  ``run_until`` samples one run in chunks of
    ``_CHUNK`` strides; ``crossing_times`` bisects many runs at once.
    """

    _CHUNK = 1024

    def __init__(self, g: AffineGenerator, stride: Optional[float] = None):
        self.g = g
        self.stride = stride
        self._modes = None
        # the table function closes over the drift's data, not over the
        # flow, so a sampler does not keep the flow alive
        aug = _augmented(g)
        self._table = lambda ts: expm(ts[:, None, None] * aug)
        try:
            r_ss = steady_state(g).as_array()
        except SingularGenerator:
            return
        lam, vec = np.linalg.eig(g.Lambda)
        if np.linalg.cond(vec) <= _EIGVEC_COND_CAP:
            self._modes = (r_ss, vec.T, np.linalg.inv(vec))
            self._table = lambda ts: np.exp(np.multiply.outer(ts, lam))

    def _combiner(self, r0: np.ndarray):
        """Function from a table to the states of the run that starts at r0;
        for an (n, 3) stack of starts, row k of the table is run k's."""
        if self._modes is None:
            return lambda e: (e[:, :3, :3] @ r0[..., None])[..., 0] + e[:, :3, 3]
        r_ss, vec_t, coef = self._modes
        w = (coef @ (r0 - r_ss).T).T[..., None] * vec_t  # row j: c_j V[:, j]
        # modes summed term by term, so no sample depends on the batch
        return lambda z: r_ss + (
            z[:, :1] * w[..., 0, :] + z[:, 1:2] * w[..., 1, :] + z[:, 2:] * w[..., 2, :]
        ).real

    def sampler(self, r0: np.ndarray):
        """``states`` from r0 as a function of a float array of times alone;
        the work that depends only on r0 is done once, here."""
        r0 = np.array(r0, dtype=float)
        combine, table = self._combiner(r0), self._table

        def states(ts: np.ndarray) -> np.ndarray:
            out = combine(table(ts))
            out[ts == 0.0] = r0
            return out

        return states

    def states(self, r0: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """States at the nonnegative times ``ts``, starting from r0 at t = 0."""
        return self.sampler(r0)(np.asarray(ts, dtype=float))

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
        r = np.array(r0, dtype=float)[None, :]
        if trace_distances(r, target)[0] < threshold:
            return r, True
        combine = self._combiner(r[0])
        cap = int(np.floor(t_max / self.stride))
        pieces = [r]
        for first in range(1, cap + 1, self._CHUNK):
            ks = np.arange(first, min(first + self._CHUNK, cap + 1))
            chunk = combine(self._table(ks * self.stride))
            hit = np.flatnonzero(trace_distances(chunk, target) < threshold)
            if len(hit):
                pieces.append(chunk[: hit[0] + 1])
                return np.concatenate(pieces), True
            pieces.append(chunk)
        return np.concatenate(pieces), False

    def crossing_times(self, r0s, target: np.ndarray, level: float, t_max) -> np.ndarray:
        """First time the trace distance to ``target`` of each run, from a
        row of ``r0s``, falls below ``level``: 0 if it starts below, inf if
        still at or above it at ``t_max`` (a float, or one per run).

        All runs are bisected at once, 64 halvings of [0, t_max], far below
        ``protocols.TAU_XTOL``.  The distance must never rise, as toward the
        steady state of any flow with nonnegative rates: the drift's
        symmetric part diag(2d, 2d, -(gamma_+ + gamma_-)), d <= 0, contracts
        every r - r_ss.
        """
        r0s = np.array(r0s, dtype=float).reshape(-1, 3)
        combine = self._combiner(r0s)
        lo = np.zeros(len(r0s))
        hi = lo + t_max
        reached = trace_distances(combine(self._table(hi)), target) < level
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            hit = trace_distances(combine(self._table(mid)), target) < level
            lo, hi = np.where(hit, lo, mid), np.where(hit, mid, hi)
        hi[~reached] = np.inf
        hi[trace_distances(r0s, target) < level] = 0.0
        return hi


# Quartic dense output with the optimal c_6 (Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.6): y(t_k + x h) = y_k + h sum_j Q[:, j] x^(j+1)
# with Q = K^T P.  P's first column is (1, 0, ..., 0), so Q[:, 0] = K_1; the
# rows below are P's other three columns for stages 1 and 3-7 (stage 2's
# row is zero).
_P1 = (-8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432)
_P3 = (131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799)
_P4 = (-1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072)
_P5 = (127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632)
_P6 = (-282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844)
_P7 = (40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)
_EPS = float(np.finfo(float).eps)
#: Absolute time tolerance of the root finder that sharpens tau.
TAU_XTOL = 1e-9
_SQRT3 = 3**0.5
_BALL_SQ = (1.0 + TOL_BALL) ** 2


class _DenseOutput:
    """Quartic interpolants of the accepted steps, from the stepper's 23-float
    step records (t, h, y, k1, k3, ..., k7) and ending at ``t_final``.

    Q = K^T P is formed for all steps at once, elementwise and term by term
    in stage order, so no coefficient depends on a BLAS kernel.  A time is
    served by the step whose interval holds it, a breakpoint by the step
    that ends there.  Each time is evaluated on its own, so a value does not
    depend on the other times.
    """

    def __init__(self, steps, t_final):
        a = np.frombuffer(steps).reshape(-1, 23)
        k1, k3, k4, k5, k6, k7 = (a[:, j : j + 3] for j in range(5, 23, 3))
        self.t_break = np.append(a[:, 0], t_final)
        self.h = a[:, 1]
        self.y_old = a[:, 2:5]
        self.q = np.empty((len(a), 3, 4))
        self.q[:, :, 0] = k1
        for j in range(3):
            self.q[:, :, j + 1] = (
                k1 * _P1[j] + k3 * _P3[j] + k4 * _P4[j] + k5 * _P5[j] + k6 * _P6[j] + k7 * _P7[j]
            )

    def __call__(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        k = np.searchsorted(self.t_break, ts, side="left") - 1
        np.clip(k, 0, len(self.h) - 1, out=k)
        h = self.h[k]
        x = ((ts - self.t_break[k]) / h)[:, None]
        x2 = x * x
        x3 = x2 * x
        q = self.q[k]
        poly = q[:, :, 0] * x + q[:, :, 1] * x2 + q[:, :, 2] * x3 + q[:, :, 3] * (x3 * x)
        return self.y_old[k] + h[:, None] * poly


def _rms3(a: float, b: float, c: float) -> float:
    return math.sqrt(a * a + b * b + c * c) / _SQRT3


def _stop_function(stop, kappa, dg_max):
    """The stop function max(|y - target|/2 - tol, dg_max exp(-kappa t) - eps)
    of a ``stop`` tuple (target, tol, eps), as a function of t and the
    state's three components."""
    (g0, g1, g2), tol, eps = stop

    def gap(t, a, b, c):
        d = 0.5 * math.sqrt((a - g0) ** 2 + (b - g1) ** 2 + (c - g2) ** 2)
        return max(d - tol, dg_max * math.exp(-kappa * t) - eps)

    return gap


def _event_time(gap, record, t_end):
    """Root of ``gap`` on the interpolant of one 23-float step record that
    ends at ``t_end``: the time at which a run's stop rule ends it."""
    at = _DenseOutput(record, t_end)
    return brentq(lambda s: gap(s, *at([s])[0].tolist()), float(at.t_break[0]), t_end,
                  xtol=4 * _EPS, rtol=4 * _EPS)


_UNDERFLOW = "Required step size is less than spacing between numbers."


def _left_ball(t: float, norm: float) -> BallViolation:
    return BallViolation(f"trajectory left the Bloch ball at t = {t:.12g} (|r| = {norm:.12g})")


def _sampled_outside(worst: float) -> BallViolation:
    return BallViolation(f"trajectory left the Bloch ball (max sampled |r| = {worst:.12g})")


def _dormand_prince(coef, kappa, omega, dg_max, stop, y, t_bound, rtol, atol, max_step):
    """Adaptive Dormand-Prince 5(4) from t = 0, step for step as scipy's RK45,
    for the damped-cosine ramp.

    ``coef`` holds the entries L00, L11, L22, L01, L02, L12 and b_z of
    (lam_f, b_f), then of (dlam, db), and m = exp(-kappa t) cos(omega t).
    Each stage forms these seven f + m d from its m and writes the velocity
    ((L00 a + L01 b) + L02 c, (L11 b - L01 a) + L12 c,
    (L22 c - (L02 a + L12 b)) + b_z).  As IEEE negation is exact, these are
    the floats of the full sums (lam_f + m dlam) y + (b_f + m db), since
    ``assemble_generator`` builds every drift antisymmetric off the diagonal
    and every forcing zero in x and y, save the sign of an exactly zero sum;
    stage 7 shares stage 6's time, so it reuses that m.  ``stop`` is None
    (run to ``t_bound``) or ``(target, tol, eps)`` for the stop function
    max(|y - target|/2 - tol, dg_max exp(-kappa t) - eps), whose sign is
    checked after every accepted step, with the settle term evaluated only
    when the first term is not positive; on a sign change (scipy's
    ``find_active_events`` rule) its root on that step's interpolant ends
    the run.  ``_compiled_steps`` takes the same arguments after its kernel.

    Returns ``(steps, t_final, stopped, nfev, n_rejected)``, with the step
    records in an ``array("d")``; steps is None when the stop function is
    already negative at t = 0.  Raises StepSizeUnderflow
    when the step falls below 10 ulp of t, and BallViolation as soon as an
    accepted step ends outside the Bloch ball.
    """
    # Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
    # 19 (1980)) as in scipy's RK45: nodes C, stage weights A, fifth-order
    # weights B, error weights E = B - B_hat, then the controller's safety
    # factor, factor bounds and error exponent -1/(4+1).  Locals, so the loop
    # reads them without a global lookup; zero entries are left out of the
    # unrolled sums below, and C6 = 1.
    C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    A21 = 1 / 5
    A31, A32 = 3 / 40, 9 / 40
    A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
    A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
    B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    E1, E3, E4, E5, E6, E7 = (
        -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
    )
    SAFETY, MIN_FACTOR, MAX_FACTOR, ERR_EXP = 0.9, 0.2, 10.0, -1 / 5
    f00, f11, f22, f01, f02, f12, fz, d00, d11, d22, d01, d02, d12, dz = coef
    exp, cos = math.exp, math.cos

    def slope(m, a, b, c):
        return (
            (f00 + m * d00) * a + (f01 + m * d01) * b + (f02 + m * d02) * c,
            (f11 + m * d11) * b - (f01 + m * d01) * a + (f12 + m * d12) * c,
            (f22 + m * d22) * c - ((f02 + m * d02) * a + (f12 + m * d12) * b) + (fz + m * dz),
        )

    t = 0.0
    y1, y2, y3 = y
    g_old = None
    if stop is not None:
        (g0, g1, g2), tol, eps = stop
        gap = _stop_function(stop, kappa, dg_max)
        g_old = gap(t, y1, y2, y3)
        if g_old < 0.0:
            return None, 0.0, True, 0, 0
    k11, k12, k13 = slope(exp(-kappa * t) * cos(omega * t), y1, y2, y3)

    # initial step (Hairer, Norsett & Wanner, sec. II.4)
    s1, s2, s3 = atol + abs(y1) * rtol, atol + abs(y2) * rtol, atol + abs(y3) * rtol
    d0 = _rms3(y1 / s1, y2 / s2, y3 / s3)
    d1 = _rms3(k11 / s1, k12 / s2, k13 / s3)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    m = exp(-kappa * h0) * cos(omega * h0)
    u1, u2, u3 = slope(m, y1 + h0 * k11, y2 + h0 * k12, y3 + h0 * k13)
    d2 = _rms3((u1 - k11) / s1, (u2 - k12) / s2, (u3 - k13) / s3) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound, max_step)
    nfev = 2
    n_rejected = 0

    steps = array("d")  # per accepted step: t, h, y, k1, k3, ..., k7
    pack_step = struct.Struct("23d").pack  # a third of array.extend's time per step
    sqrt, nextafter, inf = math.sqrt, math.nextafter, math.inf
    w1, w2, w3 = abs(y1), abs(y2), abs(y3)  # then each step's |z|, as max(z, -z) gives it
    stopped = False
    while True:
        min_step = 10 * (nextafter(t, inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(_UNDERFLOW)
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = h_abs = t_new - t
            # stage 7 sits at t + h too and reuses m6
            t2, t3, t4, t5, t6 = t + C2 * h, t + C3 * h, t + C4 * h, t + C5 * h, t + h
            m2 = exp(-kappa * t2) * cos(omega * t2)
            m3 = exp(-kappa * t3) * cos(omega * t3)
            m4 = exp(-kappa * t4) * cos(omega * t4)
            m5 = exp(-kappa * t5) * cos(omega * t5)
            m6 = exp(-kappa * t6) * cos(omega * t6)

            l00, l11, l22 = f00 + m2 * d00, f11 + m2 * d11, f22 + m2 * d22
            l01, l02, l12 = f01 + m2 * d01, f02 + m2 * d02, f12 + m2 * d12
            bz = fz + m2 * dz
            a, b, c = y1 + k11 * A21 * h, y2 + k12 * A21 * h, y3 + k13 * A21 * h
            k21 = l00 * a + l01 * b + l02 * c
            k22 = l11 * b - l01 * a + l12 * c
            k23 = l22 * c - (l02 * a + l12 * b) + bz
            l00, l11, l22 = f00 + m3 * d00, f11 + m3 * d11, f22 + m3 * d22
            l01, l02, l12 = f01 + m3 * d01, f02 + m3 * d02, f12 + m3 * d12
            bz = fz + m3 * dz
            a = y1 + (k11 * A31 + k21 * A32) * h
            b = y2 + (k12 * A31 + k22 * A32) * h
            c = y3 + (k13 * A31 + k23 * A32) * h
            k31 = l00 * a + l01 * b + l02 * c
            k32 = l11 * b - l01 * a + l12 * c
            k33 = l22 * c - (l02 * a + l12 * b) + bz
            l00, l11, l22 = f00 + m4 * d00, f11 + m4 * d11, f22 + m4 * d22
            l01, l02, l12 = f01 + m4 * d01, f02 + m4 * d02, f12 + m4 * d12
            bz = fz + m4 * dz
            a = y1 + (k11 * A41 + k21 * A42 + k31 * A43) * h
            b = y2 + (k12 * A41 + k22 * A42 + k32 * A43) * h
            c = y3 + (k13 * A41 + k23 * A42 + k33 * A43) * h
            k41 = l00 * a + l01 * b + l02 * c
            k42 = l11 * b - l01 * a + l12 * c
            k43 = l22 * c - (l02 * a + l12 * b) + bz
            l00, l11, l22 = f00 + m5 * d00, f11 + m5 * d11, f22 + m5 * d22
            l01, l02, l12 = f01 + m5 * d01, f02 + m5 * d02, f12 + m5 * d12
            bz = fz + m5 * dz
            a = y1 + (k11 * A51 + k21 * A52 + k31 * A53 + k41 * A54) * h
            b = y2 + (k12 * A51 + k22 * A52 + k32 * A53 + k42 * A54) * h
            c = y3 + (k13 * A51 + k23 * A52 + k33 * A53 + k43 * A54) * h
            k51 = l00 * a + l01 * b + l02 * c
            k52 = l11 * b - l01 * a + l12 * c
            k53 = l22 * c - (l02 * a + l12 * b) + bz
            l00, l11, l22 = f00 + m6 * d00, f11 + m6 * d11, f22 + m6 * d22
            l01, l02, l12 = f01 + m6 * d01, f02 + m6 * d02, f12 + m6 * d12
            bz = fz + m6 * dz
            a = y1 + (k11 * A61 + k21 * A62 + k31 * A63 + k41 * A64 + k51 * A65) * h
            b = y2 + (k12 * A61 + k22 * A62 + k32 * A63 + k42 * A64 + k52 * A65) * h
            c = y3 + (k13 * A61 + k23 * A62 + k33 * A63 + k43 * A64 + k53 * A65) * h
            k61 = l00 * a + l01 * b + l02 * c
            k62 = l11 * b - l01 * a + l12 * c
            k63 = l22 * c - (l02 * a + l12 * b) + bz
            z1 = y1 + h * (k11 * B1 + k31 * B3 + k41 * B4 + k51 * B5 + k61 * B6)
            z2 = y2 + h * (k12 * B1 + k32 * B3 + k42 * B4 + k52 * B5 + k62 * B6)
            z3 = y3 + h * (k13 * B1 + k33 * B3 + k43 * B4 + k53 * B5 + k63 * B6)
            k71 = l00 * z1 + l01 * z2 + l02 * z3
            k72 = l11 * z2 - l01 * z1 + l12 * z3
            k73 = l22 * z3 - (l02 * z1 + l12 * z2) + bz
            nfev += 6

            # _rms3 inline, scaled by max(y, -y, z, -z) = max(|y|, |z|), the
            # float of that max call up to the sign of a zero, which atol hides
            v1 = -z1 if z1 < 0 else z1
            v2 = -z2 if z2 < 0 else z2
            v3 = -z3 if z3 < 0 else z3
            er1 = (k11 * E1 + k31 * E3 + k41 * E4 + k51 * E5 + k61 * E6 + k71 * E7) * h / (
                atol + (v1 if v1 > w1 else w1) * rtol)
            er2 = (k12 * E1 + k32 * E3 + k42 * E4 + k52 * E5 + k62 * E6 + k72 * E7) * h / (
                atol + (v2 if v2 > w2 else w2) * rtol)
            er3 = (k13 * E1 + k33 * E3 + k43 * E4 + k53 * E5 + k63 * E6 + k73 * E7) * h / (
                atol + (v3 if v3 > w3 else w3) * rtol)
            err = sqrt(er1 * er1 + er2 * er2 + er3 * er3) / _SQRT3
            # the controller's min and max as comparisons that pick the same operand
            if err < 1:
                cap = 1 if rejected else MAX_FACTOR  # no growth right after a rejection
                factor = cap if err == 0 else SAFETY * err**ERR_EXP
                h_abs *= factor if factor < cap else cap
                break
            factor = SAFETY * err**ERR_EXP
            h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
            rejected = True
            n_rejected += 1

        if z1 * z1 + z2 * z2 + z3 * z3 > _BALL_SQ:
            raise _left_ball(t_new, sqrt(z1 * z1 + z2 * z2 + z3 * z3))
        steps.frombytes(pack_step(
            t, h, y1, y2, y3, k11, k12, k13, k31, k32, k33, k41, k42, k43,
            k51, k52, k53, k61, k62, k63, k71, k72, k73,
        ))
        if g_old is not None:
            g_new = 0.5 * sqrt((z1 - g0) ** 2 + (z2 - g1) ** 2 + (z3 - g2) ** 2) - tol
            if g_new <= 0:  # else positive whatever the settle term
                u = dg_max * exp(-kappa * t_new) - eps
                if u > g_new:
                    g_new = u
            if (g_old <= 0 <= g_new) or (g_new <= 0 <= g_old):
                t_new = _event_time(gap, steps[-23:], t_new)
                stopped = True
            g_old = g_new
        t = t_new
        if stopped or t >= t_bound:
            break
        y1, y2, y3 = z1, z2, z3
        w1, w2, w3 = v1, v2, v3
        k11, k12, k13 = k71, k72, k73

    return steps, t, stopped, nfev, n_rejected


#: Step records per call of the compiled kernel, which is resumed when they fill.
_CHUNK = 4096


def _compiled_steps(kernel, coef, kappa, omega, dg_max, stop, y, t_bound, rtol, atol,
                    max_step):
    """``_dormand_prince`` with the same arguments, through the compiled
    stepper of ``_stepper.c`` (``kernel.steps``), which also finds the
    event's root: the same records, counts, stop time and exceptions, with
    the step records in an (n, 23) numpy array."""
    coef = np.array(coef, dtype=float)
    target = None if stop is None else np.array([*stop[0], stop[1], stop[2]])
    state = np.zeros(16)  # the slots of _stepper.c's enum
    state[1:4] = y
    n = ctypes.c_long()
    chunks, code = [], 2
    while code == 2:
        buf = np.empty((_CHUNK, 23))
        code = kernel.steps(
            coef.ctypes.data, kappa, omega, dg_max,
            None if target is None else target.ctypes.data,
            not chunks, state.ctypes.data, t_bound, rtol, atol, max_step, _SQRT3, _BALL_SQ,
            buf.ctypes.data, _CHUNK, ctypes.byref(n),
        )
        chunks.append(buf[: n.value])
    if code == -1:
        return None, 0.0, True, 0, 0
    if code == -2:
        raise StepSizeUnderflow(_UNDERFLOW)
    if code == -3:
        raise _left_ball(float(state[14]), float(state[15]))
    steps = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    t = float(state[0])
    if code == -4:  # the kernel's root search failed: the Python's raises its error
        t = _event_time(_stop_function(stop, kappa, dg_max), steps[-1:], float(state[14]))
    return steps, t, code != 0, int(state[12]), int(state[13])


def _kernel_agrees(kernel) -> bool:
    """Known-answer check of a loaded kernel: a short stop-rule run and a
    ``t_end`` run with a capped step must equal the Python stepper's bit
    for bit, records, counts and stop time; so must the cell's states on
    each run's stride grid, and at every step's start and end of the
    ``t_end`` run, and its analysis of the stop-rule run, which crosses eps
    5 times with 15 refined intervals and ends inconclusive; and so must the
    non-Markov measure of a channel with 13 windows, one with a vanishing
    final rate and one that never turns negative."""
    # the coefficients and dg_max of the ramp from rates (0.9, 0.1, 0.3) to
    # (0.05, 0.4, 0.0) in the field (1, 0, 0.5), rounded, and F's attractor,
    # found without the generator functions, whose calls perfbench's tracer
    # counts
    coef = [-0.225, -0.225, -0.45, -1.0, 0.0, -2.0, -0.35, -0.875, -0.875, -0.55, 0.0, 0.0, 0.0, 1.15]
    lam_f = np.array([[-0.225, -1.0, 0.0], [1.0, -0.225, -2.0], [0.0, 2.0, -0.45]])
    target = np.linalg.solve(lam_f, [0.0, 0.0, 0.35]).tolist()
    y, eps = [0.3, -0.2, 0.5], 0.0087
    measure = ((0.75, 0.9, 0.3), (0.05, 0.0, 0.5), 0.05, 1.5)
    try:
        for kappa, omega, stop, t_bound, rtol, max_step in (
            (0.3, 1.0, (target, eps / 10.0, eps), 1e4, 1e-6, math.inf),
            (0.7, 2.0, None, 2.0, 1e-9, 0.25),
        ):
            args = (coef, kappa, omega, 0.85, stop, y, t_bound, rtol, 1e-10, max_step)
            want = _dormand_prince(*args)
            got = _compiled_steps(kernel, *args)
            if bytes(want[0]) != bytes(got[0]) or want[1:] != got[1:]:
                return False
            steps, t, stopped = got[:3]
            ts = _sample_times(t, 0.05)
            if stop is None:
                ts = np.sort(np.concatenate([ts, steps[:, 0], steps[:, 0] + steps[:, 1]]))
            dense = _DenseOutput(steps, t)
            rs, _, found = _cell(kernel, steps, t, stopped, ts, kappa, omega, 0.85,
                                 (target, eps / 10.0, eps))
            if rs.tobytes() != dense(ts).tobytes():
                return False
            if stop:  # and so must the analysis of the stop-rule run
                traj = Trajectory(ts, rs, None, BlochVector(*target),
                                  distance_evaluator(dense, np.array(target)),
                                  envelope=lambda s: 0.85 * math.exp(-0.3 * s))
                if found != _threshold_analysis(traj, eps):
                    return False
        got = compiled_total(kernel, *measure)
        return got is not None and got.hex() == measure_total(*measure).hex()
    except (PontusError, ValueError, ctypes.ArgumentError):  # what a faulty kernel raises
        return False


def ramp_kernel():
    """The checked compiled kernel (``_stepper.Kernel``) with which
    ``_ramp_run`` steps, samples and analyses an ``ExponentialCosineSchedule``
    run, and ``nonmarkov`` computes the non-Markov measure, or None for the
    Python stepper, ``_DenseOutput``, ``_threshold_analysis`` and
    ``_measure.measure_total``;
    loaded on the first call of a process, so a caller about to fork
    workers can load it once for all of them."""
    return _stepper.kernel(_kernel_agrees)


def _ramp_args(schedule, r0: BlochVector, target: BlochVector, cfg: IntegratorConfig,
               eps: float, t_end: Optional[float] = None) -> tuple:
    """The steppers' argument tuple for ``integrate``'s run."""
    return (
        schedule.coefficients, schedule.kappa, schedule.omega, schedule._dg_max,
        None if t_end is not None else (target.as_array().tolist(), eps / 10.0, eps),
        r0.as_array().tolist(),
        cfg.t_cap if t_end is None else float(t_end),
        # below about 100 eps the controller could not meet the tolerance
        max(cfg.rel_tol, 100 * _EPS),
        cfg.abs_tol,
        cfg.max_step,
    )


def _sample_times(t_stop: float, stride: float) -> np.ndarray:
    """A run's sample times, on both routes: the stride grid up to
    ``t_stop``, and t_stop itself where it lies more than 1e-12 past the
    grid."""
    ts = np.arange(0.0, t_stop, stride)
    if t_stop - (ts[-1] if len(ts) else 0.0) > 1e-12:
        ts = np.append(ts, t_stop)
    return ts


def _cell(kernel, steps, t_stop, stopped, ts, kappa, omega, dg_max, stop):
    """``kernel.cell`` of a run's (n, 23) step records, which end at
    ``t_stop``: (states, worst, found), the states at the sample times
    ``ts``, the largest |r| among them, and ``_threshold_analysis`` at the
    ``stop`` tuple's (target, tol, eps) of a ``stopped`` run, None for a run
    not stopped or where the kernel declines."""
    target, tol, eps = stop
    stop = np.array([*target, tol, eps])
    rs, d, out = np.empty((len(ts), 3)), np.empty(len(ts)), np.empty(4)
    code = kernel.cell(steps.ctypes.data, len(steps), t_stop, stopped, stop.ctypes.data, kappa,
                       omega, dg_max, ts.ctypes.data, len(ts), TAU_XTOL, rs.ctypes.data,
                       d.ctypes.data, out.ctypes.data)
    tau, inconclusive, crossings, worst = out.tolist()
    return rs, worst, ((tau, inconclusive > 0, int(crossings)) if code == 0 else None)


def _ramp_run(schedule, r0: BlochVector, target: BlochVector, cfg: IntegratorConfig,
              eps: float, t_end: Optional[float] = None) -> dict:
    """``integrate``'s run, as the fields of its Trajectory, which a gain-map
    cell reads with no Trajectory built.

    Where the kernel loads, one ``kernel.steps`` sequence and one
    ``kernel.cell`` call give the samples and, for a stopped run, the
    ``analysis`` that ``_threshold_analysis`` would make of them; the
    Trajectory's ``distance_of`` then builds ``_DenseOutput`` on each call,
    as only ``mpemba`` and the Python analysis of a run that the kernel
    declined call it.
    Else ``_dormand_prince`` and ``_DenseOutput`` give the samples, and
    ``analysis`` stays None but for a run settled at t = 0.
    """
    if t_end is not None and not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    tgt, y0 = target.as_array(), r0.as_array()
    args = _ramp_args(schedule, r0, target, cfg, eps, t_end)
    kernel = ramp_kernel()
    if kernel is None:
        steps, t_stop, stopped, nfev, n_rejected = _dormand_prince(*args)
    else:
        steps, t_stop, stopped, nfev, n_rejected = _compiled_steps(kernel, *args)
    if steps is None:  # nothing to do: already settled at t = 0
        dense, n_accepted, found = (lambda ts: np.tile(y0, (len(ts), 1))), 0, (0.0, False, 0)
        ts, rs = np.array([0.0]), y0[None, :]
    else:
        ts = _sample_times(t_stop, cfg.sample_stride)
        if kernel is None:
            dense, n_accepted, found = _DenseOutput(steps, t_stop), len(steps) // 23, None
            rs = dense(ts)
            worst = float(np.max(np.linalg.norm(rs, axis=1)))
        else:
            dense, n_accepted = (lambda ts: _DenseOutput(steps, t_stop)(ts)), len(steps)
            rs, worst, found = _cell(kernel, steps, t_stop, stopped, ts, *args[1:4],
                                     (tgt.tolist(), eps / 10.0, eps))
        if worst > 1.0 + TOL_BALL:  # the steppers checked only the step ends
            raise _sampled_outside(worst)
    return dict(t=ts, r=rs, rates_of=schedule.rates_array, target=target,
                distance_of=distance_evaluator(dense, tgt), timed_out=t_end is None and not stopped,
                envelope=schedule.envelope, nfev=nfev, n_accepted=n_accepted,
                n_rejected=n_rejected, analysis=found)


def integrate(
    schedule,
    r0: BlochVector,
    target: BlochVector,
    cfg: IntegratorConfig,
    eps: float,
    t_end: Optional[float] = None,
) -> Trajectory:
    """Solve r' = Lambda(t) r + b(t) under a damped-cosine ramp.

    ``schedule`` is an ``ExponentialCosineSchedule``; the steppers read its
    ``coefficients``, ``kappa``, ``omega`` and ``_dg_max``.  The equation is
    stepped and sampled by the compiled kernel of ``_stepper.c`` where one
    loads (``_stepper.kernel``), else by ``_dormand_prince`` and
    ``_DenseOutput``, which write the same step records and samples bit for
    bit (``_ramp_run``).  On the kernel route the Trajectory of a stopped
    run carries the kernel's threshold analysis of its samples.

    Integration stops once the trace distance to ``target`` is below
    ``eps/10`` while the schedule's remaining deviation from its final
    generator is below ``eps``; from that point on the flow is a plain
    contraction toward the target and no further threshold crossing can
    occur.  Passing ``t_end`` disables the stop rule and integrates the
    fixed horizon instead.  A run whose state leaves the Bloch ball raises
    BallViolation at the first step that ends outside it, or else at its
    samples.
    """
    return Trajectory(**_ramp_run(schedule, r0, target, cfg, eps, t_end))


def _refined_threshold_series(traj: Trajectory, eps: float):
    """Sample series with extra evaluator points near the cutoff.

    A sub-stride excursion across the threshold needs a turning point next
    to the cutoff level, so only straddling intervals and slope reversals
    inside the threshold band are subdivided.
    """
    t, d = traj.t, traj.dist
    if len(t) < 3:
        return t, d
    lo_band, hi_band = eps / 4.0, 4.0 * eps
    in_band = (np.minimum(d[:-1], d[1:]) < hi_band) & (np.maximum(d[:-1], d[1:]) > lo_band)
    straddle = (d[:-1] >= eps) != (d[1:] >= eps)
    slope = np.sign(np.diff(d))
    turning = np.zeros(len(d) - 1, dtype=bool)
    reversal = slope[:-1] != slope[1:]
    turning[:-1] |= reversal  # extremum may hide on either side of the
    turning[1:] |= reversal  # sample where the slope flips
    refine = in_band & (straddle | turning)
    if not refine.any():
        return t, d
    k = np.nonzero(refine)[0]
    step = (t[k + 1] - t[k]) / 9  # linspace's own points, j * step + start
    sub = (np.arange(1, 9) * step[:, None] + t[k][:, None]).ravel()
    ts = np.concatenate([t, sub])
    order = np.argsort(ts, kind="stable")
    return ts[order], np.concatenate([d, traj.distance_of(sub)])[order]


_UNSETTLED = "distance never settled below the cutoff"


def _threshold_analysis(traj: Trajectory, eps: float):
    """(tau, inconclusive, n_crossings) of a converged trajectory."""
    if traj.timed_out:
        raise NotConverged("trajectory hit the time cap before settling below the cutoff")
    ts, ds = _refined_threshold_series(traj, eps)
    above = ds >= eps
    if not above.any():
        return 0.0, False, 0
    flips = np.nonzero(above[:-1] != above[1:])[0]
    down = flips[above[flips]]
    if len(down) == 0:
        raise NotConverged(_UNSETTLED)
    k = int(down[-1])
    tau = float(brentq(lambda x: traj.distance_of(x) - eps, ts[k], ts[k + 1], xtol=TAU_XTOL))
    inconclusive = traj.envelope is not None and traj.envelope(tau) > eps
    return tau, inconclusive, int(len(flips))


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


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write the dense samples as CSV: t,rx,ry,rz,dist,gp,gm,gz."""
    columns = [traj.t, *traj.r.T, traj.dist, *traj.rates.T]
    write_csv(path, "t,rx,ry,rz,dist,gp,gm,gz", columns)


def velocity_field_to_csv(rows: np.ndarray, path) -> None:
    """Write velocity-field samples as CSV: rx,ry,rz,vx,vy,vz,speed."""
    write_csv(path, "rx,ry,rz,vx,vy,vz,speed", list(np.asarray(rows, dtype=float).T))
