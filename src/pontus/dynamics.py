"""Generator assembly and propagation of the affine Bloch equation, the
threshold analysis of a run and the CSV writer.

Constant-parameter dynamics is propagated exactly through the drift's
eigenmodes, or a matrix exponential where those are unusable
(``ConstantFlow``).  The library's one time-dependent schedule, the
damped-cosine ramp (``protocols.ExponentialCosineSchedule``), goes through an
in-house adaptive Dormand-Prince 5(4) stepper specialised to its affine form
Lambda(t) = lam_f + m(t) dlam, b(t) = b_f + m(t) db with
m(t) = exp(-kappa t) cos(omega t): scalar floats, the stages formed inline,
the stop rule checked inline, and the quartic dense output of all steps
built in one pass (``_DenseOutput``).  It copies the error norm, controller
and event location of scipy's RK45, and its initial step but for scipy's
clamp to the horizon; the event's root is found by the in-house Brent
solver (``_roots.brentq``, bit for bit scipy's).
The compiled kernel (``_stepper.c``, loaded by ``_stepper.kernel``) repeats
these float operations in the same order: the step loop with the event's
root, then the dense output at a run's samples (``_sample_times``) and
``_threshold_analysis`` of them, fed one chunk of step records after
another.  ``integrate`` keeps its run's records and feeds them as one
chunk; a gain-map cell's run (``_ramp_cell``) keeps only the few that its
analysis still needs, in a reused buffer of its thread, and builds no
schedule or Trajectory.  Both steppers return their records as one (n, 23)
array.  The Python routes serve every process where no kernel loads.  Two
independent oracles (a density-matrix-level rebuild of the generator and
a time-ordered product integrator) cross-check both routes.  scipy is
imported only by ``expm``, on its first call.
"""

from __future__ import annotations

import ctypes
import functools
import math
import struct
import threading
from array import array
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

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
    t_cap: float = 1e4
    sample_stride: float = 0.05

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not (0 < self.t_cap < math.inf and 0 < self.sample_stride < math.inf):
            raise ValueError("t_cap and sample_stride must be positive and finite")

    def as_dict(self) -> dict:
        """The settings as a config's ``integrator`` section, which reproduces
        them."""
        return asdict(self)


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
        aug = np.zeros((4, 4))
        aug[:3, :3], aug[:3, 3] = g.Lambda, g.b
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
#: The doubles of one step record, a row of both steppers' (n, _RECORD)
#: arrays: t, h, y, k1, k3, ..., k7.
_RECORD = 23


class _DenseOutput:
    """Quartic interpolants of the accepted steps, from the steppers' (n, 23)
    step records (``_RECORD``) and ending at ``t_final``.

    Q = K^T P is formed for all steps at once, on the first call, elementwise
    and term by term in stage order, so no coefficient depends on a BLAS
    kernel.  A time is served by the step whose interval holds it, a
    breakpoint by the step that ends there.  Each time is evaluated on its
    own, so a value does not depend on the other times.
    """

    def __init__(self, a, t_final):
        self.records = a
        self.t_break = np.append(a[:, 0], t_final)
        self.h = a[:, 1]
        self.y_old = a[:, 2:5]

    @functools.cached_property
    def q(self) -> np.ndarray:
        a = self.records
        k1, k3, k4, k5, k6, k7 = (a[:, j : j + 3] for j in range(5, _RECORD, 3))
        q = np.empty((len(a), 3, 4))
        q[:, :, 0] = k1
        for j in range(3):
            q[:, :, j + 1] = (
                k1 * _P1[j] + k3 * _P3[j] + k4 * _P4[j] + k5 * _P5[j] + k6 * _P6[j] + k7 * _P7[j]
            )
        return q

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


def _settle_level(eps: float) -> float:
    """The distance to the target below which a run with cutoff eps may stop."""
    return eps / 10.0


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
    """Root of ``gap`` on the interpolant of one step record, a (1, 23)
    array, that ends at ``t_end``: the time at which a run's stop rule ends
    it."""
    at = _DenseOutput(record, t_end)
    return brentq(lambda s: gap(s, *at([s])[0].tolist()), float(at.t_break[0]), t_end,
                  xtol=4 * _EPS, rtol=4 * _EPS)


_UNDERFLOW = "Required step size is less than spacing between numbers."


def _left_ball(t: float, norm: float) -> BallViolation:
    return BallViolation(f"trajectory left the Bloch ball at t = {t:.12g} (|r| = {norm:.12g})")


def _sampled_outside(worst: float) -> BallViolation:
    return BallViolation(f"trajectory left the Bloch ball (max sampled |r| = {worst:.12g})")


def _dormand_prince(coef, kappa, omega, dg_max, stop, y, t_bound, rtol, atol):
    """Adaptive Dormand-Prince 5(4) from t = 0 for the damped-cosine ramp,
    step for step as scipy's RK45 but for the first step, which is Hairer,
    Norsett & Wanner's without scipy's clamp to the horizon: a run's steps
    do not depend on ``t_bound`` before they reach it, so a stop-rule run's
    records are a prefix of a longer ``t_end`` run's.

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
    records in an (n, 23) array; steps is None when the stop function is
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
    m = exp(-kappa * h0) * cos(omega * h0)
    u1, u2, u3 = slope(m, y1 + h0 * k11, y2 + h0 * k12, y3 + h0 * k13)
    d2 = _rms3((u1 - k11) / s1, (u2 - k12) / s2, (u3 - k13) / s3) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1)
    nfev = 2
    n_rejected = 0

    steps = array("d")  # per accepted step: t, h, y, k1, k3, ..., k7
    pack_step = struct.Struct(f"{_RECORD}d").pack  # a third of array.extend's time per step
    sqrt, nextafter, inf = math.sqrt, math.nextafter, math.inf
    w1, w2, w3 = abs(y1), abs(y2), abs(y3)  # then each step's |z|, as max(z, -z) gives it
    stopped = False
    while True:
        min_step = 10 * (nextafter(t, inf) - t)
        if h_abs < min_step:
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
                t_new = _event_time(gap, np.reshape(steps[-_RECORD:], (1, _RECORD)), t_new)
                stopped = True
            g_old = g_new
        t = t_new
        if stopped or t >= t_bound:
            break
        y1, y2, y3 = z1, z2, z3
        w1, w2, w3 = v1, v2, v3
        k11, k12, k13 = k71, k72, k73

    return np.frombuffer(steps).reshape(-1, _RECORD), t, stopped, nfev, n_rejected


#: Step records per call of the compiled stepper, which is resumed when they
#: fill: a chunk of the records that ``integrate`` keeps, or the rows of a
#: thread's buffer that a gain-map cell's run steps into (``_record_buffer``).
_CHUNK = 4096
#: The doubles of ``_stepper.c``'s struct cell, a run's analysis between chunks.
_CELL_SLOTS = 16
_records = threading.local()


def _stop_array(stop) -> Optional[np.ndarray]:
    """A stop tuple (target, tol, eps) as the kernel reads it: 5 doubles."""
    return None if stop is None else np.array([*stop[0], stop[1], stop[2]])


def _resumable(kernel, args, rule):
    """The run of ``_dormand_prince``'s argument tuple on the compiled stepper
    of ``_stepper.c`` (``kernel.steps``), which also finds the event's root,
    with its stop tuple as ``rule`` (``_stop_array``): a function that runs
    it on, from where it last stopped, into the rows of a C-contiguous
    (rows, 23) array and returns the stepper's code and the records
    written; and the array of the run's state."""
    coef, kappa, omega, dg_max, _, y, t_bound, rtol, atol = args
    coef = np.array(coef, dtype=float)
    state = np.zeros(16)  # the slots of _stepper.c's enum
    state[1:4] = y
    n = ctypes.c_long()

    def resume(rows):
        code = kernel.steps(
            coef.ctypes.data, kappa, omega, dg_max,
            None if rule is None else rule.ctypes.data,
            not state[12], state.ctypes.data, t_bound, rtol, atol, _SQRT3, _BALL_SQ,
            rows.ctypes.data, len(rows), ctypes.byref(n),
        )  # it starts the run while it has made no right-hand-side call
        return code, n.value

    return resume, state


def _run_end(code, state, last, args):
    """The time at which the compiled run of ``args`` ends, from the code of
    its last ``kernel.steps`` call (not -1), its state and its last step
    record ``last``; or the Python stepper's exception."""
    if code == -2:
        raise StepSizeUnderflow(_UNDERFLOW)
    if code == -3:
        raise _left_ball(float(state[14]), float(state[15]))
    if code == -4:  # the kernel's root search failed: the Python's raises its error
        return _event_time(_stop_function(args[4], args[1], args[3]), last, float(state[14]))
    return float(state[0])


def _compiled_steps(kernel, *args):
    """``_dormand_prince`` with the same arguments, through the compiled
    stepper (``_resumable``): the same records, counts, stop time and
    exceptions."""
    resume, state = _resumable(kernel, args, _stop_array(args[4]))
    chunks, code = [], 2
    while code == 2:
        buf = np.empty((_CHUNK, _RECORD))
        code, n = resume(buf)
        chunks.append(buf[:n])
    if code == -1:
        return None, 0.0, True, 0, 0
    steps = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    t = _run_end(code, state, steps[-1:], args)
    return steps, t, code != 0, int(state[12]), int(state[13])


def _kernel_agrees(kernel) -> bool:
    """Known-answer check of a loaded kernel: a short stop-rule run and a
    ``t_end`` run must equal the Python stepper's bit for bit, records,
    counts and stop time; so must the cell's states, which it takes from
    its dense output, and distances on each run's stride grid, its largest
    |r|, and its analysis of the stop-rule run, which crosses eps 5 times
    with 15 refined intervals and ends inconclusive, and on a 0.5 grid,
    where 2 of its 3 crossings lie in an interval that only the lookahead
    of a slope reversal at its end refines, also in chunks of 8 records;
    and so must the non-Markov measure of a channel with 13 windows, one
    with a vanishing final rate and one that never turns negative; and so
    must the writer's rows of values where a ``%.17g`` formatter can go
    wrong, beside a bytes column that holds a %."""
    # the coefficients and dg_max of the ramp from rates (0.9, 0.1, 0.3) to
    # (0.05, 0.4, 0.0) in the field (1, 0, 0.5), rounded, and F's attractor,
    # found without the generator functions, whose calls perfbench's tracer
    # counts
    coef = [-0.225, -0.225, -0.45, -1.0, 0.0, -2.0, -0.35, -0.875, -0.875, -0.55, 0.0, 0.0, 0.0, 1.15]
    lam_f = np.array([[-0.225, -1.0, 0.0], [1.0, -0.225, -2.0], [0.0, 2.0, -0.45]])
    target = np.linalg.solve(lam_f, [0.0, 0.0, 0.35])
    y, eps = [0.3, -0.2, 0.5], 0.0087
    rule = (target.tolist(), _settle_level(eps), eps)
    measure = ((0.75, 0.9, 0.3), (0.05, 0.0, 0.5), 0.05, 1.5)
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, math.copysign(math.nan, -1.0), 5e-324,
              154043743710274.125, 1.2345678901234567e-05, 0.00012345678901234567,
              1.2345678901234567e16, 1.2345678901234567e17] + [
        math.nextafter(v, d) for v in (1e-280, 1e280) for d in (0.0, v, math.inf)]
    columns = [np.array(values), np.array(values[::-1]), np.array([b"50%", b"", b"ok"] * 6, "S")]
    try:
        if b"".join(_csv_rows(columns, kernel)) != b"".join(_csv_rows(columns, None)):
            return False
        for kappa, omega, stop, t_bound, rtol in (
            (0.3, 1.0, rule, 1e4, 1e-6),
            (0.7, 2.0, None, 2.0, 1e-9),
        ):
            args = (coef, kappa, omega, 0.85, stop, y, t_bound, rtol, 1e-10)
            want = _dormand_prince(*args)
            got = _compiled_steps(kernel, *args)
            if want[0].tobytes() != got[0].tobytes() or want[1:] != got[1:]:
                return False
            steps, t, stopped = got[:3]
            dense = _DenseOutput(steps, t)
            ts = _sample_times(t, 0.05)
            rs, ds, worst, found = _samples(kernel, steps, t, stopped, len(ts), kappa, omega, 0.85,
                                            rule, 0.05)
            if (rs.tobytes() != dense(ts).tobytes()
                    or ds.tobytes() != trace_distances(rs, target).tobytes()
                    or worst != np.max(np.linalg.norm(rs, axis=1))):
                return False
            if stop:  # and so must the stop-rule run's analysis, also on a grid
                # whose intervals span several steps, in chunks that must
                # carry their records over
                coarse = _sample_times(t, 0.5)
                whole = _samples(kernel, steps, t, stopped, len(coarse), kappa, omega, 0.85, rule,
                                 0.5)
                for ts, rs, found in ((ts, rs, found), (coarse, whole[0], whole[3])):
                    traj = Trajectory(ts, rs, None, BlochVector(*target),
                                      distance_evaluator(dense, target),
                                      envelope=lambda s: 0.85 * math.exp(-0.3 * s))
                    if found != _threshold_analysis(traj, eps):
                        return False
                if _compiled_cell(kernel, args, 0.5, chunk=8) != (True, *whole[2:]):
                    return False
        got = compiled_total(kernel, *measure)
        return got is not None and got.hex() == measure_total(*measure).hex()
    except (PontusError, ValueError, ctypes.ArgumentError):  # what a faulty kernel raises
        return False


def ramp_kernel():
    """The checked compiled kernel (``_stepper.Kernel``) with which
    ``integrate`` and ``_ramp_cell`` step, sample and analyse a ramp's run,
    ``nonmarkov`` computes the non-Markov measure and ``write_csv`` writes
    its rows, or None for their Python routes; loaded once per process, by
    the first call of any of its threads."""
    return _stepper.kernel(_kernel_agrees)


#: Rows of a CSV file that one call of the kernel's writer writes.
_CSV_BLOCK = 512


@functools.cache
def _powers_of_ten():
    """10**p for |p| <= 300 as a double-double (hi, lo), built from Python
    ints on first use: the nearest double, and the nearest double to the rest."""
    table = []
    for p in range(-300, 301):  # int / int rounds once, to the nearest double
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        m, s = (num / den).as_integer_ratio()
        table.append((m / s, (num * s - m * den) / (den * s)))
    return np.array(table).T.copy()


def write_csv(path, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write a CSV file: the header line, then one line per row of ``columns``,
    a float64 as ``b"%.17g" % v`` writes it, which round-trips a float, and
    a fixed-width bytes value (numpy ``S``) as its bytes."""
    if any(len(col) != len(columns[0]) or not (col.dtype == np.float64 or col.dtype.kind == "S")
           for col in columns):
        raise ValueError("CSV columns must be float64 or bytes arrays of one length")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(_csv_rows(columns, ramp_kernel()))


def _csv_rows(columns, kernel):
    """The rows of ``columns`` in chunks of bytes: per ``_CSV_BLOCK`` rows, the
    bytes that ``kernel.csv_rows`` writes, given each column's address,
    stride and width (0 for floats); or, with no kernel, each row by ``%``."""
    floats, n = [col.dtype == np.float64 for col in columns], len(columns[0])
    if kernel is None:
        line = b",".join(b"%.17g" if f else b"%s" for f in floats) + b"\n"
        yield from (line % row for row in zip(*(col.tolist() for col in columns)))
        return
    cols = np.array([(col.ctypes.data, col.strides[0], 0 if f else col.itemsize)
                     for f, col in zip(floats, columns)], np.intp)
    hi, lo = _powers_of_ten()
    buf = np.empty(_CSV_BLOCK * int(np.where(cols[:, 2], cols[:, 2] + 1, 25).sum()), np.uint8)
    for start in range(0, n, _CSV_BLOCK):
        size = kernel.csv_rows(cols.ctypes.data, len(cols), start, min(_CSV_BLOCK, n - start),
                               hi.ctypes.data, lo.ctypes.data, buf.ctypes.data)
        yield buf[:size].tobytes()


def _ramp_args(schedule, r0: BlochVector, target: BlochVector, cfg: IntegratorConfig,
               eps: float, t_end: Optional[float] = None) -> tuple:
    """The steppers' argument tuple for ``integrate``'s run."""
    return (
        schedule.coefficients, schedule.kappa, schedule.omega, schedule._dg_max,
        None if t_end is not None else (target.as_array().tolist(), _settle_level(eps), eps),
        r0.as_array().tolist(),
        cfg.t_cap if t_end is None else float(t_end),
        # below about 100 eps the controller could not meet the tolerance
        max(cfg.rel_tol, 100 * _EPS),
        cfg.abs_tol,
    )


def _sample_times(t_stop: float, stride: float) -> np.ndarray:
    """A run's sample times, on both routes: the stride grid up to
    ``t_stop``, and t_stop itself where it lies more than 1e-12 past the
    grid."""
    ts = np.arange(0.0, t_stop, stride)
    if t_stop - (ts[-1] if len(ts) else 0.0) > 1e-12:
        ts = np.append(ts, t_stop)
    return ts


def _record_buffer(rows, keep=None):
    """This thread's buffer of step records, which each gain-map cell that it
    runs reuses: at least ``rows`` rows; a new one, which begins with the
    rows ``keep``, where the old one is shorter."""
    buf = getattr(_records, "steps", None)
    if buf is None or len(buf) < rows:
        buf = _records.steps = np.empty((rows, _RECORD))
        if keep is not None:
            buf[: len(keep)] = keep
    return buf


def _cell(kernel, cell, steps, n, t_end, end, stop, kappa, omega, dg_max, stride, rs=None,
          ds=None):
    """``kernel.cell`` (pontus_cell) of the first ``n.value`` rows of
    ``steps``, step records that end at ``t_end``, where their run resumes
    (``end`` 0), ends at its time bound (1) or is stopped (2): the samples
    on the ``stride`` grid that they serve, their states and distances into
    ``rs`` and ``ds`` where given, and the analysis at the ``stop`` array's
    (target, tol, eps), carried in ``cell``.  Returns the analysis's (tau,
    inconclusive, n_crossings) once a stopped run's is done, else None, also
    where the kernel declines it; where the run resumes, n.value counts the
    records kept at the front of ``steps`` for its next chunk."""
    out = (None, None, 0) if rs is None else (rs.ctypes.data, ds.ctypes.data, len(rs))
    code = kernel.cell(cell.ctypes.data, steps.ctypes.data, ctypes.byref(n), t_end, end,
                       stop.ctypes.data, kappa, omega, dg_max, stride, TAU_XTOL, *out)
    tau, inconclusive, crossings = cell[:3].tolist()
    return (tau, inconclusive > 0, int(crossings)) if code == 0 else None


def _samples(kernel, steps, t_stop, stopped, m, kappa, omega, dg_max, stop, stride):
    """``kernel.cell`` of all of a run's (n, 23) step records, which end at
    ``t_stop``, as one chunk: (states, distances, worst, found), the states
    and distances to the target of its m samples (``_sample_times``), the
    largest |r| among them, and ``_threshold_analysis`` at the ``stop``
    tuple's (target, tol, eps) of a ``stopped`` run, None for a run not
    stopped or where the kernel declines."""
    cell, rs, ds = np.zeros(_CELL_SLOTS), np.empty((m, 3)), np.empty(m)
    found = _cell(kernel, cell, steps, ctypes.c_long(len(steps)), t_stop, 2 if stopped else 1,
                  _stop_array(stop), kappa, omega, dg_max, stride, rs, ds)
    if cell[4] != m:  # a kernel that lays out another grid, which _kernel_agrees refuses
        raise ValueError(f"the kernel took {cell[4]:g} samples, not {m}")
    return rs, ds, float(cell[3]), found


def _compiled_cell(kernel, args, stride, chunk=_CHUNK):
    """The compiled run of ``_dormand_prince``'s argument tuple ``args``, with
    its stop rule, as a gain-map cell reads it: (stopped, worst, found), as
    ``_samples`` gives them for the run's records.

    The run steps ``chunk`` rows at a time into this thread's buffer
    (``_record_buffer``), and ``kernel.cell`` takes the samples and the
    analysis of each chunk as it comes.  Only the records that the interval
    it has yet to refine needs are kept for the next, so the run's memory
    does not grow with its length; where they fill half the rows, the rows
    double.  ``chunk`` changes no result.
    """
    rule = _stop_array(args[4])  # the stepper's and the cell's
    resume, state = _resumable(kernel, args, rule)
    buf, rows, n = _record_buffer(chunk), chunk, ctypes.c_long(0)
    cell, code = np.zeros(_CELL_SLOTS), 2
    while code == 2:
        code, written = resume(buf[n.value : rows])
        if code == -1:  # settled at t = 0
            return True, 0.0, (0.0, False, 0)
        n.value += written
        t_end = _run_end(code, state, buf[n.value - 1 : n.value], args)
        end = 0 if code == 2 else 1 if code == 0 else 2
        found = _cell(kernel, cell, buf, n, t_end, end, rule, *args[1:4], stride)
        if code == 2 and 2 * n.value > rows:
            rows *= 2
            buf = _record_buffer(rows, buf[: n.value])
    return code != 0, float(cell[3]), found


def _ramp_cell(args, stride: float):
    """A gain-map cell's run on the kernel route (``_compiled_cell``) of
    ``integrate``'s stepper arguments ``args`` (``_ramp_args``), sampled at
    ``stride``: (tau, inconclusive, n_crossings) as ``_threshold_analysis``
    finds them, or (None, False, 0) for a run that times out, raising as
    ``integrate`` raises; None where no kernel loads or where it declines
    the analysis, for the caller to run ``integrate`` and the Python
    analysis."""
    kernel = ramp_kernel()
    if kernel is None:
        return None
    stopped, worst, found = _compiled_cell(kernel, args, stride)
    if worst > 1.0 + TOL_BALL:  # the stepper checked only the step ends
        raise _sampled_outside(worst)
    return found if stopped else (None, False, 0)


def integrate(schedule, r0: BlochVector, target: BlochVector, cfg: IntegratorConfig, eps: float,
              t_end: Optional[float] = None) -> Trajectory:
    """Solve r' = Lambda(t) r + b(t) under a damped-cosine ramp.

    ``schedule`` is an ``ExponentialCosineSchedule``; the steppers read its
    ``coefficients``, ``kappa``, ``omega`` and ``_dg_max``.  Where the
    compiled kernel of ``_stepper.c`` loads (``_stepper.kernel``), it steps
    the run, and one ``kernel.cell`` call over all its records gives the
    samples, their distances and, for a stopped run, the ``analysis`` that
    ``_threshold_analysis`` would make of them.  Else ``_dormand_prince``
    and ``_DenseOutput`` give the same records and samples bit for bit, and
    ``analysis`` stays None but for a run settled at t = 0.  On both routes
    ``distance_of`` evaluates the run's ``_DenseOutput``, which builds its
    coefficients only if it is called.

    Integration stops once the trace distance to ``target`` is below
    ``eps/10`` while the schedule's remaining deviation from its final
    generator is below ``eps``; from that point on the flow is a plain
    contraction toward the target and no further threshold crossing can
    occur.  Passing ``t_end`` disables the stop rule and integrates the
    fixed horizon instead.  A run whose state leaves the Bloch ball raises
    BallViolation at the first step that ends outside it, or else at its
    samples.
    """
    if t_end is not None and not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    tgt, y0 = target.as_array(), r0.as_array()
    args = _ramp_args(schedule, r0, target, cfg, eps, t_end)
    kernel = ramp_kernel()
    stepper = _dormand_prince if kernel is None else functools.partial(_compiled_steps, kernel)
    steps, t_stop, stopped, nfev, n_rejected = stepper(*args)
    dist = found = None
    if steps is None:  # nothing to do: already settled at t = 0
        dense, found = (lambda ts: np.tile(y0, (len(ts), 1))), (0.0, False, 0)
        ts, rs = np.array([0.0]), y0[None, :]
    else:
        ts = _sample_times(t_stop, cfg.sample_stride)
        dense = _DenseOutput(steps, t_stop)
        if kernel is None:
            rs = dense(ts)
            worst = float(np.max(np.linalg.norm(rs, axis=1)))
        else:
            rs, dist, worst, found = _samples(kernel, steps, t_stop, stopped, len(ts), *args[1:4],
                                              (tgt.tolist(), _settle_level(eps), eps),
                                              cfg.sample_stride)
        if worst > 1.0 + TOL_BALL:  # the steppers checked only the step ends
            raise _sampled_outside(worst)
    return Trajectory(t=ts, r=rs, dist=dist, rates_of=schedule.rates_array, target=target,
                      distance_of=distance_evaluator(dense, tgt),
                      timed_out=t_end is None and not stopped, envelope=schedule.envelope,
                      nfev=nfev, n_accepted=0 if steps is None else len(steps),
                      n_rejected=n_rejected, analysis=found)


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
    if not 0 < spacing < math.inf:
        raise ValueError("spacing must be positive and finite")
    if not 0 < max_radius < math.inf:
        raise ValueError("max_radius must be positive and finite")
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
