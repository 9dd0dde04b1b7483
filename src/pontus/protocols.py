"""Preparation protocols: direct quench, two-step detour, continuous ramp.

Each runner starts from the steady state of the initial parameters,
monitors the trace distance to the final steady state, and extracts the
relaxation time as the last time the distance settles below the cutoff.
The direct quench and the two-step detour hold constant parameters in each
stage and are runs of one set-up, ``_ConstantStages``, the quench being its
run without a detour; a t_I scan (``sweep.scan_two_step``) and a single
two-step ``simulate`` each share one set-up between the baseline and the
detours, whose switch distances (``switches``) feed the one class rule.  The
continuous ramp is integrated adaptively under the library's one rate
schedule, ``ExponentialCosineSchedule``; its runs share one set-up,
``_Ramp``, across kappa and omega, which a gain map builds once per map.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np

from .core import (
    FieldVector,
    ParameterPoint,
    RateTriple,
    Trajectory,
    distance_evaluator,
    trace_distances,
    validate_endpoint,
)
from .dynamics import (
    ConstantFlow,
    IntegratorConfig,
    _ramp_run,
    _threshold_analysis,
    assemble_generator,
    integrate,
    steady_state,
)

#: Default trace-distance cutoff below which states count as indistinguishable.
DEFAULT_EPS = 1e-4


@dataclass(frozen=True)
class ExponentialCosineSchedule:
    """Rates relax from start to final values under a damped cosine.

    gamma(t) = gamma_F + (gamma_S - gamma_F) exp(-kappa t) cos(omega t),
    channel by channel, with a static field.  For omega > 0 the
    instantaneous rates may transiently turn negative.  The generator takes
    the affine ramp form Lambda(t) = lam_f + m(t) dlam, b(t) = b_f + m(t) db,
    with the four arrays in ``parts`` and the scalar ramp ``m(t)``.
    ``integrate`` reads ``coefficients``, the 14 floats of ``parts`` that its
    steppers use, with kappa, omega and the settle term's scale
    ``_dg_max``, and computes m itself.  ``parts``, ``coefficients`` and
    the rate differences do not depend on kappa and omega; ``at`` shares
    them.
    """

    gamma_s: RateTriple
    gamma_f: RateTriple
    h: FieldVector
    kappa: float
    omega: float

    def __post_init__(self):
        if not (0 <= self.kappa < math.inf and 0 <= self.omega < math.inf):
            raise ValueError("kappa and omega must be nonnegative and finite")

    @cached_property
    def parts(self):
        gs = assemble_generator(ParameterPoint(self.h, self.gamma_s))
        gf = assemble_generator(ParameterPoint(self.h, self.gamma_f))
        return gf.Lambda, gf.b, gs.Lambda - gf.Lambda, gs.b - gf.b

    @cached_property
    def coefficients(self) -> list:
        """L00, L11, L22, L01, L02, L12 and b_z of (lam_f, b_f), then of
        (dlam, db): all of ``parts``, as ``assemble_generator`` builds every
        drift antisymmetric off the diagonal and every forcing zero in x and
        y, and both endpoints share the field."""
        index = (0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2)
        lam_f, b_f, dlam, db = self.parts
        return [*lam_f[index].tolist(), float(b_f[2]), *dlam[index].tolist(), float(db[2])]

    @cached_property
    def _dg(self) -> np.ndarray:
        return self.gamma_s.as_array() - self.gamma_f.as_array()

    @cached_property
    def _dg_max(self) -> float:
        return float(np.max(np.abs(self._dg)))

    def at(self, kappa: float, omega: float) -> "ExponentialCosineSchedule":
        """This ramp at another kappa and omega.  The copy shares this one's
        ``parts``, ``coefficients`` and rate differences, which do not depend
        on them; this one builds them on its first call."""
        other = dataclasses.replace(self, kappa=kappa, omega=omega)
        for name in ("parts", "coefficients", "_dg", "_dg_max"):
            other.__dict__[name] = getattr(self, name)
        return other

    def m(self, t: float) -> float:
        return math.exp(-self.kappa * t) * math.cos(self.omega * t)

    def generator(self, t: float):
        """(Lambda(t), b(t)), for the oracles that freeze it at a time."""
        lam_f, b_f, dlam, db = self.parts
        m = self.m(t)
        return lam_f + m * dlam, b_f + m * db

    def rates_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        m = np.exp(-self.kappa * ts) * np.cos(self.omega * ts)
        return self.gamma_f.as_array()[None, :] + m[:, None] * self._dg[None, :]

    def settle_bound(self, t: float) -> float:
        return self._dg_max * math.exp(-self.kappa * t)

    @property
    def envelope(self) -> Optional[Callable[[float], float]]:
        """``settle_bound`` while the modulation oscillates (omega > 0)."""
        return self.settle_bound if self.omega > 0 else None


@dataclass
class ProtocolResult:
    """Outcome of one protocol run.

    ``tau``, ``inconclusive`` and ``n_threshold_crossings`` come from the
    threshold analysis of the trajectory; a run that hit the time cap keeps
    None, False and 0.  A two-step run keeps its switch time,
    ``t_intermediate``.
    """

    kind: str
    trajectory: Trajectory
    epsilon: float
    tau: Optional[float] = None
    inconclusive: bool = False
    n_threshold_crossings: int = 0
    t_intermediate: Optional[float] = None

    @property
    def timed_out(self) -> bool:
        return self.trajectory.timed_out

    @property
    def converged(self) -> bool:
        return not self.trajectory.timed_out


def _result(kind: str, traj: Trajectory, eps: float, **switch) -> ProtocolResult:
    """The record of one run, with its threshold analysis unless it timed out:
    the one its integrator made, else ``_threshold_analysis``'s."""
    res = ProtocolResult(kind, traj, eps, **switch)
    if not traj.timed_out:
        res.tau, res.inconclusive, res.n_threshold_crossings = (
            traj.analysis or _threshold_analysis(traj, eps))
    return res


def _attractors(eps: float, *points: ParameterPoint):
    """Generators and steady states of a run's parameter points, after the
    checks every runner makes: a positive cutoff and valid endpoints."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    for p in points:
        validate_endpoint(p)
    gens = [assemble_generator(p) for p in points]
    return gens, [steady_state(g) for g in gens]


def run_direct(
    pS: ParameterPoint,
    pF: ParameterPoint,
    eps: float = DEFAULT_EPS,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ProtocolResult:
    """Sudden quench from the S steady state into the F environment.

    The no-detour run of the constant-stage protocol: the one F stage
    propagates through the exact closed-form flow; the trace distance to
    the F attractor decreases monotonically.
    """
    return _ConstantStages(pS, None, pF, eps, cfg).run()


def run_two_step(
    pS: ParameterPoint,
    pA: ParameterPoint,
    pF: ParameterPoint,
    t_i: float,
    eps: float = DEFAULT_EPS,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ProtocolResult:
    """Detour through the A environment until t_i, then relax toward F."""
    (t_i,) = _switch_times([t_i], cfg)
    return _ConstantStages(pS, pA, pF, eps, cfg).run(t_i)


def _switch_times(t_is: Sequence[float], cfg: IntegratorConfig) -> List[float]:
    """The switching times as floats, each checked to lie in (0, t_cap)."""
    t_is = [float(t_i) for t_i in t_is]
    for t_i in t_is:
        if t_i <= 0:
            raise ValueError("switching time must be positive")
        if t_i >= cfg.t_cap:
            raise ValueError("switching time must lie below the time cap")
    return t_is


class _ConstantStages:
    """The set-up that every run of the constant-stage protocol from pS to pF
    shares: the checked points' steady states and one ``ConstantFlow`` per
    stage, F's and A's, or F's alone for the direct quench (``pA`` None).
    """

    def __init__(self, pS, pA, pF, eps, cfg):
        points = (pS, pF) if pA is None else (pS, pA, pF)
        gens, (r0, *_, target) = _attractors(eps, *points)
        self.pA, self.pF, self.eps, self.cfg = pA, pF, eps, cfg
        self.r0, self.target, self.tgt = r0.as_array(), target, target.as_array()
        self.flow_f = ConstantFlow(gens[-1], cfg.sample_stride)
        self.flow_a = self.flow_f if pA is None else ConstantFlow(gens[1], cfg.sample_stride)
        self.detour = self.flow_a.sampler(self.r0)  # the first stage's states
        self.quench = self.flow_f.sampler(self.r0)  # the direct quench's

    def switches(self, t_is: Sequence[float]):
        """The detour's states at the switch times ``t_is``, and the
        (d_S, d_I, d_SF) of each switch by which ``mpemba._two_step_class``
        grades it: the trace distances to the target of the start, of the
        switch state and of the direct quench's state at the same time."""
        ts = np.array(t_is, dtype=float)
        r_i = self.detour(ts)
        d_s = float(trace_distances(self.r0[None, :], self.tgt)[0])
        d_i = trace_distances(r_i, self.tgt).tolist()
        d_sf = trace_distances(self.quench(ts), self.tgt).tolist()
        return r_i, [(d_s, a, b) for a, b in zip(d_i, d_sf)]

    def run(self, t_i: float = 0.0) -> ProtocolResult:
        """``trajectory(t_i)`` with its threshold analysis; the run at t_i = 0
        is the direct quench and records no switch."""
        switch = {"t_intermediate": t_i} if t_i else {}
        return _result("two-step" if t_i else "direct", self.trajectory(t_i), self.eps, **switch)

    def trajectory(self, t_i: float = 0.0) -> Trajectory:
        """The run that holds the A parameters up to t_i, then F's.

        The run at t_i = 0 makes no detour, and its t = 0 sample carries F's
        rates.  The F stage is sampled until the distance falls below eps/10
        or the time cap; as the distance never rises there, the run has
        timed out only if its last sample is still at or above eps.
        """
        r0, tgt, eps, stride = self.r0, self.tgt, self.eps, self.cfg.sample_stride
        detour = self.detour
        n_a = int(math.floor(t_i / stride + 1e-9))
        t_a = np.arange(n_a + 1) * stride
        r_a = self.flow_a.grid(r0, n_a)
        r_i = detour(np.array([t_i]))[0]
        if abs(n_a * stride - t_i) >= 1e-9:
            t_a = np.append(t_a, t_i)
            r_a = np.vstack([r_a, r_i])

        states_f, reached = self.flow_f.run_until(r_i, tgt, eps / 10.0, self.cfg.t_cap - t_i)
        t_f = t_i + np.arange(len(states_f)) * stride
        relax = self.flow_f.sampler(r_i)

        ts = np.concatenate([t_a, t_f[1:]])
        pA, pF = self.pA, self.pF  # not self, whose flows the result must not keep

        def rates_of(ts: np.ndarray) -> np.ndarray:
            rates = np.tile(pF.gamma.as_array(), (len(ts), 1))
            if t_i > 0:
                rates[ts <= t_i] = pA.gamma.as_array()
            return rates

        def states(ts: np.ndarray) -> np.ndarray:
            out = np.empty((len(ts), 3))
            before = ts <= t_i
            out[before] = detour(ts[before])
            out[~before] = relax(ts[~before] - t_i)
            return out

        return Trajectory(
            t=ts,
            r=np.vstack([r_a, states_f[1:]]),
            rates_of=rates_of,
            target=self.target,
            distance_of=distance_evaluator(states, tgt),
            timed_out=not reached and bool(trace_distances(states_f[-1:], tgt)[0] >= eps),
        )


def run_continuous(
    pS: ParameterPoint,
    pF: ParameterPoint,
    kappa: float,
    omega: float,
    eps: float = DEFAULT_EPS,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ProtocolResult:
    """Ramp the rates from S to F values under the damped-cosine schedule.

    The field is static, so the run starts exactly at the instantaneous
    attractor of the t = 0 parameters.  Large kappa recovers the direct
    quench; kappa -> 0 is the quasi-static limit and will exhaust the time
    cap.
    """
    return _Ramp(pS, pF, eps, cfg).result(kappa, omega)


class _Ramp:
    """The set-up that every continuous run from pS to pF shares, whatever
    its kappa and omega: the checked endpoints, both attractors, and a
    schedule whose generator parts, coefficients and rate differences each
    run's schedule shares (``ExponentialCosineSchedule.at``).  A gain map
    builds one per map, or per column of a kappa-theta map, and its cells
    read ``run``; ``result`` is the full record that ``simulate`` writes.
    Both come from one run of ``dynamics._ramp_run``.
    """

    def __init__(self, pS, pF, eps, cfg):
        if np.max(np.abs(pS.h.as_array() - pF.h.as_array())) > 1e-12:
            raise ValueError("the continuous protocol requires a static field")
        _, (self.r0, self.target) = _attractors(eps, pS, pF)
        self.schedule = ExponentialCosineSchedule(pS.gamma, pF.gamma, pS.h, 0.0, 0.0)
        # what each run's schedule shares, built here, not in each pool worker
        self.schedule.coefficients, self.schedule._dg_max
        self.eps, self.cfg = eps, cfg

    def result(self, kappa: float, omega: float) -> ProtocolResult:
        """The run at kappa and omega, its trajectory and threshold analysis."""
        traj = integrate(self.schedule.at(kappa, omega), self.r0, self.target, self.cfg, self.eps)
        return _result("continuous", traj, self.eps)

    def run(self, kappa: float, omega: float):
        """``result``'s tau, inconclusive and n_threshold_crossings, raising
        as it raises, all a gain-map cell reads, from the same run
        (``dynamics._ramp_run``); its Trajectory is built only where the
        integrator made no analysis, for ``_threshold_analysis``."""
        run = _ramp_run(self.schedule.at(kappa, omega), self.r0, self.target, self.cfg, self.eps)
        if run["timed_out"]:
            return None, False, 0
        return run["analysis"] or _threshold_analysis(Trajectory(**run), self.eps)
