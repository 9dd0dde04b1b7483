"""Parameter-plane sweeps of the gain function, and t_I scans.

A gain-map cell runs one continuous protocol against the direct baseline
(shared per column) and reads only its tau and inconclusive flag
(``_Ramp.run``), which the compiled kernel computes with the run's samples
where it loads, with no schedule or Trajectory built; the ramp's set-up
and the channels' tangency slopes, which do not depend on the cell's
kappa and omega, are built once per map (per column of a kappa-theta
map), and the column's direct baseline is a run of the direct quench that
the ramp's set-up holds (``_Ramp.direct``).  Cells pass only their kappa
and omega to immutable inputs and, where the kernel loads, run on a pool
of threads: a cell runs almost all of its time in the compiled kernel,
which releases the GIL, and writes only to buffers of its own, its
thread's reused step records included.  Failed cells are recorded, never
abort a sweep; results are bit-identical for any worker count.  A t_I scan
runs in this thread, its baseline and every row on one set-up of the
constant-stage protocol.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import FieldVector, ParameterPoint, RateTriple
from .dynamics import IntegratorConfig, ramp_kernel, write_csv
from .errors import BallViolation, NotConverged, SingularGenerator
from .mpemba import _two_step_class, gain
from .nonmarkov import _boundary_slopes, _non_markovian, boundary_curve
from .protocols import DEFAULT_EPS, ProtocolResult, _ConstantStages, _Ramp, _switch_times

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class GridAxis:
    """Named, strictly increasing sample grid of one sweep axis."""

    name: str
    values: Tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("a sweep axis needs at least two points")
        if not all(b > a for a, b in zip(self.values[:-1], self.values[1:])):
            raise ValueError("axis values must be strictly increasing")

    @classmethod
    def log(cls, name: str, lo: float, hi: float, n: int) -> "GridAxis":
        if lo <= 0 or hi <= lo:
            raise ValueError("log axis needs 0 < lo < hi")
        return cls(name, tuple(np.geomspace(lo, hi, n)))

    @classmethod
    def linear(cls, name: str, lo: float, hi: float, n: int) -> "GridAxis":
        if hi <= lo:
            raise ValueError("linear axis needs lo < hi")
        return cls(name, tuple(np.linspace(lo, hi, n)))


@dataclass(frozen=True)
class SweepSpec:
    """One gain-map problem: rate endpoints, field rule, and the two grids."""

    rates_s: RateTriple
    rates_f: RateTriple
    kappa_axis: GridAxis
    second_axis: GridAxis  # "theta" (field angle) or "omega" (modulation)
    h: Optional[FieldVector] = None  # fixed field; required for omega sweeps
    eps: float = DEFAULT_EPS
    cfg: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        if self.kappa_axis.name != "kappa":
            raise ValueError("first axis must be kappa")
        if not all(0 < k < math.inf for k in self.kappa_axis.values):
            raise ValueError("kappa must be positive and finite")
        if self.second_axis.name not in ("theta", "omega"):
            raise ValueError("second axis must be theta or omega")
        if self.second_axis.name == "omega" and self.h is None:
            raise ValueError("omega sweeps need a fixed field")
        if self.second_axis.name == "omega" and not all(
            0 <= w < math.inf for w in self.second_axis.values
        ):
            raise ValueError("omega must be nonnegative and finite")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")


@dataclass
class GainMap:
    """Grid of gain values with per-cell flags and the Markov boundary."""

    spec: SweepSpec
    kappa: np.ndarray
    second: np.ndarray
    tau_dir: np.ndarray
    tau_cpm: np.ndarray
    gain: np.ndarray
    f_total: np.ndarray
    inconclusive: np.ndarray
    non_markovian: np.ndarray
    status: List[List[str]]
    boundary: List[Tuple[float, Optional[float]]]
    # the first exception message of each ``error:<Type>`` status, row-major
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def shape(self):
        return self.gain.shape


def _field_for_theta(theta: float) -> FieldVector:
    return FieldVector(math.sin(theta), 0.0, math.cos(theta))


def _column(pS: ParameterPoint, pF: ParameterPoint, spec: SweepSpec, slopes=None):
    """The (tau_dir, status) of one column's direct quench, and what its
    cells share: the ramp's set-up (``_Ramp``), whose ``direct`` gives that
    quench, or None where it raised SingularGenerator; both rate triples;
    and their ``_boundary_slopes``, or None where every cell has omega = 0.
    Any other exception of the set-up ends the sweep."""
    try:
        ramp = _Ramp(pS, pF, spec.eps, spec.cfg)
    except SingularGenerator:  # recorded by every cell, never aborts the sweep
        ramp, direct = None, (math.nan, "singular-generator")
    else:
        res = ramp.direct.run()
        direct = (res.tau, STATUS_OK) if res.converged else (math.nan, STATUS_TIMEOUT)
    return direct, (ramp, pS.gamma.as_array(), pF.gamma.as_array(), slopes)


def _cell(args):
    """One sweep cell.

    Returns (tau_cpm, gain, inconclusive, non_markovian, f_total, status,
    message), the message being the exception's for an ``error:`` status,
    and ``singular-generator`` with no run for a column with no set-up; the
    gain is ``mpemba.gain``'s, so a cell agrees with ``simulate`` on the
    same problem, a nan tau_dir (failed direct baseline) included.
    """
    kappa, omega, (ramp, rates_s, rates_f, slopes), tau_dir = args
    nm_flag, f_total = _non_markovian(rates_s, rates_f, kappa, omega, slopes)

    def failed(status, message=None):
        return math.nan, math.nan, False, nm_flag, f_total, status, message

    if ramp is None:
        return failed("singular-generator")
    try:
        tau, inconclusive, _ = ramp.run(kappa, omega)
    except BallViolation:
        return failed("ball-violation")
    except Exception as exc:  # record, never abort the sweep
        return failed(f"error:{type(exc).__name__}", str(exc))
    if tau is None:
        return failed(STATUS_TIMEOUT)
    return tau, gain(tau_dir, tau).g, inconclusive, nm_flag, f_total, STATUS_OK, None


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _axes(spec: SweepSpec, second: str, jobs: Optional[int]):
    """The kappas and second-axis values of a map, once ``spec`` is a
    ``second`` map and ``jobs``, if given, at least 1."""
    if spec.second_axis.name != second:
        raise ValueError(f"spec's second axis is not {second}")
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be at least 1")
    return list(spec.kappa_axis.values), list(spec.second_axis.values)


def _run_tasks(tasks, jobs: Optional[int], progress: Optional[Callable]):
    """``_cell`` of every task, in task order: on a pool of ``jobs`` worker
    threads (None: ``available_cpus()``), at most ``available_cpus()``, as
    each thread keeps its own step-record buffer and more threads than CPUs
    only add memory; or in this thread for one worker or task, or where no
    kernel loads, as Python cells would only queue for the GIL on threads."""
    cpus = available_cpus()
    # the kernel loads here, not in a worker that the others wait for
    workers = 1 if ramp_kernel() is None else min(cpus if jobs is None else jobs, cpus, len(tasks))
    results = []
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for out in pool.map(_cell, tasks) if pool else map(_cell, tasks):
            results.append(out)
            if progress:
                progress(len(results), len(tasks))
    return results


def _assemble(spec, kappas, seconds, columns, tasks, jobs, progress):
    """The gain map of row-major ``tasks``, one per (kappa, second) cell;
    ``columns`` holds each column's (tau_dir, status) of the direct run."""
    shape = (len(kappas), len(seconds))
    tau_dir_col, col_status = zip(*columns)
    *grids, cells, messages = zip(*_run_tasks(tasks, jobs, progress))
    tau_cpm, gain, inconclusive, non_markovian, f_total = (
        np.reshape(grid, shape) for grid in grids
    )
    status = [
        cell if col == STATUS_OK else f"direct-{col}"
        for cell, col in zip(cells, col_status * shape[0])
    ]
    errors = {}
    for cell, message in zip(status, messages):
        if cell.startswith("error:"):
            errors.setdefault(cell, message)
    return GainMap(
        spec=spec,
        kappa=np.asarray(kappas),
        second=np.asarray(seconds),
        tau_dir=np.tile(np.asarray(tau_dir_col, dtype=float), (shape[0], 1)),
        tau_cpm=tau_cpm,
        gain=gain,
        f_total=f_total,
        inconclusive=inconclusive,
        non_markovian=non_markovian,
        status=[status[i : i + shape[1]] for i in range(0, len(status), shape[1])],
        boundary=[],
        errors=errors,
    )


def sweep_kappa_theta(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    progress: Optional[Callable] = None,
) -> GainMap:
    """Gain map over (kappa, field angle) at omega = 0.

    The field h = (sin theta, 0, cos theta) rotates with the second axis,
    shifting both the initial and the target steady state; the direct
    baseline is therefore recomputed once per column.  Every cell is
    Markovian (omega = 0), so the map carries no boundary.
    """
    kappas, thetas = _axes(spec, "theta", jobs)
    directs, shared = zip(*(
        _column(ParameterPoint(h, spec.rates_s, "S"), ParameterPoint(h, spec.rates_f, "F"), spec)
        for h in map(_field_for_theta, thetas)
    ))
    tasks = [
        (kap, 0.0, column, tau)
        for kap in kappas
        for column, (tau, _) in zip(shared, directs)
    ]
    return _assemble(spec, kappas, thetas, directs, tasks, jobs, progress)


def sweep_kappa_omega(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    progress: Optional[Callable] = None,
) -> GainMap:
    """Gain map over (kappa, omega) at a fixed field.

    One direct baseline serves the whole grid; cells above the per-channel
    tangency boundary are flagged non-Markovian and the boundary curve is
    attached for overlay plots.
    """
    kappas, omegas = _axes(spec, "omega", jobs)
    pS = ParameterPoint(spec.h, spec.rates_s, "S")
    pF = ParameterPoint(spec.h, spec.rates_f, "F")
    rates_s, rates_f = spec.rates_s.as_array(), spec.rates_f.as_array()
    direct, column = _column(pS, pF, spec, _boundary_slopes(rates_s, rates_f))
    tasks = [(kap, om, column, direct[0]) for kap in kappas for om in omegas]
    gm = _assemble(spec, kappas, omegas, [direct] * len(omegas), tasks, jobs, progress)
    gm.boundary = boundary_curve(rates_s, rates_f, kappas)
    return gm


def scan_two_step(
    pS: ParameterPoint,
    pA: ParameterPoint,
    pF: ParameterPoint,
    t_is,
    eps: float = DEFAULT_EPS,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Tuple[ProtocolResult, List[Tuple[Optional[float], str]]]:
    """The direct baseline, and the (tau, class) of each switch time in
    ``t_is`` in order, or (None, "timeout") for a run that hits the time cap;
    NotConverged if the baseline does.

    The baseline and every row are runs of one constant-stage set-up.  A
    run at or above eps at its switch crosses it once in its contracting F
    stage: tau is t_i plus that crossing, a timeout past its last F sample.
    A run below eps at its switch takes its tau from its sampled run.  One
    class rule grades every row from the distances at its switch.
    """
    t_is = _switch_times(t_is, cfg)
    return _scan(_ConstantStages(pS, pA, pF, eps, cfg), t_is)


def _scan(stages: _ConstantStages, t_is: List[float]):
    """``scan_two_step`` on its set-up and checked switch times, for callers
    that run more of the set-up, as ``simulate`` reruns a row in full."""
    eps, cfg = stages.eps, stages.cfg
    baseline = stages.run()
    if not baseline.converged:
        raise NotConverged("direct baseline did not converge")
    ts = np.array(t_is, dtype=float)
    r_i, distances = stages.switches(ts)
    t_last = np.floor((cfg.t_cap - ts) / cfg.sample_stride) * cfg.sample_stride
    taus = ts + stages.flow_f.crossing_times(r_i, stages.tgt, eps, t_last)

    rows = []
    for t_i, tau, dist in zip(t_is, taus.tolist(), distances):
        if dist[1] < eps:  # settled in its A stage, so never timed out
            tau = stages.run(t_i).tau
        elif tau == math.inf:
            rows.append((None, STATUS_TIMEOUT))
            continue
        rows.append((tau, _two_step_class(tau, baseline.tau, dist).value))
    return baseline, rows


def gain_map_to_csv(gm: GainMap, path) -> None:
    """Row-major cell dump; booleans as true/false, failures in ``status``."""
    n1, n2 = gm.shape

    def cells(a, dtype=float):
        return np.asarray(a, dtype=dtype).ravel()

    write_csv(
        path,
        "axis1,axis2,tau_dir,tau_cpm,gain,inconclusive,non_markovian,f_total,status",
        [
            np.repeat(cells(gm.kappa), n2),
            np.tile(cells(gm.second), n1),
            cells(gm.tau_dir),
            cells(gm.tau_cpm),
            cells(gm.gain),
            np.where(cells(gm.inconclusive, bool), b"true", b"false"),
            np.where(cells(gm.non_markovian, bool), b"true", b"false"),
            cells(gm.f_total),
            np.array([s.encode() for row in gm.status for s in row]),
        ],
    )


def gain_map_sidecar(gm: GainMap) -> dict:
    """JSON-ready description of the sweep, its cell-status counts, the
    boundary curve and, if any cell failed with an error, its ``errors``."""
    spec = gm.spec
    side = {
        "schema": 1,
        "sweep": {
            "kind": f"kappa-{spec.second_axis.name}",
            "rates_s": list(spec.rates_s.as_array()),
            "rates_f": list(spec.rates_f.as_array()),
            "h": None if spec.h is None else list(spec.h.as_array()),
            "eps": spec.eps,
            "kappa": list(spec.kappa_axis.values),
            spec.second_axis.name: list(spec.second_axis.values),
            "integrator": spec.cfg.as_dict(),
        },
        "status_counts": dict(Counter(s for row in gm.status for s in row).most_common()),
        "boundary": [[k, w] for k, w in gm.boundary],
    }
    if gm.errors:
        side["errors"] = gm.errors
    return side
