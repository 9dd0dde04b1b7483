"""Span tracer that observes pontus from outside, through its module attributes.

Each traced function is replaced, at every ``pontus`` module attribute that
names it, by a wrapper that records one span ``(layer, function, start_ns,
end_ns, parent)`` in memory.  Methods are wrapped on their class.  A target
that no longer exists is reported as absent instead of failing, so the
tracer survives renames and removals inside the library.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, str, int, int, int]  # layer, function, start, end, parent (-1 = root)


def _rows_of_first_arg(args, out):
    return len(args[0])


def _gain_map_rows(args, out):
    return int(args[0].gain.size)


def _flow_samples(args, out):
    states = out[0] if isinstance(out, tuple) else out
    return len(states)


# (layer, home module, attribute path, counter fed by (args, result) or None)
# A dotted attribute path names a method, wrapped on its class.
TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("cli", "pontus.cli", "main", None),
    ("sweep", "pontus.sweep", "sweep_kappa_omega", None),
    ("sweep", "pontus.sweep", "sweep_kappa_theta", None),
    ("protocols", "pontus.protocols", "run_direct", None),
    ("protocols", "pontus.protocols", "run_two_step", None),
    ("protocols", "pontus.protocols", "run_continuous", None),
    ("dynamics.integrate", "pontus.dynamics", "integrate", None),
    ("dynamics.flow", "pontus.dynamics", "ConstantFlow.__init__", None),
    ("dynamics.flow", "pontus.dynamics", "ConstantFlow.state", None),
    ("dynamics.flow", "pontus.dynamics", "ConstantFlow.block", None),
    ("dynamics.flow", "pontus.dynamics", "ConstantFlow.grid", ("flow_samples", _flow_samples)),
    ("dynamics.flow", "pontus.dynamics", "ConstantFlow.run_until", ("flow_samples", _flow_samples)),
    ("dynamics.expm", "pontus.dynamics", "expm", None),
    ("dynamics.generator", "pontus.dynamics", "assemble_generator", None),
    ("dynamics.generator", "pontus.dynamics", "steady_state", None),
    ("writers", "pontus.dynamics", "trajectory_to_csv", ("writer_rows", _rows_of_first_arg)),
    ("writers", "pontus.dynamics", "velocity_field_to_csv", ("writer_rows", _rows_of_first_arg)),
    ("writers", "pontus.sweep", "gain_map_to_csv", ("writer_rows", _gain_map_rows)),
    ("mpemba", "pontus.mpemba", "classify_two_step", None),
    ("mpemba", "pontus.mpemba", "classify_continuous", None),
    ("mpemba", "pontus.mpemba", "relevant_crossings", None),
    ("mpemba", "pontus.mpemba", "gain", None),
    ("nonmarkov", "pontus.nonmarkov", "is_non_markovian", None),
    ("nonmarkov", "pontus.nonmarkov", "boundary_curve", None),
)

# Called about 10^4 times per map cell: counted, never given a span.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("rhs_calls", "pontus.protocols", "ExponentialCosineSchedule.generator"),
)


class Tracer:
    """Installs wrappers on entry, restores the originals on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = {}
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def _resolve(self, module_name: str, path: str):
        """(owner, attribute, original) for a target, or None if it is gone."""
        owner = sys.modules.get(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
        if isinstance(owner, type):
            original = owner.__dict__.get(parts[-1])
        else:
            original = getattr(owner, parts[-1], None)
        if original is None or not callable(original):
            return None
        return owner, parts[-1], original

    def _patch(self, owner, attr, original, wrapper):
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # every module of the package that imported the function by name
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "pontus" or name.startswith("pontus.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def _span_wrapper(self, layer, original, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, original.__name__, start, end, parent)
            if counter is not None:
                key, fn = counter
                counts[key] = counts.get(key, 0) + fn(args, out)
            return out

        return wrapper

    def _count_wrapper(self, key, original):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        for layer, module_name, path, counter in self.targets:
            found = self._resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            self._patch(owner, attr, original, self._span_wrapper(layer, original, counter))
        for key, module_name, path in COUNTED:
            found = self._resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            self.counts.setdefault(key, 0)
            owner, attr, original = found
            self._patch(owner, attr, original, self._count_wrapper(key, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s is not None]


# ---------------------------------------------------------------- analysis


def self_times(spans: Sequence[Span]) -> List[float]:
    """Seconds of each span not covered by the union of its child spans."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for layer, fn, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (layer, fn, start, end, parent) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start - covered) / 1e9)
    return out


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum (percentile 100) when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _sweep_cell_seconds(spans: Sequence[Span]) -> List[float]:
    """Per-cell time of each serial sweep: a run_continuous child of the sweep
    span plus the non-Markovianity check that precedes it in the same cell."""
    cells = []
    sweeps = {i for i, s in enumerate(spans) if s[0] == "sweep"}
    pending = 0
    for layer, fn, start, end, parent in spans:
        if parent not in sweeps:
            continue
        if layer == "nonmarkov":
            pending += end - start
        elif fn == "run_continuous":
            cells.append((pending + end - start) / 1e9)
            pending = 0
    return cells


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    spans = tracer.finished_spans()
    selfs = self_times(spans)
    calls: Dict[str, int] = {}
    fn_calls: Dict[Tuple[str, str], int] = {}
    busy: Dict[str, float] = {}
    for (layer, fn, *_), s in zip(spans, selfs):
        calls[layer] = calls.get(layer, 0) + 1
        fn_calls[layer, fn] = fn_calls.get((layer, fn), 0) + 1
        busy[layer] = busy.get(layer, 0.0) + s
    counts = tracer.counts
    n_integrate = calls.get("dynamics.integrate", 0)
    builds = fn_calls.get(("dynamics.flow", "__init__"), 0)
    cells = _sweep_cell_seconds(spans)
    cell_p50 = statistics.median(cells) * 1e3 if cells else 0.0
    cell_tail = tail(cells)[0] * 1e3 if cells else 0.0
    return {
        "dynamics.integrate.calls": n_integrate,
        "dynamics.integrate.self_s": busy.get("dynamics.integrate", 0.0),
        "dynamics.integrate.rhs_per_call": (
            counts.get("rhs_calls", 0) / n_integrate if n_integrate else 0.0
        ),
        "protocols.rhs_calls": counts.get("rhs_calls", 0),
        "dynamics.flow.builds": builds,
        "dynamics.flow.self_s": busy.get("dynamics.flow", 0.0),
        "dynamics.flow.state_calls": fn_calls.get(("dynamics.flow", "state"), 0),
        "dynamics.flow.samples_per_build": (
            counts.get("flow_samples", 0) / builds if builds else 0.0
        ),
        "dynamics.expm.calls": calls.get("dynamics.expm", 0),
        "dynamics.expm.self_s": busy.get("dynamics.expm", 0.0),
        "dynamics.generator.calls": calls.get("dynamics.generator", 0),
        "dynamics.generator.self_s": busy.get("dynamics.generator", 0.0),
        "protocols.runs": calls.get("protocols", 0),
        "protocols.self_s": busy.get("protocols", 0.0),
        "writers.rows": counts.get("writer_rows", 0),
        "writers.self_s": busy.get("writers", 0.0),
        "mpemba.calls": calls.get("mpemba", 0),
        "mpemba.self_s": busy.get("mpemba", 0.0),
        "nonmarkov.calls": calls.get("nonmarkov", 0),
        "nonmarkov.self_s": busy.get("nonmarkov", 0.0),
        "sweep.cells": len(cells),
        "sweep.self_s": busy.get("sweep", 0.0),
        "sweep.cell_p50_ms": cell_p50,
        "sweep.cell_tail_ms": cell_tail,
        "cli.self_s": busy.get("cli", 0.0),
        "tracer.absent_targets": len(tracer.absent),
    }
