"""pontus benchmark: end-to-end metrics of one workload, or its per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload ramp_map --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it runs one small warm-up unit, times whole CLI calls for
``--seconds`` seconds and reports the end-to-end metrics, with every time
scaled to a fixed reference machine speed (see speed.py).  With ``--trace 1``
it runs the warm-up unit, then alternates untraced and traced units of work
for ``--seconds`` (``ramp_map`` at ``--jobs 1``, followed
by one untraced map at ``--jobs nproc``), writes the spans to
``.perfbench_runs/`` and reports the per-layer metrics.  Every output is
checked against references.json.  The last line of standard output is the
result as one JSON object; the exit code is 1 when any output differs from
the references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

from speed import SpeedSampler
from tracer import Tracer, layer_metrics, tail
from workloads import WORKLOADS, Workload, load_references

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _import_pontus():
    """Import pontus from this checkout's src/, never from an installed copy."""
    if not (SRC / "pontus" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no pontus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pontus.cli

    if Path(pontus.__file__).resolve().parent != (SRC / "pontus").resolve():
        raise SystemExit(f"perfbench: imported pontus from {pontus.__file__}")
    return pontus


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "pontus").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the record stays usable
        return None


def environment(nproc):
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_before": list(os.getloadavg()),
    }


def measure_setup(workload, sampler):
    """Median over fresh processes of importing pontus and pontus.cli, plus
    the time to write the workload's generated configs, in reference seconds;
    and the same in raw wall seconds."""
    t0 = time.perf_counter()
    workload.write_configs()
    t1 = time.perf_counter()
    write_s = t1 - t0
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import pontus, pontus.cli"],
            env=_child_env(), cwd=str(ROOT), check=True, timeout=120,
        )
        t1 = time.perf_counter()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * sampler.scale(t0, t1))
    return statistics.median(scaled) + write_s, statistics.median(raw) + write_s


class Tally:
    """Ops attempted, failed and non-ok across the checked calls of a run."""

    def __init__(self, workload, refs):
        self.workload, self.refs = workload, refs
        self.attempted = self.failed = self.non_ok = 0
        self.messages = []

    def warm_up(self):
        """Run the workload's warm-up unit; a non-zero exit is a failed op."""
        for call in self.workload.warmup_calls():
            if call.run() != 0:
                self.attempted += 1
                self.failed += 1
                self.messages.append(f"warm-up: exit code {call.code}\n{call.stderr[-2000:]}")

    def run_unit(self, jobs=None):
        """Run one unit of work; returns the (start, end) perf_counter
        readings of each call."""
        spans = []
        for call in self.workload.calls(jobs):
            t0 = time.perf_counter()
            call.run()
            spans.append((t0, time.perf_counter()))
            failed, non_ok, messages = self.workload.check(call, self.refs)
            self.attempted += call.n_ops
            self.failed += failed
            self.non_ok += non_ok
            self.messages += messages
            if call.code != 0:
                self.messages.append(call.stderr[-2000:])
        return spans


def _wall(spans):
    return sum(t1 - t0 for t0, t1 in spans)


def timed_run(tally, seconds, sampler):
    """Time whole units for ``seconds`` after one warm-up unit.  Each unit's
    call times are scaled by the machine speed sampled during that unit."""
    tally.warm_up()
    unit_raw, unit_scaled, call_raw, call_scaled, scales = [], [], [], [], []
    start = time.perf_counter()
    while not unit_raw or time.perf_counter() - start < seconds:
        spans = tally.run_unit()
        scale = sampler.scale(spans[0][0], spans[-1][1])
        walls = [t1 - t0 for t0, t1 in spans]
        unit_raw.append(sum(walls))
        unit_scaled.append(sum(walls) * scale)
        call_raw += walls
        call_scaled += [w * scale for w in walls]
        scales.append(scale)
    ops_per_unit = sum(c.n_ops for c in tally.workload.calls())
    tail_s, tail_pct = tail(call_scaled)
    metrics = {
        "ops_per_s": (ops_per_unit / statistics.median(unit_scaled), "1/s"),
        "call_p50_ms": (statistics.median(call_scaled) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
    }
    notes = {
        "units": len(unit_raw),
        "calls": len(call_raw),
        "call_tail_percentile": tail_pct,
        "timed_phase_s": time.perf_counter() - start,
        "raw_ops_per_s": ops_per_unit / statistics.median(unit_raw),
        "raw_call_p50_ms": statistics.median(call_raw) * 1e3,
        "raw_call_tail_ms": tail(call_raw)[0] * 1e3,
        "speed_scale_per_unit": [round(x, 4) for x in scales],
    }
    return metrics, notes


def traced_run(tally, nproc, seed, seconds):
    """After a warm-up unit, alternate untraced and traced units for
    ``seconds`` (at least one pair); the layer metrics come from the last
    traced unit."""
    name = tally.workload.name
    tally.warm_up()
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(_wall(tally.run_unit(jobs=1)))
        with Tracer() as tracer:
            traced.append(_wall(tally.run_unit(jobs=1)))
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    layers = layer_metrics(tracer)
    parallel_eff = 0.0
    if name == "ramp_map":
        parallel_s = _wall(tally.run_unit(jobs=nproc))
        parallel_eff = plain_s / (nproc * parallel_s)
    layers["sweep.parallel_eff"] = parallel_eff
    layers["tracing_overhead"] = traced_s / plain_s
    layers["failed_frac"] = (tally.failed + tally.non_ok) / tally.attempted

    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{name}-seed{seed}.json"
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["layer", "function", "start_ns", "end_ns", "parent"],
                "spans": tracer.finished_spans(),
                "counts": tracer.counts,
                "absent": tracer.absent,
            },
            fh,
        )
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    notes = {
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": len(tracer.finished_spans()),
        "absent_targets": tracer.absent,
        "untraced_s": plain,
        "traced_s": traced,
    }
    return metrics, notes


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name in ("sweep.parallel_eff", "tracing_overhead", "failed_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    args = _parse(argv)
    _import_pontus()
    refs = load_references()
    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT)))
    try:
        workload = Workload(args.workload, args.seed, work_dir, jobs=nproc)
        tally = Tally(workload, refs)
        if args.trace:
            workload.write_configs()
            metrics, notes = traced_run(tally, nproc, args.seed, args.seconds)
        else:
            with SpeedSampler() as sampler:
                setup_s, raw_setup_s = measure_setup(workload, sampler)
                metrics, notes = timed_run(tally, args.seconds, sampler)
            notes.update(raw_setup_s=raw_setup_s, speed_samples=len(sampler.kernel_s))
            usage = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (usage / 1024.0, "MB")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env["loadavg_after"] = list(os.getloadavg())
    notes.update(workload=args.workload, seed=args.seed, variant=workload.variant,
                 non_ok_ops=tally.non_ok)
    print(json.dumps({"environment": env}))
    print(json.dumps({"notes": notes}))
    for message in tally.messages:
        print(f"MISMATCH {message}")
    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value:14.6g} {unit}")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
