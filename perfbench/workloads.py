"""The three benchmark workloads: configs from a seed, CLI calls, output checks.

Every call goes through ``pontus.cli.main`` in this process, the entry point
a user runs.  Seed 0 is the paper's grids and configs exactly.  Any other
seed maps onto one of three variants that shift the kappa/omega grid and
the t_I scan start by a small fraction of a cell, and it shuffles the order
of the figure calls.  references.json holds the outputs of every variant.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path
from typing import Dict, List, Tuple

WORKLOADS = ("ramp_map", "ti_scan", "figure_runs")
N_VARIANTS = 4
TAU_TOL = 1e-6  # absolute tolerance on relaxation times and gains

# Paper configs (fig1, fig2, fig3 and fig5a of the repository's configs/).
FIG1_POINTS = {
    "S": {"h": [0.0, 0.998, 0.062], "gamma": [0.0, 0.2, 0.0]},
    "A": {"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]},
    "F": {"h": [0.0, -0.966, 0.258], "gamma": [0.0, 0.2, 0.0]},
}
FIG2_POINTS = {
    "S": {"h": [0.707, 0.707, 0.0], "gamma": [0.5, 0.1, 0.0]},
    "F": {"h": [0.707, 0.707, 0.0], "gamma": [0.01, 0.05, 0.0]},
}
FIG3_POINTS = {
    "S": {"h": [0.183, 0.183, -0.966], "gamma": [0.5, 0.1, 0.0]},
    "F": {"h": [0.183, 0.183, -0.966], "gamma": [0.1, 0.5, 0.0]},
}
FIGURES = {  # name -> (points, kappa, omega)
    "fig2_k020": (FIG2_POINTS, 0.2, 0.0),
    "fig2_k0035": (FIG2_POINTS, 0.035, 0.0),
    "fig3a": (FIG3_POINTS, 0.6, 0.2),
    "fig3b": (FIG3_POINTS, 0.4, 0.45),
}
# fig2 twice, fig3 once per round: the two fig2 calls are the slow cluster,
# so the median call lies inside a cluster instead of between them.
FIGURE_ROUND = ["fig2_k020", "fig2_k020", "fig2_k0035", "fig2_k0035", "fig3a", "fig3b"]

MAP_N = 12
KAPPA_RANGE = (0.01, 100.0)
OMEGA_RANGE = (0.0, 2.0)
SCAN_START, SCAN_STOP, SCAN_STEP = 0.05, 30.0, 0.05
# Warm-up units: a 2x2 map over the same ranges, a scan of 10 switch times.
WARMUP_MAP_N = 2
WARMUP_SCAN_STOP = SCAN_START + 9 * SCAN_STEP


def variant(seed: int) -> int:
    return 0 if seed == 0 else 1 + (seed - 1) % (N_VARIANTS - 1)


def _shift(v: int) -> float:
    """Grid offset of a variant, as a fraction of one cell."""
    return v / 32.0


def ramp_map_config(v: int, n: int = MAP_N) -> dict:
    lo, hi = KAPPA_RANGE
    ratio = (hi / lo) ** (_shift(v) / (MAP_N - 1))
    w_lo, w_hi = OMEGA_RANGE
    dw = (w_hi - w_lo) / (MAP_N - 1) * _shift(v)
    return {
        "schema": 1,
        "sweep": {
            "kind": "kappa-omega",
            "rates_s": [0.75, 0.75, 0.75],
            "rates_f": [0.05, 0.1, 0.15],
            "h": [1.0, 0.0, 0.0],
            "kappa": {"min": lo * ratio, "max": hi * ratio, "n": n, "spacing": "log"},
            "omega": {"min": w_lo + dw, "max": w_hi + dw, "n": n},
            "label": "ramp_map",
        },
    }


def ti_scan_config(v: int, stop: float = SCAN_STOP) -> dict:
    dt = SCAN_STEP * _shift(v) * 4  # at most 3/8 of a stride
    return {
        "schema": 1,
        "points": FIG1_POINTS,
        "protocol": {
            "kind": "two-step",
            "t_i_scan": {"start": SCAN_START + dt, "stop": stop + dt, "step": SCAN_STEP},
            "label": "ti_scan",
        },
    }


def figure_config(name: str) -> dict:
    points, kappa, omega = FIGURES[name]
    return {
        "schema": 1,
        "points": points,
        "protocol": {
            "kind": "continuous",
            "kappa": kappa,
            "omega": omega,
            "with_baseline": True,
            "label": name,
        },
    }


def figure_order(seed: int) -> List[str]:
    order = list(FIGURE_ROUND)
    if seed != 0:
        random.Random(seed).shuffle(order)
    return order


class Call:
    """One CLI invocation: its arguments, exit code and captured output."""

    def __init__(self, key: str, argv: List[str], n_ops: int):
        self.key = key  # reference entry the output is checked against
        self.argv = argv
        self.n_ops = n_ops
        self.code = None
        self.stdout = ""
        self.stderr = ""

    def run(self) -> int:
        import pontus.cli  # looked up per call, so a tracer's wrapper is seen

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.code = pontus.cli.main(self.argv)
        self.stdout, self.stderr = out.getvalue(), err.getvalue()
        return self.code


class Workload:
    """Writes a workload's configs and yields the calls of one unit of work:
    a map, a scan, or one round of figure calls."""

    def __init__(self, name: str, seed: int, work_dir: Path, jobs: int):
        self.name = name
        self.seed = seed
        self.variant = variant(seed)
        self.dir = work_dir
        self.jobs = jobs

    def write_configs(self) -> None:
        if self.name == "ramp_map":
            configs = {"ramp_map": ramp_map_config(self.variant),
                       "warmup": ramp_map_config(self.variant, WARMUP_MAP_N)}
        elif self.name == "ti_scan":
            configs = {"ti_scan": ti_scan_config(self.variant),
                       "warmup": ti_scan_config(self.variant, WARMUP_SCAN_STOP)}
        else:
            configs = {n: figure_config(n) for n in FIGURES}
        for key, cfg in configs.items():
            with open(self.dir / f"{key}.json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)

    def calls(self, jobs: int = None) -> List[Call]:
        out = str(self.dir / "out")
        if self.name == "ramp_map":
            jobs = self.jobs if jobs is None else jobs
            argv = ["--config", str(self.dir / "ramp_map.json"), "--output", out,
                    "--jobs", str(jobs), "gain-map"]
            return [Call(f"v{self.variant}", argv, MAP_N * MAP_N)]
        if self.name == "ti_scan":
            argv = ["--config", str(self.dir / "ti_scan.json"), "--output", out, "simulate"]
            return [Call(f"v{self.variant}", argv, 600)]
        return [
            Call(n, ["--config", str(self.dir / f"{n}.json"), "--output", out, "simulate"], 1)
            for n in figure_order(self.seed)
        ]

    def warmup_calls(self) -> List[Call]:
        """A small unit run before timing, through the same code paths, so
        that lazy imports and first-call costs stay out of the timed units.
        Only its exit code is checked, and its ops are not counted."""
        out = str(self.dir / "out")
        if self.name == "ramp_map":
            argv = ["--config", str(self.dir / "warmup.json"), "--output", out,
                    "--jobs", str(self.jobs), "gain-map"]
            return [Call("warmup", argv, 0)]
        if self.name == "ti_scan":
            argv = ["--config", str(self.dir / "warmup.json"), "--output", out, "simulate"]
            return [Call("warmup", argv, 0)]
        return [
            Call("warmup", ["--config", str(self.dir / f"{n}.json"), "--output", out,
                            "simulate"], 0)
            for n in FIGURES
        ]

    # -------------------------------------------------------- outputs

    def outputs(self, call: Call) -> List[dict]:
        """The checked fields of a call's output, one dict per op."""
        if self.name == "ramp_map":
            with open(self.dir / "out" / "ramp_map_gainmap.csv", newline="") as fh:
                return [
                    {
                        "status": row["status"],
                        "inconclusive": row["inconclusive"],
                        "non_markovian": row["non_markovian"],
                        "tau_dir": float(row["tau_dir"]),
                        "tau": float(row["tau_cpm"]),
                        "gain": float(row["gain"]),
                    }
                    for row in csv.DictReader(fh)
                ]
        report = json.loads(call.stdout)
        if self.name == "ti_scan":
            head = {"tau_direct": report["tau_direct"]}
            return [dict(head, **row) for row in report["scan"]]
        cls = report.get("classification", {})
        return [
            {
                "tau": report["tau"],
                "tau_direct": report["baseline"]["tau"],
                "class": cls.get("class"),
                "crossings": cls.get("crossings"),
                "inconclusive": report["inconclusive"],
            }
        ]

    def check(self, call: Call, refs: dict) -> Tuple[int, int, List[str]]:
        """(failed ops, non-ok ops, messages) of one call against the references.

        A failed op is one whose output differs from the reference, or any op
        of a call that exited non-zero.  Non-ok ops are cells or rows whose
        recorded outcome is not a plain success (ball-violation, timeout);
        they are correct when they match the reference.
        """
        if call.code != 0:
            return call.n_ops, call.n_ops, [f"{call.key}: exit code {call.code}"]
        try:
            got = self.outputs(call)
        except (OSError, ValueError, KeyError) as exc:
            return call.n_ops, call.n_ops, [f"{call.key}: unreadable output: {exc!r}"]
        want = refs[self.name][call.key]
        if len(got) != len(want):
            return call.n_ops, call.n_ops, [
                f"{call.key}: {len(got)} ops, reference has {len(want)}"
            ]
        failed, messages = 0, []
        for i, (g, w) in enumerate(zip(got, want)):
            bad = [k for k in w if not _same(g.get(k), w[k])]
            if bad:
                failed += 1
                if len(messages) < 10:
                    messages.append(
                        f"{call.key}[{i}]: " + ", ".join(f"{k} {g.get(k)!r} != {w[k]!r}" for k in bad)
                    )
        non_ok = sum(
            1 for g in got if g.get("status", "ok") != "ok" or g.get("class") == "timeout"
        )
        return failed, non_ok, messages


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return abs(got - want) <= TAU_TOL
    return got == want



REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> Dict[str, dict]:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)
