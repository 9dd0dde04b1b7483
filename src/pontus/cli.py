"""Command-line interface: JSON-configured runs emitting CSV/JSON artifacts.

Exit codes: 0 success, 1 configuration error, 2 singular generator,
3 non-convergence (a step-size underflow included), 4 a state that left the
Bloch ball.  The environment variable PONTUS_LOG selects the log level.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import FieldVector, ParameterPoint, RateTriple
from .dynamics import (
    IntegratorConfig,
    assemble_generator,
    steady_state,
    trajectory_to_csv,
    velocity_field_grid,
    velocity_field_to_csv,
)
from .errors import (
    BallViolation,
    ConfigError,
    NegativeEndpointRate,
    NonFinite,
    NotConverged,
    PontusError,
    SingularGenerator,
    StepSizeUnderflow,
)
from .mpemba import _two_step_class, classify_continuous, gain, relevant_crossings
from .nonmarkov import (
    CHANNELS,
    boundary_curve,
    channel_report,
    markov_boundary_alpha,
    nm_measure_quadrature,
    truncation_horizon,
)
from .protocols import DEFAULT_EPS, _ConstantStages, _Ramp, _switch_times
from .sweep import (
    GridAxis,
    SweepSpec,
    _scan,
    gain_map_sidecar,
    gain_map_to_csv,
    sweep_kappa_omega,
    sweep_kappa_theta,
)

log = logging.getLogger("pontus.cli")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SINGULAR = 2
EXIT_NOT_CONVERGED = 3
EXIT_BALL_VIOLATION = 4

_TOP_KEYS = {
    "schema",
    "points",
    "protocol",
    "epsilon",
    "integrator",
    "sweep",
    "nm",
    "velocity_field",
}

# the sections whose keys depend on their kind: the kinds, as an unknown
# kind's message names them, and the keys of each beside ``kind`` and ``label``
_KINDS = {
    "protocol": ("direct, two-step, or continuous", {
        "direct": set(),
        "two-step": {"t_i", "t_i_scan", "with_baseline"},
        "continuous": {"kappa", "omega", "with_baseline"},
    }),
    "sweep": ("kappa-theta or kappa-omega", {
        "kappa-theta": {"rates_s", "rates_f", "kappa", "theta"},
        "kappa-omega": {"rates_s", "rates_f", "h", "kappa", "omega"},
    }),
}


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _kind_section(cfg, name, command):
    """Config section ``name``, which ``command`` needs, and its kind, after
    the one key rule of ``_KINDS``: a section takes only its kind's keys."""
    section = cfg.get(name)
    if section is None:
        raise ConfigError(f"config.{name}: required for {command}")
    expected, own = _KINDS[name]
    kind = section.get("kind") if isinstance(section, dict) else None
    if kind not in tuple(own):
        raise ConfigError(f"config.{name}.kind: expected {expected}")
    _check_keys(section, {"kind", "label", *own[kind]}, f"config.{name}")
    return section, kind


def _vec3(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path}: expected a list of three numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _number(value, path, minimum=None, strict=False):
    """The one reader of a number, from a config value or a flag."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite")
    if minimum is not None and (v <= minimum if strict else v < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"{path}: must be {op} {minimum}")
    return v


def _label(section, path, default):
    """The one reader of an output label, the stem of the files a run writes
    under ``--output``: a non-empty string without a path separator, not
    ``.`` or ``..``; ``default`` when the key is absent."""
    if "label" not in section:
        return default
    label = section["label"]
    if (
        not isinstance(label, str)
        or label in ("", ".", "..")
        or any(sep in label for sep in {"/", os.sep})
    ):
        raise ConfigError(
            f"{path}.label: expected a file-name stem"
            " (a non-empty string without a path separator, not . or ..)"
        )
    return label


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    if cfg.get("schema") != SCHEMA_VERSION or isinstance(cfg.get("schema"), bool):
        raise ConfigError(
            f"config.schema: expected {SCHEMA_VERSION}, got {cfg.get('schema')!r}"
        )
    return cfg


def _point(entry, path, label="custom") -> ParameterPoint:
    """The one reader of a parameter point: an ``{"h", "gamma"}`` entry."""
    _check_keys(entry, {"h", "gamma"}, path)
    if "h" not in entry or "gamma" not in entry:
        raise ConfigError(f"{path}: needs both h and gamma")
    return ParameterPoint.make(
        _vec3(entry["h"], f"{path}.h"), _vec3(entry["gamma"], f"{path}.gamma"), label
    )


def _parameter_point(cfg, name) -> ParameterPoint:
    points = cfg.get("points")
    if not isinstance(points, dict):
        raise ConfigError("config.points: missing or not an object")
    if name not in points:
        raise ConfigError(f"config.points: no point named {name!r}")
    return _point(points[name], f"config.points.{name}", name)


def _integrator(cfg, args) -> IntegratorConfig:
    section = cfg.get("integrator", {})
    keys = [f.name for f in fields(IntegratorConfig)]
    _check_keys(section, keys, "config.integrator")
    kwargs = {
        k: _number(section[k], f"integrator.{k}", 0, True)
        for k in keys
        if k in section and (section[k] is not None or k != "max_step")  # null: unbounded
    }
    if args.t_cap is not None:
        kwargs["t_cap"] = _number(args.t_cap, "--t-cap", 0, True)
    return IntegratorConfig(**kwargs)


def _epsilon(cfg, args) -> float:
    if args.epsilon is not None:
        return _number(args.epsilon, "--epsilon", 0, True)
    return _number(cfg.get("epsilon", DEFAULT_EPS), "config.epsilon", 0, True)


def _axis(section, key, spacing_default, path) -> GridAxis:
    if key not in section:
        raise ConfigError(f"{path}: missing axis {key!r}")
    d = section[key]
    _check_keys(d, {"min", "max", "n", "spacing"}, f"{path}.{key}")
    lo = _number(d.get("min"), f"{path}.{key}.min")
    hi = _number(d.get("max"), f"{path}.{key}.max")
    n = d.get("n")
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"{path}.{key}.n: expected an integer >= 2")
    spacing = d.get("spacing", spacing_default)
    if spacing == "log":
        return GridAxis.log(key, lo, hi, n)
    if spacing == "linear":
        return GridAxis.linear(key, lo, hi, n)
    raise ConfigError(f"{path}.{key}.spacing: expected 'log' or 'linear'")


def _point_dict(p: ParameterPoint) -> dict:
    return {"h": list(p.h.as_array()), "gamma": list(p.gamma.as_array())}


def _result_dict(res, trajectory_file=None) -> dict:
    return {
        "protocol": res.kind,
        "tau": res.tau,
        "converged": res.converged,
        "inconclusive": res.inconclusive,
        "timed_out": res.timed_out,
        "epsilon": res.epsilon,
        "threshold_crossings": res.n_threshold_crossings,
        "trajectory_file": trajectory_file,
    }


def _emit(obj, path=None) -> None:
    """Print ``obj`` as JSON; with a ``path``, also write that text there."""
    text = json.dumps(obj, indent=2)
    if path is not None:
        path.write_text(text, encoding="utf-8")
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------- handlers


def cmd_steady_state(cfg, args, out_dir) -> int:
    p = _parameter_point(cfg, args.point)
    g = assemble_generator(p)
    r = steady_state(g)
    arr = r.as_array()
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "point": p.label,
            "r_ss": list(arr),
            "residual": float(np.linalg.norm(g.Lambda @ arr + g.b)),
        }
    )
    return EXIT_OK


def _simulate_two_step_scan(cfg, proto, eps, integ, out_dir, label):
    """The classified t_I scan; each class's first realization is resampled
    on the scan's set-up for its trajectory CSV."""
    scan = proto["t_i_scan"]
    _check_keys(scan, {"start", "stop", "step"}, "config.protocol.t_i_scan")
    start = _number(scan.get("start"), "t_i_scan.start", 0, True)
    stop = _number(scan.get("stop"), "t_i_scan.stop", 0, True)
    step = _number(scan.get("step"), "t_i_scan.step", 0, True)
    pS, pA, pF = (_parameter_point(cfg, k) for k in "SAF")
    t_is, t_i = [], start
    while t_i <= stop + 1e-12:
        if t_i >= integ.t_cap:  # before a far stop fills the memory
            raise ValueError("switching time must lie below the time cap")
        t_is.append(t_i)
        after = round(t_i + step, 12)
        if after <= t_i:  # a step lost to the rounding would never end the scan
            raise ConfigError(
                f"t_i_scan.step: {step!r} does not move the switch time past"
                f" {t_i!r} at 12 decimals"
            )
        t_i = after
    if not t_is:
        raise ConfigError(
            f"t_i_scan.stop: {stop!r} lies below t_i_scan.start {start!r}, so the scan has"
            " no switch time"
        )

    # every switch time is a float in (0, t_cap), as ``_scan`` needs
    stages = _ConstantStages(pS, pA, pF, eps, integ)
    baseline, scan_rows = _scan(stages, t_is)
    first, rows = {}, []
    for t_i, (tau, cls) in zip(t_is, scan_rows):
        rows.append({"t_i": t_i, "tau": tau, "class": cls})
        if cls not in first and cls not in ("no-effect", "timeout"):
            traj_file = f"{label}_{cls}_trajectory.csv"
            trajectory_to_csv(stages.trajectory(t_i), out_dir / traj_file)
            first[cls] = {"t_i": t_i, "tau": tau, "trajectory_file": traj_file}

    base_file = f"{label}_direct_trajectory.csv"
    trajectory_to_csv(baseline.trajectory, out_dir / base_file)
    report = {
        "schema": SCHEMA_VERSION,
        "protocol": "two-step-scan",
        "epsilon": eps,
        "tau_direct": baseline.tau,
        "direct_trajectory_file": base_file,
        "first_realizations": first,
        "scan": rows,
        "params": dict(zip("SAF", map(_point_dict, (pS, pA, pF)))),
    }
    _emit(report, out_dir / f"{label}_result.json")
    return EXIT_OK


def cmd_simulate(cfg, args, out_dir) -> int:
    proto, kind = _kind_section(cfg, "protocol", "simulate")
    if kind == "two-step" and ("t_i" in proto) == ("t_i_scan" in proto):
        raise ConfigError(
            "config.protocol: two-step needs exactly one of t_i and t_i_scan"
        )
    if (args.with_baseline or "with_baseline" in proto) and (
        kind == "direct" or "t_i_scan" in proto
    ):
        raise ConfigError("with_baseline: not read by a direct run or a t_i scan")
    if not isinstance(proto.get("with_baseline", False), bool):
        raise ConfigError("config.protocol.with_baseline: expected true or false")
    eps = _epsilon(cfg, args)
    integ = _integrator(cfg, args)
    label = _label(proto, "protocol", kind)
    with_baseline = proto.get("with_baseline", False) or args.with_baseline

    if "t_i_scan" in proto:
        return _simulate_two_step_scan(cfg, proto, eps, integ, out_dir, label)

    pS = _parameter_point(cfg, "S")
    pF = _parameter_point(cfg, "F")
    points = {k: _point_dict(_parameter_point(cfg, k)) for k in cfg["points"]}
    params = {"S": _point_dict(pS), "F": _point_dict(pF)}
    if kind == "continuous":
        params["kappa"] = _number(proto.get("kappa"), "protocol.kappa", 0, True)
        params["omega"] = _number(proto.get("omega", 0.0), "protocol.omega", 0)
        ramp = _Ramp(pS, pF, eps, integ)  # the baseline runs its direct quench
        res, stages = ramp.result(params["kappa"], params["omega"]), ramp.direct
    else:  # one constant-stage set-up for the run and its baseline
        pA, t_i = None, 0.0
        if kind == "two-step":
            pA = _parameter_point(cfg, "A")
            t_i = _number(proto["t_i"], "protocol.t_i", 0, True)
            params.update(A=_point_dict(pA), t_i=t_i)
            (t_i,) = _switch_times([t_i], integ)
        stages = _ConstantStages(pS, pA, pF, eps, integ)
        res = stages.run(t_i)

    traj_file = f"{label}_trajectory.csv"
    trajectory_to_csv(res.trajectory, out_dir / traj_file)
    out = {"schema": SCHEMA_VERSION, **_result_dict(res, traj_file), "params": params}

    if with_baseline:
        baseline = stages.run()
        base_file = f"{label}_direct_trajectory.csv"
        trajectory_to_csv(baseline.trajectory, out_dir / base_file)
        out["baseline"] = _result_dict(baseline, base_file)
        if res.converged and baseline.converged:
            gv = gain(baseline.tau, res.tau)
            cls_info = {"gain": gv.g}
            if kind == "continuous":
                cls_info["class"] = classify_continuous(res, baseline).value
            else:
                _, (dist,) = stages.switches([t_i])
                cls_info["class"] = _two_step_class(res.tau, baseline.tau, dist).value
                cls_info.update(zip(("d_S", "d_I", "d_SF"), dist))
            cls_info["crossings"] = relevant_crossings(res, baseline)
            out["classification"] = cls_info

    out["config"] = {
        "schema": SCHEMA_VERSION,
        "points": points,
        "protocol": {**proto, "with_baseline": True} if args.with_baseline else dict(proto),
        "epsilon": eps,
        "integrator": integ.as_dict(),
    }
    _emit(out, out_dir / f"{label}_result.json")
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def cmd_gain_map(cfg, args, out_dir) -> int:
    section, kind = _kind_section(cfg, "sweep", "gain-map")
    second = kind.removeprefix("kappa-")
    spec = SweepSpec(
        rates_s=RateTriple.from_array(_vec3(section.get("rates_s"), "sweep.rates_s")),
        rates_f=RateTriple.from_array(_vec3(section.get("rates_f"), "sweep.rates_f")),
        kappa_axis=_axis(section, "kappa", "log", "config.sweep"),
        second_axis=_axis(section, second, "linear", "config.sweep"),
        h=FieldVector.from_array(_vec3(section.get("h"), "sweep.h")) if second == "omega" else None,
        eps=_epsilon(cfg, args),
        cfg=_integrator(cfg, args),
    )
    runner = sweep_kappa_theta if second == "theta" else sweep_kappa_omega
    label = _label(section, "sweep", kind)
    total_cells = len(spec.kappa_axis.values) * len(spec.second_axis.values)

    def progress(done, total):
        if done % max(1, total // 20) == 0 or done == total:
            print(f"gain-map: {done}/{total} cells", file=sys.stderr)

    log.info("sweep %s over %d cells", kind, total_cells)
    gm = runner(spec, jobs=args.jobs, progress=progress)

    csv_path = out_dir / f"{label}_gainmap.csv"
    gain_map_to_csv(gm, csv_path)
    sidecar = gain_map_sidecar(gm)
    sidecar["csv_file"] = csv_path.name
    with open(out_dir / f"{label}_gainmap.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    n_failed = total_cells - sidecar["status_counts"].get("ok", 0)
    print(
        f"gain-map: wrote {csv_path} ({total_cells} cells, {n_failed} non-ok)",
        file=sys.stderr,
    )
    return EXIT_OK


def _nm_section(cfg):
    section = cfg.get("nm")
    if section is None:
        raise ConfigError("config.nm: required for nm subcommands")
    _check_keys(
        section,
        {"rates_s", "rates_f", "kappa", "omega", "kappa_grid"},
        "config.nm",
    )
    rates_s = _vec3(section.get("rates_s"), "nm.rates_s")
    rates_f = _vec3(section.get("rates_f"), "nm.rates_f")
    return section, rates_s, rates_f


def cmd_nm_measure(cfg, args, out_dir) -> int:
    section, rates_s, rates_f = _nm_section(cfg)
    kappa = _number(section.get("kappa"), "nm.kappa", 0, True)
    omega = _number(section.get("omega", 0.0), "nm.omega", 0)

    dg = np.abs(rates_s - rates_f)
    channels = []
    total = 0.0
    for idx, name in enumerate(CHANNELS):
        rep = channel_report(rates_s[idx], rates_f[idx], kappa, omega, name)
        # a channel with no tail to truncate is integrated over t <= 1
        horizon = (truncation_horizon(dg[idx], kappa) if dg[idx] > 0 else 0.0) or 1.0
        quad_val = nm_measure_quadrature(rates_s[idx], rates_f[idx], kappa, omega, horizon)
        channels.append(
            {
                "channel": name,
                "f_value": rep.f_value,
                "f_quadrature": quad_val,
                "n_intervals": rep.n_intervals,
                "intervals": [list(iv) for iv in rep.intervals],
            }
        )
        total += rep.f_value
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "kappa": kappa,
            "omega": omega,
            "channels": channels,
            "f_total": total,
        }
    )
    return EXIT_OK


def cmd_nm_boundary(cfg, args, out_dir) -> int:
    section, rates_s, rates_f = _nm_section(cfg)
    if "kappa_grid" not in section:
        raise ConfigError("config.nm.kappa_grid: required for nm-boundary")
    axis = _axis(section, "kappa_grid", "log", "config.nm")

    per_channel = []
    for idx, name in enumerate(CHANNELS):
        try:
            alpha = markov_boundary_alpha(rates_s[idx], rates_f[idx])
            per_channel.append({"channel": name, "alpha": alpha})
        except PontusError as exc:
            per_channel.append(
                {"channel": name, "alpha": None, "note": f"no-solution: {exc}"}
            )
    curve = boundary_curve(rates_s, rates_f, axis.values)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "channels": per_channel,
            "boundary": [[k, w] for k, w in curve],
        }
    )
    return EXIT_OK


def cmd_velocity_field(cfg, args, out_dir) -> int:
    section = cfg.get("velocity_field")
    if section is None:
        raise ConfigError("config.velocity_field: required for velocity-field")
    _check_keys(
        section, {"point", "spacing", "max_radius", "label"}, "config.velocity_field"
    )
    ref = section.get("point", "F")
    if isinstance(ref, str):
        p = _parameter_point(cfg, ref)
    else:
        p = _point(ref, "config.velocity_field.point")
    spacing = _number(section.get("spacing", 0.05), "velocity_field.spacing", 0, True)
    max_radius = _number(
        section.get("max_radius", 1.0), "velocity_field.max_radius", 0, True
    )
    label = _label(section, "velocity_field", "velocity")
    rows = velocity_field_grid(assemble_generator(p), spacing, max_radius)
    path = out_dir / f"{label}_velocity.csv"
    velocity_field_to_csv(rows, path)
    print(f"velocity-field: wrote {path} ({len(rows)} grid points)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pontus",
        description="Relaxation protocols for an open two-level system",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--output", default=".", help="directory for emitted files")
    parser.add_argument(
        "--epsilon", type=float, default=None, help="trace-distance cutoff"
    )
    parser.add_argument("--t-cap", type=float, default=None, help="integration cap")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker threads for gain maps, at least 1 and at most the CPUs this process "
             "may run on (default: all of them); one where no compiled kernel loads",
    )
    parser.set_defaults(with_baseline=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady-state", help="attractor of one parameter point")
    p.add_argument("--point", default="F", help="which configured point (default F)")

    p = sub.add_parser("simulate", help="run one protocol")
    p.add_argument(
        "--with-baseline",
        action="store_true",
        help="co-run the direct protocol and classify the speed-up",
    )

    sub.add_parser("gain-map", help="sweep the gain over a parameter plane")
    sub.add_parser("nm-measure", help="non-Markovianity of a rate schedule")
    sub.add_parser("nm-boundary", help="Markovian boundary over a kappa grid")
    sub.add_parser("velocity-field", help="velocity magnitudes on a ball grid")
    return parser


_parser = functools.cache(build_parser)  # built on the first ``main`` call

_HANDLERS = {
    "steady-state": cmd_steady_state,
    "simulate": cmd_simulate,
    "gain-map": cmd_gain_map,
    "nm-measure": cmd_nm_measure,
    "nm-boundary": cmd_nm_boundary,
    "velocity-field": cmd_velocity_field,
}


def main(argv=None) -> int:
    """Runs one command; its log lines go to this call's ``sys.stderr``, at
    the level that PONTUS_LOG names at this call (default WARNING)."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package = logging.getLogger("pontus")
    level, propagate = package.level, package.propagate
    package.addHandler(handler)
    package.setLevel(
        getattr(logging, os.environ.get("PONTUS_LOG", "WARNING").upper(), logging.WARNING))
    package.propagate = False  # a root handler would print each line again
    try:
        return _run(argv)
    finally:
        package.removeHandler(handler)
        package.setLevel(level)
        package.propagate = propagate


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError("--jobs: must be at least 1")
        cfg = load_config(args.config)
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](cfg, args, out_dir)
    except (ConfigError, ValueError, NegativeEndpointRate, NonFinite) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularGenerator as exc:
        print(f"singular generator: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (NotConverged, StepSizeUnderflow) as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except BallViolation as exc:
        print(f"ball violation: {exc}", file=sys.stderr)
        return EXIT_BALL_VIOLATION
    except OSError as exc:  # the output directory or a file in it
        if exc.filename is None:
            raise
        print(f"output error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
