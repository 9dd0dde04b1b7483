import contextlib
import errno
import hashlib
import importlib.util
import io
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from pontus import (
    ConstantFlow,
    ParameterPoint,
    nm_measure_quadrature,
    run_direct,
    run_two_step,
    truncation_horizon,
)
from pontus.cli import _kind_section, load_config, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

PLANAR_POINTS = {
    "S": {"h": [0.707, 0.707, 0.0], "gamma": [0.5, 0.1, 0.0]},
    "F": {"h": [0.707, 0.707, 0.0], "gamma": [0.01, 0.05, 0.0]},
}

TILTED_POINTS = {
    "S": {"h": [0.183, 0.183, -0.966], "gamma": [0.5, 0.1, 0.0]},
    "F": {"h": [0.183, 0.183, -0.966], "gamma": [0.1, 0.5, 0.0]},
}


def theta_sweep(**extra):
    return {
        "kind": "kappa-theta",
        "rates_s": [0.75, 0.75, 0.75],
        "rates_f": [0.05, 0.1, 0.15],
        "kappa": {"min": 0.1, "max": 1.0, "n": 2},
        "theta": {"min": 0.1, "max": 1.0, "n": 2},
        **extra,
    }


def omega_sweep(**extra):
    sweep = dict(theta_sweep(), kind="kappa-omega", h=[1.0, 0.0, 0.0])
    sweep["omega"] = sweep.pop("theta")
    return {**sweep, **extra}


def write_config(tmp_path, payload, name="cfg.json"):
    """The path of ``payload`` written as JSON, or as it is if a str, or of no
    file if None."""
    path = tmp_path / name
    if payload is not None:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestSteadyState:
    def test_reference_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "points": PLANAR_POINTS})
        code, out, _ = run_json(capsys, "--config", cfg, "steady-state", "--point", "F")
        assert code == 0
        assert out["residual"] < 1e-10
        assert np.allclose(out["r_ss"], [-0.0141379, 0.0141379, -0.0002999], atol=1e-6)

    def test_pure_excitation(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"schema": 1, "points": {"F": {"h": [0, 0, 1], "gamma": [1, 0, 0]}}},
        )
        code, out, _ = run_json(capsys, "--config", cfg, "steady-state")
        assert code == 0
        assert np.allclose(out["r_ss"], [0, 0, 1], atol=1e-12)

    def test_singular_point_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"schema": 1, "points": {"F": {"h": [0, 0, 1], "gamma": [0, 0, 0]}}},
        )
        code, _, err = run_cli(capsys, "--config", cfg, "steady-state")
        assert code == 2
        assert "singular" in err.lower()


def test_each_call_logs_to_its_own_stderr(tmp_path, monkeypatch):
    monkeypatch.setenv("PONTUS_LOG", "info")
    cfg = write_config(tmp_path, {"schema": 1, "sweep": omega_sweep()})
    # a process whose root logger already has a handler gets each line once
    elsewhere = logging.StreamHandler(io.StringIO())
    logging.getLogger().addHandler(elsewhere)
    captured = []
    try:
        for run in range(2):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["--config", cfg, "--output", str(tmp_path / str(run)), "--jobs", "1",
                             "gain-map"])
            assert code == 0
            captured.append(err.getvalue())
    finally:
        logging.getLogger().removeHandler(elsewhere)
    for err in captured:
        assert err.count("INFO pontus.cli: sweep kappa-omega over 4 cells\n") == 1
    assert elsewhere.stream.getvalue() == ""


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "points": {}, "bogus": 1})
        code, _, err = run_cli(capsys, "--config", cfg, "steady-state")
        assert code == 1 and "bogus" in err

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 99, "points": PLANAR_POINTS})
        code, _, err = run_cli(capsys, "--config", cfg, "steady-state")
        assert code == 1 and "schema" in err

    def test_unknown_nested_key(self, tmp_path, capsys):
        pts = {"F": {"h": [0, 0, 1], "gamma": [1, 0, 0], "extra": 5}}
        cfg = write_config(tmp_path, {"schema": 1, "points": pts})
        code, _, err = run_cli(capsys, "--config", cfg, "steady-state")
        assert code == 1 and "extra" in err

    def test_malformed_vector(self, tmp_path, capsys):
        pts = {"F": {"h": [0, 0], "gamma": [1, 0, 0]}}
        cfg = write_config(tmp_path, {"schema": 1, "points": pts})
        code, _, err = run_cli(capsys, "--config", cfg, "steady-state")
        assert code == 1 and "three numbers" in err

    def test_undersized_sweep_axis(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "sweep": {
                    "kind": "kappa-theta",
                    "rates_s": [0.75, 0.75, 0.75],
                    "rates_f": [0.05, 0.1, 0.15],
                    "kappa": {"min": 0.1, "max": 1.0, "n": 1},
                    "theta": {"min": 0.1, "max": 1.0, "n": 4},
                },
            },
        )
        code, _, err = run_cli(capsys, "--config", cfg, "gain-map")
        assert code == 1 and "n" in err

    def test_log_axis_from_zero(self, tmp_path, capsys):
        sweep = theta_sweep(kappa={"min": 0, "max": 1.0, "n": 3, "spacing": "log"})
        cfg = write_config(tmp_path, {"schema": 1, "sweep": sweep})
        code, _, err = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "gain-map")
        assert code == 1 and err.startswith("config error:") and "log axis" in err

    def test_switch_time_at_time_cap(self, tmp_path, capsys):
        points = dict(PLANAR_POINTS, A={"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]})
        # every integrator key rejects zero and a string under its own path
        cases = [({"t_cap": 50.0}, "time cap")]
        for key in ("rel_tol", "abs_tol", "t_cap", "sample_stride"):
            cases += [({key: 0}, f"integrator.{key}"), ({key: "0.1"}, f"integrator.{key}")]
        for integrator, message in cases:
            cfg = write_config(
                tmp_path,
                {
                    "schema": 1,
                    "points": points,
                    "protocol": {"kind": "two-step", "t_i": 50.0},
                    "integrator": integrator,
                },
            )
            code, _, err = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "simulate")
            assert code == 1 and err.startswith("config error:") and message in err, integrator

    def test_continuous_kappa_must_be_positive(self, tmp_path, capsys):
        # a ramp with kappa <= 0 never settles on the F rates
        for kappa in (0, -0.4):
            cfg = write_config(
                tmp_path,
                {
                    "schema": 1,
                    "points": TILTED_POINTS,
                    "protocol": {"kind": "continuous", "kappa": kappa, "omega": 0.45},
                    "integrator": {"t_cap": 50.0},
                },
            )
            code, _, err = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "simulate")
            assert code == 1 and err.startswith("config error:") and "protocol.kappa" in err
            assert not (tmp_path / "continuous_trajectory.csv").exists()

    def test_negative_endpoint_rate(self, tmp_path, capsys):
        points = dict(PLANAR_POINTS, F={"h": [0.707, 0.707, 0.0], "gamma": [-0.01, 0.05, 0.0]})
        cfg = write_config(
            tmp_path, {"schema": 1, "points": points, "protocol": {"kind": "direct"}}
        )
        code, _, err = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "simulate")
        assert (code, err) == (
            1, "config error: endpoint 'F' has negative rate(s) (-0.01, 0.05, 0.0)\n")

    def test_fixed_omega_is_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "sweep": theta_sweep(omega_fixed=0.3)})
        code, _, err = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "gain-map")
        assert code == 1 and err.startswith("config error:") and "omega_fixed" in err

    @staticmethod
    def refused_before_any_run(tmp_path, capsys, monkeypatch, payload, command, *flags):
        """Run ``command`` (with its ``flags``) on ``payload`` where no run may
        start; the exit code, stdout, stderr, and whether the output directory
        stayed empty."""
        def no_run(*args, **kwargs):
            raise AssertionError("a run was started")

        for name in ("run_direct", "run_continuous", "_Ramp", "_run_tasks"):
            monkeypatch.setattr(f"pontus.sweep.{name}", no_run, raising=False)
            monkeypatch.setattr(f"pontus.cli.{name}", no_run, raising=False)
        # every constant-stage run, a t_I scan's included, builds a flow, and
        # every continuous run a ramp set-up
        monkeypatch.setattr("pontus.protocols.ConstantFlow", no_run)
        monkeypatch.setattr("pontus.protocols._Ramp", no_run)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "--config", write_config(tmp_path, payload), "--output", str(out_dir),
            command, *flags,
        )
        return code, out, err, not (out_dir.exists() and any(out_dir.iterdir()))

    NAN, INF = math.nan, math.inf
    RAMP = {"kind": "continuous", "kappa": 0.2, "omega": 0.0, "with_baseline": True}
    TWO_STEP_AT_3 = {"kind": "two-step", "t_i": 3.0}
    NM = {"rates_s": [0.5, 0.1, 0.0], "rates_f": [0.1, 0.5, 0.0], "kappa": 0.1, "omega": 1.0}

    @pytest.mark.parametrize("command, section, path", [
        ("simulate", {"protocol": RAMP, "epsilon": NAN}, "config.epsilon"),
        ("simulate", {"protocol": RAMP, "integrator": {"t_cap": INF}}, "integrator.t_cap"),
        ("simulate", {"protocol": RAMP, "integrator": {"rel_tol": -INF}}, "integrator.rel_tol"),
        ("simulate", {"protocol": RAMP, "integrator": {"abs_tol": NAN}}, "integrator.abs_tol"),
        ("simulate", {"protocol": dict(RAMP, kappa=NAN)}, "protocol.kappa"),
        ("simulate", {"protocol": dict(RAMP, omega=INF)}, "protocol.omega"),
        ("simulate", {"protocol": {"kind": "two-step", "t_i": NAN}}, "protocol.t_i"),
        (
            "simulate",
            {"protocol": {"kind": "two-step", "t_i_scan": {"start": 1.0, "stop": INF, "step": 0.5}}},
            "t_i_scan.stop",
        ),
        (
            "simulate",
            {"protocol": {"kind": "direct"}, "points": dict(PLANAR_POINTS, F={"h": [0.707, 0.707, 0.0], "gamma": [0.01, NAN, 0.0]})},
            "config.points.F.gamma[1]",
        ),
        ("steady-state", {"points": {"F": {"h": [-INF, 0, 1], "gamma": [1, 0, 0]}}}, "config.points.F.h[0]"),
        ("gain-map", {"sweep": theta_sweep(kappa={"min": NAN, "max": 1.0, "n": 2})}, "config.sweep.kappa.min"),
        ("gain-map", {"sweep": theta_sweep(rates_s=[INF, 0.75, 0.75])}, "sweep.rates_s[0]"),
        ("gain-map", {"sweep": omega_sweep(h=[NAN, 0.0, 0.0])}, "sweep.h[0]"),
        ("gain-map", {"sweep": omega_sweep(omega={"min": 0.0, "max": INF, "n": 2})}, "config.sweep.omega.max"),
        ("nm-measure", {"nm": dict(NM, kappa=INF)}, "nm.kappa"),
        ("nm-measure", {"nm": dict(NM, omega=NAN)}, "nm.omega"),
        ("nm-boundary", {"nm": dict(NM, kappa_grid={"min": 0.05, "max": INF, "n": 4})}, "config.nm.kappa_grid.max"),
        ("velocity-field", {"velocity_field": {"spacing": NAN}}, "velocity_field.spacing"),
        (
            "velocity-field",
            {"velocity_field": {"point": {"h": [0, 0, 1], "gamma": [1, 0, NAN]}}},
            "config.velocity_field.point.gamma[2]",
        ),
    ])
    def test_non_finite_config_numbers_are_refused(
        self, tmp_path, capsys, monkeypatch, command, section, path
    ):
        # written as the non-standard JSON tokens NaN, Infinity and -Infinity
        points = dict(PLANAR_POINTS, A={"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]})
        payload = {"schema": 1, "points": points, **section}
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, payload, command
        )
        assert (code, out, err, empty) == (1, "", f"config error: {path}: must be finite\n", True)

    @pytest.mark.parametrize("flag", ["--epsilon", "--t-cap"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_flags_obey_their_config_keys_rule(self, tmp_path, capsys, flag, value):
        cfg = write_config(
            tmp_path, {"schema": 1, "points": PLANAR_POINTS, "protocol": {"kind": "direct"}}
        )
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "--config", cfg, "--output", str(out_dir), f"{flag}={value}", "simulate"
        )
        rule = "must be > 0" if value == "0" else "must be finite"
        assert (code, out, err) == (1, "", f"config error: {flag}: {rule}\n")
        assert not any(out_dir.iterdir())

    def test_epsilon_flag_overrides_the_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"schema": 1, "points": PLANAR_POINTS, "protocol": {"kind": "direct"}, "epsilon": 1e-4},
        )
        code, out, _ = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "--epsilon", "1e-3", "simulate"
        )
        s, f = (ParameterPoint.make(p["h"], p["gamma"]) for p in PLANAR_POINTS.values())
        assert code == 0
        assert out["epsilon"] == out["config"]["epsilon"] == 1e-3
        assert out["tau"] == run_direct(s, f, 1e-3).tau

    def test_max_step_is_an_unknown_key(self, tmp_path, capsys, monkeypatch):
        # the steppers take no step cap, so a config that sets one is refused
        payload = {"schema": 1, "points": TILTED_POINTS, "protocol": self.RAMP,
                   "integrator": {"max_step": 0.01}}
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, payload, "simulate"
        )
        message = "config error: config.integrator: unknown key(s) ['max_step']\n"
        assert (code, out, err, empty) == (1, "", message, True)

    @pytest.mark.parametrize("sweep, key", [
        (theta_sweep(h=[1.0, 0.0, 0.0]), "h"),
        (theta_sweep(omega={"min": 0.0, "max": 1.0, "n": 2}), "omega"),
        (omega_sweep(theta={"min": 0.0, "max": 1.0, "n": 2}), "theta"),
    ])
    def test_sweep_takes_only_its_own_kinds_keys(self, tmp_path, capsys, monkeypatch, sweep, key):
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, {"schema": 1, "sweep": sweep}, "gain-map"
        )
        message = f"config error: config.sweep: unknown key(s) ['{key}']\n"
        assert (code, out, err, empty) == (1, "", message, True)

    TWO_STEP = {"kind": "two-step", "t_i": 3.0}
    SCAN = {"start": 1.0, "stop": 2.0, "step": 0.5}
    SCAN_PROTOCOL = {"kind": "two-step", "t_i_scan": SCAN}
    UNREAD_BASELINE = "with_baseline: not read by a direct run or a t_i scan"
    FOREIGN = {"t_i": 3.0, "t_i_scan": SCAN, "kappa": 0.2, "omega": 0.0, "with_baseline": True}

    @pytest.mark.parametrize("protocol, key", [
        *(({"kind": "direct"}, key) for key in FOREIGN),
        (TWO_STEP, "kappa"),
        (TWO_STEP, "omega"),
        (RAMP, "t_i"),
        (RAMP, "t_i_scan"),
    ])
    def test_protocol_takes_only_its_own_kinds_keys(
        self, tmp_path, capsys, monkeypatch, protocol, key
    ):
        payload = {"schema": 1, "points": PLANAR_POINTS, "protocol": {**protocol, key: self.FOREIGN[key]}}
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, payload, "simulate"
        )
        message = f"config error: config.protocol: unknown key(s) ['{key}']\n"
        assert (code, out, err, empty) == (1, "", message, True)

    @pytest.mark.parametrize("payload, flags, message", [
        (
            {"protocol": dict(TWO_STEP, t_i_scan=SCAN)}, [],
            "config.protocol: two-step needs exactly one of t_i and t_i_scan",
        ),
        ({"protocol": TWO_STEP, "output": "out"}, [], "config: unknown key(s) ['output']"),
        ({"protocol": {"kind": "direct"}}, ["--with-baseline"], UNREAD_BASELINE),
        ({"protocol": SCAN_PROTOCOL}, ["--with-baseline"], UNREAD_BASELINE),
        ({"protocol": {**SCAN_PROTOCOL, "with_baseline": False}}, [], UNREAD_BASELINE),
        (
            {"protocol": {**SCAN_PROTOCOL, "t_i_scan": {"start": 2.0, "stop": 1.0, "step": 0.5}}},
            [], "t_i_scan.stop: 1.0 lies below t_i_scan.start 2.0, so the scan has no switch time",
        ),
    ])
    def test_inputs_no_run_reads_are_refused(
        self, tmp_path, capsys, monkeypatch, payload, flags, message
    ):
        points = dict(PLANAR_POINTS, A={"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]})
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, {"schema": 1, "points": points, **payload},
            "simulate", *flags,
        )
        assert (code, out, err, empty) == (1, "", f"config error: {message}\n", True)

    @pytest.mark.parametrize("payload, command, message", [
        ({"protocol": RAMP, "integrator": 5}, "simulate", "config.integrator: expected an object"),
        ({}, "gain-map", "config.sweep: required for gain-map"),
        ({}, "simulate", "config.protocol: required for simulate"),
        (
            {"protocol": {"kind": "ramp"}}, "simulate",
            "config.protocol.kind: expected direct, two-step, or continuous",
        ),
        ({"protocol": {"kind": "direct"}, "points": None}, "simulate",
         "config.points: missing or not an object"),
        ({"protocol": TWO_STEP_AT_3, "points": PLANAR_POINTS}, "simulate",
         "config.points: no point named 'A'"),
        ({"sweep": {k: v for k, v in theta_sweep().items() if k != "theta"}}, "gain-map",
         "config.sweep: missing axis 'theta'"),
        ({"sweep": theta_sweep(kappa={"min": 0.1, "max": 1.0, "n": 2, "spacing": "cubic"})},
         "gain-map", "config.sweep.kappa.spacing: expected 'log' or 'linear'"),
        ({}, "nm-measure", "config.nm: required for nm subcommands"),
        ({"nm": NM}, "nm-boundary", "config.nm.kappa_grid: required for nm-boundary"),
        ({}, "velocity-field", "config.velocity_field: required for velocity-field"),
        ({"protocol": RAMP, "schema": True}, "simulate", "config.schema: expected 1, got True"),
        *(
            ({"protocol": dict(protocol, with_baseline=value)}, "simulate",
             "config.protocol.with_baseline: expected true or false")
            for protocol, value in [(TWO_STEP_AT_3, "false"), (RAMP, 1), (RAMP, None)]
        ),
    ])
    def test_missing_or_malformed_inputs_are_refused(
        self, tmp_path, capsys, monkeypatch, payload, command, message
    ):
        points = dict(PLANAR_POINTS, A={"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]})
        payload = {"schema": 1, "points": points, **payload}
        if payload["points"] is None:
            del payload["points"]
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, payload, command
        )
        assert (code, out, err, empty) == (1, "", f"config error: {message}\n", True)

    @pytest.mark.parametrize("payload, prefix", [
        ('{"schema": 1,', "config error: config is not valid JSON: "),
        (None, "config error: cannot read config: "),
    ])
    def test_a_config_that_cannot_be_read_is_refused(
        self, tmp_path, capsys, monkeypatch, payload, prefix
    ):
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, payload, "simulate"
        )
        assert (code, out, empty) == (1, "", True) and err.startswith(prefix)

    def test_a_malformed_point_that_no_run_reads_is_refused(self, tmp_path, capsys,
                                                            monkeypatch):
        payload = json.loads((CONFIGS / "fig3b.json").read_text())
        payload["points"]["X"] = {"h": [0, 0], "gamma": [1, 0, 0]}
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, payload, "simulate"
        )
        message = "config error: config.points.X.h: expected a list of three numbers\n"
        assert (code, out, err, empty) == (1, "", message, True)

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0 and out.startswith("usage: pontus")

    def test_every_shipped_config_passes_the_key_rule(self, tmp_path):
        # the repository's configs and the benchmark's, of every variant
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        configs = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))]
        configs += map(workloads.figure_config, workloads.FIGURES)
        for v in range(workloads.N_VARIANTS):
            configs += [
                workloads.ramp_map_config(v),
                workloads.ramp_map_config(v, workloads.WARMUP_MAP_N),
                workloads.ti_scan_config(v),
                workloads.ti_scan_config(v, workloads.WARMUP_SCAN_STOP),
            ]
        kinds = set()
        for cfg in configs:
            assert load_config(write_config(tmp_path, cfg)) == cfg
            for name in {"protocol", "sweep"} & set(cfg):
                assert _kind_section(cfg, name, "run") == (cfg[name], cfg[name]["kind"])
                kinds.add(cfg[name]["kind"])
        assert len(configs) == 29
        assert kinds == {"two-step", "continuous", "kappa-theta", "kappa-omega"}

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_are_refused_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                       jobs):
        def no_run(*args, **kwargs):
            raise AssertionError("a run was started")

        for name in ("_Ramp", "_run_tasks"):  # a column's direct run builds its _Ramp
            monkeypatch.setattr(f"pontus.sweep.{name}", no_run)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "--config", write_config(tmp_path, {"schema": 1, "sweep": omega_sweep()}),
            "--output", str(out_dir), "--jobs", jobs, "gain-map",
        )
        assert (code, out, err) == (1, "", "config error: --jobs: must be at least 1\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("sweep", [theta_sweep, omega_sweep])
    def test_negative_endpoint_rate_is_a_config_error(self, sweep, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "sweep": sweep(rates_f=[-0.01, 0.1, 0.15])})
        code, out, err = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "gain-map")
        assert (code, out, err) == (
            1, "", "config error: endpoint 'F' has negative rate(s) (-0.01, 0.1, 0.15)\n")

    def test_negative_omega_is_refused_before_any_cell(self, tmp_path, capsys, monkeypatch):
        sweep = omega_sweep(omega={"min": -1.0, "max": 1.0, "n": 3})
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, {"schema": 1, "sweep": sweep}, "gain-map"
        )
        message = "config error: omega must be nonnegative and finite\n"
        assert (code, out, err, empty) == (1, "", message, True)

    BAD_LABELS = ["../escaped", "a/b", ["a", 1], "", ".", "..", None]
    LABEL_MESSAGE = (
        "label: expected a file-name stem"
        " (a non-empty string without a path separator, not . or ..)"
    )

    def refused_label(self, tmp_path, capsys, monkeypatch, payload, command, path):
        code, out, err, empty = self.refused_before_any_run(
            tmp_path, capsys, monkeypatch, payload, command
        )
        message = f"config error: {path}.{self.LABEL_MESSAGE}\n"
        assert (code, out, err, empty) == (1, "", message, True)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_protocol_label_must_be_a_file_name(self, tmp_path, capsys, monkeypatch, label):
        payload = {"schema": 1, "points": PLANAR_POINTS, "protocol": {"kind": "direct", "label": label}}
        self.refused_label(tmp_path, capsys, monkeypatch, payload, "simulate", "protocol")

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_sweep_label_must_be_a_file_name(self, tmp_path, capsys, monkeypatch, label):
        payload = {"schema": 1, "sweep": theta_sweep(label=label)}
        self.refused_label(tmp_path, capsys, monkeypatch, payload, "gain-map", "sweep")

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_velocity_field_label_must_be_a_file_name(self, tmp_path, capsys, monkeypatch, label):
        payload = {"schema": 1, "points": PLANAR_POINTS, "velocity_field": {"label": label}}
        self.refused_label(tmp_path, capsys, monkeypatch, payload, "velocity-field", "velocity_field")


class TestOutputErrors:
    """An output that cannot be written is one stderr line naming its path,
    exit 1, no traceback."""

    @staticmethod
    def message(code, path):
        error = OSError(code, os.strerror(code), str(path))
        return f"output error: cannot write output: {error}\n"

    def test_output_naming_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_cli(capsys, "--config", str(CONFIGS / "fig3a.json"),
                                 "--output", str(taken), "simulate")
        assert (code, out, err) == (1, "", self.message(errno.EEXIST, taken))

    def test_output_file_that_is_a_directory(self, tmp_path, capsys):
        blocked = tmp_path / "fig3a_trajectory.csv"
        blocked.mkdir()
        code, out, err = run_cli(capsys, "--config", str(CONFIGS / "fig3a.json"),
                                 "--output", str(tmp_path), "simulate")
        assert (code, out, err) == (1, "", self.message(errno.EISDIR, blocked))


class TestSimulate:
    def test_direct_reference(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"schema": 1, "points": PLANAR_POINTS, "protocol": {"kind": "direct"}},
        )
        code, out, _ = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate"
        )
        assert code == 0
        assert abs(out["tau"] - 160.0) <= 16.0
        csv = (tmp_path / out["trajectory_file"]).read_text().splitlines()
        assert csv[0] == "t,rx,ry,rz,dist,gp,gm,gz"
        assert len(csv) == len(csv)  # file written and non-empty
        assert (tmp_path / "direct_result.json").exists()

    def test_continuous_with_baseline_gain(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": PLANAR_POINTS,
                "protocol": {
                    "kind": "continuous",
                    "kappa": 0.2,
                    "omega": 0.0,
                    "with_baseline": True,
                    "label": "k02",
                },
            },
        )
        code, out, _ = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate"
        )
        assert code == 0
        assert abs(out["classification"]["gain"] - 1.66) <= 0.15
        assert out["classification"]["class"] in ("weak", "strong")
        assert (tmp_path / "k02_direct_trajectory.csv").exists()

    def test_inconclusive_case_exits_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": TILTED_POINTS,
                "protocol": {"kind": "continuous", "kappa": 0.4, "omega": 0.45},
            },
        )
        code, out, _ = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate"
        )
        assert code == 0
        assert out["inconclusive"] is True

    def test_timeout_exits_3_with_partial_trajectory(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": PLANAR_POINTS,
                "protocol": {"kind": "continuous", "kappa": 0.035, "omega": 0.0},
            },
        )
        code, out, _ = run_json(
            capsys,
            "--config", cfg, "--output", str(tmp_path), "--t-cap", "50", "simulate",
        )
        assert code == 3
        assert out["timed_out"] is True and out["tau"] is None
        assert (tmp_path / out["trajectory_file"]).exists()

    def test_ball_violation_exits_4(self, tmp_path, capsys):
        # a fig5a map cell whose non-positive map drives the state out of the ball
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": {
                    "S": {"h": [1.0, 0.0, 0.0], "gamma": [0.75, 0.75, 0.75]},
                    "F": {"h": [1.0, 0.0, 0.0], "gamma": [0.05, 0.1, 0.15]},
                },
                "protocol": {"kind": "continuous", "kappa": 0.01, "omega": 2 / 11},
            },
        )
        code, out, err = run_cli(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("ball violation: trajectory left the Bloch ball at t = ")

    def test_step_size_underflow_exits_3_without_a_trajectory(self, tmp_path, capsys):
        # tolerances far below round-off leave the stepper no step it accepts
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": {
                    "S": {"h": [1.0, 0.0, 0.0], "gamma": [0.75, 0.75, 0.75]},
                    "F": {"h": [1.0, 0.0, 0.0], "gamma": [0.05, 0.1, 0.15]},
                },
                "protocol": {"kind": "continuous", "kappa": 0.5, "omega": 1.0},
                "integrator": {"abs_tol": 1e-300, "rel_tol": 1e-300, "t_cap": 50},
            },
        )
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "--config", cfg, "--output", str(out_dir), "simulate")
        message = "not converged: Required step size is less than spacing between numbers.\n"
        assert (code, out, err) == (3, "", message)
        assert not any(out_dir.iterdir())

    @pytest.mark.parametrize("protocol", [
        {"kind": "two-step", "t_i": 3.0},
        {"kind": "continuous", "kappa": 0.2, "omega": 0.0},
    ])
    def test_with_baseline_flag_matches_the_config_key(self, tmp_path, capsys, protocol):
        points = dict(PLANAR_POINTS, A={"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]})
        runs = {}
        for name, key, flags in [
            ("flag", {}, ["--with-baseline"]),
            ("key", {"with_baseline": True}, []),
        ]:
            payload = {"schema": 1, "points": points, "protocol": {**protocol, **key}}
            cfg = write_config(tmp_path, payload, f"{name}.json")
            out_dir = tmp_path / name
            code, out, err = run_cli(
                capsys, "--config", cfg, "--output", str(out_dir), "simulate", *flags
            )
            runs[name] = code, out, err, {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert runs["flag"] == runs["key"]
        code, out, _, files = runs["flag"]
        assert code == 0 and "classification" in json.loads(out)
        stems = ("direct_trajectory.csv", "result.json", "trajectory.csv")
        assert sorted(files) == [f"{protocol['kind']}_{stem}" for stem in stems]

    def test_fig1_scan_builds_two_flows(self, tmp_path, capsys, flow_builds, generator_calls):
        # the scan's two; each class's first realization reruns on its set-up;
        # S's and F's attractors and each flow's are solved, but not A's,
        # which no run reads
        code, out, _ = run_json(
            capsys, "--config", str(CONFIGS / "fig1.json"), "--output", str(tmp_path),
            "simulate",
        )
        assert code == 0 and len(out["first_realizations"]) == 3
        assert len(flow_builds) == 2 and generator_calls.count("steady_state") == 4

    def test_two_step_with_baseline_builds_two_flows(self, tmp_path, capsys, flow_builds,
                                                     generator_calls):
        # the detour and its baseline are runs of one set-up: A's flow and F's,
        # and S's and F's attractors
        points = json.loads((CONFIGS / "fig1.json").read_text())["points"]
        protocol = {"kind": "two-step", "t_i": 3.0}
        cfg = write_config(tmp_path, {"schema": 1, "points": points, "protocol": protocol})
        code, out, _ = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate", "--with-baseline"
        )
        assert code == 0 and out["classification"]["class"] == "strong"
        assert len(flow_builds) == 2 and generator_calls.count("steady_state") == 4

    @pytest.mark.parametrize("flags", [[], ["--with-baseline"]])
    def test_rate_free_detour(self, tmp_path, capsys, flags):
        # an A without an attractor: its stage precesses the state about h
        points = json.loads((CONFIGS / "fig1.json").read_text())["points"]
        points["A"]["gamma"] = [0.0, 0.0, 0.0]
        protocol = {"kind": "two-step", "t_i": 0.5}
        cfg = write_config(tmp_path, {"schema": 1, "points": points, "protocol": protocol})
        code, out, err = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate", *flags
        )
        assert (code, err) == (0, "")
        assert out["tau"] == pytest.approx(73.7209, abs=1e-4)
        if flags:
            assert out["classification"]["class"] == "weak-type-A"

    def test_scan_whose_baseline_times_out_exits_3(self, tmp_path, capsys):
        points = json.loads((CONFIGS / "fig1.json").read_text())["points"]
        protocol = {"kind": "two-step", "t_i_scan": {"start": 0.5, "stop": 5.0, "step": 0.5}}
        cfg = write_config(tmp_path, {"schema": 1, "points": points, "protocol": protocol})
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "--config", cfg, "--output", str(out_dir), "--t-cap", "10", "simulate"
        )
        assert (code, out, err) == (3, "", "not converged: direct baseline did not converge\n")

    def test_continuous_with_baseline_solves_three_steady_states(
            self, tmp_path, capsys, generator_calls, flow_builds, monkeypatch):
        # the ramp and its baseline are runs of one set-up: S's and F's
        # attractors, and F's flow, whose samplers are the set-up's detour,
        # which the quench runs, and the baseline's first-stage grid and
        # relaxation
        samplers = []
        sampler = ConstantFlow.sampler

        def counting(self, r0):
            samplers.append(r0)
            return sampler(self, r0)

        monkeypatch.setattr(ConstantFlow, "sampler", counting)
        code, out, _ = run_json(
            capsys, "--config", str(CONFIGS / "fig3b.json"), "--output", str(tmp_path),
            "simulate",
        )
        assert code == 0 and "classification" in out
        assert generator_calls.count("steady_state") == 3 and len(flow_builds) == 1
        assert len(samplers) == 3

    def test_settled_baseline_continuous(self, tmp_path, capsys):
        # S = F: both runs settle at their first sample, and the gain is 0/0
        points = {"S": TILTED_POINTS["F"], "F": TILTED_POINTS["F"]}
        protocol = {"kind": "continuous", "kappa": 0.4, "omega": 0.45, "with_baseline": True}
        cfg = write_config(tmp_path, {"schema": 1, "points": points, "protocol": protocol})
        code, out, _ = run_json(capsys, "--config", cfg, "--output", str(tmp_path), "simulate")
        assert code == 0
        assert out["tau"] == 0.0 and out["baseline"]["tau"] == 0.0
        assert out["classification"] == {"gain": 0.0, "class": "no-effect", "crossings": 0}

    def test_settled_baseline_two_step(self, tmp_path, capsys):
        # S = F: the direct run settles at its first sample, the detour does not
        f = {"h": [0.0, -0.966, 0.258], "gamma": [0.0, 0.2, 0.0]}
        points = {"S": f, "A": {"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]}, "F": f}
        protocol = {"kind": "two-step", "t_i": 1.0, "with_baseline": True}
        cfg = write_config(tmp_path, {"schema": 1, "points": points, "protocol": protocol})
        code, out, _ = run_json(capsys, "--config", cfg, "--output", str(tmp_path), "simulate")
        assert code == 0
        assert out["tau"] > 0 and out["baseline"]["tau"] == 0.0
        cls = out["classification"]
        assert cls["gain"] == -1.0 and cls["class"] == "no-effect" and cls["crossings"] == 0

    def test_two_step_fixed_switch(self, tmp_path, capsys):
        points = {
            "S": {"h": [0.0, 0.998, 0.062], "gamma": [0.0, 0.2, 0.0]},
            "A": {"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]},
            "F": {"h": [0.0, -0.966, 0.258], "gamma": [0.0, 0.2, 0.0]},
        }
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": points,
                "protocol": {
                    "kind": "two-step",
                    "t_i": 2.1,
                    "with_baseline": True,
                },
            },
        )
        code, out, _ = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate"
        )
        assert code == 0
        assert out["classification"]["class"] == "strong"
        assert out["classification"]["d_I"] >= out["classification"]["d_S"]

    def test_two_step_scan_finds_all_classes(self, tmp_path, capsys):
        points = {
            "S": {"h": [0.0, 0.998, 0.062], "gamma": [0.0, 0.2, 0.0]},
            "A": {"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]},
            "F": {"h": [0.0, -0.966, 0.258], "gamma": [0.0, 0.2, 0.0]},
        }
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": points,
                "protocol": {
                    "kind": "two-step",
                    "t_i_scan": {"start": 0.3, "stop": 2.5, "step": 0.35},
                    "label": "scan",
                },
            },
        )
        code, out, _ = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate"
        )
        assert code == 0
        found = set(out["first_realizations"])
        assert {"weak-type-A", "weak-type-B", "strong"} <= found
        for info in out["first_realizations"].values():
            assert (tmp_path / info["trajectory_file"]).exists()

    def test_fig1_settles_under_an_80_cap(self, tmp_path, capsys):
        # the direct run is below eps from 75.07 on, below eps/10 only at 96.7
        code, out, err = run_json(
            capsys, "--config", str(CONFIGS / "fig1.json"), "--output", str(tmp_path),
            "--t-cap", "80", "simulate",
        )
        assert code == 0, err
        assert out["tau_direct"] == 75.07195599619169

    def test_round_trip_reproduces_tau(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": PLANAR_POINTS,
                "protocol": {"kind": "continuous", "kappa": 0.2, "omega": 0.0},
            },
        )
        code, first, _ = run_json(
            capsys, "--config", cfg, "--output", str(tmp_path), "simulate"
        )
        assert code == 0
        echo = write_config(tmp_path, first["config"], name="echo.json")
        code, second, _ = run_json(
            capsys, "--config", echo, "--output", str(tmp_path), "simulate"
        )
        assert code == 0
        assert second["tau"] == first["tau"]
        assert second["threshold_crossings"] == first["threshold_crossings"]


class TestTwoStepScanJobs:
    """The t_I scan's outputs do not depend on the number of workers."""

    POINTS = {
        "S": {"h": [0.0, 0.998, 0.062], "gamma": [0.0, 0.2, 0.0]},
        "A": {"h": [0.0, 2.0, 2.0], "gamma": [1.0, 0.0, 0.0]},
        "F": {"h": [0.0, -0.966, 0.258], "gamma": [0.0, 0.2, 0.0]},
    }

    def outputs(self, tmp_path, capsys, scan, jobs, *extra):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": self.POINTS,
                "protocol": {"kind": "two-step", "t_i_scan": scan, "label": "scan"},
            },
        )
        out_dir = tmp_path / f"jobs{jobs}"
        code, out, err = run_cli(
            capsys, "--config", cfg, "--output", str(out_dir), "--jobs", str(jobs),
            *extra, "simulate",
        )
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return code, out, err, files

    def test_outputs_byte_identical_across_jobs(self, tmp_path, capsys):
        scan = {"start": 0.3, "stop": 2.5, "step": 0.35}
        runs = [self.outputs(tmp_path, capsys, scan, jobs) for jobs in (1, 2, 3)]
        code, out, _, files = runs[0]
        assert code == 0
        assert set(json.loads(out)["first_realizations"]) == {
            "weak-type-A", "weak-type-B", "strong"
        }
        assert sorted(files) == [
            "scan_direct_trajectory.csv",
            "scan_result.json",
            "scan_strong_trajectory.csv",
            "scan_weak-type-A_trajectory.csv",
            "scan_weak-type-B_trajectory.csv",
        ]
        for other in runs[1:]:
            assert other[:2] == (code, out)
            assert other[3] == files

    def test_timeout_rows_identical_across_jobs(self, tmp_path, capsys):
        # under the 100 cap a row times out exactly where its crossing, taken
        # from the uncapped run, lies past its last F sample: from t_i ~ 43.2
        scan = {"start": 20.0, "stop": 50.0, "step": 2.5}
        runs = [
            self.outputs(tmp_path, capsys, scan, jobs, "--t-cap", "100")
            for jobs in (1, 2)
        ]
        code, out, _, files = runs[0]
        assert code == 0
        report = json.loads(out)
        assert report["tau_direct"] == pytest.approx(75.072, abs=1e-3)
        s, a, f = (ParameterPoint.make(p["h"], p["gamma"]) for p in self.POINTS.values())
        for row in report["scan"]:
            tau = run_two_step(s, a, f, row["t_i"]).tau
            last = row["t_i"] + math.floor((100.0 - row["t_i"]) / 0.05) * 0.05
            assert (row["class"] == "timeout") == (tau > last), row
            assert row["class"] != "timeout" or (row["tau"] is None and row["t_i"] >= 40)
        classes = [row["class"] for row in report["scan"]]
        assert classes == ["no-effect"] * 10 + ["timeout"] * 3
        assert runs[1][:2] == (code, out) and runs[1][3] == files

    @pytest.mark.parametrize(
        "scan, message",
        [
            ({"start": 0.0, "stop": 2.0, "step": 0.5}, "t_i_scan.start: must be > 0"),
            ({"start": 50.0, "stop": 120.0, "step": 10.0}, "switching time must lie below the time cap"),
            # refused at the first switch time past the cap, not after 2e10 of them
            ({"start": 1.0, "stop": 1e9, "step": 0.05}, "switching time must lie below the time cap"),
            # a step lost to rounding the switch times to 12 decimals
            (
                {"start": 1.0, "stop": 2.0, "step": 1e-13},
                "t_i_scan.step: 1e-13 does not move the switch time past 1.0 at 12 decimals",
            ),
        ],
    )
    def test_bad_scan_exits_1_before_the_pool(self, tmp_path, capsys, monkeypatch, scan, message):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("pontus.sweep.ThreadPoolExecutor", no_pool)
        code, out, err, files = self.outputs(tmp_path, capsys, scan, 2, "--t-cap", "100")
        assert code == 1 and out == "" and files == {}
        assert err == f"config error: {message}\n"


class TestPinnedScan:
    """sha256 of the fig1 scan's trajectory CSVs and its 600 classes,
    recorded before the scan's rows came from exact crossings."""

    CSV_SHA256 = {
        "fig1_direct_trajectory.csv":
            "1ffa950732afdd5104a7852bf4d495e127ee7921fef9d5e182a3f5bc4356b068",
        "fig1_strong_trajectory.csv":
            "be51b3bf0ec1bb7ac34cfc4a47f1f109d8cf40a490fc23d4905a08ba023d3306",
        "fig1_weak-type-A_trajectory.csv":
            "7c117b34eef95e9720ec8687e86108d8b433eb1f3afe4670982032481a62feea",
        "fig1_weak-type-B_trajectory.csv":
            "f8008a8ba1ca3efd0b6894626b0710cbd057d6048fd95147ef22963703436194",
    }
    CLASS_RUNS = [  # (class, run length) in switch-time order
        ("no-effect", 6), ("weak-type-A", 17), ("weak-type-B", 18),
        ("strong", 324), ("no-effect", 235),
    ]

    def test_fig1_scan(self, tmp_path, capsys):
        code, out, _ = run_json(
            capsys, "--config", str(CONFIGS / "fig1.json"), "--output", str(tmp_path),
            "simulate",
        )
        assert code == 0
        csvs = {p.name: p for p in tmp_path.glob("*.csv")}
        assert {
            name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in csvs.items()
        } == self.CSV_SHA256
        classes = [row["class"] for row in out["scan"]]
        assert [(k, len(list(g))) for k, g in itertools.groupby(classes)] == self.CLASS_RUNS


class TestPinnedFigures:
    """sha256 of each fig2/fig3 ``simulate`` output (ramp trajectory, direct
    trajectory, result JSON), recorded before the CSV writer formatted rows
    in blocks."""

    SHA256 = {
        "fig2_k020": (
            "9fd4c26f18cee0cabb8c8c1d84a5ed3dd5624d9d45281faf8ff8f27440291b1a",
            "412988cf97d5bf9d7f7e154c193958c1a7ed427e8c7fdcf62f1c18942a7d0ae3",
            "c68d114986a871d6f18059127666440a9087a780342d0c336ed2ec4a2c727fe8",
        ),
        "fig2_k0035": (
            "cb9d2d8b7a785ea5218354a3d8cae191da9a77112b79257f55e62c8273d8b3f8",
            "412988cf97d5bf9d7f7e154c193958c1a7ed427e8c7fdcf62f1c18942a7d0ae3",
            "23747b1d68ef840f2e3a8a71acd8dcec0cf86ff2e8ff1f7e433a3996591c6e95",
        ),
        "fig3a": (
            "306bc2c62ae4900384d0e29766cb9f045a11e2d6af70411d2affe2085d7dd8f6",
            "1e5817b72da112e3cd68daec37b6195ab6fc37c38d1b5119d8ae226069ab2765",
            "b2b7d877d396d30684f1441795206ef528272608c90259d1a545d659ddc64567",
        ),
        "fig3b": (
            "9d7b8fe148a3d3b4dff755edf775032a19a70760946554725127ba32eb1f6d08",
            "1e5817b72da112e3cd68daec37b6195ab6fc37c38d1b5119d8ae226069ab2765",
            "bcb5c91bb36ee325205e2a8c75e834117b338d5714f8eb3dd76e03b5b7e50958",
        ),
    }

    @pytest.mark.parametrize("label", sorted(SHA256))
    def test_figure(self, label, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "--config", str(CONFIGS / f"{label}.json"), "--output", str(tmp_path),
            "simulate",
        )
        assert code == 0
        names = ("_trajectory.csv", "_direct_trajectory.csv", "_result.json")
        assert tuple(
            hashlib.sha256((tmp_path / (label + n)).read_bytes()).hexdigest() for n in names
        ) == self.SHA256[label]


@pytest.mark.usefixtures("python_route")
class TestPinnedFiguresPythonRoute(TestPinnedFigures):
    """The same pins with the Python stepper forced."""


class TestPinnedTwoStep:
    """sha256 of a single two-step ``simulate --with-baseline`` on fig1's
    points (stdout, result JSON, detour and direct trajectory CSVs), one
    switch time per class, recorded while the run and its baseline were
    still built on separate set-ups and graded from the result pair."""

    CASES = {  # t_i -> (class, stdout, result JSON, detour CSV, direct CSV)
        0.35: (
            "weak-type-A",
            "e7a64470155e441bd302cf0fb9086c5eff07d9cc95a7d9be355cd2c27e030036",
            "faa20058b0dc164017c22ebe17c470238f2613912a6cdf93bc903a4fa25d7dda",
            "7c117b34eef95e9720ec8687e86108d8b433eb1f3afe4670982032481a62feea",
            "1ffa950732afdd5104a7852bf4d495e127ee7921fef9d5e182a3f5bc4356b068",
        ),
        1.2: (
            "weak-type-B",
            "82637c960d0debedb0eeb908df64b622a6c9ba234492f9fbf9970bc98dafb857",
            "4da7613a53389ceed6310805c6d4ad9706e96757655b864af6da094ba0abc6ab",
            "f8008a8ba1ca3efd0b6894626b0710cbd057d6048fd95147ef22963703436194",
            "1ffa950732afdd5104a7852bf4d495e127ee7921fef9d5e182a3f5bc4356b068",
        ),
        3.0: (
            "strong",
            "d166fed79c323616778cbc008b7645a72c98d57e6d803d974991b779c4a7bec5",
            "53fc3d166cb8466a8b9ab7cbc0d1f94f9ac93d324bc5cb8d7793418eca78c70a",
            "eb554cb7aefcf00f61ea64b6099de439121898a1f94a8a86d654305ed268e988",
            "1ffa950732afdd5104a7852bf4d495e127ee7921fef9d5e182a3f5bc4356b068",
        ),
        # A = F, switched after the direct tau: below eps at the switch
        80.0: (
            "no-effect",
            "c406ce165206b3f0c180cf6270b2841c2f4ccae5146bbc5d78b1777aebe80a9c",
            "492a355d6cfca2ff026c10ba3fba7d75b241688cf0de99f147a9a56da1b9d66b",
            "eea0bad86f39566548e6f572f074c85a6e3ac0378210dc690f712c137b61d1cb",
            "1ffa950732afdd5104a7852bf4d495e127ee7921fef9d5e182a3f5bc4356b068",
        ),
    }

    @pytest.mark.parametrize("t_i", sorted(CASES))
    def test_two_step(self, t_i, tmp_path, capsys):
        points = json.loads((CONFIGS / "fig1.json").read_text())["points"]
        if t_i == 80.0:
            points["A"] = points["F"]
        protocol = {"kind": "two-step", "t_i": t_i}
        cfg = write_config(tmp_path, {"schema": 1, "points": points, "protocol": protocol})
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "--config", cfg, "--output", str(out_dir), "simulate", "--with-baseline"
        )
        assert code == 0
        cls, *want = self.CASES[t_i]
        assert json.loads(out)["classification"]["class"] == cls
        names = ("two-step_result.json", "two-step_trajectory.csv", "two-step_direct_trajectory.csv")
        assert [hashlib.sha256(out.encode()).hexdigest()] + [
            hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names
        ] == want


class TestWriterFastPath:
    """Each route has one writer path: on the kernel route the kernel's writer
    writes every row of the figure trajectories and none goes to ``%``, under
    ``python_route`` ``%`` writes every row."""

    CASES = pytest.mark.parametrize(
        "config, command, files",
        [("fig1", ["simulate"], 4), ("fig2_k0035", ["simulate", "--with-baseline"], 2)],
    )

    def written(self, capsys, monkeypatch, tmp_path, config, command):
        """Runs the command; the rows its trajectory CSVs hold, the rows that
        the kernel's writer wrote, and per file whether it went to ``%``."""
        from pontus import _stepper, dynamics

        kernel, rows, by_percent = _stepper._kernel, [], []
        csv_rows = dynamics._csv_rows

        def counted(*args):
            rows.append(args[3])  # the block's row count
            return kernel.csv_rows(*args)

        def spied(columns, found):
            by_percent.append(found is None)
            return csv_rows(columns, found)

        if isinstance(kernel, _stepper.Kernel):
            monkeypatch.setattr(_stepper, "_kernel", kernel._replace(csv_rows=counted))
        monkeypatch.setattr(dynamics, "_csv_rows", spied)
        code, _, _ = run_cli(
            capsys, "--config", str(CONFIGS / f"{config}.json"), "--output", str(tmp_path),
            *command,
        )
        assert code == 0
        paths = list(tmp_path.glob("*_trajectory.csv"))
        return sum(len(p.read_bytes().splitlines()) - 1 for p in paths), sum(rows), by_percent

    @CASES
    def test_no_value_takes_the_fallback(
        self, config, command, files, tmp_path, capsys, monkeypatch
    ):
        from pontus import dynamics

        if dynamics.ramp_kernel() is None:
            pytest.skip("no compiled kernel loads here")
        total, by_kernel, by_percent = self.written(capsys, monkeypatch, tmp_path, config,
                                                    command)
        assert total > 1000 and by_kernel == total and by_percent == [False] * files

    @CASES
    def test_python_route_formats_every_row_by_percent(
        self, config, command, files, tmp_path, capsys, monkeypatch, python_route
    ):
        total, by_kernel, by_percent = self.written(capsys, monkeypatch, tmp_path, config,
                                                    command)
        assert total > 1000 and by_kernel == 0 and by_percent == [True] * files


class TestGainMap:
    def test_small_map(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "sweep": {
                    "kind": "kappa-omega",
                    "rates_s": [0.75, 0.75, 0.75],
                    "rates_f": [0.05, 0.1, 0.15],
                    "h": [1.0, 0.0, 0.0],
                    "kappa": {"min": 0.1, "max": 10.0, "n": 3},
                    "omega": {"min": 0.0, "max": 1.0, "n": 2},
                    "label": "mini",
                },
            },
        )
        code, _, err = run_cli(
            capsys, "--config", cfg, "--output", str(tmp_path), "--jobs", "1",
            "gain-map",
        )
        assert code == 0
        lines = (tmp_path / "mini_gainmap.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2
        side = json.loads((tmp_path / "mini_gainmap.json").read_text())
        assert side["csv_file"] == "mini_gainmap.csv"
        assert len(side["boundary"]) == 3

    @pytest.mark.parametrize("route", ["kernel", "python"])
    def test_outputs_byte_identical_across_threads(self, tmp_path, capsys, request, route,
                                                   monkeypatch):
        """A 4x4 fig5a map, with ball-violation and inconclusive cells, writes
        the same bytes and messages at --jobs 1, 2 and 3, on both routes,
        while the interpreter switches threads every microsecond; three CPUs
        are reported, so that --jobs 3 runs three threads."""
        if route == "python":
            request.getfixturevalue("python_route")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        sweep = omega_sweep(kappa={"min": 0.01, "max": 10.0, "n": 4},
                            omega={"min": 0.0, "max": 1.5, "n": 4}, label="threads")
        cfg = write_config(tmp_path, {"schema": 1, "sweep": sweep})
        outputs, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in (1, 2, 3):
                out = tmp_path / f"jobs{jobs}"
                code, stdout, stderr = run_cli(capsys, "--config", cfg, "--output", str(out),
                                               "--jobs", str(jobs), "gain-map")
                files = {path.name: path.read_bytes() for path in out.iterdir()}
                outputs.append((code, stdout, stderr.replace(str(out), "OUT"), files))
        finally:
            sys.setswitchinterval(interval)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        side = json.loads(outputs[0][3]["threads_gainmap.json"])
        assert set(side["status_counts"]) == {"ok", "ball-violation"}
        csv = outputs[0][3]["threads_gainmap.csv"].decode()
        rows = [line.split(",") for line in csv.splitlines()]
        assert "true" in {row[rows[0].index("inconclusive")] for row in rows[1:]}

    def test_default_jobs_follow_cpu_affinity(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr("pontus.sweep.ThreadPoolExecutor", no_pool)
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "sweep": {
                    "kind": "kappa-theta",
                    "rates_s": [0.75, 0.75, 0.75],
                    "rates_f": [0.05, 0.1, 0.15],
                    "kappa": {"min": 1.0, "max": 10.0, "n": 2},
                    "theta": {"min": 0.5, "max": 1.0, "n": 2},
                    "label": "one",
                },
            },
        )
        code, _, _ = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "gain-map")
        assert code == 0
        side = json.loads((tmp_path / "one_gainmap.json").read_text())
        assert side["status_counts"] == {"ok": 4}

    def test_each_call_follows_its_own_affinity(self, tmp_path, capsys, monkeypatch):
        # the parser is built once per process; --jobs resolves on each call
        workers = []

        class Pool:  # runs the cells in this process, recording its size
            def __init__(self, n):
                workers.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("pontus.sweep.ThreadPoolExecutor", Pool)
        monkeypatch.setattr("pontus.sweep.ramp_kernel", lambda: "a kernel")  # threads need one
        cfg = write_config(tmp_path, {"schema": 1, "sweep": theta_sweep(label="two")})
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr("os.sched_getaffinity", lambda pid, c=cpus: c, raising=False)
            code, _, _ = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "gain-map")
            assert code == 0
        assert workers == [3]

    def test_failed_cells_still_exit_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "sweep": {
                    "kind": "kappa-theta",
                    "rates_s": [0.75, 0.75, 0.75],
                    "rates_f": [0.0, 0.0, 0.0],
                    "kappa": {"min": 0.1, "max": 1.0, "n": 2},
                    "theta": {"min": 0.5, "max": 1.0, "n": 2},
                    "label": "sing",
                },
            },
        )
        code, _, err = run_cli(
            capsys, "--config", cfg, "--output", str(tmp_path), "--jobs", "1",
            "gain-map",
        )
        assert code == 0
        rows = (tmp_path / "sing_gainmap.csv").read_text().splitlines()[1:]
        assert all("direct-singular-generator" in r for r in rows)

    def test_direct_timeout_marks_its_columns(self, tmp_path, capsys):
        # under a cap of 5 no column's direct run settles
        sweep = theta_sweep(kappa={"min": 1.0, "max": 100.0, "n": 2}, label="capped")
        cfg = write_config(tmp_path, {"schema": 1, "sweep": sweep})
        code, _, _ = run_cli(
            capsys, "--config", cfg, "--output", str(tmp_path), "--jobs", "1", "--t-cap", "5",
            "gain-map",
        )
        assert code == 0
        side = json.loads((tmp_path / "capped_gainmap.json").read_text())
        assert side["status_counts"] == {"direct-timeout": 4}
        rows = [r.split(",") for r in (tmp_path / "capped_gainmap.csv").read_text().splitlines()[1:]]
        assert [(r[2], r[4], r[8]) for r in rows] == [("nan", "nan", "direct-timeout")] * 4


class TestNmCommands:
    CFG = {
        "schema": 1,
        "nm": {
            "rates_s": [0.5, 0.1, 0.0],
            "rates_f": [0.1, 0.5, 0.0],
            "kappa": 0.1,
            "omega": 1.0,
            "kappa_grid": {"min": 0.05, "max": 0.5, "n": 4},
        },
    }

    def test_measure_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CFG)
        code, out, _ = run_json(capsys, "--config", cfg, "nm-measure")
        assert code == 0
        plus = out["channels"][0]
        assert plus["channel"] == "plus"
        assert plus["n_intervals"] == 2
        assert plus["f_value"] > 0
        assert abs(plus["f_value"] - plus["f_quadrature"]) < 1e-8
        # the rates of the minus channel rise toward the target: Markovian
        assert out["channels"][1]["f_value"] == 0.0
        assert out["f_total"] == pytest.approx(plus["f_value"])

    def test_measure_zero_at_zero_omega(self, tmp_path, capsys):
        payload = json.loads(json.dumps(self.CFG))
        payload["nm"]["omega"] = 0.0
        cfg = write_config(tmp_path, payload)
        code, out, _ = run_json(capsys, "--config", cfg, "nm-measure")
        assert code == 0
        assert out["f_total"] == 0.0
        assert all(c["f_value"] == 0.0 for c in out["channels"])

    def test_measure_vanishing_final_rate(self, tmp_path, capsys):
        # every negative lobe of the plus channel is a window: the report lists
        # those before the truncation horizon, the measure sums all of them
        payload = json.loads(json.dumps(self.CFG))
        payload["nm"]["rates_f"] = [0.0, 0.5, 0.0]
        code, out, _ = run_json(capsys, "--config", write_config(tmp_path, payload), "nm-measure")
        assert code == 0
        plus = out["channels"][0]
        horizon = truncation_horizon(0.5, 0.1)
        assert plus["n_intervals"] == len(plus["intervals"]) == 47
        assert plus["intervals"][-1][0] < horizon <= plus["intervals"][-1][0] + 2 * math.pi
        q = 0.1 * math.pi
        series = 0.5 / (0.01 + 1.0) * math.exp(-q / 2) / (1 - math.exp(-q))
        assert plus["f_value"] == pytest.approx(series, rel=1e-13)
        assert plus["f_quadrature"] == pytest.approx(series, abs=1e-8)

    def test_measure_a_channel_that_barely_moves(self, tmp_path, capsys):
        # |dg| = 1e-14 lies below kappa * 1e-12, so the channel has no tail to
        # truncate and is integrated over the horizon of a channel with dg = 0
        payload = json.loads(json.dumps(self.CFG))
        payload["nm"].update(rates_s=[0.3, 0.2, 0.1], rates_f=[0.29999999999999, 0.2, 0.1])
        code, out, _ = run_json(capsys, "--config", write_config(tmp_path, payload), "nm-measure")
        assert code == 0
        plus, minus = out["channels"][:2]
        assert plus["f_quadrature"] == nm_measure_quadrature(0.3, 0.29999999999999, 0.1, 1.0, 1.0)
        assert minus["f_quadrature"] == nm_measure_quadrature(0.2, 0.2, 0.1, 1.0, 1.0)
        assert out["f_total"] == 0.0

    # sha256 of the stdout, recorded before the quadrature took channel rates
    MEASURE_SHA256 = "e4ef7c25a440015123a42bb9115dc862061a9489d47204ec1e7f12620fa26a26"

    @pytest.mark.parametrize("figure", ["fig5a", "fig5b"])
    def test_measure_stdout_is_pinned(self, figure, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "--config", str(CONFIGS / f"{figure}.json"), "--output", str(tmp_path),
            "nm-measure",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.MEASURE_SHA256

    def test_boundary_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CFG)
        code, out, _ = run_json(capsys, "--config", cfg, "nm-boundary")
        assert code == 0
        assert out["channels"][0]["alpha"] == pytest.approx(0.476094, abs=1e-5)
        assert out["channels"][1]["alpha"] is None
        assert "no-solution" in out["channels"][1]["note"]
        assert len(out["boundary"]) == 4


class TestVelocityField:
    def test_writes_grid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "points": PLANAR_POINTS,
                "velocity_field": {
                    "point": "F",
                    "spacing": 0.1,
                    "max_radius": 0.25,
                    "label": "ball",
                },
            },
        )
        code, _, err = run_cli(
            capsys, "--config", cfg, "--output", str(tmp_path), "velocity-field"
        )
        assert code == 0
        lines = (tmp_path / "ball_velocity.csv").read_text().splitlines()
        assert lines[0] == "rx,ry,rz,vx,vy,vz,speed"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert np.all(np.linalg.norm(data[:, :3], axis=1) < 0.25)

    def test_inline_point_matches_the_named_one(self, tmp_path, capsys):
        section = {"spacing": 0.1, "max_radius": 0.25}
        for label, point in (("named", "F"), ("inline", PLANAR_POINTS["F"])):
            cfg = write_config(
                tmp_path,
                {
                    "schema": 1,
                    "points": PLANAR_POINTS,
                    "velocity_field": dict(section, point=point, label=label),
                },
            )
            code, _, _ = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "velocity-field")
            assert code == 0
        named, inline = (tmp_path / f"{n}_velocity.csv" for n in ("named", "inline"))
        assert inline.read_bytes() == named.read_bytes()

    def test_inline_point_needs_h_and_gamma(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"schema": 1, "velocity_field": {"point": {"h": [0.0, 0.0, 1.0]}}}
        )
        code, _, err = run_cli(capsys, "--config", cfg, "--output", str(tmp_path), "velocity-field")
        assert (code, err) == (1, "config error: config.velocity_field.point: needs both h and gamma\n")
