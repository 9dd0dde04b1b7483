"""The compiled kernel library (``_stepper.c``) against the Python routes.

Both steppers must write the same step records bit for bit, take the same
counts and stop at the same time, and raise the same messages; the compiled
cell must give ``integrate``'s samples, which it takes from its own dense
output, and ``_threshold_analysis``'s results, with one stepped run and no
Python analysis unless it declines, whatever the chunks its records come in,
and with a gain-map cell's memory bounded whatever its run's length; the
compiled non-Markov measure must give ``_non_markovian``'s, and the compiled
CSV rows the ``%`` rows.  The loader must fall back to the Python routes, and
say so, wherever no checked kernel loads.  It binds exactly the functions
that the source exports, each with one argument type per C parameter, and
the source compiles without a warning.  The loader keys its cache by each of
the source, the command, the interpreter and the machine, removes the
libraries of other keys, and loads once for threads that ask at once.
"""

import ctypes
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pontus import (
    BallViolation,
    BlochVector,
    ExponentialCosineSchedule,
    FieldVector,
    GridAxis,
    IntegratorConfig,
    ParameterPoint,
    PontusError,
    RateTriple,
    SingularGenerator,
    StepSizeUnderflow,
    SweepSpec,
    assemble_generator,
    integrate,
    run_continuous,
    steady_state,
)
from pontus import _measure, _stepper, dynamics, is_non_markovian, negative_intervals, nonmarkov
from pontus import protocols, sweep
from pontus.core import Trajectory, distance_evaluator
from pontus.protocols import DEFAULT_EPS, _Ramp
from pontus.sweep import _field_for_theta

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture(scope="module")
def kernel():
    """This checkout's kernel; the tests that need one skip without it."""
    function = dynamics.ramp_kernel()
    if function is None:
        pytest.skip("no compiled kernel loads here")
    return function


def ramp_args(sched, stop, y, t_bound, rtol, atol=1e-10):
    """The steppers' one argument tuple for a run under ``sched``."""
    return (sched.coefficients, sched.kappa, sched.omega, sched._dg_max,
            stop, y, t_bound, rtol, atol)


def both_routes(kernel, args):
    """(Python, kernel) results of one argument tuple, each (records,
    t_final, stopped, nfev, n_rejected) with the records as bytes, or the
    exception message."""
    out = []
    for run in (
        lambda: dynamics._dormand_prince(*args),
        lambda: dynamics._compiled_steps(kernel, *args),
    ):
        try:
            steps, *rest = run()
        except (BallViolation, StepSizeUnderflow) as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        out.append((None if steps is None else memoryview(steps).tobytes(), *rest))
    return out


def random_case(rng):
    """A ramp with kappa log-uniform in [1e-3, 1e3] and omega in [0, 3]; some
    rate channels zero and some fields along an axis, whose precession
    entries are then +-0.0."""
    def rates():
        g = rng.uniform(0.0, 1.5, 3)
        g[rng.random(3) < 0.3] = 0.0
        return RateTriple.from_array(g)

    h = rng.uniform(-1.5, 1.5, 3)
    if rng.random() < 0.4:
        axis = rng.integers(3)
        h = np.where(np.arange(3) == axis, h, rng.choice([0.0, -0.0], 3))
    sched = ExponentialCosineSchedule(
        rates(), rates(), FieldVector.from_array(h),
        float(10 ** rng.uniform(-3, 3)), float(rng.uniform(0, 3)),
    )
    r0 = rng.normal(size=3)
    r0 *= rng.uniform(0, 1) / np.linalg.norm(r0)
    try:
        target = steady_state(assemble_generator(ParameterPoint(sched.h, sched.gamma_f)))
        target = target.as_array()
    except SingularGenerator:
        target = np.zeros(3)
    return sched, r0.tolist(), target.tolist()


def seeded_runs():
    """240 seeded ramps, each with a stop-rule run (cap 40) and a t_end run,
    at rel_tol 1e-9 and 1e-12 in turn: (index, schedule, stop, y, t_bound,
    rtol) of each run."""
    rng = np.random.default_rng(23)
    for i in range(240):
        sched, y, target = random_case(rng)
        eps = float(10 ** rng.uniform(-4, -1))
        stop = (target, eps / 10.0, eps)
        tols = ((1e-9, 1e-12), (1e-12, 1e-9), (1e-9, 1e-9), (1e-12, 1e-12))[i % 4]
        for run_stop, t_bound, rtol in ((stop, 40.0, tols[0]),
                                        (None, float(rng.uniform(0.5, 8)), tols[1])):
            yield i, sched, run_stop, y, t_bound, rtol


class TestBitwiseAgainstPython:
    def test_seeded_ramps(self, kernel):
        seen = {"stopped": 0, "capped": 0, "rejected": 0}
        for i, sched, stop, y, t_bound, rtol in seeded_runs():
            want, got = both_routes(kernel, ramp_args(sched, stop, y, t_bound, rtol))
            assert got == want, (i, sched, stop is None)
            if want[0] not in ("BallViolation", "StepSizeUnderflow") and stop:
                seen["stopped" if want[2] else "capped"] += 1
                seen["rejected"] += want[4] > 0
        assert all(seen.values()), seen

    def test_resumes_across_a_full_buffer(self, kernel, monkeypatch):
        monkeypatch.setattr(dynamics, "_CHUNK", 7)
        rng = np.random.default_rng(7)
        for _ in range(10):
            sched, y, target = random_case(rng)
            stop = (target, 1e-4, 1e-3)
            for run_stop, t_bound in ((stop, 30.0), (None, 5.0)):
                want, got = both_routes(kernel, ramp_args(sched, run_stop, y, t_bound, 1e-9))
                assert got == want

    def test_trajectories_on_both_routes(self, kernel, monkeypatch):
        """``integrate`` of the seeded runs: the same samples and the same
        counts, ``n_accepted`` included, on both routes, or the same
        exception."""
        def cases():
            for i, sched, stop, y, t_bound, rtol in seeded_runs():
                target, eps = (stop[0], stop[2]) if stop else ([0.0, 0.0, 0.0], 1e-4)
                cfg = IntegratorConfig(rel_tol=rtol, t_cap=t_bound if stop else 1e4)
                yield (sched, BlochVector(*y), BlochVector(*target), cfg, eps,
                       None if stop else t_bound)

        def run(case):
            try:
                traj = integrate(*case)
            except PontusError as exc:
                return type(exc).__name__, str(exc)
            return (traj.t.tobytes(), traj.r.tobytes(), traj.timed_out, traj.nfev,
                    traj.n_accepted, traj.n_rejected)

        runs = list(cases())
        got = [run(case) for case in runs]
        monkeypatch.setattr(_stepper, "kernel", lambda check: None)
        want = [run(case) for case in runs]
        for case, g, w in zip(runs, got, want):
            assert g == w, case
        assert sum(len(w) == 6 and w[4] > 0 for w in want) > 400

    def test_settled_at_start(self, kernel):
        sched = ExponentialCosineSchedule(RateTriple(0.5, 0.1, 0.0), RateTriple(0.5, 0.1, 0.0),
                                          FieldVector(1.0, 0.0, 0.0), 0.5, 1.0)
        stop = ([0.0, 0.0, 0.0], 0.1, 1.0)
        want, got = both_routes(kernel, ramp_args(sched, stop, [0.0, 0.0, 0.01], 10.0, 1e-9))
        assert got == want == (None, 0.0, True, 0, 0)

    # the 24 ball-violation cells of configs/fig5a.json's 30x30 map, as
    # (kappa index, omega index) into its log and linear axes
    FIG5A_BALL_CELLS = (
        [(0, j) for j in range(2, 10)] + [(1, j) for j in range(2, 10)]
        + [(2, j) for j in range(3, 9)] + [(3, 5), (3, 6)]
    )

    def test_fig5a_ball_violation_messages(self, kernel):
        kappas = np.geomspace(0.01, 100.0, 30)
        omegas = np.linspace(0.0, 2.0, 30)
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))
        r0 = steady_state(assemble_generator(s)).as_array().tolist()
        target = steady_state(assemble_generator(f)).as_array().tolist()
        for i, j in self.FIG5A_BALL_CELLS:
            sched = ExponentialCosineSchedule(s.gamma, f.gamma, s.h, kappas[i], omegas[j])
            stop = (target, DEFAULT_EPS / 10.0, DEFAULT_EPS)
            want, got = both_routes(kernel, ramp_args(sched, stop, r0, 1e4, 1e-9))
            assert want[0] == "BallViolation" and got == want, (i, j)

    def test_zero_slope_start(self, kernel):
        """Equal pumping rates at both ends: no forcing, both attractors at the
        centre, and a run from there has zero slope, so its first step is the
        floor of 1e-6 and every state and stage stays zero."""
        sched = ExponentialCosineSchedule(RateTriple(0.3, 0.3, 0.1), RateTriple(0.2, 0.2, 0.0),
                                          FieldVector(1.0, 0.0, 0.5), 0.5, 1.0)
        want, got = both_routes(kernel, ramp_args(sched, None, [0.0, 0.0, 0.0], 2.0, 1e-9))
        assert got == want
        steps = np.frombuffer(want[0]).reshape(-1, dynamics._RECORD)
        assert steps[0, 1] == 1e-6 and not steps[:, 2:].any()

    def test_underflow_message(self, kernel):
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))
        sched = ExponentialCosineSchedule(s.gamma, f.gamma, s.h, 0.5, 1.0)
        r0 = steady_state(assemble_generator(s)).as_array().tolist()
        target = steady_state(assemble_generator(f)).as_array().tolist()
        stop = (target, DEFAULT_EPS / 10.0, DEFAULT_EPS)
        want, got = both_routes(kernel, ramp_args(sched, stop, r0, 50.0, 100 * dynamics._EPS,
                                                  atol=1e-300))
        assert got == want == ("StepSizeUnderflow", dynamics._UNDERFLOW)


class TestDenseOutput:
    def test_known_answer_check_covers_the_evaluator(self, kernel, generator_calls):
        def one_ulp_off(function, out):
            def wrong(*args):
                code = function(*args)
                if args[out] is not None:  # the first state's x
                    first = ctypes.c_double.from_address(args[out])
                    first.value = math.nextafter(first.value, math.inf)
                return code
            return wrong

        assert dynamics._kernel_agrees(kernel)
        assert not dynamics._kernel_agrees(kernel._replace(cell=one_ulp_off(kernel.cell, -3)))
        assert generator_calls == []  # so perfbench's traced counts repeat


def analysis_cases():
    """(schedule, r0, target, cfg, eps) of a gain-map cell's run: the seeded
    ramps' stop-rule runs (cap 40) at the strides 0.05, 0.037 and 0.2 in
    turn; the cells of configs fig4a, fig4b, fig5a and fig5b on a 12x12 grid
    of their axes; a run settled at t = 0; and 12 seeded pure states that
    precess at zero rates."""
    for i, sched, stop, y, t_bound, rtol in seeded_runs():
        if stop is not None:
            target, _, eps = stop
            stride = (0.05, 0.037, 0.2)[i % 3]
            cfg = IntegratorConfig(rel_tol=rtol, t_cap=t_bound, sample_stride=stride)
            yield sched, BlochVector(*y), BlochVector(*target), cfg, eps
    for name in ("fig4a", "fig4b", "fig5a", "fig5b"):
        section = json.loads((ROOT / "configs" / f"{name}.json").read_text())["sweep"]
        second = section["kind"].removeprefix("kappa-")
        kappas = np.geomspace(section["kappa"]["min"], section["kappa"]["max"], 12)
        for x in np.linspace(section[second]["min"], section[second]["max"], 12):
            h = FieldVector(*section["h"]) if second == "omega" else _field_for_theta(x)
            s, f = (ParameterPoint(h, RateTriple(*section[k])) for k in ("rates_s", "rates_f"))
            ramp = _Ramp(s, f, DEFAULT_EPS, IntegratorConfig())
            omega = float(x) if second == "omega" else 0.0
            for kappa in kappas:
                sched = ExponentialCosineSchedule(s.gamma, f.gamma, h, float(kappa), omega)
                yield sched, ramp.r0, ramp.target, ramp.cfg, ramp.eps
    sched = ExponentialCosineSchedule(RateTriple(0.5, 0.1, 0.0), RateTriple(0.5, 0.1, 0.0),
                                      FieldVector(1.0, 0.0, 0.0), 0.5, 1.0)
    yield sched, BlochVector(0.0, 0.0, 0.01), BlochVector(0.0, 0.0, 0.0), IntegratorConfig(), 1.0
    # pure states precessing at zero rates, whose samples leave the ball
    # between step ends that stay inside it
    rng, zero = np.random.default_rng(28), RateTriple(0.0, 0.0, 0.0)
    for _ in range(12):
        sched = ExponentialCosineSchedule(zero, zero, FieldVector(*rng.uniform(-1.5, 1.5, 3)),
                                          0.5, 1.0)
        r0 = rng.normal(size=3)
        cfg = IntegratorConfig(rel_tol=float(10 ** rng.uniform(-9, -6)), t_cap=40.0)
        yield sched, BlochVector(*r0 / np.linalg.norm(r0)), BlochVector(0.0, 0.0, 0.0), cfg, 0.01


def compiled_analysis(sched, r0, target, cfg, eps):
    """The compiled analysis of a run, tau None on a timeout, never
    declined."""
    traj = integrate(sched, r0, target, cfg, eps)
    if traj.timed_out:
        return None, False, 0
    assert traj.analysis is not None
    return traj.analysis


def python_analysis(sched, r0, target, cfg, eps):
    """``integrate`` and ``_threshold_analysis`` of a run, tau None on a
    timeout, and the number of intervals that the refined series splits."""
    traj = integrate(sched, r0, target, cfg, eps)
    if traj.timed_out:
        return (None, False, 0), 0
    refined = len(dynamics._refined_threshold_series(traj, eps)[0]) - len(traj.t)
    return dynamics._threshold_analysis(traj, eps), refined // 8


def outcome(run):
    """(tau as hex or None, inconclusive, crossings) of ``run()``, or its
    exception's type and message."""
    try:
        tau, inconclusive, crossings = run()
    except PontusError as exc:
        return type(exc).__name__, str(exc)
    return None if tau is None else tau.hex(), inconclusive, crossings


def nan_record_cases(kernel):
    """(schedule, stop, y, steps, t_final, stopped) of every eighth seeded
    stop-rule run, its records altered at the steps of two distinct samples:
    one gets a NaN stage, the other a start far outside the ball."""
    rng = np.random.default_rng(30)
    for i, sched, stop, y, t_bound, rtol in seeded_runs():
        if stop is None or i % 8:
            continue
        try:
            steps, t, stopped, *_ = dynamics._compiled_steps(
                kernel, *ramp_args(sched, stop, y, t_bound, rtol))
        except (BallViolation, StepSizeUnderflow):
            continue
        if steps is None or len(steps) < 6:
            continue
        k = np.searchsorted(steps[:, 0], rng.choice(np.arange(0.0, t, 0.05), 2, False)) - 1
        if k[0] == k[1]:
            continue
        steps = steps.copy()
        steps[max(k[0], 0), 5 + rng.integers(18)] = math.nan
        steps[max(k[1], 0), 2:5] = (2.0, 0.0, 0.0)
        yield sched, stop, y, steps, t, stopped


def whole_record_cell(kernel, args, stride):
    """(stopped, worst, found) of a cell's run from all its records at once,
    as ``integrate`` analyses them (``_samples``)."""
    steps, t, stopped, *_ = dynamics._compiled_steps(kernel, *args)
    if steps is None:
        return True, 0.0, (0.0, False, 0)
    ts = dynamics._sample_times(t, stride)
    _, _, worst, found = dynamics._samples(kernel, steps, t, stopped, len(ts), *args[1:4], args[4],
                                           stride)
    return stopped, worst, found


def cell_outcome(run):
    """(stopped, worst as hex, found with its tau as hex) of ``run()``, or its
    exception's type and message."""
    try:
        stopped, worst, found = run()
    except PontusError as exc:
        return type(exc).__name__, str(exc)
    return stopped, worst.hex(), found and (found[0].hex(), *found[1:])


class TestCellAnalysis:
    def test_matches_the_python_route(self, kernel, monkeypatch):
        cases = list(analysis_cases())
        got = [outcome(lambda c=c: compiled_analysis(*c)) for c in cases]
        monkeypatch.setattr(_stepper, "kernel", lambda check: None)
        refined = {}

        def python(case):
            found, refined[id(case)] = python_analysis(*case)
            return found

        want = [outcome(lambda c=c: python(c)) for c in cases]
        seen = Counter()
        for case, g, w in zip(cases, got, want):
            assert g == w, case
            if w[0] == "BallViolation":
                seen["sampled ball violation"] += "max sampled" in w[1]
            elif w[0] is None:
                seen["timeout"] += 1
            elif w[0] == (0.0).hex():
                seen["settled at t = 0"] += w[2] == 0
            else:
                seen["refined"] += refined[id(case)] > 0
                seen["several crossings"] += w[2] > 1
                seen["inconclusive"] += w[1]
        assert len(seen) == 6 and all(seen.values()), seen

    @pytest.mark.parametrize("chunk", [8, 64, dynamics._CHUNK])
    def test_chunked_runs_equal_the_whole_records(self, kernel, chunk, monkeypatch):
        """Every case's run, analysed as its records come ``chunk`` at a
        time, equals the analysis of all its records at once, bit for bit,
        worst |r| and exceptions included; so runs of several chunks, and of
        chunks that double where the records kept fill half of them."""
        calls = []
        cell, buffer = dynamics._cell, dynamics._record_buffer

        def counted(*args):
            calls.append("chunk")
            return cell(*args)

        def recording(rows, keep=None):
            calls.append("grown" if keep is not None else "buffer")
            return buffer(rows, keep)

        monkeypatch.setattr(dynamics, "_cell", counted)
        monkeypatch.setattr(dynamics, "_record_buffer", recording)
        seen = Counter()
        for sched, r0, target, cfg, eps in analysis_cases():
            args = dynamics._ramp_args(sched, r0, target, cfg, eps)
            want = cell_outcome(lambda: whole_record_cell(kernel, args, cfg.sample_stride))
            calls.clear()
            got = cell_outcome(lambda: dynamics._compiled_cell(kernel, args, cfg.sample_stride,
                                                               chunk))
            assert got == want, (sched, cfg)
            seen[want[0]] += 1
            seen["several chunks"] += calls.count("chunk") > 1
            seen["grown"] += "grown" in calls
        assert seen[True] > 500 and seen[False] and seen["BallViolation"], seen
        assert seen["several chunks"] and (chunk > 8 or seen["grown"] > 100), seen

    def test_a_sample_exactly_at_eps(self, kernel, monkeypatch):
        """A sample whose distance equals eps counts as at or above it, as
        ``ds >= eps`` counts it: fig5a's rates at kappa 0.5, omega 2, whose
        sampled distance peaks at t = 4.85 between refined points below that
        peak, with eps set to it, which adds two crossings."""
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))
        d = _Ramp(s, f, DEFAULT_EPS, IntegratorConfig()).result(0.5, 2.0).trajectory.dist
        assert d[96] < d[97] > d[98]
        ramp = _Ramp(s, f, float(d[97]), IntegratorConfig())
        got = compiled_analysis(ExponentialCosineSchedule(s.gamma, f.gamma, s.h, 0.5, 2.0),
                                ramp.r0, ramp.target, ramp.cfg, ramp.eps)
        monkeypatch.setattr(_stepper, "kernel", lambda check: None)
        res = ramp.result(0.5, 2.0)
        ts, ds = dynamics._refined_threshold_series(res.trajectory, ramp.eps)
        k = int(np.flatnonzero(ts == res.trajectory.t[97])[0])
        assert list(ds[k - 1:k + 2] >= ramp.eps) == [False, True, False]
        assert ds[k] == ramp.eps and res.n_threshold_crossings == 4
        assert (got[0].hex(), *got[1:]) == (res.tau.hex(), res.inconclusive,
                                            res.n_threshold_crossings)

    def test_nan_samples_follow_numpy(self, kernel):
        """Step records with a NaN stage and records whose states leave the
        ball: the largest sampled |r| is NaN, as ``np.max`` gives it, so no
        BallViolation, and NaN distances never refine or count as above eps."""
        runs = 0
        for sched, stop, _, steps, t, stopped in nan_record_cases(kernel):
            ts = dynamics._sample_times(t, 0.05)
            _, _, worst, found = dynamics._samples(kernel, steps, t, stopped, len(ts), sched.kappa,
                                                   sched.omega, sched._dg_max, stop, 0.05)
            dense = dynamics._DenseOutput(steps, t)
            assert math.isnan(worst) and math.isnan(np.max(np.linalg.norm(dense(ts), axis=1)))
            target, _, eps = stop
            traj = Trajectory(ts, dense(ts), None, BlochVector(*target),
                              distance_evaluator(dense, np.array(target)),
                              timed_out=not stopped, envelope=sched.envelope)
            if not stopped:
                assert found is None
                continue
            try:
                want = dynamics._threshold_analysis(traj, eps)
            except (ValueError, RuntimeError):  # brentq met a NaN: the kernel declines
                assert found is None
                continue
            assert (found[0].hex(), *found[1:]) == (want[0].hex(), *want[1:])
            runs += 1
        assert runs > 5

    def test_a_declined_analysis_raises_the_python_message(self, kernel, monkeypatch):
        """A cell whose NaN records fail the kernel's root search records the
        Python route's error, from the samples of its run stepped again with
        its records kept."""
        declined = 0
        for sched, stop, y, steps, t, stopped in list(nan_record_cases(kernel)):
            target, _, eps = stop
            ramp = object.__new__(_Ramp)  # the set-up of this run's start and target
            r0, tgt, cfg = BlochVector(*y), BlochVector(*target), IntegratorConfig()
            vars(ramp).update(schedule=sched, r0=r0, target=tgt, eps=eps, cfg=cfg,
                              args=dynamics._ramp_args(sched, r0, tgt, cfg, eps))
            column = (ramp, sched.gamma_s.as_array(), sched.gamma_f.as_array(), None)
            task, calls = (sched.kappa, sched.omega, column, 20.0), []

            def stepper(kernel, *args):
                """A compiled stepper that writes these records."""
                calls.append(1)
                state, left = np.zeros(16), [steps]

                def resume(rows):
                    part, left[0] = left[0][: len(rows)], left[0][len(rows):]
                    rows[: len(part)], state[0] = part, t
                    return 2 if len(left[0]) else 1 if stopped else 0, len(part)

                return resume, state

            def records(*args):
                return steps, t, stopped, 0, 0

            monkeypatch.setattr(dynamics, "_resumable", stepper)
            got, stepped = sweep._cell(task), len(calls)
            with monkeypatch.context() as python:
                python.setattr(_stepper, "kernel", lambda check: None)
                python.setattr(dynamics, "_dormand_prince", records)
                want = sweep._cell(task)
            if want[5].startswith("error:"):
                assert (got[5:], stepped) == (want[5:], 2)
                declined += 1
        assert declined > 0

    def test_sub_stride_double_crossing_is_missed_on_both_routes(self, kernel, monkeypatch):
        """The fig5a cell at kappa = 0.0189, omega = 1.241 crosses 21 times at
        the stride 0.005, and its refinement rule finds 19 at 0.05: the
        compiled analysis repeats that rule, not an exact count."""
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))
        kappa, omega = float(np.geomspace(0.01, 100.0, 30)[2]), float(np.linspace(0.0, 2.0, 30)[18])
        ramp = _Ramp(s, f, DEFAULT_EPS, IntegratorConfig())
        got = compiled_analysis(ExponentialCosineSchedule(s.gamma, f.gamma, s.h, kappa, omega),
                                ramp.r0, ramp.target, ramp.cfg, ramp.eps)
        monkeypatch.setattr(_stepper, "kernel", lambda check: None)
        res = ramp.result(kappa, omega)
        assert res.n_threshold_crossings == got[2] == 19
        assert (res.tau.hex(), res.inconclusive) == (got[0].hex(), got[1])
        fine = _Ramp(s, f, DEFAULT_EPS, IntegratorConfig(sample_stride=0.005)).result(kappa, omega)
        assert fine.n_threshold_crossings == 21

    def test_a_cell_whose_samples_leave_the_ball(self, kernel):
        """The pure states that precess at zero rates (the last 12 cases) whose
        samples leave the ball while their step ends do not, each run as a
        gain-map cell on a set-up of its start and target, which no steady
        state gives: the cell's sampled check raises ``_Ramp.result``'s
        message, and the cell records ball-violation."""
        seen = 0
        for sched, r0, target, cfg, eps in list(analysis_cases())[-12:]:
            ramp = object.__new__(_Ramp)
            ramp.schedule = replace(sched, kappa=0.0, omega=0.0)
            ramp.r0, ramp.target, ramp.cfg, ramp.eps = r0, target, cfg, eps
            ramp.args = dynamics._ramp_args(ramp.schedule, r0, target, cfg, eps)
            try:
                ramp.result(sched.kappa, sched.omega)
            except BallViolation as exc:
                message = str(exc)
            else:
                continue
            if "max sampled" not in message:  # left the ball at a step end
                continue
            with pytest.raises(BallViolation) as got:
                ramp.run(sched.kappa, sched.omega)
            assert str(got.value) == message
            rates = sched.gamma_s.as_array(), sched.gamma_f.as_array()
            column = (ramp, *rates, nonmarkov._boundary_slopes(*rates))
            assert sweep._cell((sched.kappa, sched.omega, column, 10.0))[5] == "ball-violation"
            seen += 1
        assert seen

    def test_cells_build_no_trajectory(self, kernel, monkeypatch):
        spec = SweepSpec(RateTriple(0.75, 0.75, 0.75), RateTriple(0.05, 0.1, 0.15),
                         GridAxis.log("kappa", 0.01, 100.0, 5),
                         GridAxis.linear("omega", 0.0, 2.0, 5), FieldVector(1.0, 0.0, 0.0))
        s, f = (ParameterPoint(spec.h, rates) for rates in (spec.rates_s, spec.rates_f))
        slopes = nonmarkov._boundary_slopes(spec.rates_s.as_array(), spec.rates_f.as_array())
        _, column = sweep._column(s, f, spec, slopes)
        tasks = [(k, w, column, 20.0)
                 for k in spec.kappa_axis.values for w in spec.second_axis.values]
        want = [sweep._cell(task) for task in tasks]

        def refuse(self, *args, **kwargs):
            raise AssertionError("a cell built a Trajectory")

        monkeypatch.setattr(Trajectory, "__init__", refuse)
        assert repr([sweep._cell(task) for task in tasks]) == repr(want)
        assert {cell[5] for cell in want} == {"ok", "ball-violation"}

    def test_ramp_runs_step_once_with_no_python_analysis(self, kernel, monkeypatch):
        """``run_continuous`` and a gain-map cell run the compiled steps and
        the cell once per run of fewer steps than a chunk, and
        ``_threshold_analysis`` never; a cell never keeps its records in
        ``_compiled_steps``."""
        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        analysis = counted("analysis", dynamics._threshold_analysis)
        monkeypatch.setattr(dynamics, "_threshold_analysis", analysis)
        monkeypatch.setattr(protocols, "_threshold_analysis", analysis)
        monkeypatch.setattr(dynamics, "_compiled_steps", counted("kept", dynamics._compiled_steps))
        counting = kernel._replace(steps=counted("steps", kernel.steps),
                                   cell=counted("cell", kernel.cell))
        monkeypatch.setattr(_stepper, "_kernel", counting)
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))
        runs = [run_continuous(s, f, kappa, omega, cfg=IntegratorConfig(t_cap=60.0))
                for kappa, omega in ((1.0, 0.5), (0.3, 1.5), (5.0, 0.0), (0.02, 0.0))]
        assert {res.timed_out for res in runs} == {True, False}
        assert calls == {"kept": 4, "steps": 4, "cell": 4}
        calls.clear()
        ramp = _Ramp(s, f, DEFAULT_EPS, IntegratorConfig())
        column = (ramp, s.gamma.as_array(), f.gamma.as_array(), None)
        cells = [sweep._cell((kappa, omega, column, 20.0))
                 for kappa in (0.05, 0.5, 5.0) for omega in (0.0, 0.7, 1.4)]
        assert {cell[5] for cell in cells} == {"ok"}
        assert calls == {"steps": 9, "cell": 9}

    def test_a_cell_keeps_no_records(self, kernel):
        """The kappa = 0.01, omega = 2 cell of the 12x12 fig5a grid steps
        13,183 times (2.4 MB of records), yet its run peaks below 1 MB beside
        its thread's reused buffer of records."""
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))
        ramp = _Ramp(s, f, DEFAULT_EPS, IntegratorConfig())
        kappa, omega = float(np.geomspace(0.01, 100.0, 12)[0]), float(np.linspace(0.0, 2.0, 12)[-1])
        args = dynamics._ramp_args(ExponentialCosineSchedule(s.gamma, f.gamma, s.h, kappa, omega),
                                   ramp.r0, ramp.target, ramp.cfg, ramp.eps)
        assert len(dynamics._compiled_steps(kernel, *args)[0]) == 13183
        want = ramp.run(kappa, omega)  # which also makes this thread's buffer
        tracemalloc.start()
        try:
            got = ramp.run(kappa, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and want[2] == 19
        assert peak < 1_000_000, peak

    def test_known_answer_check_covers_the_analysis(self, kernel, generator_calls):
        def one_ulp_off(*args):
            code = kernel.cell(*args)
            tau = ctypes.c_double.from_address(args[0])
            tau.value = math.nextafter(tau.value, math.inf)
            return code

        def one_crossing_less(*args):
            code = kernel.cell(*args)
            ctypes.c_double.from_address(args[0] + 16).value -= 1
            return code

        def distance_one_ulp_off(*args):
            code = kernel.cell(*args)
            if args[-2] is not None:
                first = ctypes.c_double.from_address(args[-2])
                first.value = math.nextafter(first.value, math.inf)
            return code

        def keeps_no_records(*args):
            code = kernel.cell(*args)
            if code == 2:  # a resumed run: none of its records carried over
                args[2]._obj.value = 0
            return code

        assert dynamics._kernel_agrees(kernel)
        for wrong in (one_ulp_off, one_crossing_less, lambda *args: kernel.cell(*args) or -3,
                      distance_one_ulp_off, keeps_no_records):
            assert not dynamics._kernel_agrees(kernel._replace(cell=wrong))
        assert generator_calls == []  # so perfbench's traced counts repeat

    @needs_cc
    def test_known_answer_check_refuses_a_kernel_without_the_lookahead(self, tmp_path,
                                                                       generator_calls):
        """A kernel whose crossing series refines no interval for a slope
        reversal at its end, seen only with the next sample's distance,
        misses crossings that the Python analysis counts."""
        source = _stepper.SOURCE.read_text()
        lookahead = "reverses(c->d2, c->d1, dj) || "
        assert source.count(lookahead) == 1
        mutant = tmp_path / "mutant.c"
        mutant.write_text(source.replace(lookahead, ""))
        library = tmp_path / "mutant.so"
        subprocess.run([*_stepper.COMMAND, "-o", str(library), str(mutant), "-lm"], check=True)
        assert _stepper._open(library, lambda found: True) is not None
        assert _stepper._open(library, dynamics._kernel_agrees) is None
        assert generator_calls == []  # so perfbench's traced counts repeat


def measure_cases():
    """(rates_s, rates_f, kappa, omega): the rates of configs fig4a, fig4b,
    fig5a and fig5b on a 12x12 grid of kappa in [0.01, 100] (log) and omega
    in [0, 2], then 2,000 seeded triples with kappa log-uniform in
    [1e-3, 1e3], omega in [0, 5] and a fifth of the final rates zero."""
    kappas, omegas = np.geomspace(0.01, 100.0, 12), np.linspace(0.0, 2.0, 12)
    for name in ("fig4a", "fig4b", "fig5a", "fig5b"):
        sweep = json.loads((ROOT / "configs" / f"{name}.json").read_text())["sweep"]
        for kappa in kappas:
            for omega in omegas:
                yield sweep["rates_s"], sweep["rates_f"], float(kappa), float(omega)
    rng = np.random.default_rng(29)
    for _ in range(2000):
        rates_s, rates_f = rng.uniform(0.0, 1.5, 3), rng.uniform(0.0, 1.5, 3)
        rates_f[rng.random(3) < 0.2] = 0.0
        yield rates_s, rates_f, float(10 ** rng.uniform(-3, 3)), float(rng.uniform(0.0, 5.0))


class TestMeasure:
    def test_matches_the_python_route(self, kernel, monkeypatch):
        cases = list(measure_cases())
        got = [nonmarkov._non_markovian(*case, None) for case in cases]
        compiled = [_measure.compiled_total(kernel, *case) for case in cases]
        monkeypatch.setattr(nonmarkov, "ramp_kernel", lambda: None)
        want = [nonmarkov._non_markovian(*case, None) for case in cases]
        seen = {"vanishing final rate": 0, "several windows": 0}
        for case, (flag, total), direct, (want_flag, want_total) in zip(cases, got, compiled, want):
            assert flag == want_flag and total.hex() == want_total.hex(), case
            rates_s, rates_f, kappa, omega = case
            if omega > 0:
                assert direct is not None and direct.hex() == want_total.hex(), case
                for g_s, g_f in zip(rates_s, rates_f):
                    if g_f == 0 < g_s:
                        seen["vanishing final rate"] += 1
                    elif seen["several windows"] < 20 and kappa > 0.05:
                        seen["several windows"] += len(negative_intervals(g_s, g_f, kappa, omega)) > 1
        assert seen["vanishing final rate"] > 100 and seen["several windows"] == 20, seen

    def test_declines_where_the_python_raises(self, kernel):
        negative = ((0.75, -0.1, 0.75), (0.05, 0.1, 0.15))
        assert _measure.compiled_total(kernel, *negative, 0.5, 1.0) is None
        with pytest.raises(ValueError, match="endpoint rates must be nonnegative"):
            is_non_markovian(*negative, 0.5, 1.0)
        rates = ((0.75, 0.75, 0.75), (0.05, 0.1, 0.15))
        assert _measure.compiled_total(kernel, *rates, 0.5, 1.0) is not None
        for kappa, omega in ((math.inf, 1.0), (0.5, math.nan), (0.5, -1.0), (0.5, 0.0)):
            assert _measure.compiled_total(kernel, *rates, kappa, omega) is None

    def test_known_answer_check_covers_the_measure(self, kernel, generator_calls):
        def one_ulp_off(gs, gf, n, kappa, omega, out):
            code = kernel.nm_total(gs, gf, n, kappa, omega, out)
            out._obj.value = math.nextafter(out._obj.value, math.inf)
            return code

        assert dynamics._kernel_agrees(kernel)
        assert not dynamics._kernel_agrees(kernel._replace(nm_total=one_ulp_off))
        assert not dynamics._kernel_agrees(kernel._replace(nm_total=lambda *args: -1))
        assert generator_calls == []  # so perfbench's traced counts repeat


class TestWriter:
    def test_known_answer_check_covers_the_writer(self, kernel, generator_calls):
        def one_byte_off(*args):
            size = kernel.csv_rows(*args)
            first = ctypes.c_char.from_address(args[-1])  # the block's first byte
            first.value = b"#"
            return size

        assert dynamics._kernel_agrees(kernel)
        assert not dynamics._kernel_agrees(kernel._replace(csv_rows=one_byte_off))
        assert generator_calls == []  # so perfbench's traced counts repeat


def c_exports():
    """{name: number of parameters} of each function that ``_stepper.c``
    defines without ``static``."""
    source = re.sub(r"/\*.*?\*/", "", _stepper.SOURCE.read_text(), flags=re.S)
    found = re.findall(r"^(?!static\b)\w[\w \t*]*?\b(\w+)\(([^()]*)\)\s*\{", source, re.M)
    return {name: len(params.split(",")) for name, params in found}


def test_the_loader_binds_every_exported_function():
    """The functions that ``_stepper.c`` exports are exactly those that
    ``_stepper._open`` binds, one per ``Kernel`` field, so none is left
    exported unused."""
    bound = re.findall(r"\blibrary\.(\w+)", Path(_stepper.__file__).read_text())
    assert sorted(c_exports()) == sorted(bound)
    assert len(bound) == len(_stepper.Kernel._fields) == 4


def test_each_bound_function_takes_its_c_parameters(kernel):
    """Each bound function has one ``argtypes`` entry per parameter of its C
    definition, so a parameter added or removed on one side only fails
    here."""
    assert {function.__name__: len(function.argtypes) for function in kernel} == c_exports()


def test_the_record_width_is_the_python_one():
    """``_stepper.c``'s RECORD, the doubles of one step record, is
    ``dynamics._RECORD``, so the kernel and the Python read one layout."""
    widths = re.findall(r"enum \{ RECORD = (\d+) \};", _stepper.SOURCE.read_text())
    assert widths == [str(dynamics._RECORD)]


def test_a_failed_root_search_raises_the_python_message():
    """``_run_end`` of a run whose kernel root search failed (code -4) makes
    the Python search on the run's last record, and raises its error where
    the stop function keeps its sign across that record."""
    sched = ExponentialCosineSchedule(RateTriple(0.5, 0.1, 0.0), RateTriple(0.1, 0.5, 0.0),
                                      FieldVector(1.0, 0.0, 0.5), 0.5, 1.0)
    steps, *_ = dynamics._dormand_prince(*ramp_args(sched, None, [0.0, 0.0, 0.3], 2.0, 1e-9))
    stop = ([5.0, 0.0, 0.0], 1e-5, 1e-4)  # a target far outside: the gap stays positive
    state = np.zeros(16)
    state[14] = steps[1, 0]  # where the first record ends
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
        dynamics._run_end(-4, state, steps[:1], ramp_args(sched, stop, [0.0, 0.0, 0.3], 2.0, 1e-9))


@needs_cc
def test_source_compiles_without_warnings(tmp_path):
    result = subprocess.run(
        [*_stepper.COMMAND, "-Wall", "-Wextra", "-Wpedantic", "-Werror",
         "-o", str(tmp_path / "kernel.so"), str(_stepper.SOURCE), "-lm"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


class TestRoutes:
    def test_a_ramp_takes_the_kernel(self, kernel, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Python stepper ran")

        monkeypatch.setattr(dynamics, "_dormand_prince", refuse)
        sched = ExponentialCosineSchedule(RateTriple(0.5, 0.1, 0.0), RateTriple(0.01, 0.05, 0.0),
                                          FieldVector(0.707, 0.707, 0.0), 0.2, 0.5)
        r0 = steady_state(assemble_generator(ParameterPoint(sched.h, sched.gamma_s)))
        target = steady_state(assemble_generator(ParameterPoint(sched.h, sched.gamma_f)))
        assert integrate(sched, r0, target, IntegratorConfig(), 1e-4).n_accepted > 0

    def test_a_cell_with_no_kernel_reads_the_result(self, python_route):
        """With no kernel, ``_Ramp.run`` gives ``result``'s tau,
        inconclusive flag and crossing count bit for bit, or raises its
        exception: on a timeout, a run settled at t = 0, a run that crosses
        eps and a ball violation."""
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))
        ramp = _Ramp(s, f, DEFAULT_EPS, IntegratorConfig())
        cases = {
            "timeout": (_Ramp(s, f, DEFAULT_EPS, IntegratorConfig(t_cap=5.0)), 0.02, 0.0),
            "settled": (_Ramp(f, f, DEFAULT_EPS, IntegratorConfig()), 0.5, 1.0),
            "crossing": (ramp, 1.0, 0.5),
            "ball": (ramp, 0.01, float(np.linspace(0.0, 2.0, 30)[2])),
        }

        def result(ramp, kappa, omega):
            res = ramp.result(kappa, omega)
            return res.tau, res.inconclusive, res.n_threshold_crossings

        got = {name: outcome(lambda: ramp.run(k, w)) for name, (ramp, k, w) in cases.items()}
        want = {name: outcome(lambda: result(*case)) for name, case in cases.items()}
        assert got == want
        assert want["timeout"] == (None, False, 0) and want["settled"] == ((0.0).hex(), False, 0)
        assert want["crossing"][2] > 0 and want["ball"][0] == "BallViolation"

    def test_python_route_fixture_runs_no_kernel(self, python_route, monkeypatch):
        def refuse(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(dynamics, "_compiled_steps", refuse)
        monkeypatch.setattr(dynamics, "_cell", refuse)
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))
        assert run_continuous(s, f, 1.0, 0.5).tau > 0


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """A loader that has tried nothing yet, with its source copied to
    ``tmp_path`` so that its cache is ``tmp_path/__pycache__``."""
    source = tmp_path / "_stepper.c"
    shutil.copy(_stepper.SOURCE, source)
    monkeypatch.setattr(_stepper, "SOURCE", source)
    monkeypatch.setattr(_stepper, "_kernel", _stepper._UNTRIED)
    return tmp_path / "__pycache__"


def load(caplog):
    """The loader's kernel and the routes it logged."""
    with caplog.at_level(logging.INFO, logger="pontus._stepper"):
        function = dynamics.ramp_kernel()
    return function, [r.getMessage() for r in caplog.records if r.name == "pontus._stepper"]


NO_CC = FileNotFoundError(2, "No such file or directory", "cc")


def no_compiler(path, check):
    raise NO_CC


def cached_files(cache):
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


class TestLoader:
    @needs_cc
    def test_cold_cache_compiles_once_then_loads(self, cold_cache, caplog, monkeypatch):
        function, logs = load(caplog)
        assert function is not None and logs == [
            f"kernel: compiled, built {_stepper.cache_path()}"]
        assert cached_files(cold_cache) == [_stepper.cache_path().name]
        monkeypatch.setattr(_stepper, "_kernel", _stepper._UNTRIED)
        monkeypatch.setattr(_stepper, "_build", no_compiler)  # must not be needed
        caplog.clear()
        function, logs = load(caplog)
        assert function is not None and logs == [
            f"kernel: compiled, cached {_stepper.cache_path()}"]

    def test_missing_compiler_falls_back(self, cold_cache, caplog, monkeypatch):
        monkeypatch.setattr(_stepper, "COMMAND", ("no-such-compiler", *_stepper.COMMAND[1:]))
        function, logs = load(caplog)
        assert function is None
        assert len(logs) == 1 and logs[0].startswith("kernel: Python (")
        assert "no-such-compiler" in logs[0]
        assert cached_files(cold_cache) == []

    @needs_cc
    def test_failed_compile_falls_back(self, cold_cache, caplog):
        _stepper.SOURCE.write_text(_stepper.SOURCE.read_text() + "\n#error broken\n")
        function, logs = load(caplog)
        assert function is None
        assert len(logs) == 1 and logs[0].startswith("kernel: Python (Command ")
        assert cached_files(cold_cache) == []

    @needs_cc
    def test_cached_library_failing_the_check_is_not_used(self, cold_cache, caplog,
                                                          monkeypatch, tmp_path):
        # a kernel with another controller safety factor, cached under the
        # name of the true source
        source = _stepper.SOURCE.read_text()
        assert "SAFETY = 0.9" in source
        wrong = tmp_path / "wrong.c"
        wrong.write_text(source.replace("SAFETY = 0.9", "SAFETY = 0.8"))
        cold_cache.mkdir()
        path = _stepper.cache_path()
        subprocess.run([*_stepper.COMMAND, "-o", str(path), str(wrong), "-lm"], check=True)
        wrong_bytes = path.read_bytes()

        with monkeypatch.context() as m:
            m.setattr(_stepper, "_build", no_compiler)
            function, logs = load(caplog)
        assert function is None and logs == [f"kernel: Python ({NO_CC})"]

        monkeypatch.setattr(_stepper, "_kernel", _stepper._UNTRIED)
        caplog.clear()
        function, logs = load(caplog)  # rebuilt and replaced
        assert logs == [f"kernel: compiled, built {path}"]
        assert dynamics._kernel_agrees(function)
        assert path.read_bytes() != wrong_bytes
        assert cached_files(cold_cache) == [path.name]

    @needs_cc
    def test_unloadable_cached_file_is_rebuilt(self, cold_cache, caplog):
        cold_cache.mkdir()
        path = _stepper.cache_path()
        path.write_bytes(b"not a shared library")
        function, logs = load(caplog)
        assert function is not None and logs == [f"kernel: compiled, built {path}"]
        assert cached_files(cold_cache) == [path.name]

    def test_cache_name_changes_with_each_keyed_part(self, cold_cache, monkeypatch):
        other = cold_cache.parent / "other.c"
        other.write_bytes(_stepper.SOURCE.read_bytes() + b"\n")
        paths = [_stepper.cache_path()]
        for target, name, value in (
            (_stepper, "SOURCE", other),
            (_stepper, "COMMAND", (*_stepper.COMMAND, "-g")),
            (sys.implementation, "cache_tag", "another-interpreter"),
            (_stepper.platform, "machine", lambda: "another-machine"),
        ):
            with monkeypatch.context() as m:
                m.setattr(target, name, value)
                paths.append(_stepper.cache_path())
        assert len(set(paths)) == 5 and {p.parent for p in paths} == {cold_cache}
        assert all(re.fullmatch(r"_stepper\.[0-9a-f]{16}\.so", p.name) for p in paths)

    def test_world_writable_cache_is_refused(self, cold_cache, caplog):
        cold_cache.mkdir()
        cold_cache.chmod(0o777)
        function, logs = load(caplog)
        assert function is None
        assert logs == [f"kernel: Python ({cold_cache} is world-writable)"]
        assert cached_files(cold_cache) == []

    @needs_cc
    def test_threads_share_one_load(self, cold_cache, monkeypatch):
        """Two threads that ask a fresh loader for the kernel at once build
        and check the library once and get the same Kernel."""
        builds, got = [], [None, None]
        build = _stepper._build

        def counting(path, check):
            builds.append(path)
            return build(path, check)

        monkeypatch.setattr(_stepper, "_build", counting)
        start = threading.Barrier(2)

        def first_call(i):
            start.wait(timeout=60)
            got[i] = dynamics.ramp_kernel()

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        assert builds == [_stepper.cache_path()]
        assert got[0] is not None and got[0] is got[1]

    @needs_cc
    def test_a_build_removes_the_other_keys_libraries(self, cold_cache, caplog, monkeypatch):
        """Only the current key's library stays, and a stale one that another
        process removes first is no error; other files stay."""
        cold_cache.mkdir()
        stale = [cold_cache / f"_stepper.{digit * 16}.so" for digit in "01"]
        for path in stale:
            path.write_bytes(b"an old kernel")
        (cold_cache / "other.so").write_bytes(b"")
        unlink = Path.unlink

        def raced(path, missing_ok=False):
            if path == stale[1]:
                os.remove(path)  # as another process that pruned first
            unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", raced)
        function, logs = load(caplog)
        assert function is not None and logs == [f"kernel: compiled, built {_stepper.cache_path()}"]
        assert cached_files(cold_cache) == sorted([_stepper.cache_path().name, "other.so"])

    @needs_cc
    def test_racing_processes_leave_one_library(self, cold_cache):
        script = (
            "import sys\nfrom pathlib import Path\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from pontus import _stepper, dynamics\n"
            f"_stepper.SOURCE = Path({str(_stepper.SOURCE)!r})\n"
            "print(dynamics.ramp_kernel() is not None)\n"
        )
        procs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                  text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
                 for _ in range(2)]
        outs = [p.communicate(timeout=300)[0] for p in procs]
        assert [p.returncode for p in procs] == [0, 0]
        assert outs == ["True\n", "True\n"]
        assert cached_files(cold_cache) == [_stepper.cache_path().name]
