"""The compiled kernel library (``_stepper.c``) against the Python routes.

Both steppers must write the same step records bit for bit, take the same
counts and stop at the same time, and raise the same messages; the compiled
dense output must give ``_DenseOutput``'s floats at every time, and the
compiled non-Markov measure ``_non_markovian``'s.  The loader must fall back
to the Python routes, and say so, wherever no checked kernel loads.
"""

import ctypes
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pontus import (
    BallViolation,
    ExponentialCosineSchedule,
    FieldVector,
    IntegratorConfig,
    ParameterPoint,
    RateTriple,
    SingularGenerator,
    StepSizeUnderflow,
    assemble_generator,
    integrate,
    run_continuous,
    steady_state,
)
from pontus import _measure, _stepper, dynamics, is_non_markovian, negative_intervals, nonmarkov
from pontus.protocols import DEFAULT_EPS

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


def ramp_args(sched, stop, y, t_bound, rtol, atol=1e-10, max_step=math.inf):
    """The steppers' one argument tuple for a run under ``sched``."""
    return (sched.coefficients, sched.kappa, sched.omega, sched._dg_max,
            stop, y, t_bound, rtol, atol, max_step)


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
    def test_seeded_ramps(self, kernel):
        """On the seeded runs' records: the stride grid up to t_final, t = 0,
        every step's start and end, seeded random times, and times past the
        last step, in one shuffled batch and one at a time."""
        rng = np.random.default_rng(25)
        runs = 0
        for i, sched, stop, y, t_bound, rtol in seeded_runs():
            try:
                steps, t_final, *_ = dynamics._compiled_steps(
                    kernel, *ramp_args(sched, stop, y, t_bound, rtol))
            except (BallViolation, StepSizeUnderflow):
                continue
            if steps is None:
                continue
            starts = steps[:, 0]
            ts = np.concatenate([
                np.arange(0.0, t_final, 0.05), [0.0, t_final], starts, starts + steps[:, 1],
                rng.uniform(0.0, t_final, 20), t_final + rng.uniform(0.0, 5.0, 3),
            ])
            rng.shuffle(ts)
            want = dynamics._DenseOutput(steps, t_final)
            got = dynamics._compiled_dense(kernel, steps, t_final)
            assert got(ts).tobytes() == want(ts).tobytes(), i
            one = ts[:5]
            assert np.concatenate([got(one[k:k + 1]) for k in range(5)]).tobytes() == (
                want(one).tobytes()), i
            runs += 1
        assert runs > 400

    def test_known_answer_check_covers_the_evaluator(self, kernel, generator_calls):
        def one_ulp_off(steps, n, t_final, ts, m, out):
            kernel.dense(steps, n, t_final, ts, m, out)
            first = ctypes.c_double.from_address(out)
            first.value = math.nextafter(first.value, math.inf)

        assert dynamics._kernel_agrees(kernel)
        assert not dynamics._kernel_agrees(kernel._replace(dense=one_ulp_off))
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


@needs_cc
def test_source_compiles_without_warnings(tmp_path):
    result = subprocess.run(
        [*_stepper.COMMAND, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "kernel.so"),
         str(_stepper.SOURCE), "-lm"],
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

    def test_python_route_fixture_runs_no_kernel(self, python_route, monkeypatch):
        def refuse(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(dynamics, "_compiled_steps", refuse)
        monkeypatch.setattr(dynamics, "_compiled_dense", refuse)
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
            f"ramp stepper: compiled kernel, built {_stepper.cache_path()}"]
        assert cached_files(cold_cache) == [_stepper.cache_path().name]
        monkeypatch.setattr(_stepper, "_kernel", _stepper._UNTRIED)
        monkeypatch.setattr(_stepper, "_build", no_compiler)  # must not be needed
        caplog.clear()
        function, logs = load(caplog)
        assert function is not None and logs == [
            f"ramp stepper: compiled kernel, cached {_stepper.cache_path()}"]

    def test_missing_compiler_falls_back(self, cold_cache, caplog, monkeypatch):
        monkeypatch.setattr(_stepper, "COMMAND", ("no-such-compiler", *_stepper.COMMAND[1:]))
        function, logs = load(caplog)
        assert function is None
        assert len(logs) == 1 and logs[0].startswith("ramp stepper: Python (")
        assert "no-such-compiler" in logs[0]
        assert cached_files(cold_cache) == []

    @needs_cc
    def test_failed_compile_falls_back(self, cold_cache, caplog):
        _stepper.SOURCE.write_text(_stepper.SOURCE.read_text() + "\n#error broken\n")
        function, logs = load(caplog)
        assert function is None
        assert len(logs) == 1 and logs[0].startswith("ramp stepper: Python (Command ")
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
        assert function is None and logs == [f"ramp stepper: Python ({NO_CC})"]

        monkeypatch.setattr(_stepper, "_kernel", _stepper._UNTRIED)
        caplog.clear()
        function, logs = load(caplog)  # rebuilt and replaced
        assert logs == [f"ramp stepper: compiled kernel, built {path}"]
        assert dynamics._kernel_agrees(function)
        assert path.read_bytes() != wrong_bytes
        assert cached_files(cold_cache) == [path.name]

    @needs_cc
    def test_unloadable_cached_file_is_rebuilt(self, cold_cache, caplog):
        cold_cache.mkdir()
        path = _stepper.cache_path()
        path.write_bytes(b"not a shared library")
        function, logs = load(caplog)
        assert function is not None and logs == [f"ramp stepper: compiled kernel, built {path}"]
        assert cached_files(cold_cache) == [path.name]

    def test_world_writable_cache_is_refused(self, cold_cache, caplog):
        cold_cache.mkdir()
        cold_cache.chmod(0o777)
        function, logs = load(caplog)
        assert function is None
        assert logs == [f"ramp stepper: Python ({cold_cache} is world-writable)"]
        assert cached_files(cold_cache) == []

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
