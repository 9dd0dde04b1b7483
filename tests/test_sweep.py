import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import pontus.sweep
from pontus import (
    ExponentialCosineSchedule,
    FieldVector,
    GridAxis,
    IntegratorConfig,
    ParameterPoint,
    RateTriple,
    SweepSpec,
    classify_two_step,
    gain_map_sidecar,
    gain_map_to_csv,
    is_non_markovian,
    run_continuous,
    run_direct,
    run_two_step,
    scan_two_step,
    sweep_kappa_omega,
    sweep_kappa_theta,
)
from pontus.dynamics import TAU_XTOL, ramp_kernel
from pontus.errors import SingularGenerator
from pontus.protocols import _Ramp
from pontus.sweep import available_cpus

RATES_S = RateTriple(0.75, 0.75, 0.75)
RATES_F = RateTriple(0.05, 0.1, 0.15)


def theta_spec(n_kappa=4, n_theta=3, **kw):
    return SweepSpec(
        rates_s=RATES_S,
        rates_f=RATES_F,
        kappa_axis=GridAxis.log("kappa", 0.05, 50.0, n_kappa),
        second_axis=GridAxis.linear("theta", 0.3, math.pi / 2, n_theta),
        **kw,
    )


def omega_spec(n_kappa=4, n_omega=3):
    return SweepSpec(
        rates_s=RATES_S,
        rates_f=RATES_F,
        kappa_axis=GridAxis.log("kappa", 0.05, 50.0, n_kappa),
        second_axis=GridAxis.linear("omega", 0.0, 1.5, n_omega),
        h=FieldVector(1.0, 0.0, 0.0),
    )


class TestSpecValidation:
    def test_axis_needs_two_points(self):
        with pytest.raises(ValueError):
            GridAxis("kappa", (0.1,))

    def test_axis_must_increase(self):
        with pytest.raises(ValueError):
            GridAxis("kappa", (0.2, 0.1))

    def test_omega_sweep_requires_field(self):
        with pytest.raises(ValueError):
            SweepSpec(
                rates_s=RATES_S,
                rates_f=RATES_F,
                kappa_axis=GridAxis.log("kappa", 0.1, 10, 3),
                second_axis=GridAxis.linear("omega", 0.0, 1.0, 3),
            )

    def test_kappa_must_be_positive(self):
        # a kappa = 0 ramp never leaves the S rates, so its cells could only
        # time out; the spec rejects it, and an infinite one, before any cell runs
        for values in ((0.0, 0.5, 1.0), (-0.5, 0.0, 1.0), (0.1, math.inf)):
            with pytest.raises(ValueError, match="kappa"):
                SweepSpec(
                    rates_s=RATES_S,
                    rates_f=RATES_F,
                    kappa_axis=GridAxis("kappa", values),
                    second_axis=GridAxis.linear("omega", 0.0, 1.0, 3),
                    h=FieldVector(1.0, 0.0, 0.0),
                )

    @pytest.mark.parametrize("eps", [0.0, math.nan, math.inf])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            theta_spec(eps=eps)

    @pytest.mark.parametrize("omegas", [(-1.0, 0.5), (-2.0, -1.0), (0.0, math.inf)])
    def test_omega_axis_must_be_nonnegative_and_finite(self, omegas):
        # the spec refuses a negative frequency before any cell runs
        with pytest.raises(ValueError, match="omega must be nonnegative and finite"):
            SweepSpec(
                rates_s=RATES_S,
                rates_f=RATES_F,
                kappa_axis=GridAxis.log("kappa", 0.1, 10, 3),
                second_axis=GridAxis("omega", omegas),
                h=FieldVector(1.0, 0.0, 0.0),
            )

    def test_theta_sweep_pins_omega_to_zero(self):
        # a spec carries no modulation frequency: theta cells run at omega = 0
        with pytest.raises(TypeError):
            theta_spec(omega=0.3)

    def test_runner_checks_axis_kind(self):
        with pytest.raises(ValueError):
            sweep_kappa_omega(theta_spec(), jobs=1)


class TestThetaSweep:
    GM = sweep_kappa_theta(theta_spec(), jobs=1)

    def test_shape_and_status(self):
        assert self.GM.shape == (4, 3)
        assert all(s == "ok" for row in self.GM.status for s in row)

    def test_tau_dir_shared_along_columns(self):
        for j in range(3):
            col = self.GM.tau_dir[:, j]
            assert np.all(col == col[0])

    def test_sudden_column_tracks_direct(self):
        rel = np.abs(self.GM.tau_cpm[-1] - self.GM.tau_dir[-1]) / self.GM.tau_dir[-1]
        assert np.all(rel < 0.02)

    def test_quasi_static_column_is_slow(self):
        ok = ~np.isnan(self.GM.gain[0])
        assert np.all(self.GM.gain[0][ok] < -0.5)

    def test_markovian_flags_off_everywhere(self):
        assert not self.GM.non_markovian.any()
        assert np.all(self.GM.f_total == 0.0)


class TestOmegaSweep:
    GM = sweep_kappa_omega(omega_spec(), jobs=1)

    def test_omega_zero_row_matches_theta_sweep_column(self):
        # h = (1, 0, 0) is the theta = pi/2 column of the angle sweep
        gm_theta = sweep_kappa_theta(theta_spec(), jobs=1)
        np.testing.assert_array_equal(self.GM.tau_cpm[:, 0], gm_theta.tau_cpm[:, -1])
        np.testing.assert_array_equal(self.GM.tau_dir[:, 0], gm_theta.tau_dir[:, -1])

    def test_non_markovian_flags_match_pointwise_check(self):
        for i, kap in enumerate(self.GM.kappa):
            for j, om in enumerate(self.GM.second):
                if om == 0:
                    expected = False
                else:
                    expected, _ = is_non_markovian(
                        RATES_S.as_array(), RATES_F.as_array(), kap, om
                    )
                assert self.GM.non_markovian[i, j] == expected

    def test_flags_follow_boundary_curve(self):
        for i, kap in enumerate(self.GM.kappa):
            w_min = dict(self.GM.boundary)[kap]
            for j, om in enumerate(self.GM.second):
                assert self.GM.non_markovian[i, j] == (om > w_min)

    def test_f_total_positive_iff_flagged(self):
        flagged = self.GM.non_markovian
        assert np.all(self.GM.f_total[flagged] > 0)
        assert np.all(self.GM.f_total[~flagged] == 0.0)


def map_fields(gm):
    """Every field of a gain map, its arrays as bytes."""
    arrays = (gm.tau_dir, gm.tau_cpm, gm.gain, gm.f_total, gm.inconclusive, gm.non_markovian)
    return [a.tobytes() for a in arrays] + [gm.status, gm.errors, gm.boundary]


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        """Bit for bit, on both sweep kinds."""
        for sweep, spec in ((sweep_kappa_omega, omega_spec(n_kappa=3, n_omega=2)),
                            (sweep_kappa_theta, theta_spec(n_kappa=3, n_theta=2))):
            assert map_fields(sweep(spec, jobs=1)) == map_fields(sweep(spec, jobs=2))


class TestSetUpOncePerMap:
    """A map builds its ramp's set-up once, a kappa-theta map once per
    column, and its cells equal standalone runs bit for bit."""

    @staticmethod
    def calls(sweep, spec, generator_calls):
        generator_calls.clear()
        sweep(spec, jobs=1)
        return list(generator_calls)

    def test_kappa_omega_count_does_not_grow_with_cells(self, generator_calls):
        small = self.calls(sweep_kappa_omega, omega_spec(2, 2), generator_calls)
        large = self.calls(sweep_kappa_omega, omega_spec(3, 3), generator_calls)
        assert small and large == small

    def test_kappa_theta_count_grows_by_column(self, generator_calls):
        base = self.calls(sweep_kappa_theta, theta_spec(2, 2), generator_calls)
        assert self.calls(sweep_kappa_theta, theta_spec(3, 2), generator_calls) == base
        wider = self.calls(sweep_kappa_theta, theta_spec(2, 3), generator_calls)
        assert base and len(wider) == len(base) * 3 // 2

    def test_cells_equal_standalone_runs(self):
        spec = omega_spec(3, 3)
        gm = sweep_kappa_omega(spec, jobs=1)
        pS = ParameterPoint(spec.h, spec.rates_s)
        pF = ParameterPoint(spec.h, spec.rates_f)
        for i, j in ((0, 0), (1, 2), (2, 1)):
            kappa, omega = gm.kappa[i], gm.second[j]
            res = run_continuous(pS, pF, kappa, omega, spec.eps, spec.cfg)
            assert gm.status[i][j] == "ok"
            assert np.float64(res.tau).tobytes() == gm.tau_cpm[i, j].tobytes()
            assert res.inconclusive == gm.inconclusive[i, j]

    @pytest.mark.parametrize("route", ["kernel", "python"])
    def test_cells_build_no_rates_table(self, route, request, monkeypatch):
        if route == "python":
            request.getfixturevalue("python_route")
        maps = ((sweep_kappa_omega, omega_spec(3, 3)), (sweep_kappa_theta, theta_spec(3, 2)))
        want = [map_fields(sweep(spec, jobs=1)) for sweep, spec in maps]

        def refuse(self, ts):
            raise AssertionError("a cell built a rates table")

        monkeypatch.setattr(ExponentialCosineSchedule, "rates_array", refuse)
        got = [sweep(spec, jobs=1) for sweep, spec in maps]
        assert [map_fields(gm) for gm in got] == want
        assert all(cell == "ok" for gm in got for row in gm.status for cell in row)

    @pytest.mark.parametrize("sweep, spec, schedules", [
        (sweep_kappa_omega, omega_spec(12, 12), 1),
        (sweep_kappa_theta, theta_spec(6, 5), 5),
    ])
    def test_kernel_route_builds_one_schedule_per_set_up(self, sweep, spec, schedules,
                                                         monkeypatch):
        """A cell passes only its kappa and omega to its set-up's packed
        stepper arguments: a map builds one schedule per ramp set-up, not
        one per cell."""
        if ramp_kernel() is None:
            pytest.skip("no compiled kernel loads here")
        built, check = [], ExponentialCosineSchedule.__post_init__

        def counted(self):
            built.append((self.kappa, self.omega))
            check(self)

        monkeypatch.setattr(ExponentialCosineSchedule, "__post_init__", counted)
        gm = sweep(spec, jobs=2)
        assert "ok" in {cell for row in gm.status for cell in row}
        assert built == [(0.0, 0.0)] * schedules

    @pytest.mark.parametrize("sweep, spec", [
        (sweep_kappa_omega, omega_spec()), (sweep_kappa_theta, theta_spec()),
    ])
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_refused_before_any_run(self, sweep, spec, jobs, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(pontus.sweep, "_Ramp", no_run)  # a column's direct run too
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            sweep(spec, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_set_up_is_recorded_by_every_cell(self, jobs, monkeypatch):
        def broken(*args):
            raise SingularGenerator("no set-up")

        monkeypatch.setattr(pontus.sweep, "_Ramp", broken)
        gm = sweep_kappa_omega(omega_spec(2, 2), jobs=jobs)
        assert gm.status == [["direct-singular-generator"] * 2] * 2
        assert np.all(np.isnan(gm.tau_dir)) and gm.errors == {}

    @pytest.mark.parametrize("sweep, spec", [
        (sweep_kappa_omega, omega_spec(2, 2)), (sweep_kappa_theta, theta_spec(2, 2)),
    ])
    def test_any_other_set_up_error_ends_the_sweep(self, sweep, spec, monkeypatch):
        """As the column's direct quench, which shares the set-up, raises it."""
        def broken(*args):
            raise RuntimeError("no set-up")

        monkeypatch.setattr(pontus.sweep, "_Ramp", broken)
        with pytest.raises(RuntimeError, match="no set-up"):
            sweep(spec, jobs=1)

    @pytest.mark.parametrize("sweep, spec, columns", [
        (sweep_kappa_omega, omega_spec(3, 3), 1),
        (sweep_kappa_theta, theta_spec(2, 2), 2),
        (sweep_kappa_theta, theta_spec(2, 3), 3),
    ])
    def test_a_column_and_its_direct_quench_solve_three_steady_states(
            self, sweep, spec, columns, generator_calls):
        """S's and F's attractors and the F flow's, once per column: the
        ramp and its direct baseline share one set-up."""
        calls = self.calls(sweep, spec, generator_calls)
        assert calls.count("steady_state") == 3 * columns


class TestWorkers:
    def test_one_cpu_affinity_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr("pontus.sweep.ThreadPoolExecutor", no_pool)
        assert available_cpus() == 1
        gm = sweep_kappa_omega(omega_spec(n_kappa=2, n_omega=2))
        assert gm.status == [["ok", "ok"], ["ok", "ok"]]

    @pytest.mark.parametrize("jobs, workers", [(64, 3), (2, 2), (None, 3)])
    def test_workers_are_capped_at_the_cpus(self, jobs, workers, monkeypatch):
        """Each worker thread keeps its own step-record buffer, so a pool
        larger than the CPUs would only add memory."""
        sizes = []

        def recording(n):
            sizes.append(n)
            return ThreadPoolExecutor(n)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr("pontus.sweep.ThreadPoolExecutor", recording)
        monkeypatch.setattr("pontus.sweep.ramp_kernel", lambda: "a kernel")  # threads need one
        gm = sweep_kappa_omega(omega_spec(n_kappa=4, n_omega=3), jobs=jobs)
        assert sizes == [workers] and gm.shape == (4, 3)

    @pytest.mark.usefixtures("python_route")
    def test_python_route_runs_in_process(self, monkeypatch):
        """With no kernel a cell runs Python, which threads would only run
        one at a time under the GIL."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr("pontus.sweep.ThreadPoolExecutor", no_pool)
        gm = sweep_kappa_omega(omega_spec(n_kappa=2, n_omega=2), jobs=2)
        assert gm.status == [["ok", "ok"], ["ok", "ok"]]

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1


class TestCellErrors:
    """An ``error:<Type>`` cell keeps its exception message in the sidecar."""

    SPEC = SweepSpec(
        rates_s=RATES_S,
        rates_f=RATES_F,
        kappa_axis=GridAxis("kappa", (5.0, 50.0)),
        second_axis=GridAxis("omega", (0.0, 1.5)),
        h=FieldVector(1.0, 0.0, 0.0),
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_message_of_each_error_status(self, jobs, monkeypatch):
        real = _Ramp.run
        failing = {
            (5.0, 1.5): ValueError("first"),
            (50.0, 0.0): RuntimeError("third"),
            (50.0, 1.5): ValueError("second"),
        }

        def flaky(self, kappa, omega):
            if (kappa, omega) in failing:
                raise failing[kappa, omega]
            return real(self, kappa, omega)

        monkeypatch.setattr(_Ramp, "run", flaky)
        gm = sweep_kappa_omega(self.SPEC, jobs=jobs)
        assert gm.status == [
            ["ok", "error:ValueError"], ["error:RuntimeError", "error:ValueError"]
        ]
        side = gain_map_sidecar(gm)
        assert side["errors"] == {"error:ValueError": "first", "error:RuntimeError": "third"}
        assert side["status_counts"] == {"error:ValueError": 2, "ok": 1, "error:RuntimeError": 1}

    def test_no_errors_key_without_error_cells(self):
        assert "errors" not in gain_map_sidecar(sweep_kappa_omega(self.SPEC, jobs=1))


class TestScanTwoStep:
    """The t_I scan's exact-crossing rows against full single runs."""

    # fig1's points; the 100 cap leaves the direct run (tau 75.07) and every
    # detour that settles by t = 100 converged, while the run switching at
    # t_i = 45 would settle near 101.8
    S = ParameterPoint(FieldVector(0.0, 0.998, 0.062), RateTriple(0.0, 0.2, 0.0), "S")
    A = ParameterPoint(FieldVector(0.0, 2.0, 2.0), RateTriple(1.0, 0.0, 0.0), "A")
    F = ParameterPoint(FieldVector(0.0, -0.966, 0.258), RateTriple(0.0, 0.2, 0.0), "F")
    CFG = IntegratorConfig(t_cap=100.0)
    T_IS = [0.3 + 0.35 * k for k in range(7)] + [25.0, 27.5, 28.0, 30.0, 45.0]

    def lazy_scan(self):
        """Each switch time run in full, one at a time."""
        for t_i in self.T_IS:
            yield t_i, run_two_step(self.S, self.A, self.F, t_i, cfg=self.CFG)

    @pytest.mark.parametrize("batches", [1, 2])
    def test_rows_match_the_lazy_scan(self, batches):
        direct = run_direct(self.S, self.F, cfg=self.CFG)
        whole = scan_two_step(self.S, self.A, self.F, self.T_IS, cfg=self.CFG)[1]
        rows = []
        for part in np.array_split(self.T_IS, batches):
            baseline, part_rows = scan_two_step(
                self.S, self.A, self.F, part.tolist(), cfg=self.CFG
            )
            assert baseline.tau == direct.tau
            rows += part_rows
        assert rows == whole
        for (t_i, one), (tau, cls) in zip(self.lazy_scan(), rows):
            if one.timed_out:
                assert (tau, cls) == (None, "timeout"), t_i
            else:
                assert cls == classify_two_step(one, direct).value, t_i
                assert tau == pytest.approx(one.tau, abs=1e-9), t_i
        classes = [cls for _, cls in rows]
        assert {"weak-type-A", "weak-type-B", "strong", "no-effect"} <= set(classes)
        assert classes[-1] == "timeout" and classes.count("timeout") == 1

    def test_empty_scan(self):
        assert scan_two_step(self.S, self.A, self.F, [])[1] == []

    @pytest.mark.parametrize("t_is", [[1.0, 0.0], [1.0, 100.0], [1.0, math.nan, 3.0]])
    def test_bad_switch_times_raise_before_any_run(self, t_is, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow was built")

        monkeypatch.setattr("pontus.protocols.ConstantFlow", no_flow)
        with pytest.raises(ValueError, match="switching time"):
            scan_two_step(self.S, self.A, self.F, t_is, cfg=self.CFG)


class TestScanRandomTriples:
    """Scan rows against single runs on seeded random S/A/F triples.

    A is drawn at random, or it is F sped up c-fold (c in [2, 20], field
    and rates scaled together, so F's attractor), or it is that with its
    field nudged so its attractor lies within eps of F's: that A stage
    spirals across eps more than once.  Switch times every 0.09, under two
    strides, put a row just past each of the A stage's down-crossings, so
    rows below eps at their switch follow every crossing.  The time cap
    times out the random detours that end far from F.
    """

    EPS = 1e-4
    CFG = IntegratorConfig(t_cap=30.0)

    @staticmethod
    def point(rng, label, field=1.0, dephasing=True):
        h = rng.normal(size=3)
        h *= field * rng.uniform(0.5, 2.0) / np.linalg.norm(h)
        return ParameterPoint.make(h, rng.uniform(0.02, 0.4, 3) * [1, 1, dephasing], label)

    def triples(self):
        rng = np.random.default_rng(5)
        for family in [0, 1, 2]:
            while True:  # a triple whose direct run settles under the cap
                S = self.point(rng, "S")
                F = self.point(rng, "F", *((10.0, False) if family == 2 else ()))
                if run_direct(S, F, self.EPS, self.CFG).converged:
                    break
            if family == 0:
                yield S, self.point(rng, "A"), F
                continue
            c, h, g = rng.uniform(2, 20), F.h.as_array(), F.gamma.as_array()
            if family == 2:  # a nudge that moves the attractor by 1.9 eps
                nudge = 1e-4 * rng.normal(size=3)
                r_f, r_a = (
                    run_direct(p, p, self.EPS, self.CFG).trajectory.r[0]
                    for p in (F, ParameterPoint.make(h + nudge, g))
                )
                h = h + nudge * (1.9 * self.EPS / np.linalg.norm(r_a - r_f))
            yield S, ParameterPoint.make(c * h, c * g, "A"), F

    def test_rows_match_single_runs(self):
        seen = {"settled": 0, "multi-crossing": 0, "timeout": 0}
        for S, A, F in self.triples():
            direct = run_direct(S, F, self.EPS, self.CFG)
            t_is = np.arange(0.05, 28.5, 0.09).tolist()
            baseline, rows = scan_two_step(S, A, F, t_is, self.EPS, self.CFG)
            assert baseline.tau == direct.tau
            for t_i, (tau, cls) in zip(t_is, rows):
                one = run_two_step(S, A, F, t_i, self.EPS, self.CFG)
                if one.timed_out:
                    seen["timeout"] += 1
                    assert (tau, cls) == (None, "timeout"), t_i
                    continue
                if one.trajectory.distance_of(t_i) < self.EPS:
                    seen["settled"] += 1
                    seen["multi-crossing"] += one.n_threshold_crossings > 2
                    assert tau == one.tau, t_i
                else:
                    assert tau == pytest.approx(one.tau, abs=1e-9), t_i
                # away from the no-effect boundary, tau = tau_dir - 2 TAU_XTOL
                if abs(one.tau - direct.tau + 2 * TAU_XTOL) > 2 * TAU_XTOL:
                    assert cls == classify_two_step(one, direct).value, t_i
        assert all(seen.values()), seen


class TestPinnedBytes:
    """sha256 of the CSV and of the sorted-key sidecar JSON of two small maps,
    recorded before the sweep's gain moved to ``mpemba.gain`` and the
    vanishing-final-rate measure to its closed form."""

    @staticmethod
    def digests(gm, tmp_path):
        path = tmp_path / "map.csv"
        gain_map_to_csv(gm, path)
        sidecar = json.dumps(gain_map_sidecar(gm), sort_keys=True).encode()
        return (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(sidecar).hexdigest(),
        )

    def test_fig5a_kappa_omega_map(self, tmp_path):
        spec = SweepSpec(
            rates_s=RATES_S,
            rates_f=RATES_F,
            kappa_axis=GridAxis.log("kappa", 0.05, 5.0, 4),
            second_axis=GridAxis.linear("omega", 0.0, 2.0, 3),
            h=FieldVector(1.0, 0.0, 0.0),
        )
        assert self.digests(sweep_kappa_omega(spec, jobs=1), tmp_path) == (
            "60014986297b12ec6c18fcfaeaa68bc2e609b752acae60bb62bdd0ca0a133b93",
            "ccb00775f7f7256128d3a289a88f90860464290d17e01a61d451dc15ec00a738",
        )

    def test_fig4a_kappa_theta_map(self, tmp_path):
        spec = SweepSpec(
            rates_s=RATES_S,
            rates_f=RATES_F,
            kappa_axis=GridAxis.log("kappa", 0.05, 5.0, 3),
            second_axis=GridAxis.linear("theta", 0.0, math.pi / 2, 3),
        )
        assert self.digests(sweep_kappa_theta(spec, jobs=1), tmp_path) == (
            "b26f083db5a9d244ba1e2df2c6e63a621996848c7532cf74a286a5531820147e",
            "3affa02cef037c0840a2d683721d909c8b74df52f5f0b6dfb6843622a9414cd4",
        )


@pytest.mark.usefixtures("python_route")
class TestPinnedBytesPythonRoute(TestPinnedBytes):
    """The same pins with the Python stepper forced."""


class TestFailureHandling:
    def test_timeout_cells_are_marked_not_fatal(self):
        # cap far above the direct time (~60) but far below the settling
        # horizon of the slow ramps (~1e5)
        spec = SweepSpec(
            rates_s=RATES_S,
            rates_f=RATES_F,
            kappa_axis=GridAxis.log("kappa", 1e-4, 2e-4, 2),
            second_axis=GridAxis.linear("theta", 0.5, 1.0, 2),
            cfg=IntegratorConfig(t_cap=150.0),
        )
        gm = sweep_kappa_theta(spec, jobs=1)
        assert all(s == "timeout" for row in gm.status for s in row)
        assert np.all(np.isnan(gm.tau_cpm))
        assert np.all(~np.isnan(gm.tau_dir))

    def test_singular_direct_problem_marks_column(self):
        spec = SweepSpec(
            rates_s=RATES_S,
            rates_f=RateTriple(0.0, 0.0, 0.0),  # no dissipation at the target
            kappa_axis=GridAxis.log("kappa", 0.1, 1.0, 2),
            second_axis=GridAxis.linear("theta", 0.5, 1.0, 2),
        )
        gm = sweep_kappa_theta(spec, jobs=1)
        assert all(
            s == "direct-singular-generator" for row in gm.status for s in row
        )


class TestArtifacts:
    def test_csv_layout(self, tmp_path):
        gm = sweep_kappa_omega(omega_spec(n_kappa=3, n_omega=2), jobs=1)
        path = tmp_path / "map.csv"
        gain_map_to_csv(gm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "axis1,axis2,tau_dir,tau_cpm,gain,inconclusive,non_markovian,"
            "f_total,status"
        )
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert float(first[0]) == gm.kappa[0]
        assert first[8] == "ok"
        assert first[5] in ("true", "false")

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        gm = sweep_kappa_omega(omega_spec(n_kappa=3, n_omega=2), jobs=1)
        gm.gain[0, 0], gm.gain[0, 1], gm.tau_cpm[1, 0] = math.nan, math.inf, -0.0
        gm.f_total[2, 1] = 5e-324
        gm.inconclusive[1, 1] = True
        gm.status[2][0] = "ball-violation"
        path = tmp_path / "map.csv"
        gain_map_to_csv(gm, path)
        # the writer's previous form: one format() call per value
        fmt = lambda x: format(float(x), ".17g")  # noqa: E731
        expected = [
            "axis1,axis2,tau_dir,tau_cpm,gain,inconclusive,non_markovian,"
            "f_total,status"
        ]
        for i in range(3):
            for j in range(2):
                expected.append(",".join([
                    fmt(gm.kappa[i]), fmt(gm.second[j]), fmt(gm.tau_dir[i, j]),
                    fmt(gm.tau_cpm[i, j]), fmt(gm.gain[i, j]),
                    "true" if gm.inconclusive[i, j] else "false",
                    "true" if gm.non_markovian[i, j] else "false",
                    fmt(gm.f_total[i, j]), gm.status[i][j],
                ]))
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_sidecar_contents(self):
        gm = sweep_kappa_omega(omega_spec(n_kappa=3, n_omega=2), jobs=1)
        side = gain_map_sidecar(gm)
        assert side["schema"] == 1
        assert side["sweep"]["kind"] == "kappa-omega"
        assert len(side["boundary"]) == 3
        assert side["sweep"]["omega"] == list(gm.second)
        assert side["status_counts"] == {"ok": 6}
        assert side["sweep"]["integrator"] == IntegratorConfig().as_dict()
        assert "max_step" not in side["sweep"]["integrator"]

    def test_sidecar_counts_failed_cells(self):
        # the (0.01, 2/11) cell of the fig5a problem leaves the Bloch ball
        spec = SweepSpec(
            rates_s=RATES_S,
            rates_f=RATES_F,
            kappa_axis=GridAxis("kappa", (0.01, 1.0)),
            second_axis=GridAxis("omega", (2 / 11, 1.0)),
            h=FieldVector(1.0, 0.0, 0.0),
        )
        gm = sweep_kappa_omega(spec, jobs=1)
        assert gm.status == [["ball-violation", "ok"], ["ok", "ok"]]
        counts = gain_map_sidecar(gm)["status_counts"]
        assert list(counts.items()) == [("ok", 3), ("ball-violation", 1)]
