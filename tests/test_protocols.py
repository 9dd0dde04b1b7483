import gc
import hashlib
import math
import types

import numpy as np
import pytest

from pontus import (
    BallViolation,
    BlochVector,
    ConstantFlow,
    ExponentialCosineSchedule,
    FieldVector,
    IntegratorConfig,
    NotConverged,
    ParameterPoint,
    RateTriple,
    assemble_generator,
    classify_two_step,
    integrate,
    run_continuous,
    run_direct,
    run_two_step,
    scan_two_step,
    steady_state,
)
from pontus.core import Trajectory, distance_evaluator
from pontus.dynamics import _refined_threshold_series, _threshold_analysis
from pontus.mpemba import _two_step_class
from pontus.protocols import _ConstantStages
from ramps import held

PLANAR_S = ParameterPoint.make((0.707, 0.707, 0.0), (0.5, 0.1, 0.0), "S")
PLANAR_F = ParameterPoint.make((0.707, 0.707, 0.0), (0.01, 0.05, 0.0), "F")

DETOUR_S = ParameterPoint.make((0.0, 0.998, 0.062), (0.0, 0.2, 0.0), "S")
DETOUR_A = ParameterPoint.make((0.0, 2.0, 2.0), (1.0, 0.0, 0.0), "A")
DETOUR_F = ParameterPoint.make((0.0, -0.966, 0.258), (0.0, 0.2, 0.0), "F")

# pure relaxation along z from the north pole: distance exp(-0.2 t), so the
# 1e-4 cutoff is crossed at ln(1e4)/0.2
Z_S = ParameterPoint.make((0.0, 0.0, 0.5), (1.0, 0.0, 0.0), "S")  # north pole
Z_F = ParameterPoint.make((0.0, 0.0, 0.5), (0.0, 0.2, 0.0), "F")  # south pole
TAU_Z = math.log(1e4) / 0.2


def exp_cos(kappa, omega, gs=PLANAR_S, gf=PLANAR_F):
    return ExponentialCosineSchedule(
        gamma_s=gs.gamma, gamma_f=gf.gamma, h=gs.h, kappa=kappa, omega=omega
    )


class TestRateAt:
    """The ramp's recorded rates at given times (``rates_array``)."""

    def test_starts_at_initial_rates(self):
        s = exp_cos(0.3, 1.7)
        assert np.array_equal(s.rates_array([0.0])[0], PLANAR_S.gamma.as_array())

    def test_damped_value(self):
        s = ExponentialCosineSchedule(
            gamma_s=RateTriple(0.5, 0, 0),
            gamma_f=RateTriple(0.01, 0, 0),
            h=FieldVector(1, 0, 0),
            kappa=0.2,
            omega=0.0,
        )
        expected = 0.01 + 0.49 * math.exp(-1.0)  # = 0.190268...
        assert s.rates_array([5.0])[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_two_step_switches_after_t_i(self):
        # the detour's rates are recorded with its trajectory: A's up to and
        # at the switch, F's after it
        traj = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=2.0).trajectory
        before = traj.t <= 2.0
        assert 2.0 in traj.t and not before.all()
        assert np.array_equal(
            traj.rates[before], np.tile(DETOUR_A.gamma.as_array(), (before.sum(), 1))
        )
        assert np.array_equal(
            traj.rates[~before], np.tile(DETOUR_F.gamma.as_array(), ((~before).sum(), 1))
        )

    @pytest.mark.parametrize("route", ["kernel", "python"])
    def test_rates_are_built_when_first_read(self, route, request):
        # each run's rates table is the one that it built on construction:
        # the schedule's rates at the sample times, or F's rates tiled with
        # A's up to and at the switch
        if route == "python":
            request.getfixturevalue("python_route")
        sched = exp_cos(0.2, 0.5)
        target = steady_state(assemble_generator(PLANAR_F))
        settled = held(PLANAR_F)
        runs = [
            (run_continuous(PLANAR_S, PLANAR_F, 0.2, 0.5).trajectory, sched.rates_array),
            (integrate(settled, target, target, IntegratorConfig(), 1e-4), settled.rates_array),
        ]
        for t_i in (0.0, 2.0, 2.01):
            def tiled(ts, t_i=t_i):
                rates = np.tile(DETOUR_F.gamma.as_array(), (len(ts), 1))
                if t_i > 0:
                    rates[ts <= t_i] = DETOUR_A.gamma.as_array()
                return rates

            runs.append((_ConstantStages(DETOUR_S, DETOUR_A, DETOUR_F, 1e-4,
                                         IntegratorConfig()).trajectory(t_i), tiled))
        assert len(runs[1][0]) == 1
        for traj, rates_of in runs:
            assert "rates" not in vars(traj)
            want = rates_of(traj.t)
            assert traj.rates.dtype == want.dtype and traj.rates.tobytes() == want.tobytes()
            assert traj.rates is traj.rates

    def test_negative_instants_under_oscillation(self):
        s = exp_cos(0.1, 1.0)
        assert s.rates_array([math.pi])[0, 0] < 0  # cosine trough

    def test_oscillating_ramp_on_seeded_times(self):
        rng = np.random.default_rng(17)
        kappa, omega = 0.1, 1.0
        s = exp_cos(kappa, omega)
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 60.0, 200))])
        rates = s.rates_array(ts)
        gs, gf = PLANAR_S.gamma.as_array(), PLANAR_F.gamma.as_array()
        assert np.array_equal(rates[0], gs)
        for t, row in zip(ts, rates):
            want = gf + (gs - gf) * (math.exp(-kappa * t) * math.cos(omega * t))
            assert np.allclose(row, want, rtol=0, atol=1e-15), t
        trough = s.rates_array([math.pi / omega])[0]
        assert trough[0] < 0 and np.array_equal(trough[2], 0.0)

    def test_equal_endpoints_give_constant_rates(self):
        rng = np.random.default_rng(23)
        ts = rng.uniform(0.0, 100.0, 300)
        for kappa, omega in ((0.3, 0.0), (1.0, 0.0), (7.0, 0.0), (0.2, 1.5)):
            s = ExponentialCosineSchedule(
                PLANAR_F.gamma, PLANAR_F.gamma, PLANAR_F.h, kappa, omega
            )
            want = np.tile(PLANAR_F.gamma.as_array(), (len(ts), 1))
            assert np.array_equal(s.rates_array(ts), want)
            assert s.settle_bound(0.0) == 0.0


class TestScheduleProperties:
    def test_generators_follow_the_affine_ramp(self):
        # Lambda(t) = lam_f + m(t) dlam with the endpoint generators at m = 0
        # and m = 1
        def parts(p):
            g = assemble_generator(p)
            return g.Lambda, g.b

        for sched, points in (
            (held(PLANAR_F), [(0.0, PLANAR_F), (50.0, PLANAR_F)]),
            (exp_cos(0.3, 0.0), [(0.0, PLANAR_S)]),
        ):
            for t, p in points:
                lam, b = sched.generator(t)
                want_lam, want_b = parts(p)
                assert np.allclose(lam, want_lam, rtol=0, atol=1e-15), (sched, t)
                assert np.allclose(b, want_b, rtol=0, atol=1e-15), (sched, t)
        s = exp_cos(0.3, 1.1)
        lam, b = s.generator(2.5)
        rates = RateTriple.from_array(s.rates_array([2.5])[0])
        want_lam, want_b = parts(ParameterPoint(PLANAR_S.h, rates))
        assert np.allclose(lam, want_lam, rtol=0, atol=1e-15)
        assert np.allclose(b, want_b, rtol=0, atol=1e-15)

    def test_integrated_two_step_matches_closed_form(self):
        # A held to t_i, then F from A's last state: the adaptive runs must
        # follow the exact flows of the two-step detour
        r0 = steady_state(assemble_generator(DETOUR_S))
        target = steady_state(assemble_generator(DETOUR_F))
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12)
        first = integrate(held(DETOUR_A), r0, target, cfg, 1e-4, t_end=2.0)
        switch = BlochVector.from_array(first.r[-1])
        second = integrate(held(DETOUR_F), switch, target, cfg, 1e-4, t_end=8.0)
        t = np.concatenate([first.t, 2.0 + second.t[1:]])
        r = np.concatenate([first.r, second.r[1:]])
        exact = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=2.0).trajectory
        n = len(t)
        assert np.allclose(t, exact.t[:n], rtol=0, atol=1e-12)
        assert np.max(np.abs(r - exact.r[:n])) < 1e-9

    def test_envelope_bounds_deviation_from_final(self):
        s = exp_cos(0.37, 2.1)
        dg = np.abs(PLANAR_S.gamma.as_array() - PLANAR_F.gamma.as_array())
        ts = np.linspace(0, 40, 400)
        dev = np.abs(s.rates_array(ts) - PLANAR_F.gamma.as_array())
        assert np.all(dev <= dg * np.exp(-0.37 * ts)[:, None] + 1e-15)

    def test_rates_array_matches_scalar_path(self):
        # the recorded rates follow the scalar ramp m(t) that the stepper reads
        s = exp_cos(0.37, 2.1)
        gs, gf = PLANAR_S.gamma.as_array(), PLANAR_F.gamma.as_array()
        ts = np.linspace(0, 10, 97)
        arr = s.rates_array(ts)
        for k in range(len(ts)):
            assert np.allclose(arr[k], gf + (gs - gf) * s.m(ts[k]), rtol=0, atol=1e-15)


class TestRunDirect:
    def test_identical_endpoints_relax_instantly(self):
        res = run_direct(PLANAR_S, PLANAR_S)
        assert res.converged and res.tau == 0.0

    def test_analytic_z_relaxation_time(self):
        res = run_direct(Z_S, Z_F)
        assert res.converged
        assert res.tau == pytest.approx(TAU_Z, abs=1e-6)
        assert not res.inconclusive

    def test_reference_relaxation_time(self):
        res = run_direct(PLANAR_S, PLANAR_F)
        assert res.converged
        assert abs(res.tau - 160.0) <= 16.0

    @pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf])
    def test_rejects_a_cutoff_not_positive_and_finite(self, eps):
        # every distance compares false against a NaN cutoff, so a run would
        # read as settled at t = 0
        for run in (
            lambda: run_direct(PLANAR_S, PLANAR_F, eps),
            lambda: run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, 2.1, eps),
            lambda: run_continuous(PLANAR_S, PLANAR_F, 0.2, 0.0, eps),
        ):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                run()

    def test_distance_monotone_non_increasing(self):
        res = run_direct(PLANAR_S, PLANAR_F)
        assert np.all(np.diff(res.trajectory.dist) <= 1e-10)

    def test_timeout_flagged(self):
        res = run_direct(PLANAR_S, PLANAR_F, cfg=IntegratorConfig(t_cap=5.0))
        assert res.timed_out and not res.converged and res.tau is None

    @pytest.mark.parametrize("t_cap", [80.0, 85.0, 90.0, 95.0])
    def test_settled_run_is_no_timeout_below_the_stop_sample(self, t_cap):
        # fig1's direct run settles at 75.07 but is below eps/10 only at 96.7
        res = run_direct(DETOUR_S, DETOUR_F, cfg=IntegratorConfig(t_cap=t_cap))
        assert res.timed_out is False and res.converged
        assert res.tau == run_direct(DETOUR_S, DETOUR_F).tau

    def test_result_keeps_no_flow_alive(self):
        # a timed-out run through 196 sample chunks: its distance evaluator
        # must hold the drift's data, not the flow
        slow_f = ParameterPoint.make((0.707, 0.707, 0.0), (0.0, 2e-4, 0.0), "F")
        res = run_direct(PLANAR_S, slow_f)
        assert res.timed_out
        gc.collect()
        assert not reachable(res, ConstantFlow)


def reachable(root, kind) -> bool:
    """Whether an instance of ``kind`` is reachable from ``root`` through
    references and closures; modules, classes and function globals are not
    followed."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            return True
        if isinstance(obj, types.FunctionType):
            todo.extend(obj.__closure__ or ())
            todo.extend(obj.__defaults__ or ())
        else:
            todo.extend(gc.get_referents(obj))
    return False


def pin_direct(res):
    """sha256 prefix of the samples and of the distance evaluator at 257
    times, with the threshold analysis."""
    traj = res.trajectory
    h = hashlib.sha256()
    for a in (
        traj.t,
        traj.r,
        traj.rates,
        traj.dist,
        traj.distance_of(np.linspace(0.0, traj.t[-1], 257)),
    ):
        h.update(a.tobytes())
    return (
        h.hexdigest()[:16],
        res.tau,
        res.inconclusive,
        res.n_threshold_crossings,
        res.timed_out,
    )


class TestDirectBitIdentity:
    """``run_direct``'s outputs, pinned bit for bit.

    Recorded from the version whose direct quench had its own flow, stride
    grid and evaluator, before it became the no-detour constant-stage run.
    """

    CASES = {
        "fig1": (DETOUR_S, DETOUR_F, IntegratorConfig()),
        "precessing": (PLANAR_S, PLANAR_F, IntegratorConfig()),
        "identical": (PLANAR_S, PLANAR_S, IntegratorConfig()),
        "timeout": (PLANAR_S, PLANAR_F, IntegratorConfig(t_cap=50.0)),
        "stride": (DETOUR_S, DETOUR_F, IntegratorConfig(sample_stride=0.013)),
    }
    PINNED = {
        "fig1": ("de23bc7fcc814751", 75.07195599619169, False, 1, False),
        "precessing": ("43ca6682d57f3c23", 154.93278562147165, False, 1, False),
        "identical": ("33a0611152e597e4", 0.0, False, 0, False),
        "timeout": ("716e4823fbb3fbe5", None, False, 0, True),
        "stride": ("762c63a4bd6579b2", 75.07195599619143, False, 1, False),
    }

    def test_pinned_outputs(self):
        got = {
            name: pin_direct(run_direct(s, f, cfg=cfg))
            for name, (s, f, cfg) in self.CASES.items()
        }
        assert got == self.PINNED


class TestContinuousBitIdentity:
    """``run_continuous``'s outputs and step counters, pinned bit for bit.

    Recorded from the stepper that formed each stage's velocity from all
    twelve coefficients of lam_f + m dlam and b_f + m db; the two cells of
    the 12x12 fig5a map (its second kappa and omega, and kappa = 100) and
    the ball-violation message from the stepper that called m once per
    stage.  The ramp's m calls libm's exp and cos, so, like the gain-map
    pins, these values hold for the libm they were recorded with.
    """

    FIG5A_S = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75), "S")
    FIG5A_F = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15), "F")
    TILTED_S = ParameterPoint.make((0.183, 0.183, -0.966), (0.5, 0.1, 0.0), "S")
    TILTED_F = ParameterPoint.make((0.183, 0.183, -0.966), (0.1, 0.5, 0.0), "F")
    CASES = {  # name: (S, F, kappa, omega)
        "fig2_k020": (PLANAR_S, PLANAR_F, 0.2, 0.0),
        "fig3b": (TILTED_S, TILTED_F, 0.4, 0.45),
        "fig5a-k0.05-w1": (FIG5A_S, FIG5A_F, 0.05, 1.0),
        "fig5a-k0.01-w2": (FIG5A_S, FIG5A_F, 0.01, 2.0),
        "fig5a-k0.023-w0.18": (FIG5A_S, FIG5A_F, 0.023101297000831605, 2 / 11),
        "fig5a-k100-w1": (FIG5A_S, FIG5A_F, 100.0, 1.0),
    }
    PINNED = {
        "fig2_k020": ("ee6bdf1c53048b49", 59.07035817679941, False, 3, False, 6374, 1062, 0),
        "fig3b": ("cc6883933337c3ff", 19.45839776726268, True, 1, False, 1568, 261, 0),
        "fig5a-k0.05-w1": (
            "c2a75735d918f8ab", 107.22107968631923, True, 9, False, 11006, 1832, 2,
        ),
        "fig5a-k0.01-w2": (
            "692b96874f23ecbf", 661.7345081661086, True, 19, False, 79148, 13183, 8,
        ),
        "fig5a-k0.023-w0.18": (
            "97cdee2d251605d3", 211.28974524859163, True, 11, False, 11438, 1894, 12,
        ),
        "fig5a-k100-w1": ("d65ad3d9eccfc6d9", 18.47907718326783, False, 1, False, 2036, 339, 0),
    }

    def test_pinned_outputs(self):
        got = {}
        for name, (s, f, kappa, omega) in self.CASES.items():
            res = run_continuous(s, f, kappa, omega)
            traj = res.trajectory
            got[name] = pin_direct(res) + (traj.nfev, traj.n_accepted, traj.n_rejected)
        assert got == self.PINNED

    def test_pinned_ball_violation_message(self):
        with pytest.raises(BallViolation) as info:
            run_continuous(self.FIG5A_S, self.FIG5A_F, 0.01, 2 / 11)
        assert str(info.value) == (
            "trajectory left the Bloch ball at t = 19.5142333295 (|r| = 1.00448884955)"
        )


@pytest.mark.usefixtures("python_route")
class TestContinuousBitIdentityPythonRoute(TestContinuousBitIdentity):
    """The same pins with the Python stepper forced."""


class TestRunTwoStep:
    def test_small_detour_approaches_direct(self):
        direct = run_direct(DETOUR_S, DETOUR_F)
        two = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=0.01)
        assert abs(two.tau - direct.tau) < 0.2

    def test_degenerate_detour_equals_direct(self):
        direct = run_direct(DETOUR_S, DETOUR_F)
        two = run_two_step(DETOUR_S, DETOUR_F, DETOUR_F, t_i=3.0)
        assert two.converged
        assert two.tau == pytest.approx(direct.tau, abs=1e-9)

    def test_first_stage_contracts_toward_auxiliary_attractor(self):
        from pontus import assemble_generator, steady_state

        res = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=8.0)
        r_a = steady_state(assemble_generator(DETOUR_A)).as_array()
        stage = res.trajectory.r[res.trajectory.t <= 8.0]
        d_to_a = 0.5 * np.linalg.norm(stage - r_a, axis=1)
        assert np.all(np.diff(d_to_a) <= 1e-10)

    def test_distance_to_final_not_monotone_during_detour(self):
        res = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=8.0)
        stage = res.trajectory.dist[res.trajectory.t <= 8.0]
        assert np.any(np.diff(stage) > 1e-6)

    def test_records_switch_state(self):
        res = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=2.1)
        assert res.t_intermediate == 2.1
        k = np.searchsorted(res.trajectory.t, 2.1)
        r0 = steady_state(assemble_generator(DETOUR_S)).as_array()
        r_i = ConstantFlow(assemble_generator(DETOUR_A)).state(r0, 2.1)
        assert np.allclose(res.trajectory.r[k], r_i, atol=1e-12)

    def test_rejects_bad_switch_times(self):
        with pytest.raises(ValueError):
            run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=0.0)
        with pytest.raises(ValueError):
            run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=1e5)

    def test_rejects_a_nan_switch_time(self):
        with pytest.raises(ValueError, match="switching time must be positive"):
            run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=math.nan)


class TestRunTwoStepScan:
    """The fig1 t_I scan of ``scan_two_step`` against single runs."""

    # fig1 (the DETOUR points), recorded with the previous stride-power-table
    # flow; the closed-form flow must reproduce them to 1e-9 relative
    TAU_DIRECT = 75.07195599618873
    TAUS = {
        0.35: 74.51656613330297,
        1.2: 69.83306271823166,
        2.1: 61.963647193685205,
        3.0: 59.64748206123046,
        4.45: 61.616741694155756,
        7.3: 64.09539934055559,
        10.0: 66.81753617622854,
        15.05: 71.86493036199418,
        22.4: 79.21506767292179,
        30.0: 86.81506487695302,
    }

    def test_matches_recorded_fig1_taus(self):
        direct = run_direct(DETOUR_S, DETOUR_F)
        assert direct.tau == pytest.approx(self.TAU_DIRECT, rel=1e-9)
        baseline, rows = scan_two_step(DETOUR_S, DETOUR_A, DETOUR_F, list(self.TAUS))
        assert baseline.tau == direct.tau
        for (t_i, tau), (row_tau, _) in zip(self.TAUS.items(), rows):
            one = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i)
            assert one.t_intermediate == t_i
            assert one.tau == pytest.approx(tau, rel=1e-9), t_i
            assert row_tau == pytest.approx(tau, rel=1e-9), t_i

    def test_bit_identical_to_single_runs(self):
        # an A point with F's values, switched after the direct tau: each run
        # is below eps at its switch, so its row is the full run's, classified
        a_as_f = ParameterPoint(DETOUR_F.h, DETOUR_F.gamma, "A")
        direct = run_direct(DETOUR_S, DETOUR_F)
        t_is = [80.0, 90.0]
        _, rows = scan_two_step(DETOUR_S, a_as_f, DETOUR_F, t_is)
        want = []
        for t_i in t_is:
            one = run_two_step(DETOUR_S, a_as_f, DETOUR_F, t_i)
            assert one.trajectory.distance_of(t_i) < one.epsilon
            want.append((one.tau, classify_two_step(one, direct).value))
        assert rows == want
        assert [cls for _, cls in rows] == ["no-effect", "no-effect"]

    @pytest.mark.parametrize("a_is_f", [False, True])
    def test_setup_distances_match_the_result_pair(self, a_is_f):
        # the set-up's (d_S, d_I, d_SF), as scans and single runs read them,
        # bit for bit those that ``classify_two_step`` reads off the results
        pA = ParameterPoint(DETOUR_F.h, DETOUR_F.gamma, "A") if a_is_f else DETOUR_A
        rng = np.random.default_rng(23)
        t_is = [*self.TAUS, *rng.uniform(0.01, 60.0, 200).tolist(), 80.0]
        stages = _ConstantStages(DETOUR_S, pA, DETOUR_F, 1e-4, IntegratorConfig())
        direct = stages.run()
        _, triples = stages.switches(t_is)
        for t_i, triple in zip(t_is, triples):
            one = run_two_step(DETOUR_S, pA, DETOUR_F, t_i)
            d_i, d_sf = one.trajectory.distance_of(t_i), direct.trajectory.distance_of(t_i)
            assert triple == (direct.trajectory.dist[0], d_i, d_sf), t_i
            cls = classify_two_step(one, direct)
            assert cls is _two_step_class(one.tau, direct.tau, triple), t_i

    def test_fig1_scan_calls_run_until_once(self, monkeypatch):
        # every row comes from one exact crossing; only the direct baseline
        # is sampled to eps/10
        calls = []
        run_until = ConstantFlow.run_until

        def counting(self, *args):
            calls.append(args)
            return run_until(self, *args)

        monkeypatch.setattr(ConstantFlow, "run_until", counting)
        t_is = [round(0.05 * k, 10) for k in range(1, 601)]
        _, rows = scan_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_is)
        assert len(rows) == 600 and len(calls) == 1

    def test_direct_run_builds_one_flow(self, flow_builds):
        run_direct(DETOUR_S, DETOUR_F)
        assert len(flow_builds) == 1

    def test_scan_builds_two_flows_with_rows_below_eps(self, flow_builds):
        # A = F switched after the direct tau: every row is below eps at its
        # switch, and all of them, and the baseline, share one set-up
        a_as_f = ParameterPoint(DETOUR_F.h, DETOUR_F.gamma, "A")
        direct = run_direct(DETOUR_S, DETOUR_F)
        flow_builds.clear()  # the scan's builds only
        t_is = [80.0 + 2.5 * k for k in range(8)]
        baseline, rows = scan_two_step(DETOUR_S, a_as_f, DETOUR_F, t_is)
        assert len(flow_builds) == 2
        assert rows == [(direct.tau, "no-effect")] * 8
        for name in ("t", "r", "rates", "dist"):
            got, want = getattr(baseline.trajectory, name), getattr(direct.trajectory, name)
            assert np.array_equal(got, want), name

    def test_rejects_bad_switch_times_before_running(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow was built")

        monkeypatch.setattr("pontus.protocols.ConstantFlow", no_flow)
        for t_i in (0.0, -1.0, 1e4):
            with pytest.raises(ValueError, match="switching time"):
                run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i)

    def test_a_baseline_that_times_out_ends_the_scan(self):
        t_is = [0.5 * k for k in range(1, 11)]
        with pytest.raises(NotConverged, match="direct baseline did not converge"):
            scan_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_is, cfg=IntegratorConfig(t_cap=10.0))


# a rate-free A, whose drift precesses about h and has no attractor, and an A
# that dephases along its field, whose field axis is a line of fixed points
FREE_A = ParameterPoint.make((0.0, 2.0, 2.0), (0.0, 0.0, 0.0), "A")
DEPHASING_A = ParameterPoint.make((0.0, 0.0, 0.7), (0.0, 0.0, 0.5), "A")


def precessed(r, h, t):
    """r turned about h by the angle 2|h|t (Rodrigues' formula), the solution
    of r' = 2 h x r that a rate-free drift gives."""
    k = np.asarray(h) / np.linalg.norm(h)
    angle = 2 * np.linalg.norm(h) * t
    return (r * math.cos(angle) + np.cross(k, r) * math.sin(angle)
            + k * (k @ r) * (1 - math.cos(angle)))


class TestDetourWithoutAttractor:
    """A detour stage needs only its flow: a two-step run through an A point
    with no steady state runs, its detour propagated exactly."""

    def test_rate_free_detour_precesses(self):
        res = run_two_step(DETOUR_S, FREE_A, DETOUR_F, 1.3)
        assert res.converged and res.t_intermediate == 1.3
        traj = res.trajectory
        k = int(np.searchsorted(traj.t, 1.3 - 1e-9))
        r0 = steady_state(assemble_generator(DETOUR_S)).as_array()
        want = precessed(r0, FREE_A.h.as_array(), traj.t[k])
        assert np.max(np.abs(traj.r[k] - want)) < 1e-12
        assert abs(np.linalg.norm(traj.r[k]) - np.linalg.norm(r0)) < 1e-12

    def test_rate_free_scan_classifies_every_row(self):
        baseline, rows = scan_two_step(DETOUR_S, FREE_A, DETOUR_F, [0.5, 1.0, 1.5, 2.0])
        assert baseline.tau == pytest.approx(75.0720, abs=1e-4)
        assert [cls for _, cls in rows] == ["weak-type-A", "weak-type-B", "no-effect", "weak-type-B"]
        assert rows[0][0] == pytest.approx(73.7209, abs=1e-4)

    def test_dephasing_along_the_field_runs(self):
        res = run_two_step(DETOUR_S, DEPHASING_A, DETOUR_F, 2.0)
        assert res.converged and res.tau == pytest.approx(74.7703, abs=1e-4)


class TestRunContinuous:
    def test_sudden_limit_recovers_direct(self):
        direct = run_direct(PLANAR_S, PLANAR_F)
        fast = run_continuous(PLANAR_S, PLANAR_F, kappa=1e6, omega=0.0)
        assert abs(fast.tau - direct.tau) / direct.tau < 0.01

    def test_reference_speedup(self):
        res = run_continuous(PLANAR_S, PLANAR_F, kappa=0.2, omega=0.0)
        assert res.converged
        assert abs(res.tau - 60.0) <= 6.0
        assert not res.inconclusive

    def test_slow_ramp_is_slower_than_direct(self):
        res = run_continuous(PLANAR_S, PLANAR_F, kappa=0.035, omega=0.0)
        assert abs(res.tau - 200.0) <= 20.0

    def test_quasi_static_exhausts_time_cap(self):
        res = run_continuous(
            PLANAR_S, PLANAR_F, kappa=1e-4, omega=0.0, cfg=IntegratorConfig(t_cap=200.0)
        )
        assert res.timed_out and not res.converged

    def test_requires_static_field(self):
        other = ParameterPoint.make((0.5, 0.5, 0.1), (0.01, 0.05, 0.0), "F")
        with pytest.raises(ValueError):
            run_continuous(PLANAR_S, other, kappa=0.2, omega=0.0)

    @pytest.mark.parametrize("kappa, omega", [
        (math.nan, 0.0), (math.inf, 0.0), (0.2, math.nan), (0.2, math.inf), (0.2, -1.0),
    ])
    def test_rejects_non_finite_schedule(self, kappa, omega):
        # with a NaN or infinite kappa the ramp's stop rule can never hold
        with pytest.raises(ValueError, match="kappa and omega"):
            run_continuous(PLANAR_S, PLANAR_F, kappa=kappa, omega=omega)
        with pytest.raises(ValueError, match="kappa and omega"):
            exp_cos(kappa, omega)

    def test_final_samples_satisfy_stop_rule(self):
        eps = 1e-4
        res = run_continuous(PLANAR_S, PLANAR_F, kappa=0.2, omega=0.0, eps=eps)
        traj = res.trajectory
        # the stop event roots exactly on the boundary of the rule
        assert traj.dist[-1] <= eps / 10 + 1e-12
        assert exp_cos(0.2, 0.0).settle_bound(traj.t[-1]) <= eps + 1e-12


class TestRelaxationTime:
    def test_monotone_exponential_series(self):
        res = run_direct(Z_S, Z_F)
        tau, inconclusive, _ = _threshold_analysis(res.trajectory, 1e-4)
        assert tau == pytest.approx(TAU_Z, abs=1e-6)
        assert not inconclusive

    def test_series_entirely_below_cutoff(self):
        res = run_direct(PLANAR_S, PLANAR_S)
        tau, inconclusive, _ = _threshold_analysis(res.trajectory, 1e-4)
        assert tau == 0.0 and not inconclusive

    def test_timed_out_trajectory_raises(self):
        res = run_direct(PLANAR_S, PLANAR_F, cfg=IntegratorConfig(t_cap=5.0))
        with pytest.raises(NotConverged):
            _threshold_analysis(res.trajectory, 1e-4)

    def test_a_distance_that_never_settles_raises(self):
        # a converged run whose distance stays at 0.25, far above the cutoff
        state = np.array([0.5, 0.0, 0.0])
        traj = Trajectory(
            t=[0.0, 1.0, 2.0], r=np.tile(state, (3, 1)), rates_of=None,
            target=BlochVector(0.0, 0.0, 0.0),
            distance_of=distance_evaluator(lambda ts: np.tile(state, (len(ts), 1)), np.zeros(3)),
        )
        with pytest.raises(NotConverged, match="distance never settled below the cutoff"):
            _threshold_analysis(traj, 1e-4)

    def test_oscillatory_crossing_is_inconclusive(self):
        # cutoff reached while the rate modulation is still above it
        s = ParameterPoint.make((0.183, 0.183, -0.966), (0.5, 0.1, 0.0), "S")
        f = ParameterPoint.make((0.183, 0.183, -0.966), (0.1, 0.5, 0.0), "F")
        res = run_continuous(s, f, kappa=0.4, omega=0.45)
        assert res.converged and res.inconclusive
        env = res.trajectory.envelope(res.tau)
        assert env > res.epsilon

    def test_late_crossing_is_conclusive(self):
        s = ParameterPoint.make((0.183, 0.183, -0.966), (0.5, 0.1, 0.0), "S")
        f = ParameterPoint.make((0.183, 0.183, -0.966), (0.1, 0.5, 0.0), "F")
        res = run_continuous(s, f, kappa=0.6, omega=0.2)
        assert res.converged and not res.inconclusive


class TestVectorisedDistance:
    """Refinement points are evaluated in one array call; each value must be
    bit-identical to a single-time call, so taus do not change."""

    TILTED_S = ParameterPoint.make((0.183, 0.183, -0.966), (0.5, 0.1, 0.0), "S")
    TILTED_F = ParameterPoint.make((0.183, 0.183, -0.966), (0.1, 0.5, 0.0), "F")
    RAMPS = [  # (kappa, omega), all staying inside the Bloch ball
        (0.2, 0.0), (0.035, 0.0), (0.4, 0.45), (0.6, 0.2), (1.0, 1.0),
        (0.5, 0.5), (0.8, 0.3), (2.0, 1.5), (0.3, 0.9), (0.15, 0.1),
    ]

    @staticmethod
    def n_checked(traj, eps):
        ts, ds = _refined_threshold_series(traj, eps)
        new = ~np.isin(ts, traj.t)
        assert np.array_equal(ts[~new], traj.t)
        assert np.array_equal(ds[~new], traj.dist)
        pointwise = np.array([traj.distance_of(float(x)) for x in ts[new]])
        assert np.array_equal(ds[new], pointwise)
        assert np.array_equal(traj.distance_of(ts[new]), pointwise)
        return int(new.sum())

    def test_fig1_scan(self):
        t_is = [round(0.05 * k, 10) for k in range(1, 601)]
        direct = run_direct(DETOUR_S, DETOUR_F)
        n = self.n_checked(direct.trajectory, direct.epsilon)
        for t_i in t_is:
            res = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i)
            n += self.n_checked(res.trajectory, res.epsilon)
        assert n > 1000

    def test_ramps(self):
        n = 0
        for kappa, omega in self.RAMPS:
            res = run_continuous(self.TILTED_S, self.TILTED_F, kappa, omega)
            n += self.n_checked(res.trajectory, res.epsilon)
        assert n > 100
