import math

import numpy as np
import pytest

from pontus import (
    BlochVector,
    ContinuousClass,
    NotConverged,
    ParameterPoint,
    ProtocolResult,
    Trajectory,
    TwoStepClass,
    classify_continuous,
    classify_two_step,
    count_crossings,
    gain,
    relevant_crossings,
    run_continuous,
    run_direct,
    run_two_step,
)
from pontus.core import distance_evaluator
from pontus.mpemba import _shared_series

PLANAR_S = ParameterPoint.make((0.707, 0.707, 0.0), (0.5, 0.1, 0.0), "S")
PLANAR_F = ParameterPoint.make((0.707, 0.707, 0.0), (0.01, 0.05, 0.0), "F")

DETOUR_S = ParameterPoint.make((0.0, 0.998, 0.062), (0.0, 0.2, 0.0), "S")
DETOUR_A = ParameterPoint.make((0.0, 2.0, 2.0), (1.0, 0.0, 0.0), "A")
DETOUR_F = ParameterPoint.make((0.0, -0.966, 0.258), (0.0, 0.2, 0.0), "F")

TILTED_S = ParameterPoint.make((0.183, 0.183, -0.966), (0.5, 0.1, 0.0), "S")
TILTED_F = ParameterPoint.make((0.183, 0.183, -0.966), (0.1, 0.5, 0.0), "F")


class TestGain:
    def test_reference_values(self):
        assert gain(160.0, 60.0).g == pytest.approx(160.0 / 60.0 - 1.0)

    def test_equal_times_give_zero(self):
        assert gain(37.2, 37.2).g == 0.0

    def test_quasi_static_limit_approaches_minus_one(self):
        assert gain(100.0, 1e12).g == pytest.approx(-1.0, abs=1e-9)

    def test_values_at_zero_engineered_time(self):
        # the values a gain map writes for an engineered run settled at t = 0
        assert gain(0.0, 0.0).g == 0.0
        assert gain(10.0, 0.0).g == math.inf
        assert math.isnan(gain(math.nan, 0.0).g)
        assert math.isnan(gain(math.nan, 12.5).g)

    def test_rejects_a_negative_time(self):
        with pytest.raises(ValueError, match="relaxation times must be nonnegative"):
            gain(-1, 1)

    def test_scale_covariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            td, tc = rng.uniform(0.1, 500, 2)
            c = rng.uniform(0.01, 100)
            assert gain(c * td, c * tc).g == pytest.approx(gain(td, tc).g, rel=1e-12)


class TestCountCrossings:
    GRID = np.linspace(0, 10, 500)

    def test_identical_series(self):
        a = np.exp(-self.GRID)
        assert count_crossings(a, a.copy()) == 0

    def test_ordered_exponentials(self):
        a = np.exp(-self.GRID)
        assert count_crossings(a, 0.5 * a) == 0

    def test_single_crossing(self):
        a = np.exp(-self.GRID)
        b = 0.5 * np.exp(-0.5 * self.GRID)
        assert count_crossings(a, b) == 1

    def test_touching_without_crossing_counts_zero(self):
        a = np.abs(self.GRID - 5.0)
        b = np.zeros_like(a)
        assert count_crossings(a, b) == 0

    def test_small_excursions_are_ignored(self):
        a = np.ones_like(self.GRID)
        b = np.ones_like(self.GRID)
        b[200:210] += 5e-9  # below the default tolerance
        assert count_crossings(a, b) == 0

    def test_alternating_excursions(self):
        a = np.ones_like(self.GRID)
        b = np.ones_like(self.GRID)
        # below, above, below: two sign changes of the difference
        b[100:110] -= 1e-6
        b[200:210] += 1e-6
        b[300:310] -= 1e-6
        assert count_crossings(a, b) == 2
        # a repeated same-side dip returns to contact: no extra crossing
        b[400:410] -= 1e-6
        assert count_crossings(a, b) == 2

    def test_rejects_grids_of_different_lengths(self):
        with pytest.raises(ValueError, match="series must share one grid"):
            count_crossings(self.GRID, self.GRID[:-1])


def _fake_result(dists, target, t_i, r_i, tau):
    """Synthetic converged two-step result with a prescribed distance series,
    switched at t_i; its distance evaluator reads the constant state r_i."""
    n = len(dists)
    t = np.arange(n) * 0.05
    tgt = target.as_array()
    # place all samples along x, at the prescribed distances up to round-off
    r = np.column_stack([tgt[0] + 2 * np.asarray(dists), [tgt[1]] * n, [tgt[2]] * n])
    traj = Trajectory(
        t=t,
        r=r,
        rates_of=lambda ts: np.zeros((len(ts), 3)),
        target=target,
        distance_of=distance_evaluator(lambda ts: np.tile(r_i, (len(ts), 1)), tgt),
    )
    return ProtocolResult("two-step", traj, epsilon=1e-4, tau=tau, t_intermediate=t_i)


class TestClassifyTwoStep:
    DIRECT = run_direct(DETOUR_S, DETOUR_F)

    def test_degenerate_detour_is_no_effect(self):
        # round-off puts some of these taus a few 1e-12 below the direct tau
        for t_i in (0.5, 2.0, 3.0, 7.3):
            two = run_two_step(DETOUR_S, DETOUR_F, DETOUR_F, t_i=t_i)
            assert classify_two_step(two, self.DIRECT) is TwoStepClass.NO_EFFECT, t_i

    def test_weak_type_a_realized(self):
        two = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=0.35)
        assert classify_two_step(two, self.DIRECT) is TwoStepClass.WEAK_TYPE_A

    def test_weak_type_b_realized(self):
        two = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=1.2)
        assert classify_two_step(two, self.DIRECT) is TwoStepClass.WEAK_TYPE_B

    def test_strong_realized(self):
        two = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=2.1)
        cls = classify_two_step(two, self.DIRECT)
        assert cls is TwoStepClass.STRONG
        assert two.trajectory.distance_of(2.1) >= self.DIRECT.trajectory.dist[0]

    def test_unconverged_raises(self):
        from pontus import IntegratorConfig

        slow = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, 2.0, cfg=IntegratorConfig(t_cap=5.0))
        with pytest.raises(NotConverged):
            classify_two_step(slow, self.DIRECT)

    def test_rejects_results_that_do_not_compare(self):
        two = run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i=1.2)
        cases = [
            (two, two, "baseline result must come from the direct protocol"),
            (two, run_direct(DETOUR_S, DETOUR_F, 1e-3), "results were produced with different cutoffs"),
            (two, run_direct(DETOUR_S, DETOUR_A), "results target different final states"),
            (self.DIRECT, self.DIRECT, "result does not carry a switching time"),
        ]
        for engineered, direct, message in cases:
            with pytest.raises(ValueError, match=message):
                classify_two_step(engineered, direct)

    def test_depends_only_on_distances(self):
        # two synthetic runs whose switch states differ as vectors but agree
        # in distance must classify identically
        tgt = self.DIRECT.trajectory.target
        tarr = tgt.as_array()
        d_s = float(self.DIRECT.trajectory.dist[0])
        d_sf = float(self.DIRECT.trajectory.distance_of(1.0))
        d_i = 0.5 * (d_sf + d_s)  # strictly between: weak type-B territory
        east = tarr + [2 * d_i, 0, 0]
        up = tarr + [0, 0, 2 * d_i]
        for r_i in (east, up):
            fake = _fake_result(
                dists=np.linspace(d_s, 0.0, 200),
                target=tgt,
                t_i=1.0,
                r_i=np.asarray(r_i),
                tau=self.DIRECT.tau / 2,
            )
            assert classify_two_step(fake, self.DIRECT) is TwoStepClass.WEAK_TYPE_B
            assert fake.trajectory.distance_of(1.0) == pytest.approx(d_i)


class TestOffStrideSwitch:
    """A switch time off the sample stride puts every later sample of the
    two-step run off the direct run's grid; from there the direct distances
    come from its evaluator, so the whole relaxation is still compared."""

    DIRECT = run_direct(DETOUR_S, DETOUR_F)

    def two_step(self, t_i):
        return run_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_i)

    def test_off_stride_switch_counts_like_its_neighbours(self):
        counts = [
            relevant_crossings(self.two_step(t_i), self.DIRECT) for t_i in (2.10, 2.13, 2.15)
        ]
        assert counts == [3, 3, 3]

    def test_direct_series_at_the_engineered_times(self):
        two = self.two_step(2.13)
        da, db = _shared_series(two, self.DIRECT)
        k = 43  # the switch sample, the first off the direct grid
        assert two.trajectory.t[k] == 2.13 and len(da) == len(db) > 1000
        np.testing.assert_array_equal(da, two.trajectory.dist[: len(da)])
        np.testing.assert_array_equal(db[:k], self.DIRECT.trajectory.dist[:k])
        np.testing.assert_array_equal(
            db[k:], self.DIRECT.trajectory.distance_of(two.trajectory.t[k : len(db)])
        )

    def test_switch_inside_the_first_stride(self):
        two = self.two_step(0.03)  # the grids part at the second sample
        assert relevant_crossings(two, self.DIRECT) == 0
        assert len(_shared_series(two, self.DIRECT)[0]) > 1000


class TestClassifyContinuous:
    DIRECT = run_direct(PLANAR_S, PLANAR_F)

    def test_sudden_limit_is_no_effect(self):
        cpm = run_continuous(PLANAR_S, PLANAR_F, kappa=1e6, omega=0.0)
        assert classify_continuous(cpm, self.DIRECT) is ContinuousClass.NO_EFFECT

    def test_reference_case_classified_with_positive_gain(self):
        cpm = run_continuous(PLANAR_S, PLANAR_F, kappa=0.2, omega=0.0)
        cls = classify_continuous(cpm, self.DIRECT)
        # the ramp starts on its attractor with zero slope, so it separates
        # above the direct curve: the speed-up is of the strong kind here
        assert cls is ContinuousClass.STRONG
        assert gain(self.DIRECT.tau, cpm.tau).g > 0

    def test_parity_matches_strong_class(self):
        cpm = run_continuous(PLANAR_S, PLANAR_F, kappa=0.2, omega=0.0)
        assert relevant_crossings(cpm, self.DIRECT) % 2 == 1

    def test_inconclusive_takes_precedence(self):
        direct3 = run_direct(TILTED_S, TILTED_F)
        cpm = run_continuous(TILTED_S, TILTED_F, kappa=0.4, omega=0.45)
        assert classify_continuous(cpm, direct3) is ContinuousClass.INCONCLUSIVE

    def test_crossing_case_at_reference_time(self):
        direct3 = run_direct(TILTED_S, TILTED_F)
        cpm = run_continuous(TILTED_S, TILTED_F, kappa=0.6, omega=0.2)
        assert relevant_crossings(cpm, direct3) == 1
        assert gain(direct3.tau, cpm.tau).g > 0

    def test_slower_ramp_is_no_effect(self):
        cpm = run_continuous(PLANAR_S, PLANAR_F, kappa=0.035, omega=0.0)
        assert classify_continuous(cpm, self.DIRECT) is ContinuousClass.NO_EFFECT
        assert gain(self.DIRECT.tau, cpm.tau).g < 0

    def test_direct_against_itself_is_no_effect(self):
        assert (
            classify_continuous(self.DIRECT, self.DIRECT)
            is ContinuousClass.NO_EFFECT
        )

    def test_timed_out_run_raises(self):
        from pontus import IntegratorConfig

        cpm = run_continuous(PLANAR_S, PLANAR_F, kappa=0.035, omega=0.0,
                             cfg=IntegratorConfig(t_cap=50.0))
        assert cpm.timed_out
        with pytest.raises(NotConverged, match="both runs must have converged to classify them"):
            classify_continuous(cpm, self.DIRECT)
