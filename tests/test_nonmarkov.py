import math
import signal

import numpy as np
import pytest
from scipy.optimize import brentq

from pontus import (
    DivergentIntervalCount,
    NoSolution,
    boundary_curve,
    channel_boundary_omega,
    channel_report,
    is_non_markovian,
    markov_boundary_alpha,
    negative_intervals,
    nm_measure_closed_form,
    nm_measure_quadrature,
    truncation_horizon,
)

MAP_RATES_S = (0.75, 0.75, 0.75)
MAP_RATES_F = (0.05, 0.1, 0.15)


def rate_of(g_s, g_f, kappa, omega):
    return lambda t: g_f + (g_s - g_f) * math.exp(-kappa * t) * math.cos(omega * t)


def sign_scan_intervals(g_s, g_f, kappa, omega, t_max, n=400000):
    """Independent oracle: negative windows located by a dense sign scan."""
    ts = np.linspace(0.0, t_max, n)
    neg = g_f + (g_s - g_f) * np.exp(-kappa * ts) * np.cos(omega * ts) < 0
    starts = np.nonzero(~neg[:-1] & neg[1:])[0]
    ends = np.nonzero(neg[:-1] & ~neg[1:])[0]
    return list(zip(ts[starts], ts[ends]))


class TestQuadrature:
    def test_nonnegative_schedule_measures_zero(self):
        for g_s in (0.5, 0.3, 0.2):
            assert nm_measure_quadrature(g_s, 0.1, 0.5, 0.0, 50.0) == 0.0

    def test_pure_decay_never_negative(self):
        assert nm_measure_quadrature(0.9, 0.2, 0.05, 0.0, 400.0) == 0.0

    @pytest.mark.parametrize("kappa, omega", [
        (math.nan, 1.0), (math.inf, 1.0), (-0.1, 1.0), (0.5, math.nan), (0.5, math.inf), (0.5, -1.0),
    ])
    def test_rejects_a_negative_or_non_finite_ramp(self, kappa, omega):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            nm_measure_quadrature(0.5, 0.1, kappa, omega, 50.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon T must be positive and finite"):
            nm_measure_quadrature(0.5, 0.1, 0.5, 1.0, horizon)

    def test_matches_fixed_order_composite_oracle(self):
        # frozen value from a 64-node Gauss-Legendre rule on 20000 uniform
        # segments for g_s=1, g_f=0, kappa=1, omega=10 on [0, 50]
        frozen = 0.3138659878
        assert nm_measure_quadrature(1.0, 0.0, 1.0, 10.0, 50.0) == pytest.approx(
            frozen, abs=5e-9
        )

    def test_gauss_legendre_oracle_reproduces_frozen_value(self):
        nodes, weights = np.polynomial.legendre.leggauss(64)
        gam = rate_of(1.0, 0.0, 1.0, 10.0)
        edges = np.linspace(0.0, 50.0, 20001)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            x = mid + half * nodes
            total += half * np.sum(weights * np.maximum(0.0, -np.vectorize(gam)(x)))
        assert total == pytest.approx(0.3138659878, abs=5e-9)


class TestNegativeIntervals:
    def test_no_oscillation_no_intervals(self):
        assert negative_intervals(0.5, 0.1, 0.3, 0.0) == []

    def test_reference_tuple_has_two_windows(self):
        # dense sign scan confirms two windows for these parameters; the
        # second lobe still dips below zero despite the envelope bound
        ivs = negative_intervals(0.5, 0.1, 0.1, 1.0)
        assert len(ivs) == 2
        oracle = sign_scan_intervals(0.5, 0.1, 0.1, 1.0, 20.0)
        assert len(oracle) == 2
        for (a, b), (oa, ob) in zip(ivs, oracle):
            assert a == pytest.approx(oa, abs=1e-3)
            assert b == pytest.approx(ob, abs=1e-3)

    def test_endpoints_are_roots(self):
        gam = rate_of(0.5, 0.1, 0.1, 1.0)
        for a, b in negative_intervals(0.5, 0.1, 0.1, 1.0):
            assert abs(gam(a)) < 1e-10
            assert abs(gam(b)) < 1e-10
            assert gam(0.5 * (a + b)) < 0

    def test_weak_modulation_has_no_windows(self):
        # amplitude at most the final rate: the rate cannot reach zero
        assert negative_intervals(0.3, 0.2, 0.2, 2.0) == []
        oracle = sign_scan_intervals(0.3, 0.2, 0.2, 2.0, 50.0)
        assert oracle == []

    def test_matches_sign_scan_on_random_tuples(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            g_f = rng.uniform(0.02, 0.6)
            g_s = g_f + rng.uniform(0.01, 2.5)
            kappa = rng.uniform(0.05, 1.5)
            omega = rng.uniform(0.05, 3.0)
            ivs = negative_intervals(g_s, g_f, kappa, omega)
            horizon = math.log((g_s - g_f) / g_f) / kappa + 1.0
            oracle = sign_scan_intervals(g_s, g_f, kappa, omega, horizon)
            assert len(ivs) == len(oracle)

    def test_vanishing_final_rate_diverges(self):
        with pytest.raises(DivergentIntervalCount):
            negative_intervals(1.0, 0.0, 1.0, 10.0)

    def test_undamped_oscillation_diverges(self):
        with pytest.raises(DivergentIntervalCount):
            negative_intervals(0.5, 0.1, 0.0, 1.0)

    def test_an_unmodulated_ramp_is_refused(self):
        with pytest.raises(ValueError, match="at least one of kappa, omega must be positive"):
            negative_intervals(0.5, 0.1, 0.0, 0.0)

    def test_interval_count_bounds(self):
        # the naive floor estimate misses the extremum offset inside each
        # lobe; the exact per-lobe condition gives the sharp count
        rng = np.random.default_rng(42)
        n_arg_gt1 = 0
        for _ in range(3000):
            g_f = rng.uniform(0.01, 1.0)
            g_s = g_f + rng.uniform(0.01, 3.0)
            kappa = rng.uniform(0.01, 2.0)
            omega = rng.uniform(0.01, 3.0)
            count = len(negative_intervals(g_s, g_f, kappa, omega))
            x = omega / (2 * math.pi * kappa) * math.log((g_s - g_f) / g_f)
            alpha = kappa / omega
            delta = (
                alpha * math.atan(alpha) - 0.5 * math.log1p(alpha * alpha)
            ) / (2 * math.pi * alpha)
            assert count <= max(0, math.floor(x + 0.5 + delta))  # sharp bound
            assert count <= max(0, math.floor(x - 0.5)) + 2
            if x - 0.5 > 1:
                n_arg_gt1 += 1
                assert count == max(0, math.floor(x - 0.5)) + 1
        assert n_arg_gt1 > 200  # the sharp-equality claim was actually exercised


class TestClosedForm:
    def test_zero_for_pure_decay(self):
        assert nm_measure_closed_form(0.5, 0.1, 0.1, 0.0) == 0.0

    def test_reference_tuple_matches_quadrature(self):
        closed = nm_measure_closed_form(0.5, 0.1, 0.1, 1.0)
        quadrature = nm_measure_quadrature(0.5, 0.1, 0.1, 1.0, 200.0)
        assert closed == pytest.approx(quadrature, abs=1e-8)

    def test_strong_damping_kills_all_windows(self):
        assert nm_measure_closed_form(0.5, 0.1, 100.0, 1.0) == 0.0

    def test_agrees_with_quadrature_on_200_random_tuples(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            g_f = rng.uniform(0.02, 0.8)
            g_s = g_f + rng.uniform(0.0, 2.5)
            kappa = rng.uniform(0.05, 2.0)
            omega = rng.uniform(0.0, 3.0)
            closed = nm_measure_closed_form(g_s, g_f, kappa, omega)
            horizon = max(5.0, math.log(max(g_s - g_f, 1e-6) * 1e8) / kappa)
            quadrature = nm_measure_quadrature(g_s, g_f, kappa, omega, horizon)
            assert abs(closed - quadrature) < 1e-8

    def test_vanishing_final_rate_lobe_series(self):
        val = nm_measure_closed_form(1.0, 0.0, 1.0, 10.0)
        assert val == pytest.approx(0.3138659878, abs=5e-9)

    def test_lobe_series_agrees_with_quadrature_on_60_random_tuples(self):
        # every cosine lobe is a window when the final rate vanishes; the
        # quadrature runs well past the truncation horizon
        rng = np.random.default_rng(31)
        for _ in range(60):
            dg = rng.uniform(0.01, 2.5)
            kappa = rng.uniform(0.05, 2.0)
            omega = rng.uniform(0.05, 3.0)
            closed = nm_measure_closed_form(dg, 0.0, kappa, omega)
            horizon = truncation_horizon(dg, kappa) + 10.0 / kappa
            quadrature = nm_measure_quadrature(dg, 0.0, kappa, omega, horizon)
            assert abs(closed - quadrature) < 1e-10, (dg, kappa, omega)

    def test_measure_nonnegative_and_zero_iff_no_windows(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g_f = rng.uniform(0.01, 0.8)
            g_s = g_f + rng.uniform(0.0, 2.0)
            kappa = rng.uniform(0.05, 2.0)
            omega = rng.uniform(0.0, 3.0)
            val = nm_measure_closed_form(g_s, g_f, kappa, omega)
            n = len(negative_intervals(g_s, g_f, kappa, omega))
            assert val >= 0.0
            assert (val == 0.0) == (n == 0)

    def test_monotone_in_omega(self):
        vals = [
            nm_measure_closed_form(0.75, 0.05, 0.5, w)
            for w in np.linspace(0.0, 4.0, 41)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals[:-1], vals[1:]))


class TestBoundary:
    def test_reference_alpha(self):
        assert markov_boundary_alpha(0.5, 0.1) == pytest.approx(0.476094, abs=1e-5)

    def test_alpha_vanishes_at_unit_ratio(self):
        # g_s barely above 2 g_f: ratio just below 1, alpha near zero
        a = markov_boundary_alpha(0.2 + 1e-7, 0.1)
        assert 0 < a < 1e-3

    def test_no_solution_when_rates_increase(self):
        with pytest.raises(NoSolution):
            markov_boundary_alpha(0.1, 0.5)
        with pytest.raises(NoSolution):
            markov_boundary_alpha(0.3, 0.2)  # amplitude below final rate

    def test_cross_validated_by_omega_sweep(self):
        # independent route: at fixed kappa, bisect on omega for the onset
        # of negative windows detected by the root finder alone
        g_s, g_f, kappa = 0.5, 0.1, 0.1

        def has_window(omega):
            return 1.0 if negative_intervals(g_s, g_f, kappa, omega) else -1.0

        omega_star = brentq(has_window, 0.05, 2.0, xtol=1e-10)
        alpha = markov_boundary_alpha(g_s, g_f)
        assert kappa / alpha == pytest.approx(omega_star, rel=1e-6)

    def test_flip_consistency_on_50_random_channels(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g_f = rng.uniform(0.02, 0.5)
            g_s = g_f * rng.uniform(2.05, 8.0)
            kappa = rng.uniform(0.05, 1.0)
            omega_b = kappa / markov_boundary_alpha(g_s, g_f)
            below = negative_intervals(g_s, g_f, kappa, omega_b * (1 - 1e-6))
            above = negative_intervals(g_s, g_f, kappa, omega_b * (1 + 1e-6))
            assert below == []
            assert len(above) >= 1

    def test_vanishing_final_rate_boundary_is_zero(self):
        assert channel_boundary_omega(1.0, 0.0, 0.7) == 0.0

    def test_curve_scales_linearly_in_kappa(self):
        curve = boundary_curve((0.5, 0.1, 0), (0.1, 0.5, 0), [0.1, 0.2, 0.4])
        slopes = [w / k for k, w in curve]
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-9)
        assert slopes[0] == pytest.approx(slopes[2], rel=1e-9)


class TestIsNonMarkovian:
    def test_no_oscillation_is_markovian(self):
        assert is_non_markovian(MAP_RATES_S, MAP_RATES_F, kappa=0.5, omega=0.0) == (
            False,
            0.0,
        )

    def test_just_above_and_below_the_min_boundary(self):
        kappa = 0.5
        bounds = [
            channel_boundary_omega(a, b, kappa) for a, b in zip(MAP_RATES_S, MAP_RATES_F)
        ]
        w_min = min(w for w in bounds if w is not None)
        flag_hi, f_hi = is_non_markovian(
            MAP_RATES_S, MAP_RATES_F, kappa, w_min * (1 + 1e-4)
        )
        flag_lo, f_lo = is_non_markovian(
            MAP_RATES_S, MAP_RATES_F, kappa, w_min * (1 - 1e-4)
        )
        assert flag_hi and f_hi > 0
        assert not flag_lo and f_lo == 0.0

    def test_all_channels_markovian_is_not_an_error(self):
        flag, total = is_non_markovian((0.1, 0.1, 0.1), (0.5, 0.5, 0.5), 0.5, 3.0)
        assert flag is False and total == 0.0


class TestChannelReport:
    def test_report_consistency(self):
        rep = channel_report(0.5, 0.1, 0.1, 1.0, "plus")
        assert rep.channel == "plus"
        assert rep.n_intervals == len(rep.intervals) == 2
        assert rep.f_value > 0
        gam = rate_of(0.5, 0.1, 0.1, 1.0)
        for a, b in rep.intervals:
            assert a < b
            assert gam(0.5 * (a + b)) < 0

    def test_vanishing_final_rate_stops_at_the_truncation_horizon(self):
        # every negative cosine lobe is a window, so the report lists those
        # that start before the horizon, and the measure sums the whole series
        g_s, kappa, omega = 0.5, 0.1, 1.0
        rep = channel_report(g_s, 0.0, kappa, omega, "plus")
        horizon = truncation_horizon(g_s, kappa)
        lobes = [
            ((2 * n - 1.5) * math.pi / omega, (2 * n - 0.5) * math.pi / omega)
            for n in range(1, 1000)
        ]
        expected = tuple(lobe for lobe in lobes if lobe[0] < horizon)
        assert rep.intervals == expected
        assert rep.n_intervals == len(expected) == 47
        assert lobes[len(expected)][0] >= horizon
        q = kappa * math.pi / omega
        series = g_s * omega / (kappa**2 + omega**2) * math.exp(-q / 2) / (1 - math.exp(-q))
        assert rep.f_value == pytest.approx(series, rel=1e-13)

    def test_markovian_channel_reports_zero(self):
        rep = channel_report(0.5, 0.1, 0.5, 0.0, "z")
        assert rep.f_value == 0.0 and rep.n_intervals == 0

    def test_zero_kappa_is_refused(self):
        with pytest.raises(ValueError, match="kappa must be positive"):
            channel_report(0.75, 0.05, 0.0, 1.0, "plus")

    def test_unknown_channel_is_refused(self):
        with pytest.raises(ValueError, match="unknown channel 'x'"):
            channel_report(0.5, 0.1, 0.1, 1.0, "x")


@pytest.mark.parametrize("kappa", [0.0, -0.1, math.nan, math.inf])
def test_truncation_horizon_refuses_a_kappa_that_is_not_positive(kappa):
    with pytest.raises(ValueError, match="kappa must be positive"):
        truncation_horizon(0.5, kappa)


@pytest.mark.parametrize("dg", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_truncation_horizon_refuses_an_amplitude_that_is_zero_or_not_finite(dg):
    """No math domain error, nan or inf: a zero amplitude has no tail to cut."""
    with pytest.raises(ValueError, match="dg must be nonzero and finite"):
        truncation_horizon(dg, 1.0)


@pytest.mark.parametrize("dg", [1e-14, -1e-14, 1e-12])
def test_truncation_horizon_is_zero_for_an_amplitude_within_the_tail_tolerance(dg):
    """|dg| <= kappa * 1e-12 carries no more than the tolerance from t = 0 on:
    the horizon is 0, not a time before it."""
    assert truncation_horizon(dg, 1.0) == 0.0


@pytest.fixture
def deadline():
    """Fails a test that runs for more than 10 s instead of letting it hang."""

    def expire(signum, frame):
        pytest.fail("no answer within 10 s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


BAD_MODULATIONS = [
    *((bad, omega) for bad in (math.nan, math.inf, -math.inf, -0.5) for omega in (0.0, 1.0)),
    *((0.5, bad) for bad in (math.nan, math.inf, -math.inf, -1.0)),
]


class TestBadModulation:
    """A NaN omega once looped forever in ``negative_intervals`` and a
    negative one walked to negative times until ``math.exp`` overflowed:
    every entry point refuses a kappa or an omega that is not finite and
    nonnegative, at once."""

    @pytest.mark.parametrize("kappa, omega", BAD_MODULATIONS)
    @pytest.mark.parametrize("function", [
        lambda k, w: negative_intervals(0.75, 0.05, k, w),
        lambda k, w: nm_measure_closed_form(0.75, 0.05, k, w),
        lambda k, w: nm_measure_closed_form(0.75, 0.0, k, w),
        lambda k, w: channel_report(0.75, 0.05, k, w, "plus"),
        lambda k, w: is_non_markovian(MAP_RATES_S, MAP_RATES_F, k, w),
    ], ids=["negative_intervals", "closed_form", "closed_form_vanishing", "channel_report",
            "is_non_markovian"])
    def test_refused(self, function, kappa, omega, deadline):
        with pytest.raises(ValueError, match="kappa"):
            function(kappa, omega)
