import math

import numpy as np
import pytest

from pontus import (
    AffineGenerator,
    BallViolation,
    BlochVector,
    FieldVector,
    NegativeEndpointRate,
    NonFinite,
    ParameterPoint,
    RateTriple,
    Trajectory,
    trace_distances,
    validate_endpoint,
)


def random_ball_points(rng, n):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * rng.uniform(0, 1, size=n)[:, None] ** (1 / 3)


def distance(r1, r2) -> float:
    """Trace distance between two Bloch vectors, one row of ``trace_distances``."""
    return trace_distances(np.asarray(r1, dtype=float)[None, :], np.asarray(r2, dtype=float))[0]


class TestTraceDistance:
    def test_antipodal_pure_states(self):
        assert distance([0, 0, 1], [0, 0, -1]) == 1.0

    def test_identity(self):
        r = [0.3, -0.2, 0.5]
        assert distance(r, r) == 0.0

    def test_z_relaxation_analytic(self):
        # r_z(t) = -1 + 2 exp(-0.2 t) relaxing toward the south pole:
        # the distance to the pole is exp(-0.2 t), here at t = 10
        state = [0, 0, -1 + 2 * math.exp(-2.0)]
        assert distance(state, [0, 0, -1]) == pytest.approx(math.exp(-2.0), abs=1e-15)
        # measured from the opposite pole the complement applies
        assert distance(state, [0, 0, 1]) == pytest.approx(1 - math.exp(-2.0), abs=1e-15)

    def test_metric_axioms_on_random_points(self):
        rng = np.random.default_rng(7)
        pts = random_ball_points(rng, 3 * 1000)
        for a, b, c in zip(pts[::3], pts[1::3], pts[2::3]):
            dab = distance(a, b)
            assert dab == distance(b, a)
            assert 0.0 <= dab <= 1.0
            assert distance(a, a) == 0.0
            assert dab <= distance(a, c) + distance(c, b) + 1e-15

    def test_matches_density_matrix_route(self):
        # independent oracle: half trace norm of the 2x2 density-matrix
        # difference, via its eigenvalues
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)

        def rho(r):
            return 0.5 * (np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz)

        rng = np.random.default_rng(11)
        pts = random_ball_points(rng, 400)
        for r1, r2 in zip(pts[::2], pts[1::2]):
            oracle = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho(r1) - rho(r2))))
            assert abs(oracle - distance(r1, r2)) < 1e-12


class TestBlochVector:
    def test_rejects_outside_ball(self):
        with pytest.raises(BallViolation):
            BlochVector(0, 0, 1 + 1e-8)

    def test_renormalizes_marginal_overshoot(self):
        r = BlochVector(0, 0, 1 + 5e-10)
        assert r.norm() <= 1.0

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            BlochVector(float("nan"), 0, 0)

    def test_array_round_trip(self):
        arr = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(BlochVector.from_array(arr).as_array(), arr)


class TestFieldAndRates:
    def test_field_must_be_finite(self):
        with pytest.raises(NonFinite):
            FieldVector(np.inf, 0, 0)

    def test_rates_allow_transient_negativity(self):
        # schedules may pass through negative instantaneous rates
        r = RateTriple(-0.1, 0.2, 0.0)
        assert r.gamma_plus == -0.1


class TestValidateEndpoint:
    def test_accepts_reference_rates(self):
        p = ParameterPoint.make((0.707, 0.707, 0.0), (0.5, 0.1, 0.0), "S")
        assert validate_endpoint(p) is p

    def test_rejects_negative_endpoint_rate(self):
        p = ParameterPoint.make((0, 0, 1), (-0.1, 0.0, 0.0))
        with pytest.raises(NegativeEndpointRate):
            validate_endpoint(p)

    def test_accepts_zero_rates(self):
        # all-zero dissipation is a legal endpoint; the generator only
        # becomes singular once a steady state is requested
        p = ParameterPoint.make((0, 0, 1), (0, 0, 0))
        assert validate_endpoint(p) is p


class TestAffineGenerator:
    def test_requires_three_components(self):
        with pytest.raises(ValueError, match="generator must be a 3x3 matrix plus a 3-vector"):
            AffineGenerator(np.eye(2), np.zeros(2))

    def test_requires_equal_transverse_damping(self):
        lam = np.diag([-1.0, -2.0, -3.0])
        with pytest.raises(ValueError):
            AffineGenerator(lam, np.zeros(3))

    def test_requires_z_forcing(self):
        lam = np.diag([-1.0, -1.0, -3.0])
        with pytest.raises(ValueError):
            AffineGenerator(lam, np.array([0.5, 0.0, 0.0]))

    def test_arrays_are_frozen(self):
        g = AffineGenerator(np.diag([-1.0, -1.0, -2.0]), np.array([0, 0, 0.5]))
        with pytest.raises(ValueError):
            g.Lambda[0, 0] = 7.0


class TestTrajectory:
    def test_requires_increasing_times(self):
        tgt = BlochVector(0, 0, 0)
        r = np.zeros((2, 3))
        with pytest.raises(ValueError):
            Trajectory(
                t=np.array([0.0, 0.0]),
                r=r,
                rates_of=lambda ts: np.zeros((len(ts), 3)),
                target=tgt,
                distance_of=lambda t: 0.0,
            )

    def test_distances_are_the_row_wise_half_norm(self):
        rng = np.random.default_rng(11)
        r = rng.uniform(-0.6, 0.6, (257, 3))
        tgt = BlochVector(0.1, -0.3, 0.45)
        traj = Trajectory(
            t=np.arange(257) * 0.05,
            r=r,
            rates_of=lambda ts: np.zeros((len(ts), 3)),
            target=tgt,
            distance_of=lambda t: 0.0,
        )
        want = 0.5 * np.linalg.norm(r - tgt.as_array(), axis=1)
        assert np.array_equal(traj.dist, want)
        assert np.array_equal(trace_distances(r, tgt.as_array()), want)
        # each value is its row's alone, whatever the batch
        one = [trace_distances(r[k : k + 1], tgt.as_array())[0] for k in range(len(r))]
        assert np.array_equal(one, want)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trajectory(
                t=np.array([0.0, 0.05]),
                r=np.zeros((3, 3)),
                rates_of=lambda ts: np.zeros((len(ts), 3)),
                target=BlochVector(0, 0, 0),
                distance_of=lambda t: 0.0,
            )
