import functools
import hashlib
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from pontus import (
    TOL_BALL,
    BallViolation,
    BlochVector,
    ConstantFlow,
    ExponentialCosineSchedule,
    FieldVector,
    GainMap,
    GridAxis,
    IntegratorConfig,
    ParameterPoint,
    RateTriple,
    SingularGenerator,
    SweepSpec,
    Trajectory,
    assemble_generator,
    gain_map_to_csv,
    integrate,
    product_integration_oracle,
    run_continuous,
    steady_state,
    superoperator_oracle,
    trace_distances,
    trajectory_to_csv,
    velocity_field_grid,
    velocity_field_to_csv,
)
from pontus import dynamics
from pontus.core import distance_evaluator
from pontus.dynamics import _CSV_BLOCK, _powers_of_ten, write_csv
from pontus.protocols import _threshold_analysis
from ramps import held

PLANAR_S = ParameterPoint.make((0.707, 0.707, 0.0), (0.5, 0.1, 0.0), "S")
PLANAR_F = ParameterPoint.make((0.707, 0.707, 0.0), (0.01, 0.05, 0.0), "F")


def gauss_solve3(a, b):
    """Hand-rolled 3x3 Gaussian elimination with partial pivoting (oracle)."""
    a = [list(map(float, row)) for row in a]
    b = list(map(float, b))
    for col in range(3):
        piv = max(range(col, 3), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, 3):
            f = a[r][col] / a[col][col]
            for c in range(col, 3):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x = [0.0, 0.0, 0.0]
    for r in (2, 1, 0):
        s = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, 3))
        x[r] = s / a[r][r]
    return np.array(x)


class TestAssembleGenerator:
    def test_z_field_pure_excitation(self):
        g = assemble_generator(ParameterPoint.make((0, 0, 1), (1, 0, 0)))
        expected = np.array([[-0.5, -2, 0], [2, -0.5, 0], [0, 0, -1]])
        assert np.array_equal(g.Lambda, expected)
        assert np.array_equal(g.b, [0, 0, 1])

    def test_symmetric_pumping_zero_forcing(self):
        g = assemble_generator(ParameterPoint.make((0, 0, 0), (0.3, 0.3, 0)))
        assert np.allclose(g.Lambda, np.diag([-0.3, -0.3, -0.6]), atol=1e-15)
        assert np.array_equal(g.b, [0, 0, 0])

    def test_drifts_are_antisymmetric_with_z_forcing(self):
        # the steppers read only each drift's diagonal and upper off-diagonal
        # entries and its forcing's z component (``coefficients``) and negate
        # the rest, which is exact for these forms alone: at every point and
        # in a ramp's differences, whose endpoints share the field
        rng = np.random.default_rng(26)
        off = np.triu_indices(3, 1)

        def rates():
            g = rng.uniform(0.0, 2.0, 3)
            g[rng.random(3) < 0.2] = 0.0
            return RateTriple.from_array(g)

        for k in range(1000):
            h = rng.normal(scale=2.0, size=3)
            h = np.where(rng.random(3) < 0.3, rng.choice([0.0, -0.0], 3), h)
            sched = ExponentialCosineSchedule(rates(), rates(), FieldVector.from_array(h), 1.0, 1.0)
            g = assemble_generator(ParameterPoint(sched.h, sched.gamma_s))
            lam_f, b_f, dlam, db = sched.parts
            for lam, b in ((g.Lambda, g.b), (lam_f, b_f), (dlam, db)):
                assert np.array_equal(lam[off], -lam.T[off]) and b[0] == b[1] == 0.0, k
            for (lam, b), c in zip(((lam_f, b_f), (dlam, db)),
                                   (sched.coefficients[:7], sched.coefficients[7:])):
                l00, l11, l22, l01, l02, l12, bz = c
                assert np.array_equal(lam, [[l00, l01, l02], [-l01, l11, l12], [-l02, -l12, l22]])
                assert np.array_equal(b, [0.0, 0.0, bz]), k

    def test_reference_diagonal(self):
        g = assemble_generator(PLANAR_S)
        assert g.Lambda[0, 0] == pytest.approx(-0.3)
        assert g.Lambda[1, 1] == pytest.approx(-0.3)
        assert g.Lambda[2, 2] == pytest.approx(-0.6)
        assert np.allclose(g.b, [0, 0, 0.4])


class TestSteadyState:
    def test_pure_excitation_pumps_to_north_pole(self):
        g = assemble_generator(ParameterPoint.make((0, 0, 1), (1, 0, 0)))
        assert np.allclose(steady_state(g).as_array(), [0, 0, 1], atol=1e-14)

    def test_balanced_rates_reach_maximally_mixed(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = rng.normal(size=3)
            g = assemble_generator(ParameterPoint.make(h, (0.4, 0.4, 0.1)))
            assert np.allclose(steady_state(g).as_array(), [0, 0, 0], atol=1e-12)

    def test_reference_point_against_elimination_oracle(self):
        g = assemble_generator(PLANAR_S)
        oracle = gauss_solve3(g.Lambda, -g.b)
        assert np.allclose(steady_state(g).as_array(), oracle, atol=1e-13)
        residual = np.linalg.norm(g.Lambda @ oracle + g.b)
        assert residual < 1e-10

    def test_zero_dissipation_is_singular(self):
        g = assemble_generator(ParameterPoint.make((0, 0, 1), (0, 0, 0)))
        with pytest.raises(SingularGenerator):
            steady_state(g)

    def test_pure_dephasing_with_axial_field_is_singular(self):
        g = assemble_generator(ParameterPoint.make((0, 0, 0.7), (0, 0, 0.5)))
        with pytest.raises(SingularGenerator):
            steady_state(g)


class TestVelocity:
    def test_vanishes_at_the_attractor(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = ParameterPoint.make(rng.normal(size=3), rng.uniform(0.05, 1, 3))
            g = assemble_generator(p)
            v = g.Lambda @ steady_state(g).as_array() + g.b
            assert np.linalg.norm(v) < 1e-10

    def test_forcing_alone_at_the_origin(self):
        g = assemble_generator(ParameterPoint.make((0, 0, 1), (1, 0, 0)))
        assert np.allclose(g.Lambda @ np.zeros(3) + g.b, [0, 0, 1])

    def test_matches_initial_slope_of_propagation(self):
        # one-sided second-order difference of the exact flow at t = 0
        g = assemble_generator(PLANAR_F)
        r0 = steady_state(assemble_generator(PLANAR_S)).as_array()
        d = 1e-6
        r1, r2 = ConstantFlow(g).states(r0, np.array([d, 2 * d]))
        fd = (-3 * r0 + 4 * r1 - r2) / (2 * d)
        assert np.allclose(g.Lambda @ r0 + g.b, fd, atol=1e-8)


class TestPropagateConstant:
    def test_zero_time_is_identity(self):
        g = assemble_generator(PLANAR_F)
        r0 = np.array([0.1, 0.2, -0.3])
        assert np.array_equal(ConstantFlow(g).state(r0, 0.0), r0)

    def test_z_relaxation_analytic(self):
        # pure decay channel along z: r_z(t) = -1 + 2 exp(-0.2 t)
        g = assemble_generator(ParameterPoint.make((0, 0, 0.8), (0, 0.2, 0)))
        r0 = np.array([0.0, 0.0, 1.0])
        for t in (0.5, 3.0, 10.0, 25.0):
            r_x, r_y, r_z = ConstantFlow(g).state(r0, t)
            assert r_z == pytest.approx(-1 + 2 * math.exp(-0.2 * t), abs=1e-12)
            assert abs(r_x) < 1e-14 and abs(r_y) < 1e-14

    def test_long_time_reaches_attractor(self):
        # the slowest mode of these parameters decays at rate 0.03, so the
        # horizon must be several hundred time units for an 1e-8 approach
        g = assemble_generator(PLANAR_F)
        r0 = steady_state(assemble_generator(PLANAR_S)).as_array()
        far = ConstantFlow(g).state(r0, 700.0)
        assert trace_distances(far[None, :], steady_state(g).as_array())[0] < 1e-8

    def test_singular_generator_pure_precession(self):
        # no dissipation: exact rotation about the field axis
        g = assemble_generator(ParameterPoint.make((0, 0, 1), (0, 0, 0)))
        r0 = np.array([0.5, 0.0, 0.2])
        t = 0.77
        r = ConstantFlow(g).state(r0, t)
        ang = 2 * t  # Larmor frequency is twice the field
        expected = [
            0.5 * math.cos(ang),
            0.5 * math.sin(ang),
            0.2,
        ]
        assert np.allclose(r, expected, atol=1e-12)


class TestConstantFlow:
    def test_grid_matches_pointwise_propagation(self):
        g = assemble_generator(PLANAR_F)
        r0 = steady_state(assemble_generator(PLANAR_S)).as_array()
        flow = ConstantFlow(g, 0.05)
        grid = flow.grid(r0, 2500)
        for k in (0, 1, 77, 1024, 1025, 2047, 2500):
            direct = ConstantFlow(g).state(r0, k * 0.05)
            assert np.allclose(grid[k], direct, atol=1e-11)

    def test_run_until_stops_at_threshold(self):
        g = assemble_generator(PLANAR_F)
        target = steady_state(g).as_array()
        r0 = steady_state(assemble_generator(PLANAR_S)).as_array()
        states, reached = ConstantFlow(g, 0.05).run_until(r0, target, 1e-5, 1e4)
        assert reached
        d = 0.5 * np.linalg.norm(states - target, axis=1)
        assert d[-1] < 1e-5
        assert np.all(d[:-1] >= 1e-5)

    def test_run_until_times_out(self):
        g = assemble_generator(PLANAR_F)
        target = steady_state(g).as_array()
        r0 = steady_state(assemble_generator(PLANAR_S)).as_array()
        states, reached = ConstantFlow(g, 0.05).run_until(r0, target, 1e-5, 2.0)
        assert not reached
        assert len(states) == 41  # 0 .. 2.0 inclusive

    @staticmethod
    def _pointwise(flow, r0, n):
        """The first n stride samples, one ``states`` call per time."""
        return np.array([flow.states(r0, np.array([k * flow.stride]))[0] for k in range(n)])

    @pytest.mark.parametrize(
        "h, gamma",
        [
            ((0.707, 0.707, 0.0), (0.01, 0.05, 0.0)),  # eigenmodes
            ((0.5, 0.0, 0.0), (0.0, 0.0, 1.0)),  # defective: expm fallback
        ],
    )
    def test_run_until_tables_match_pointwise_states(self, h, gamma):
        g = assemble_generator(ParameterPoint.make(h, gamma))
        target = steady_state(g).as_array()
        starts = (np.array([0.3, -0.5, 0.6]), np.array([-0.7, 0.1, -0.2]))
        # t_max 60 cuts the second chunk after 176 of its 1024 strides; a
        # threshold of 0 is never met, so every run goes to its cap
        for order in (starts, starts[::-1]):
            flow = ConstantFlow(g, 0.05)
            for r0, t_max in zip(order, (60.0, 110.0)):
                got, reached = flow.run_until(r0, target, 0.0, t_max)
                assert not reached and len(got) == round(t_max / 0.05) + 1
                assert np.array_equal(got, self._pointwise(flow, r0, len(got)))
            for r0 in order:  # a second run through the same flow
                got, _ = flow.run_until(r0, target, 0.0, 60.0)
                assert np.array_equal(got, self._pointwise(flow, r0, len(got)))

    @staticmethod
    def _augmented_route(g, r0, t):
        """Independent reference: the affine flow as one 4x4 exponential."""
        aug = np.zeros((4, 4))
        aug[:3, :3] = g.Lambda
        aug[:3, 3] = g.b
        e = expm(t * aug)
        return e[:3, :3] @ r0 + e[:3, 3]

    @pytest.mark.parametrize(
        "h, gamma",
        [
            # a steady state exists, but the eigenvalue -1 is double and defective
            ((0.5, 0.0, 0.0), (0.0, 0.0, 1.0)),
            ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),  # pure precession, singular
            ((0.0, 0.0, 0.7), (0.0, 0.0, 0.5)),  # dephasing along the field, singular
        ],
    )
    def test_fallback_matches_augmented_exponential(self, h, gamma):
        g = assemble_generator(ParameterPoint.make(h, gamma))
        r0 = np.array([0.3, -0.5, 0.6])
        flow = ConstantFlow(g, 0.05)
        grid = flow.grid(r0, 400)
        for k in (0, 1, 33, 400):
            want = self._augmented_route(g, r0, k * 0.05)
            assert np.max(np.abs(grid[k] - want)) <= 1e-11
        for t in (0.0, 0.013, 1.7, 19.99):
            want = self._augmented_route(g, r0, t)
            assert np.max(np.abs(flow.state(r0, t) - want)) <= 1e-11

    def test_random_generators_match_augmented_exponential(self):
        rng = np.random.default_rng(4242)
        worst = 0.0
        for _ in range(200):
            gamma = rng.uniform(0.0, 2.0, 3) * (rng.uniform(size=3) > 0.25)
            h = rng.normal(scale=rng.choice([0.1, 1.0, 3.0]), size=3)
            g = assemble_generator(ParameterPoint.make(h, gamma))
            r0 = rng.normal(size=3)
            r0 *= rng.uniform(0, 1) / np.linalg.norm(r0)
            ts = np.concatenate([[0.0], rng.uniform(0, 5, 4), rng.uniform(0, 1e3, 4)])
            got = ConstantFlow(g).states(r0, ts)
            for t, r in zip(ts, got):
                worst = max(worst, np.max(np.abs(r - self._augmented_route(g, r0, t))))
        assert worst <= 1e-10


class TestCrossingTimes:
    """``ConstantFlow.crossing_times`` on seeded random endpoint flows and a
    defective drift, so both evaluation routes are covered."""

    def test_random_endpoint_flows(self):
        rng = np.random.default_rng(2026)
        # a field of size a in the xy plane with pure dephasing 2a is
        # defective, as in ((0.5, 0, 0), (0, 0, 1)); near it, the expm route
        sizes, angles = rng.uniform(0.1, 2.0, 10), rng.uniform(0, 2 * math.pi, 10)
        near_defective = [
            ((a * math.cos(phi), a * math.sin(phi), 0.0), (0.0, 0.0, 2 * a * (1 + rel)))
            for a, phi, rel in zip(sizes, angles, rng.uniform(-1e-9, 1e-9, 10))
        ]
        points = [((0.5, 0.0, 0.0), (0.0, 0.0, 1.0))] + near_defective + [
            (
                rng.normal(scale=rng.choice([0.1, 1.0, 3.0]), size=3),
                rng.uniform(0.0, 2.0, 3) * (rng.uniform(size=3) > 0.25),
            )
            for _ in range(200)
        ]
        expm_route, worst = 0, 0.0
        for h, gamma in points:
            g = assemble_generator(ParameterPoint.make(h, gamma))
            target = steady_state(g).as_array()
            flow = ConstantFlow(g)
            expm_route += flow._modes is None
            r0 = rng.normal(size=3)
            r0 *= rng.uniform(0.2, 1.0) / np.linalg.norm(r0)
            ts = np.arange(0.0, 40.0, 0.01)
            d = 0.5 * np.linalg.norm(flow.states(r0, ts) - target, axis=1)
            assert np.all(np.diff(d) <= 1e-15), (h, gamma)  # never rises

            def dist(t):
                return 0.5 * np.linalg.norm(flow.state(r0, t) - target)

            level = d[-1] + rng.uniform(0.05, 0.95) * (d[0] - d[-1])
            k = int(np.flatnonzero(d < level)[0]) - 1  # d[k] >= level > d[k + 1]
            root = brentq(lambda t: dist(t) - level, ts[k], ts[k + 1], xtol=1e-14)
            near = target + 0.5 * level / d[0] * (r0 - target)  # starts below the level
            got = flow.crossing_times(
                [r0, r0, near], target, level, np.array([1e3, 0.5 * root, 1e3])
            )
            worst = max(worst, abs(got[0] - root))
            assert got[1] == math.inf and got[2] <= 1e-9, (h, gamma)
        assert expm_route == 11
        assert worst <= 1e-9


class TestSuperoperatorOracle:
    def test_unitary_limit_is_antisymmetric(self):
        g = superoperator_oracle(ParameterPoint.make((0, 0, 1), (0, 0, 0)))
        assert np.allclose(g.Lambda, -g.Lambda.T, atol=1e-14)
        assert np.allclose(g.b, 0, atol=1e-15)

    def test_single_channel_algebra(self):
        g = superoperator_oracle(ParameterPoint.make((0, 0, 0), (1, 0, 0)))
        assert np.allclose(g.Lambda, np.diag([-0.5, -0.5, -1.0]), atol=1e-14)
        assert np.allclose(g.b, [0, 0, 1], atol=1e-15)

    def test_agrees_with_assembly_on_1000_random_points(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p = ParameterPoint.make(
                rng.normal(scale=2, size=3), rng.uniform(0, 2, size=3)
            )
            a = assemble_generator(p)
            o = superoperator_oracle(p)
            assert np.max(np.abs(a.Lambda - o.Lambda)) <= 1e-12
            assert np.max(np.abs(a.b - o.b)) <= 1e-12

    def test_jump_operator_normalization(self):
        # the ladder jumps are unit normalized, the dephasing jump carries
        # squared norm 2; the drift assembly uses them as-is
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.trace(sp.conj().T @ sp).real == 1.0
        assert np.trace(sz.conj().T @ sz).real == 2.0


class TestIntegrate:
    def test_constant_schedule_matches_exact_flow(self):
        cfg = IntegratorConfig()
        sched = held(PLANAR_F)
        r0 = steady_state(assemble_generator(PLANAR_S))
        target = steady_state(assemble_generator(PLANAR_F))
        traj = integrate(sched, r0, target, cfg, eps=1e-4)
        assert not traj.timed_out
        flow = ConstantFlow(assemble_generator(PLANAR_F))
        for k in range(0, len(traj), 50):
            exact = flow.state(r0.as_array(), traj.t[k])
            assert np.linalg.norm(traj.r[k] - exact) < 10 * cfg.rel_tol

    def test_contractivity_of_markovian_flow(self):
        # distance between two evolved states never grows under constant
        # nonnegative rates
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = ParameterPoint.make(rng.normal(size=3), rng.uniform(0, 1.5, 3))
            g = assemble_generator(p)
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            w = rng.normal(size=3)
            w *= rng.uniform(0, 1) / np.linalg.norm(w)
            flow = ConstantFlow(g, 0.25)
            ga = flow.grid(v, 60)
            gb = flow.grid(w, 60)
            d = 0.5 * np.linalg.norm(ga - gb, axis=1)
            assert np.all(np.diff(d) <= 1e-10)

    def test_ball_preserved_for_nonnegative_rates(self):
        rng = np.random.default_rng(31)
        cfg = IntegratorConfig(t_cap=50.0)
        for _ in range(10):
            gs = rng.uniform(0, 1.5, 3)
            gf = rng.uniform(0.05, 1.5, 3)
            h = rng.normal(size=3)
            sched = ExponentialCosineSchedule(
                gamma_s=ParameterPoint.make(h, gs).gamma,
                gamma_f=ParameterPoint.make(h, gf).gamma,
                h=ParameterPoint.make(h, gf).h,
                kappa=rng.uniform(0.2, 2.0),
                omega=0.0,  # keeps every instantaneous rate nonnegative
            )
            v = rng.normal(size=3)
            r0 = BlochVector.from_array(v / np.linalg.norm(v) * 0.999)
            target = steady_state(assemble_generator(ParameterPoint.make(h, gf)))
            traj = integrate(sched, r0, target, cfg, eps=1e-4, t_end=30.0)
            assert np.max(np.linalg.norm(traj.r, axis=1)) <= 1.0 + 1e-9


def scipy_rk45(schedule, r0, target, cfg, eps, t_end=None):
    """Independent oracle: scipy's RK45 with the stop rule as a terminal event.

    Returns the solution and, unless the run leaves the Bloch ball, its
    samples as a Trajectory built the way ``integrate`` builds one.
    """
    tgt = target.as_array()

    def rhs(t, y):
        lam, b = schedule.generator(t)
        return lam @ y + b

    def stop(t, y):
        d = 0.5 * np.linalg.norm(y - tgt)
        return max(d - eps / 10.0, schedule.settle_bound(t) - eps)

    stop.terminal = True
    sol = solve_ivp(
        rhs,
        (0.0, cfg.t_cap if t_end is None else t_end),
        r0.as_array(),
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        dense_output=True,
        events=[stop] if t_end is None else None,
    )
    t_stop = float(sol.t[-1])
    ts = np.arange(0.0, t_stop, cfg.sample_stride)
    if t_stop - (ts[-1] if len(ts) else 0.0) > 1e-12:
        ts = np.append(ts, t_stop)
    rs = sol.sol(ts).T
    worst = max(np.max(np.linalg.norm(rs, axis=1)), np.max(np.linalg.norm(sol.y, axis=0)))
    if worst > 1.0 + TOL_BALL:
        return sol, None
    traj = Trajectory(
        t=ts,
        r=rs,
        rates_of=schedule.rates_array,
        target=target,
        distance_of=distance_evaluator(lambda t: sol.sol(t).T, tgt),
        timed_out=(t_end is None and sol.status == 0),
        envelope=schedule.envelope,
    )
    return sol, traj


def random_ramp(rng, omega=None):
    """Damped-cosine ramp with random rates and field, kappa log-uniform in
    [0.01, 10] and omega uniform in [0, 2] unless given; returns
    (schedule, r0, target)."""
    h = rng.normal(size=3)
    p_s = ParameterPoint.make(h, rng.uniform(0.0, 1.0, 3))
    p_f = ParameterPoint.make(h, rng.uniform(0.02, 1.0, 3))
    sched = ExponentialCosineSchedule(
        gamma_s=p_s.gamma,
        gamma_f=p_f.gamma,
        h=p_s.h,
        kappa=10 ** rng.uniform(-2.0, 1.0),
        omega=rng.uniform(0.0, 2.0) if omega is None else omega,
    )
    r0 = steady_state(assemble_generator(p_s))
    return sched, r0, steady_state(assemble_generator(p_f))


class TestSolveIvpOracle:
    """The in-house Dormand-Prince 5(4) stepper against scipy's RK45.

    Both use the same tableau, controller and event location, and the same
    initial step wherever scipy's clamp of it to the interval does not bind
    (here it never does: every run starts on S's attractor, so h0 = 1e-6 at
    the default tolerance), so they take the same steps up to round-off.
    They differ in the last bits of their dot products (scipy's go through
    BLAS, which fuses multiply-adds); that moves later step sizes by about
    1e-13 relative, and now and then a run ends with one step more or
    fewer.  Measured: 1 of 240 ramps of this random set (seeds 0-5; here
    seed 0's ramp 32), 2 of the 876 fig5a and 125 of the 900 fig4a map
    cells.  Such a run must still agree in outcome, and its states to the
    integration tolerance.
    """

    CFG = IntegratorConfig()
    EPS = 1e-4

    @staticmethod
    def counts(sol):
        accepted = len(sol.t) - 1
        return sol.nfev, accepted, (sol.nfev - 2) // 6 - accepted

    def test_random_ramps_match_scipy_rk45(self):
        rng = np.random.default_rng(0)
        n_diverged = n_ball = 0
        for k in range(40):
            sched, r0, target = random_ramp(rng)
            sol, ref = scipy_rk45(sched, r0, target, self.CFG, self.EPS)
            if ref is None:
                with pytest.raises(BallViolation):
                    integrate(sched, r0, target, self.CFG, self.EPS)
                n_ball += 1
                continue
            traj = integrate(sched, r0, target, self.CFG, self.EPS)
            assert traj.timed_out == ref.timed_out, k
            assert traj.t[-1] == pytest.approx(ref.t[-1], rel=1e-12, abs=0), k
            ours = (traj.nfev, traj.n_accepted, traj.n_rejected)
            if ours != self.counts(sol):
                n_diverged += 1
                assert abs(traj.nfev - sol.nfev) <= 6, k
                assert np.max(np.abs(traj.r - sol.sol(traj.t).T)) < 1e-8, k
            else:
                assert np.max(np.abs(traj.r - sol.sol(traj.t).T)) < 1e-12, k
            tau, inconclusive, _ = _threshold_analysis(traj, self.EPS)
            tau_ref, inconclusive_ref, _ = _threshold_analysis(ref, self.EPS)
            assert abs(tau - tau_ref) < 1e-9, k
            assert inconclusive == inconclusive_ref, k
        assert n_ball == 1
        assert n_diverged <= 1

    def test_fixed_horizon_matches_scipy_rk45(self):
        rng = np.random.default_rng(1)
        for k in range(10):
            sched, r0, target = random_ramp(rng)
            sol, ref = scipy_rk45(sched, r0, target, self.CFG, self.EPS, t_end=20.0)
            if ref is None:
                with pytest.raises(BallViolation):
                    integrate(sched, r0, target, self.CFG, self.EPS, t_end=20.0)
                continue
            traj = integrate(sched, r0, target, self.CFG, self.EPS, t_end=20.0)
            assert (traj.nfev, traj.n_accepted, traj.n_rejected) == self.counts(sol), k
            assert traj.t[-1] == 20.0 and not traj.timed_out
            assert np.max(np.abs(traj.r - sol.sol(traj.t).T)) < 1e-12, k


class TestRampProperties:
    """Seeded properties of the stop rule and of the Bloch ball."""

    CFG = IntegratorConfig()
    EPS = 1e-4

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-11])
    def test_early_stop_matches_fixed_horizon(self, rel_tol):
        # past the stop time the distance can no longer cross the cutoff, so
        # integrating further changes neither tau nor the flag, bit for bit.
        # Bit equality also needs both runs to take the same steps, though
        # their horizons differ (t_cap 1e4 against t_end): the initial step
        # reads no horizon, so they do, at rel_tol 1e-11 too, where d1 clears
        # the 1e-5 floor and h0 = 0.01 d0/d1 exceeds some of these horizons
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol / 10)
        rng = np.random.default_rng(2)
        n_compared = 0
        for k in range(40):
            sched, r0, target = random_ramp(rng)
            try:
                traj = integrate(sched, r0, target, cfg, self.EPS)
            except BallViolation:
                continue
            assert not traj.timed_out, k
            longer = integrate(sched, r0, target, cfg, self.EPS, t_end=1.5 * traj.t[-1])
            assert _threshold_analysis(longer, self.EPS)[:2] == _threshold_analysis(traj, self.EPS)[:2], k
            n_compared += 1
        assert n_compared >= 35

    def test_time_cap_never_moves_tau(self):
        # seed-2 ramp 2 at rel_tol 1e-11, where h0 = 0.01 d0/d1 is 2.4e13,
        # past every cap here: the first step must not read the cap
        rng = np.random.default_rng(2)
        for _ in range(3):
            sched, r0, target = random_ramp(rng)
        taus = set()
        for t_cap in (1e4, 1e3, 100.0):
            cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12, t_cap=t_cap)
            taus.add(_threshold_analysis(integrate(sched, r0, target, cfg, self.EPS), self.EPS)[0])
        assert taus == {23.132618481355735}

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-11])
    def test_stop_rule_never_changes_the_steps(self, rel_tol):
        # at one horizon T, as integrate's t_cap = T against t_end = T with
        # T 1.5 times the stop time, the stop rule only ends the run: its
        # step records are a byte prefix of the fixed-horizon run's; and so
        # are those of the stop-rule run at t_cap 1e4, as the horizon moves
        # no step before it; on the kernel route for every ramp and on the
        # Python route for every fourth (for all where no kernel loads)
        kernel = dynamics.ramp_kernel()
        routes = [] if kernel is None else [functools.partial(dynamics._compiled_steps, kernel)]
        rng = np.random.default_rng(2)
        n_compared = 0
        for k in range(40):
            sched, r0, target = random_ramp(rng)
            ramp = (sched.coefficients, sched.kappa, sched.omega, sched._dg_max)
            stop = (target.as_array().tolist(), self.EPS / 10.0, self.EPS)

            def run(stepper, stop, t_bound):
                steps, t, stopped, *_ = stepper(*ramp, stop, r0.as_array().tolist(), t_bound,
                                                rel_tol, rel_tol / 10)
                return memoryview(steps).tobytes(), t, stopped

            steppers = routes + ([dynamics._dormand_prince] if k % 4 == 0 or not routes else [])
            try:
                t_bound = 1.5 * run(steppers[0], stop, 1e4)[1]
            except BallViolation:
                continue
            for stepper in steppers:
                head, _, stopped = run(stepper, stop, t_bound)
                records = run(stepper, None, t_bound)[0]
                assert stopped and len(head) < len(records), k
                assert records.startswith(head), k
                assert records.startswith(run(stepper, stop, 1e4)[0]), k
            n_compared += 1
        assert n_compared >= 35

    def test_nonnegative_ramps_stay_in_ball(self):
        # at omega = 0 every rate is a convex combination of the nonnegative
        # endpoint rates, so the dynamics is a contraction of the ball
        rng = np.random.default_rng(3)
        for k in range(40):
            sched, r0, target = random_ramp(rng, omega=0.0)
            traj = integrate(sched, r0, target, self.CFG, self.EPS)
            assert np.max(np.linalg.norm(traj.r, axis=1)) <= 1.0 + TOL_BALL, k

    def test_ball_violation_ends_the_run_at_the_first_step_outside(self):
        # a fig5a map cell that leaves the ball near t = 19.5; the stop rule
        # alone would integrate it to t = 885
        s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75), "S")
        f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15), "F")
        with pytest.raises(BallViolation) as info:
            run_continuous(s, f, kappa=0.01, omega=2 / 11)
        found = re.search(r"at t = (\S+) \(\|r\| = (\S+)\)", str(info.value))
        assert found, str(info.value)
        assert 0.0 < float(found.group(1)) < 30.0
        assert float(found.group(2)) > 1.0 + TOL_BALL


def pinned_cases():
    """(name, schedule, r0, target, t_end) of the bit-identity guard.

    The ramps are held: m multiplies zero parts, and the states come from
    the pure-Python ``gauss_solve3``, so the inputs carry no libm or LAPACK
    round-off: fig1's F stage from its S point, then three seeded random
    generators.
    """

    def attractor(p):
        g = assemble_generator(p)
        return BlochVector.from_array(gauss_solve3(g.Lambda, -g.b))

    s = ParameterPoint.make((0.0, 0.998, 0.062), (0.0, 0.2, 0.0))
    f = ParameterPoint.make((0.0, -0.966, 0.258), (0.0, 0.2, 0.0))
    runs = [("fig1-const", held(f), s, f)]
    rng = np.random.default_rng(5)
    for k in range(3):
        h = rng.uniform(-1.0, 1.0, 3)
        # each case also draws a detour point and a switch time, which keeps
        # the seeded generators the ones the pins were recorded from
        s, _, f = (ParameterPoint.make(h, rng.uniform(lo, 1.0, 3)) for lo in (0.0, 0.0, 0.05))
        rng.uniform(0.5, 5.0)
        runs.append((f"seed5-{k}-const", held(f), s, f))
    return [
        (f"{name}-{mode}", sched, attractor(p_s), attractor(p_f), t_end)
        for name, sched, p_s, p_f in runs
        for mode, t_end in (("stop", None), ("t12", 12.0))
    ]


def pin(traj):
    """sha256 prefixes of t and r, with the step counters."""
    return (
        hashlib.sha256(traj.t.tobytes()).hexdigest()[:16],
        hashlib.sha256(traj.r.tobytes()).hexdigest()[:16],
        traj.nfev,
        traj.n_accepted,
        traj.n_rejected,
    )


class TestBitIdentity:
    """``integrate``'s samples and step counts, pinned bit for bit.

    The values were recorded from an earlier version of the stepper that
    took the same steps; any change to a float it produces shows here.
    These are the held ramps, whose m multiplies zero parts.  The
    damped-cosine ramps, whose m calls exp and cos, are pinned the same way
    by ``test_protocols.TestContinuousBitIdentity``.
    """

    PINNED = {
        "fig1-const-stop": ("f1ec86f2cd9b5d59", "68dd9abb62137ff8", 5906, 984, 0),
        "fig1-const-t12": ("150045520fdb0809", "0d0edfa7987071d7", 1904, 317, 0),
        "seed5-0-const-stop": ("1aaa15d2c05057e6", "678e13a58264b2be", 368, 61, 0),
        "seed5-0-const-t12": ("150045520fdb0809", "37004b7f002006ae", 488, 81, 0),
        "seed5-1-const-stop": ("6267294950ef1389", "2c1e668780791199", 824, 137, 0),
        "seed5-1-const-t12": ("150045520fdb0809", "d611f927313c72e3", 962, 160, 0),
        "seed5-2-const-stop": ("ba94831030682e5d", "5e06d146a4b804f5", 674, 112, 0),
        "seed5-2-const-t12": ("150045520fdb0809", "84e890b275979482", 746, 124, 0),
    }

    def test_pinned_outputs(self):
        cfg = IntegratorConfig()
        got = {
            name: pin(integrate(sched, r0, target, cfg, 1e-4, t_end=t_end))
            for name, sched, r0, target, t_end in pinned_cases()
        }
        assert got == self.PINNED


class TestProductIntegrationOracle:
    SCHED = ExponentialCosineSchedule(
        gamma_s=PLANAR_S.gamma,
        gamma_f=PLANAR_F.gamma,
        h=PLANAR_S.h,
        kappa=0.2,
        omega=0.5,
    )

    def test_zero_time_is_identity(self):
        r0 = BlochVector(0.1, 0.0, 0.3)
        assert product_integration_oracle(self.SCHED, r0, 0.0, 100) is r0

    def test_constant_schedule_is_exact(self):
        sched = held(PLANAR_F)
        r0 = steady_state(assemble_generator(PLANAR_S))
        for n in (1, 7):
            approx = product_integration_oracle(sched, r0, 5.0, n).as_array()
            exact = ConstantFlow(assemble_generator(PLANAR_F)).state(r0.as_array(), 5.0)
            assert np.allclose(approx, exact, atol=1e-12)

    def test_converges_to_adaptive_solution(self):
        r0 = steady_state(assemble_generator(PLANAR_S))
        target = steady_state(assemble_generator(PLANAR_F))
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12)
        ref = integrate(self.SCHED, r0, target, cfg, eps=1e-4, t_end=10.0).r[-1]
        errs = [
            np.linalg.norm(
                product_integration_oracle(self.SCHED, r0, 10.0, n).as_array() - ref
            )
            for n in (1000, 2000, 4000)
        ]
        assert errs[1] < errs[0] / 1.9  # at least first order per halving
        assert errs[2] < errs[1] / 1.9


class TestExports:
    def test_trajectory_csv_round_trip(self, tmp_path):
        sched = held(PLANAR_F)
        r0 = steady_state(assemble_generator(PLANAR_S))
        target = steady_state(assemble_generator(PLANAR_F))
        traj = integrate(sched, r0, target, IntegratorConfig(), 1e-4, t_end=2.0)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,rx,ry,rz,dist,gp,gm,gz"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape == (len(traj), 8)
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1:4], traj.r)
        assert np.array_equal(data[:, 4], traj.dist)
        assert np.array_equal(data[:, 5:8], traj.rates)

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        def per_value(header, rows):  # the writers' previous form
            lines = [",".join(format(float(v), ".17g") for v in row) for row in rows]
            return ("\n".join([header] + lines) + "\n").encode()

        sched = ExponentialCosineSchedule(
            gamma_s=PLANAR_S.gamma, gamma_f=PLANAR_F.gamma, h=PLANAR_S.h,
            kappa=0.2, omega=0.5,
        )
        r0 = steady_state(assemble_generator(PLANAR_S))
        target = steady_state(assemble_generator(PLANAR_F))
        traj = integrate(sched, r0, target, IntegratorConfig(), 1e-4)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        rows = np.column_stack([traj.t, traj.r, traj.dist, traj.rates])
        assert path.read_bytes() == per_value("t,rx,ry,rz,dist,gp,gm,gz", rows)

        rows = velocity_field_grid(assemble_generator(PLANAR_F), 0.25)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308,
                   1e300, 1 / 3, -0.1]
        rows[: len(special), 3] = special
        velocity_field_to_csv(rows, path)
        assert path.read_bytes() == per_value("rx,ry,rz,vx,vy,vz,speed", rows)

    SPECIALS = [np.nan, np.inf, -np.inf, 5e-324, 1e300, 1 / 3, -0.0, 0.0]

    @staticmethod
    def ties(rng, per_k):
        """Exact ties at the 17th digit: odd m / 2**k in [10**(17 - k), 10**(18 - k)),
        whose decimal expansions have 18 significant digits, the last a 5."""
        out = []
        for k in range(3, 25):
            lo, hi = -(-(10**17) * 2**k // 10**k), -(-(10**18) * 2**k // 10**k)
            m = rng.integers(lo, hi, size=per_k) | 1
            out.append(m[m < hi] / 2.0**k)
        return np.concatenate(out)

    @classmethod
    def edges(cls):
        """Where a %.17g formatter can go wrong: exact ties, every power of ten
        in [1e-300, 1e300] and its neighbours up to 4 ulps away, integers near
        2**53, 1e16 and 1e17, the grid k 0.05, and both edges of the writer's
        fast range [1e-280, 1e280]."""
        near = [np.array([float(f"1e{p}") for p in range(-300, 301)]), np.array([1e-280, 1e280])]
        for ulps, center in ((4, near[0]), (8, near[1])):
            up = down = center
            for _ in range(ulps):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
                near += [up, down]
        ints = [float(c + d) for c in (2**53, 10**16, 10**17) for d in range(-40, 41)]
        grid = np.arange(-400, 401) * 0.05
        values = np.concatenate([cls.ties(np.random.default_rng(19), 200), *near, ints, grid])
        return np.concatenate([values, -values])

    def test_ties_are_exact(self):
        for v in self.ties(np.random.default_rng(19), 20).tolist():
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, v

    @pytest.mark.parametrize("shift", [-1, 0, 1, 2, 3])  # rows: 1, B-1, B, B+1, 2B+1
    def test_block_writer_matches_per_value_formatting(self, shift, tmp_path):
        B = _CSV_BLOCK
        n = {-1: 1, 0: B - 1, 1: B, 2: B + 1, 3: 2 * B + 1}[shift]
        rng = np.random.default_rng(1300 + shift)
        i = np.arange(n)
        edges = self.edges()
        rows = np.column_stack([
            rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n),  # varying
            np.full(n, 0.25),  # constant
            np.take(self.SPECIALS, (i // B + shift) % 8),  # changes at block edges
            np.where(i % B == B // 2, -1e300, 1 / 3),  # changes inside a block
            np.where(i == n - 1, -0.0, 0.0),  # "constant" with one signed zero
            rng.choice(self.SPECIALS, size=n),
            rng.choice([0.0, -0.0], size=n),
            np.take(edges, (i + 3 * B * (shift + 1)) % len(edges)),
            rng.choice(edges, size=n),
        ])
        header = ",".join(f"c{j}" for j in range(rows.shape[1]))
        path = tmp_path / "table.csv"
        write_csv(path, header, list(rows.T))
        lines = [",".join(format(v, ".17g") for v in row) for row in rows.tolist()]
        assert path.read_bytes() == ("\n".join([header] + lines) + "\n").encode()

    def test_writer_matches_per_value_formatting_on_a_million_values(self, tmp_path):
        rng = np.random.default_rng(1901)
        n = 1 << 20
        edges, ties = self.edges(), self.ties(rng, 6000)
        bits = rng.integers(0, 2**64, size=n // 2, dtype=np.uint64).view(np.float64)
        sign = rng.choice([-1.0, 1.0], size=n)
        log_uniform = sign * 10.0 ** rng.uniform(-300, 300, size=n)
        values = np.concatenate([edges, ties, bits, log_uniform])[:n]
        columns = list(values.reshape(8, -1))
        path = tmp_path / "million.csv"
        write_csv(path, "a,b,c,d,e,f,g,h", columns)
        rows = zip(*(col.tolist() for col in columns))
        lines = [b",".join(b"%.17g" % v for v in row) for row in rows]
        assert path.read_bytes() == b"\n".join([b"a,b,c,d,e,f,g,h"] + lines) + b"\n"

    def test_writer_of_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, "t,rx", [np.empty(0), np.empty(0)])
        assert path.read_bytes() == b"t,rx\n"

    @pytest.mark.parametrize("columns", [
        [np.zeros(3), np.zeros(2)],  # the kernel would read past the shorter
        [np.zeros(3), np.arange(3)],  # neither float64 nor bytes
        [np.zeros(3), np.zeros(3, np.float32)],
    ])
    def test_writer_refuses_columns_it_cannot_write(self, columns, tmp_path):
        with pytest.raises(ValueError, match="float64 or bytes arrays of one length"):
            write_csv(tmp_path / "bad.csv", "a,b", columns)
        assert not (tmp_path / "bad.csv").exists()

    def test_power_table_is_exact(self):
        hi, lo = _powers_of_ten()
        for p, h, l in zip(range(-300, 301), hi.tolist(), lo.tolist()):
            assert h == float(Fraction(10) ** p)  # the nearest double
            assert l == float(Fraction(10) ** p - Fraction(h))  # the nearest double to the rest

    def test_block_writer_gain_map_matches_per_value_formatting(self, tmp_path):
        B = _CSV_BLOCK
        n1, n2 = 33, 64  # 2112 cells: blocks of whole kappa rows
        rng = np.random.default_rng(13)
        spec = SweepSpec(
            rates_s=RateTriple(0.75, 0.75, 0.75),
            rates_f=RateTriple(0.05, 0.1, 0.15),
            kappa_axis=GridAxis.log("kappa", 0.01, 100.0, n1),
            second_axis=GridAxis.linear("omega", 0.0, 2.0, n2),
            h=FieldVector(1.0, 0.0, 0.0),
        )
        statuses = ["ok", "timeout", "ball-violation", "error:ValueError", "direct-timeout"]
        status = [[str(rng.choice(statuses)) for _ in range(n2)] for _ in range(n1)]
        status[n1 - 1] = ["odd%s%%status"] * n2  # the last block: one row, constant
        tau_cpm = rng.uniform(1.0, 100.0, (n1, n2))
        tau_cpm[: B // n2] = np.nan  # the whole first block
        tau_cpm[B // n2 :, 5] = np.nan
        gm = GainMap(
            spec=spec,
            kappa=np.asarray(spec.kappa_axis.values),
            second=np.asarray(spec.second_axis.values),
            tau_dir=np.full((n1, n2), 75.07195599619169),
            tau_cpm=tau_cpm,
            gain=np.where(np.isnan(tau_cpm), np.nan, 75.07195599619169 / tau_cpm),
            f_total=np.where(rng.random((n1, n2)) < 0.5, 0.0, rng.random((n1, n2))),
            inconclusive=rng.random((n1, n2)) < 0.1,
            non_markovian=np.tile(np.arange(n2) > 20, (n1, 1)),
            status=status,
            boundary=[],
        )
        path = tmp_path / "map.csv"
        gain_map_to_csv(gm, path)
        fmt = lambda x: format(float(x), ".17g")  # noqa: E731
        lines = ["axis1,axis2,tau_dir,tau_cpm,gain,inconclusive,non_markovian,f_total,status"]
        for a in range(n1):
            for b in range(n2):
                lines.append(",".join([
                    fmt(gm.kappa[a]), fmt(gm.second[b]), fmt(gm.tau_dir[a, b]),
                    fmt(gm.tau_cpm[a, b]), fmt(gm.gain[a, b]),
                    "true" if gm.inconclusive[a, b] else "false",
                    "true" if gm.non_markovian[a, b] else "false",
                    fmt(gm.f_total[a, b]), gm.status[a][b],
                ]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_velocity_field_zero_speed_at_attractor(self):
        # balanced pumping parks the attractor at the origin, a grid point
        g = assemble_generator(ParameterPoint.make((0.3, 0.1, 0.9), (0.4, 0.4, 0)))
        rows = velocity_field_grid(g, spacing=0.25, max_radius=1.0)
        at_origin = rows[np.all(rows[:, :3] == 0.0, axis=1)]
        assert len(at_origin) == 1
        assert at_origin[0, 6] < 1e-14

    def test_velocity_field_respects_radius(self, tmp_path):
        g = assemble_generator(PLANAR_F)
        rows = velocity_field_grid(g, spacing=0.1, max_radius=0.25)
        assert np.all(np.linalg.norm(rows[:, :3], axis=1) < 0.25)
        path = tmp_path / "vel.csv"
        velocity_field_to_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "rx,ry,rz,vx,vy,vz,speed"

    def test_precession_speed_constant_on_circles(self):
        # without dissipation the speed depends only on the distance from
        # the field axis
        g = assemble_generator(ParameterPoint.make((0, 0, 1), (0, 0, 0)))
        rows = velocity_field_grid(g, spacing=0.2, max_radius=1.0)
        rho = np.hypot(rows[:, 0], rows[:, 1])
        ring = rows[np.abs(rho - 0.2) < 1e-12]
        assert len(ring) >= 4
        assert np.ptp(ring[:, 6]) < 1e-13


@pytest.mark.parametrize("spacing", [0.0, -0.1, math.nan, math.inf])
def test_velocity_field_refuses_a_spacing_that_is_not_positive_and_finite(spacing):
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        velocity_field_grid(assemble_generator(PLANAR_F), spacing)


@pytest.mark.parametrize("max_radius", [0.0, -0.5, math.nan, math.inf])
def test_velocity_field_refuses_a_radius_that_is_not_positive_and_finite(max_radius):
    with pytest.raises(ValueError, match="max_radius must be positive and finite"):
        velocity_field_grid(assemble_generator(PLANAR_F), 0.25, max_radius)


@pytest.mark.usefixtures("python_route")
class TestExportsPythonRoute(TestExports):
    """The same writer tests, on the same data, with every row formatted by
    ``%``."""


class TestIntegratorConfig:
    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_cap=-1.0)

    @pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "t_cap", "sample_stride"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_settings(self, key, value):
        # the cap and the stride size a run's sample grid, which must be finite
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**{key: value})

    def test_as_dict_reproduces_the_config(self):
        default = IntegratorConfig().as_dict()
        assert list(default) == ["rel_tol", "abs_tol", "t_cap", "sample_stride"]
        assert IntegratorConfig(**default) == IntegratorConfig()
        custom = IntegratorConfig(rel_tol=1e-7, sample_stride=0.1)
        assert IntegratorConfig(**custom.as_dict()) == custom

    def test_integrate_rejects_nonpositive_horizon(self):
        # the step loop ends only at the horizon, so an infinite one never
        # would
        sched = held(PLANAR_F)
        r0 = steady_state(assemble_generator(PLANAR_S))
        target = steady_state(assemble_generator(PLANAR_F))
        for t_end in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="t_end must be positive and finite"):
                integrate(sched, r0, target, IntegratorConfig(), 1e-4, t_end=t_end)


@pytest.mark.usefixtures("python_route")
class TestBitIdentityPythonRoute(TestBitIdentity):
    """The same pins with the Python stepper forced."""
