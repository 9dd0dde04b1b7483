"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np
import pytest
from scipy import ndimage

from pontus import (
    BlochVector,
    FieldVector,
    GridAxis,
    ParameterPoint,
    RateTriple,
    SweepSpec,
    assemble_generator,
    channel_boundary_omega,
    gain,
    markov_boundary_alpha,
    negative_intervals,
    nm_measure_closed_form,
    nm_measure_quadrature,
    run_continuous,
    run_direct,
    scan_two_step,
    superoperator_oracle,
    sweep_kappa_omega,
    sweep_kappa_theta,
    trace_distances,
)
from pontus.dynamics import ConstantFlow

PLANAR_S = ParameterPoint.make((0.707, 0.707, 0.0), (0.5, 0.1, 0.0), "S")
PLANAR_F = ParameterPoint.make((0.707, 0.707, 0.0), (0.01, 0.05, 0.0), "F")

TILTED_S = ParameterPoint.make((0.183, 0.183, -0.966), (0.5, 0.1, 0.0), "S")
TILTED_F = ParameterPoint.make((0.183, 0.183, -0.966), (0.1, 0.5, 0.0), "F")

DETOUR_S = ParameterPoint.make((0.0, 0.998, 0.062), (0.0, 0.2, 0.0), "S")
DETOUR_A = ParameterPoint.make((0.0, 2.0, 2.0), (1.0, 0.0, 0.0), "A")
DETOUR_F = ParameterPoint.make((0.0, -0.966, 0.258), (0.0, 0.2, 0.0), "F")

MAP_RATES_S = RateTriple(0.75, 0.75, 0.75)
MAP_RATES_F = RateTriple(0.05, 0.1, 0.15)


def report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, detail


def shared_distance_series(a, b):
    n = min(len(a.trajectory.t), len(b.trajectory.t))
    bad = np.nonzero(np.abs(a.trajectory.t[:n] - b.trajectory.t[:n]) > 1e-9)[0]
    if len(bad):
        n = int(bad[0])
    return (
        a.trajectory.t[:n],
        a.trajectory.dist[:n],
        b.trajectory.dist[:n],
    )


def test_criterion_1_reference_speedup_and_slowdown():
    t0 = time.perf_counter()
    direct = run_direct(PLANAR_S, PLANAR_F)
    fast = run_continuous(PLANAR_S, PLANAR_F, kappa=0.2, omega=0.0)
    slow = run_continuous(PLANAR_S, PLANAR_F, kappa=0.035, omega=0.0)
    elapsed = time.perf_counter() - t0

    g_fast = gain(direct.tau, fast.tau).g
    g_slow = gain(direct.tau, slow.tau).g
    ok = (
        abs(direct.tau - 160.0) <= 16.0
        and abs(fast.tau - 60.0) <= 6.0
        and abs(g_fast - 1.66) <= 0.15
        and abs(slow.tau - 200.0) <= 20.0
        and g_slow < 0.0
        and elapsed < 5.0
    )
    report(
        1,
        ok,
        f"tau_dir={direct.tau:.2f} (160±16), tau_k0.2={fast.tau:.2f} (60±6), "
        f"gain={g_fast:.3f} (1.66±0.15), tau_k0.035={slow.tau:.2f} (200±20), "
        f"gain_slow={g_slow:.3f} (<0), runtime={elapsed:.2f}s (<5)",
    )


def test_criterion_2_crossing_case():
    t0 = time.perf_counter()
    direct = run_direct(TILTED_S, TILTED_F)
    cpm = run_continuous(TILTED_S, TILTED_F, kappa=0.6, omega=0.2)
    elapsed = time.perf_counter() - t0

    ts, dc, dd = shared_distance_series(cpm, direct)
    live = np.maximum(dc, dd) >= cpm.epsilon
    m = int(np.nonzero(live)[0][-1]) + 2
    diff = (dc - dd)[:m]
    sign = np.sign(diff)
    sign[np.abs(diff) <= 1e-8] = 0
    nz = np.nonzero(sign)[0]
    flips = [
        (nz[k], nz[k + 1])
        for k in range(len(nz) - 1)
        if sign[nz[k]] != sign[nz[k + 1]]
    ]
    crossing_times = [
        ts[i] + (ts[j] - ts[i]) * abs(diff[i]) / (abs(diff[i]) + abs(diff[j]))
        for i, j in flips
    ]
    g = gain(direct.tau, cpm.tau).g
    ok = (
        len(crossing_times) == 1
        and abs(crossing_times[0] - 13.0) <= 1.5
        and g > 0.0
        and elapsed < 5.0
    )
    report(
        2,
        ok,
        f"crossings={len(crossing_times)} at t={crossing_times[0]:.2f} (13±1.5), "
        f"gain={g:.3f} (>0), runtime={elapsed:.2f}s (<5)"
        if crossing_times
        else f"no curve crossing found (gain={g:.3f})",
    )


def test_criterion_3_inconclusive_regime():
    cpm = run_continuous(TILTED_S, TILTED_F, kappa=0.4, omega=0.45)
    ok = cpm.converged and cpm.inconclusive
    report(3, ok, f"kappa=0.4 omega=0.45 -> inconclusive={cpm.inconclusive}")


def test_criterion_4_two_step_classes_by_scan():
    t0 = time.perf_counter()
    t_is = []
    t_i = 0.05
    while t_i <= 30.0 + 1e-9:
        t_is.append(t_i)
        t_i = round(t_i + 0.05, 10)
    direct, rows = scan_two_step(DETOUR_S, DETOUR_A, DETOUR_F, t_is)
    found = {}
    for t_i, (tau, cls) in zip(t_is, rows):
        if cls not in found and cls not in ("no-effect", "timeout"):
            found[cls] = (round(t_i, 2), round(tau, 2))
    elapsed = time.perf_counter() - t0
    ok = (
        {"weak-type-A", "weak-type-B", "strong"} <= set(found) and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"first realizations {found}, tau_dir={direct.tau:.2f}, "
        f"runtime={elapsed:.1f}s (<60)",
    )


def test_criterion_5_gain_asymptotics():
    direct = run_direct(PLANAR_S, PLANAR_F)
    sudden = run_continuous(PLANAR_S, PLANAR_F, kappa=100.0, omega=0.0)
    g_sudden = gain(direct.tau, sudden.tau).g
    quasi = run_continuous(PLANAR_S, PLANAR_F, kappa=0.002, omega=0.0)
    if quasi.converged:
        g_quasi = gain(direct.tau, quasi.tau).g
        quasi_ok = g_quasi < -0.9
        quasi_note = f"gain(k=0.002)={g_quasi:.4f} (<-0.9)"
    else:
        quasi_ok = quasi.timed_out  # cap exhaustion also proves the slowdown
        quasi_note = "k=0.002 exhausted the time cap"
    ok = abs(g_sudden) < 0.02 and quasi_ok
    report(5, ok, f"|gain(k=100)|={abs(g_sudden):.2e} (<0.02), {quasi_note}")


@pytest.fixture(scope="module")
def desk_scale_maps():
    t0 = time.perf_counter()
    theta_map = sweep_kappa_theta(
        SweepSpec(
            rates_s=MAP_RATES_S,
            rates_f=MAP_RATES_F,
            kappa_axis=GridAxis.log("kappa", 0.01, 100.0, 30),
            second_axis=GridAxis.linear("theta", 0.0, math.pi / 2, 30),
        )
    )
    omega_map = sweep_kappa_omega(
        SweepSpec(
            rates_s=MAP_RATES_S,
            rates_f=MAP_RATES_F,
            kappa_axis=GridAxis.log("kappa", 0.01, 100.0, 30),
            second_axis=GridAxis.linear("omega", 0.0, 2.0, 30),
            h=FieldVector(1.0, 0.0, 0.0),
        )
    )
    return theta_map, omega_map, time.perf_counter() - t0


def test_criterion_6_desk_scale_maps(desk_scale_maps):
    theta_map, omega_map, elapsed = desk_scale_maps
    checks = {}

    for name, gm in (("theta", theta_map), ("omega", omega_map)):
        top = gm.gain[-1]
        checks[f"{name}: |G|<0.05 at largest kappa"] = bool(
            np.all(np.abs(top[~np.isnan(top)]) < 0.05)
            and np.count_nonzero(~np.isnan(top)) > 0
        )
        bottom = gm.gain[0]
        conv = ~np.isnan(bottom)
        checks[f"{name}: G<-0.5 at smallest kappa"] = bool(
            np.all(bottom[conv] < -0.5) and conv.any()
        )

    # a connected positive-gain region at intermediate kappa near the
    # perpendicular field
    mask = np.nan_to_num(theta_map.gain, nan=-1.0) > 0.0
    labels, n_comp = ndimage.label(mask)
    interior = slice(1, len(theta_map.kappa) - 1)
    perpendicular = theta_map.second >= 0.8 * math.pi / 2
    good_region = False
    for comp in range(1, n_comp + 1):
        cells = labels == comp
        if cells[interior, :][:, perpendicular].any() and cells.sum() >= 3:
            good_region = True
    checks["theta: connected G>0 region near pi/2"] = good_region

    # the non-Markovian mask must follow the min-channel boundary exactly
    flags_ok = True
    for i, kap in enumerate(omega_map.kappa):
        bounds = [
            channel_boundary_omega(gs, gf, kap)
            for gs, gf in zip(MAP_RATES_S.as_array(), MAP_RATES_F.as_array())
        ]
        w_min = min(b for b in bounds if b is not None)
        for j, om in enumerate(omega_map.second):
            if omega_map.non_markovian[i, j] != (om > w_min):
                flags_ok = False
    checks["omega: non-Markovian flags match boundary"] = flags_ok
    checks["runtime < 600 s"] = elapsed < 600.0

    ok = all(checks.values())
    detail = "; ".join(f"{k}={'yes' if v else 'NO'}" for k, v in checks.items())
    report(6, ok, f"{detail}; runtime={elapsed:.0f}s")


class TestCriterion7PropertySuites:
    def test_a_superoperator_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            p = ParameterPoint.make(
                rng.normal(scale=2, size=3), rng.uniform(0, 2, size=3)
            )
            a = assemble_generator(p)
            o = superoperator_oracle(p)
            worst = max(
                worst,
                float(np.max(np.abs(a.Lambda - o.Lambda))),
                float(np.max(np.abs(a.b - o.b))),
            )
        report("7a", worst <= 1e-12, f"max generator deviation {worst:.2e} (<=1e-12)")

    def test_b_markovian_contractivity(self):
        rng = np.random.default_rng(102)
        ok = True
        for _ in range(100):
            p = ParameterPoint.make(rng.normal(size=3), rng.uniform(0, 1.5, 3))
            flow = ConstantFlow(assemble_generator(p), 0.2)
            u = rng.normal(size=3)
            u *= rng.uniform(0, 1) / np.linalg.norm(u)
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            d = 0.5 * np.linalg.norm(flow.grid(u, 80) - flow.grid(v, 80), axis=1)
            ok = ok and bool(np.all(np.diff(d) <= 1e-10))
        report("7b", ok, "trace distance non-increasing on 100 random pairs")

    def test_c_closed_form_vs_quadrature(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(200):
            g_f = rng.uniform(0.02, 0.8)
            g_s = g_f + rng.uniform(0.0, 2.5)
            kappa = rng.uniform(0.05, 2.0)
            omega = rng.uniform(0.0, 3.0)
            closed = nm_measure_closed_form(g_s, g_f, kappa, omega)
            horizon = max(5.0, math.log(max(g_s - g_f, 1e-6) * 1e8) / kappa)
            quad_val = nm_measure_quadrature(g_s, g_f, kappa, omega, horizon)
            worst = max(worst, abs(closed - quad_val))
        report("7c", worst < 1e-8, f"max |closed - quadrature| = {worst:.2e} (<1e-8)")

    def test_d_boundary_sign_flip(self):
        rng = np.random.default_rng(104)
        ok = True
        for _ in range(50):
            g_f = rng.uniform(0.02, 0.5)
            g_s = g_f * rng.uniform(2.05, 8.0)
            kappa = rng.uniform(0.05, 1.0)
            w_b = kappa / markov_boundary_alpha(g_s, g_f)
            ok = ok and negative_intervals(g_s, g_f, kappa, w_b * (1 - 1e-6)) == []
            ok = ok and len(negative_intervals(g_s, g_f, kappa, w_b * (1 + 1e-6))) >= 1
        report("7d", ok, "interval emptiness flips at kappa/alpha (rel 1e-6)")

    def test_e_metric_axioms(self):
        rng = np.random.default_rng(105)
        pts = rng.normal(size=(3000, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= rng.uniform(0, 1, size=3000)[:, None] ** (1 / 3)
        ok = True
        for k in range(1000):
            a, b, c = (BlochVector.from_array(p).as_array() for p in pts[3 * k : 3 * k + 3])
            dab = trace_distances(a[None, :], b)[0]
            ok = ok and dab == trace_distances(b[None, :], a)[0]
            ok = ok and trace_distances(a[None, :], a)[0] == 0.0
            ok = ok and dab <= (
                trace_distances(a[None, :], c)[0] + trace_distances(c[None, :], b)[0] + 1e-15
            )
            ok = ok and 0.0 <= dab <= 1.0
        report("7e", ok, "metric axioms hold on 1000 random triples")

    def test_f_analytic_z_relaxation(self):
        pS = ParameterPoint.make((0, 0, 0.5), (1.0, 0.0, 0.0), "S")
        pF = ParameterPoint.make((0, 0, 0.5), (0.0, 0.2, 0.0), "F")
        res = run_direct(pS, pF)
        expected = math.log(1e4) / 0.2
        ok = res.converged and abs(res.tau - expected) <= 0.01
        report("7f", ok, f"tau={res.tau:.6f} vs ln(1e4)/0.2={expected:.6f} (±0.01)")
