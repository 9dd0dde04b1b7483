"""Non-Markovianity of damped-cosine rate schedules.

A channel contributes whenever its instantaneous rate turns negative.  The
accumulated weight of the negative windows admits a closed form on every
channel (through the antiderivative of the rate, or a geometric series over
the cosine lobes when the final rate vanishes; ``_measure``, re-exported
here), with an adaptive quadrature as the independent cross-check, and the
Markovian/non-Markovian boundary in the (kappa, omega) plane follows from a
tangency condition on the first negative lobe.  Window edges and the
tangency slope are roots found by the in-house Brent solver
(``_roots.brentq``, bit for bit scipy's ``brentq``); scipy is imported only
by the quadrature oracle.  The three-channel measure of ``is_non_markovian``
and of every gain-map cell is computed by the compiled kernel library
(``_stepper.c``, loaded by ``dynamics.ramp_kernel``) where one loads, with
the same floats as the Python closed form, which runs everywhere else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._measure import (
    _check_modulation,
    _lobes,
    compiled_total,
    measure_total,
    negative_intervals,
    nm_measure_closed_form,
)
from ._roots import brentq
from .dynamics import ramp_kernel
from .errors import DivergentIntervalCount, NoSolution

CHANNELS = ("plus", "minus", "z")

#: Tail weight left beyond ``truncation_horizon``, where a report cuts an
#: infinite window list short.
_TAIL_TOL = 1e-12
#: Absolute error budget of the quadrature oracle, shared by its pieces.
_QUAD_TOL = 1e-10


def truncation_horizon(dg: float, kappa: float) -> float:
    """Time beyond which a modulation of amplitude |dg| damped at rate kappa
    carries less than ``_TAIL_TOL`` weight: the T of |dg| e^{-kappa T} / kappa
    = _TAIL_TOL, or 0.0 where |dg| <= kappa _TAIL_TOL, whose whole tail
    carries no more."""
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    if not 0 < abs(dg) < math.inf:
        raise ValueError("dg must be nonzero and finite")
    return max(0.0, math.log(abs(dg) / (kappa * _TAIL_TOL)) / kappa)


@dataclass(frozen=True)
class NmChannelReport:
    """Negative-rate bookkeeping of one dissipation channel."""

    channel: str
    f_value: float
    n_intervals: int
    intervals: Tuple[Tuple[float, float], ...]


def nm_measure_quadrature(
    g_s: float, g_f: float, kappa: float, omega: float, T: float
) -> float:
    """Accumulated negative-rate weight of one channel up to time T.

    Pure quadrature of the instantaneous rate
    gamma(t) = g_f + (g_s - g_f) e^{-kappa t} cos(omega t); shares nothing
    with the closed-form route, so the two can cross-check each other.  The
    kinks of min(0, .) defeat the error estimator of adaptive rules, so the
    domain is first split at the rate's sign changes (located on a sample
    grid dense enough that no sign window is skipped, and sharpened by
    bisection); the negative stretches are then smooth and integrate
    reliably.  The only caller of scipy's ``quad``, imported here, so that
    importing pontus loads no scipy.
    """
    from scipy.integrate import quad

    if not 0 < T < math.inf:
        raise ValueError("horizon T must be positive and finite")
    _check_modulation(kappa, omega)
    dg = g_s - g_f

    def rate(t: float) -> float:
        return float(g_f + dg * (math.exp(-kappa * t) * math.cos(omega * t)))

    n_segments = max(8, int(math.ceil(T * omega / math.pi)) + 1)
    grid = np.linspace(0.0, T, 128 * n_segments + 1)
    neg = g_f + (np.exp(-kappa * grid) * np.cos(omega * grid)) * dg < 0.0
    if not neg.any():
        return 0.0
    cuts = [0.0]
    for k in np.nonzero(neg[:-1] != neg[1:])[0]:
        lo, hi = grid[k], grid[k + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (rate(mid) < 0.0) == neg[k]:
                lo = mid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))
    cuts.append(T)
    pieces = [
        (a, b)
        for a, b in zip(cuts[:-1], cuts[1:])
        if rate(0.5 * (a + b)) < 0.0
    ]
    total = 0.0
    for a, b in pieces:
        val, _ = quad(
            lambda s: -rate(s), a, b, limit=200,
            epsabs=_QUAD_TOL / len(pieces),
        )
        total += val
    return total


def markov_boundary_alpha(g_s: float, g_f: float) -> float:
    """Slope parameter of the per-channel boundary omega(kappa) = kappa/alpha.

    alpha solves exp(-a (pi - atan a)) / sqrt(1 + a^2) = g_f / (g_s - g_f),
    the condition that the first negative cosine lobe is exactly tangent to
    zero; its left side decreases from 1, so a solution exists only for a
    ratio strictly between 0 and 1.
    """
    if g_s <= g_f:
        raise NoSolution("no modulation overshoot: rates never turn negative")
    ratio = g_f / (g_s - g_f)
    if ratio <= 0:
        raise NoSolution("tangency ratio must be positive")
    if ratio >= 1:
        raise NoSolution("modulation too weak to reach zero")

    def f(a: float) -> float:
        return (
            math.exp(-a * (math.pi - math.atan(a))) / math.sqrt(1.0 + a * a)
            - ratio
        )

    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e6:
            raise NoSolution("tangency equation has no root below 1e6")
    return float(brentq(f, 0.0, hi, xtol=1e-12))


def channel_boundary_omega(g_s: float, g_f: float, kappa: float) -> Optional[float]:
    """Least omega at which a channel turns non-Markovian, None if it never
    does.  A vanishing final rate makes any oscillation non-Markovian."""
    return _least_boundary_omega(_boundary_slopes([g_s], [g_f]), kappa)


def _boundary_slopes(rates_s: Sequence[float], rates_f: Sequence[float]) -> list:
    """Per channel, the alpha of its boundary omega = kappa / alpha
    (``markov_boundary_alpha``), which does not depend on kappa: inf for a
    vanishing final rate, which any oscillation makes non-Markovian, and None
    for a channel that never turns non-Markovian."""
    slopes = []
    for g_s, g_f in zip(rates_s, rates_f):
        g_s, g_f = float(g_s), float(g_f)
        if g_f == 0 and g_s > 0:
            slopes.append(math.inf)
            continue
        try:
            slopes.append(markov_boundary_alpha(g_s, g_f))
        except NoSolution:
            slopes.append(None)
    return slopes


def _least_boundary_omega(slopes, kappa: float) -> Optional[float]:
    """Least ``channel_boundary_omega`` over the channels of ``slopes``
    (``_boundary_slopes``), None if every channel stays Markovian."""
    bounds = [0.0 if a == math.inf else kappa / a for a in slopes if a is not None]
    return min(bounds) if bounds else None


def is_non_markovian(
    rates_s: Sequence[float],
    rates_f: Sequence[float],
    kappa: float,
    omega: float,
):
    """Whether the three-channel schedule breaks Markovianity, plus the total
    accumulated measure over all channels."""
    return _non_markovian(rates_s, rates_f, kappa, omega, None)


def _non_markovian(rates_s, rates_f, kappa: float, omega: float, slopes):
    """``is_non_markovian`` on the rates' ``_boundary_slopes``, found here
    when ``slopes`` is None; a sweep over kappa and omega finds them once.
    The measure is the compiled kernel's (``_measure.compiled_total``) where
    one loads, else, or where the kernel declines, ``measure_total``'s: the
    same float."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    _check_modulation(kappa, omega)
    gs = np.asarray(rates_s, dtype=float)
    gf = np.asarray(rates_f, dtype=float)
    if omega == 0:
        return False, 0.0
    least = _least_boundary_omega(_boundary_slopes(gs, gf) if slopes is None else slopes, kappa)
    flag = least is not None and omega > least
    kernel = ramp_kernel()
    total = None if kernel is None else compiled_total(kernel, gs, gf, kappa, omega)
    if total is None:
        total = measure_total(gs, gf, kappa, omega)
    return flag, float(total)


def channel_report(
    g_s: float, g_f: float, kappa: float, omega: float, channel: str
) -> NmChannelReport:
    """Per-channel summary: measure, window count, and the windows."""
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    f_value = nm_measure_closed_form(g_s, g_f, kappa, omega)  # first: it refuses kappa <= 0
    try:
        intervals = tuple(negative_intervals(g_s, g_f, kappa, omega))
    except DivergentIntervalCount:
        # report the windows inside the truncation horizon
        horizon = truncation_horizon(g_s - g_f, kappa)
        intervals = tuple(
            (lo, hi)
            for _, lo, hi in itertools.takewhile(
                lambda lobe: lobe[1] < horizon, _lobes(omega)
            )
        )
    return NmChannelReport(
        channel=channel,
        f_value=float(f_value),
        n_intervals=len(intervals),
        intervals=intervals,
    )


def boundary_curve(
    rates_s: Sequence[float], rates_f: Sequence[float], kappas: Sequence[float]
) -> list:
    """Samples (kappa, omega_min) of the least non-Markovian frequency over
    all channels; omega_min is None where every channel stays Markovian."""
    slopes = _boundary_slopes(rates_s, rates_f)
    return [(float(kap), _least_boundary_omega(slopes, float(kap))) for kap in kappas]
