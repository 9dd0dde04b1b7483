"""The closed-form non-Markov measure of damped-cosine rate channels.

A channel's rate gamma(t) = g_f + (g_s - g_f) e^{-kappa t} cos(omega t) turns
negative in windows, one inside each negative cosine lobe until the envelope
no longer reaches -g_f; the measure is the weight of those windows, the
CP-divisibility measure of Hall, Cresser, Li & Andersson, PRA 89, 042120
(2014).  This module is the Python reference of the compiled
``pontus_nm_total`` of ``_stepper.c``, which repeats its float operations in
the same order: the windows' edges by ``_roots.brentq``, the antiderivative's
sums and the geometric series of a vanishing final rate, each added left to
right.  ``compiled_total`` calls the kernel; ``pontus.nonmarkov`` dispatches
between the two and re-exports the public functions, and the kernel's
known-answer check (``dynamics._kernel_agrees``) compares them, which is why
this module sits below both.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from typing import Optional

from ._roots import brentq
from .errors import DivergentIntervalCount


def _lobes(omega: float):
    """(n, start, end) of the negative cosine lobes
    ((2n - 1.5) pi / omega, (2n - 0.5) pi / omega), n = 1, 2, ..."""
    for n in itertools.count(1):
        yield n, (2 * n - 1.5) * math.pi / omega, (2 * n - 0.5) * math.pi / omega


def _check_modulation(kappa: float, omega: float) -> None:
    """ValueError unless kappa and omega are finite and nonnegative: the lobe
    loop never ends on a NaN omega and walks to negative times on a negative
    one."""
    if not (0 <= kappa < math.inf and 0 <= omega < math.inf):
        raise ValueError("kappa and omega must be nonnegative and finite")


def negative_intervals(
    g_s: float, g_f: float, kappa: float, omega: float
) -> list:
    """Time windows where gamma(t) = g_f + (g_s - g_f) e^{-kt} cos(wt) < 0.

    Each window is bracketed inside one negative cosine lobe and its
    endpoints are the roots of the rate, located to 1e-12.
    """
    _check_modulation(kappa, omega)
    if kappa <= 0 and omega <= 0:
        raise ValueError("at least one of kappa, omega must be positive")
    if g_s < 0 or g_f < 0:
        raise ValueError("endpoint rates must be nonnegative")
    dg = g_s - g_f
    if omega == 0 or dg <= 0:
        # monotone approach from above (or from below with nonnegative
        # start): the rate never changes sign
        return []
    if g_f == 0:
        raise DivergentIntervalCount(
            "vanishing final rate: every negative lobe contributes"
        )
    c = g_f / dg
    if c >= 1.0:
        return []
    if kappa == 0:
        raise DivergentIntervalCount(
            "undamped modulation: negative lobes repeat forever"
        )

    def f(t: float) -> float:
        return math.exp(-kappa * t) * math.cos(omega * t) + c

    out = []
    for n, lo, hi in _lobes(omega):
        if math.exp(-kappa * lo) < c:
            break  # envelope can no longer reach the threshold
        t_min = ((2 * n - 1) * math.pi - math.atan2(kappa, omega)) / omega
        if f(t_min) < 0.0:
            t1 = brentq(f, lo, t_min, xtol=1e-12)
            t2 = brentq(f, t_min, hi, xtol=1e-12)
            out.append((float(t1), float(t2)))
    return out


def nm_measure_closed_form(
    g_s: float, g_f: float, kappa: float, omega: float
) -> float:
    """Total negative-rate weight of one channel over all times.

    Sums the antiderivative of the rate across the negative windows; the
    damped-cosine part of the antiderivative is the same constant at both
    window edges (the rate vanishes there) and cancels, leaving the linear
    term proportional to the final rate plus the sine part.  When the final
    rate vanishes every cosine lobe is a window, |sin| = 1 at its edges, and
    the sum over the lobes is the geometric series
    dg omega / (kappa^2 + omega^2) e^{-q/2} / (1 - e^{-q}), q = kappa pi / omega.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    _check_modulation(kappa, omega)
    dg = g_s - g_f
    k2w2 = kappa * kappa + omega * omega
    if g_f == 0 and dg > 0 and omega > 0:
        q = kappa * math.pi / omega
        return dg * omega / k2w2 * math.exp(-0.5 * q) / -math.expm1(-q)
    intervals = negative_intervals(g_s, g_f, kappa, omega)

    def antiderivative(t: float) -> float:
        return g_f * t + dg * omega / k2w2 * math.exp(-kappa * t) * math.sin(
            omega * t
        )

    total = 0.0  # left to right, as the compiled pontus_nm_total adds
    for t1, t2 in intervals:
        total += antiderivative(t2) - antiderivative(t1)
    return -total if intervals else 0.0  # no window: +0.0, not -0.0


def measure_total(rates_s, rates_f, kappa: float, omega: float) -> float:
    """``nm_measure_closed_form`` summed over the channels of rates_s ->
    rates_f, left to right as the compiled ``pontus_nm_total`` adds."""
    total = 0.0
    for a, b in zip(rates_s, rates_f):
        total += nm_measure_closed_form(float(a), float(b), kappa, omega)
    return total


def compiled_total(kernel, rates_s, rates_f, kappa: float, omega: float) -> Optional[float]:
    """``measure_total`` through the compiled ``pontus_nm_total``
    (``kernel.nm_total``), the same float; None where the kernel declines
    (kappa or omega not positive and finite, a rate not finite, or a channel
    on which the Python raises), so that the Python route runs and raises
    its own message."""
    pairs = [(float(a), float(b)) for a, b in zip(rates_s, rates_f)]
    row, out = ctypes.c_double * len(pairs), ctypes.c_double()
    code = kernel.nm_total(row(*(a for a, _ in pairs)), row(*(b for _, b in pairs)), len(pairs),
                           float(kappa), float(omega), ctypes.byref(out))
    return None if code else out.value
