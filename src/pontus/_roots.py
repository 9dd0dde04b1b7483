"""Brent's bracketing root finder, step for step as ``scipy.optimize.brentq``.

A port of scipy's C ``brentq`` (Brent, Algorithms for Minimization Without
Derivatives, 1973, ch. 4) with the checks of its Python wrapper, so the
library needs no scipy import to locate a root: the same inverse quadratic
interpolation, secant and bisection rules, the same ``delta``, ``sbis`` and
step updates, hence the same evaluation points and the same returned float.
Where C divides by zero, its inf or NaN fails the step test and the step
bisects; here a zero denominator takes that branch directly.
"""

from __future__ import annotations

import operator
import sys
from math import copysign

_RTOL = 4 * sys.float_info.epsilon


def _nan(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Returns x with |x - x0| <= xtol + rtol |x| for a true root x0 of ``f``.
    Raises ValueError for ``xtol <= 0``, ``rtol < 4 eps``, a negative
    ``maxiter``, a NaN function value, or a bracket without a sign change,
    and RuntimeError after ``maxiter`` iterations without convergence; each
    with scipy's message.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre))
    if fpre != fpre:
        raise _nan(xpre)
    fcur = float(f(xcur))
    if fcur != fcur:
        raise _nan(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        stry = None  # stays None where C bisects, its step inf or NaN included
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                den = fcur - fpre
                if den:
                    stry = -fcur * (xcur - xpre) / den
            elif xpre != xcur and xblk != xcur:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
