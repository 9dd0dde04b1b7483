"""Classification of relaxation speed-ups and the gain function.

Every two-step class comes from one rule, ``_two_step_class``, fed with the
switch's (d_S, d_I, d_SF): by the constant-stage set-up in scans and
``simulate``, or by ``classify_two_step`` from a pair of results.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import TAU_XTOL
from .errors import NotConverged
from .protocols import ProtocolResult

log = logging.getLogger(__name__)

#: Separation below which two trace-distance curves count as coincident.
TOL_SEPARATION = 1e-6
#: Excursions of the curve difference smaller than this are ignored.
TOL_CROSSING = 1e-8


class TwoStepClass(Enum):
    WEAK_TYPE_A = "weak-type-A"
    WEAK_TYPE_B = "weak-type-B"
    STRONG = "strong"
    NO_EFFECT = "no-effect"


class ContinuousClass(Enum):
    WEAK = "weak"
    STRONG = "strong"
    NO_EFFECT = "no-effect"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GainValue:
    """Relative speed-up of the engineered protocol over the direct quench."""

    g: float
    tau_dir: float
    tau_cpm: float


def gain(tau_dir: float, tau_cpm: float) -> GainValue:
    """g = tau_dir / tau_cpm - 1; positive iff the engineered route is faster.

    The one gain rule of the package, for sweeps and single runs alike.  An
    engineered run already settled at t = 0 gives 0 against a direct run
    that settled too, and +inf otherwise; a nan tau_dir (no direct baseline)
    gives nan.
    """
    if tau_dir < 0 or tau_cpm < 0:
        raise ValueError("relaxation times must be nonnegative")
    if math.isnan(tau_dir):
        g = math.nan
    elif tau_cpm == 0:
        g = 0.0 if tau_dir == 0 else math.inf
    else:
        g = tau_dir / tau_cpm - 1.0
    return GainValue(g=g, tau_dir=tau_dir, tau_cpm=tau_cpm)


def count_crossings(series_a, series_b, tol: float = TOL_CROSSING) -> int:
    """Number of sign changes of (a - b) on a shared grid.

    Stretches where the two series differ by at most ``tol`` are treated as
    coincident: they neither produce nor break a crossing, so touching
    without passing through counts zero.
    """
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("series must share one grid")
    d = a - b
    signs = np.sign(d)
    signs[np.abs(d) <= tol] = 0
    nz = signs[signs != 0]
    if len(nz) < 2:
        return 0
    return int(np.count_nonzero(nz[:-1] != nz[1:]))


def _check_comparable(engineered: ProtocolResult, direct: ProtocolResult) -> None:
    if direct.kind != "direct":
        raise ValueError("baseline result must come from the direct protocol")
    if engineered.epsilon != direct.epsilon:
        raise ValueError("results were produced with different cutoffs")
    if np.max(
        np.abs(
            engineered.trajectory.target.as_array()
            - direct.trajectory.target.as_array()
        )
    ) > 1e-12:
        raise ValueError("results target different final states")


def classify_two_step(
    two_step: ProtocolResult, direct: ProtocolResult
) -> TwoStepClass:
    """Sort a two-step run into weak-A / weak-B / strong / no-effect.

    The detour is graded by where its switching state sits relative to the
    direct trajectory at the same instant and to the starting distance, each
    read off the runs' own distance evaluators; no speed-up at all is
    reported as no-effect regardless of geometry.
    """
    _check_comparable(two_step, direct)
    t_i = two_step.t_intermediate
    if t_i is None:
        raise ValueError("result does not carry a switching time")
    if not (two_step.converged and direct.converged):
        raise NotConverged("both runs must have converged to classify them")
    distances = (
        float(direct.trajectory.dist[0]),
        two_step.trajectory.distance_of(t_i),
        direct.trajectory.distance_of(t_i),
    )
    return _two_step_class(two_step.tau, direct.tau, distances)


def _two_step_class(tau: float, tau_dir: float, distances) -> TwoStepClass:
    """The one two-step class rule, from the run's and the direct quench's
    taus and the switch's (d_S, d_I, d_SF).  Taus within twice the root
    finder's tolerance of each other count as equal, so a detour that
    changes nothing is no-effect whatever its round-off."""
    if tau >= tau_dir - 2.0 * TAU_XTOL:
        return TwoStepClass.NO_EFFECT
    d_s, d_i, d_sf = distances
    if d_i < d_sf:
        return TwoStepClass.WEAK_TYPE_A
    if d_i < d_s:
        return TwoStepClass.WEAK_TYPE_B
    return TwoStepClass.STRONG


def _shared_series(engineered: ProtocolResult, direct: ProtocolResult):
    """Distance series of both runs at the engineered run's times within the
    direct run's span, cut where both have settled below the cutoff for good.
    Past the first sample off the direct grid (a switch time or stop sample
    off the stride), the direct distances come from its evaluator."""
    ta, da = engineered.trajectory.t, engineered.trajectory.dist
    tb, db = direct.trajectory.t, direct.trajectory.dist
    n = min(len(ta), len(tb))
    mismatch = np.nonzero(np.abs(ta[:n] - tb[:n]) > 1e-9)[0]
    if len(mismatch):
        k = int(mismatch[0])
        n = max(k, int(np.searchsorted(ta, tb[-1] + 1e-9, side="right")))
        db = np.concatenate([db[:k], direct.trajectory.distance_of(ta[k:n])])
    relevant = np.maximum(da[:n], db[:n]) >= engineered.epsilon
    m = min(int(np.nonzero(relevant)[0][-1]) + 2, n) if relevant.any() else n
    return da[:m], db[:m]


def relevant_crossings(engineered: ProtocolResult, direct: ProtocolResult) -> int:
    """Crossings of the two trace-distance curves while either is above the
    cutoff; sub-cutoff tails are operationally indistinguishable."""
    da, db = _shared_series(engineered, direct)
    return count_crossings(da, db)


def classify_continuous(
    cpm: ProtocolResult, direct: ProtocolResult
) -> ContinuousClass:
    """Sort a continuous run into weak / strong / no-effect / inconclusive.

    Both runs launch from the same state with coincident distance at t = 0,
    and the ramped run starts on its instantaneous attractor with vanishing
    initial slope, so the grading compares the curves at the first instant
    they separate measurably: engineered below direct is weak, above is
    strong.
    """
    _check_comparable(cpm, direct)
    if cpm.inconclusive:
        return ContinuousClass.INCONCLUSIVE
    if not (cpm.converged and direct.converged):
        raise NotConverged("both runs must have converged to classify them")
    if cpm.tau >= direct.tau:
        return ContinuousClass.NO_EFFECT
    da, db = _shared_series(cpm, direct)
    sep = np.nonzero(np.abs(da - db) > TOL_SEPARATION)[0]
    if len(sep) == 0:
        return ContinuousClass.NO_EFFECT
    first = sep[0]
    cls = ContinuousClass.WEAK if da[first] < db[first] else ContinuousClass.STRONG
    crossings = count_crossings(da, db)
    parity_even = crossings % 2 == 0
    if (cls is ContinuousClass.WEAK) != parity_even:
        log.warning(
            "classifier parity mismatch: %s with %d curve crossing(s)",
            cls.value,
            crossings,
        )
    return cls
