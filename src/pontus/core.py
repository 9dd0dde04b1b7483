"""Domain types for Bloch-ball dynamics of an open two-level system, with
the trace distance (``trace_distances``, row by row) and endpoint
validation.

All quantities are dimensionless: the magnitude of the initial control field
is the energy unit, times are measured in its inverse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BallViolation, NegativeEndpointRate, NonFinite

#: Tolerance on |r| <= 1.  Round-off from propagation may push the norm
#: marginally above 1; anything beyond this margin is treated as unphysical.
TOL_BALL = 1e-9


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFinite(f"{what} must be finite, got {values}")


class _Triple:
    """Base of the three-float value types: ``from_array`` reads three numbers."""

    @classmethod
    def from_array(cls, arr):
        a = np.asarray(arr, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class BlochVector(_Triple):
    """Point in the closed unit ball representing a two-level density matrix."""

    r_x: float
    r_y: float
    r_z: float

    def __post_init__(self):
        _require_finite((self.r_x, self.r_y, self.r_z), "Bloch vector")
        n = self.norm()
        if n > 1.0 + TOL_BALL:
            raise BallViolation(f"|r| = {n} exceeds 1 + {TOL_BALL}")
        if n > 1.0:
            # inside the admitted margin: project back onto the sphere
            object.__setattr__(self, "r_x", self.r_x / n)
            object.__setattr__(self, "r_y", self.r_y / n)
            object.__setattr__(self, "r_z", self.r_z / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.r_x, self.r_y, self.r_z])

    def norm(self) -> float:
        return float(np.sqrt(self.r_x**2 + self.r_y**2 + self.r_z**2))


@dataclass(frozen=True)
class FieldVector(_Triple):
    """Control field h; the system Hamiltonian is h·sigma."""

    h_x: float
    h_y: float
    h_z: float

    def __post_init__(self):
        _require_finite((self.h_x, self.h_y, self.h_z), "field")

    def as_array(self) -> np.ndarray:
        return np.array([self.h_x, self.h_y, self.h_z])


@dataclass(frozen=True)
class RateTriple(_Triple):
    """Rates of the excitation (+), relaxation (-), and pure-dephasing (z) channels.

    Endpoint definitions must be nonnegative (see ``validate_endpoint``);
    instantaneous rates along an engineered schedule may dip below zero.
    """

    gamma_plus: float
    gamma_minus: float
    gamma_z: float

    def __post_init__(self):
        _require_finite(self.as_array(), "rates")

    def as_array(self) -> np.ndarray:
        return np.array([self.gamma_plus, self.gamma_minus, self.gamma_z])


@dataclass(frozen=True)
class ParameterPoint:
    """A field plus a rate triple: one static generator of the dynamics."""

    h: FieldVector
    gamma: RateTriple
    label: str = "custom"

    @classmethod
    def make(cls, h, gamma, label: str = "custom") -> "ParameterPoint":
        return cls(FieldVector.from_array(h), RateTriple.from_array(gamma), label)


@dataclass(frozen=True)
class AffineGenerator:
    """Drift matrix and forcing vector of the affine Bloch equation r' = L r + b."""

    Lambda: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.Lambda, dtype=float)
        bb = np.asarray(self.b, dtype=float)
        if L.shape != (3, 3) or bb.shape != (3,):
            raise ValueError("generator must be a 3x3 matrix plus a 3-vector")
        _require_finite(L, "drift matrix")
        _require_finite(bb, "forcing vector")
        # structural facts of the two-level dissipator: equal transverse
        # damping and forcing along z only
        if abs(L[0, 0] - L[1, 1]) > 1e-12 * max(1.0, abs(L[0, 0])):
            raise ValueError("transverse damping entries must coincide")
        if abs(bb[0]) > 1e-12 or abs(bb[1]) > 1e-12:
            raise ValueError("forcing must point along z")
        L.setflags(write=False)
        bb.setflags(write=False)
        object.__setattr__(self, "Lambda", L)
        object.__setattr__(self, "b", bb)


@dataclass
class Trajectory:
    """Dense time series of the Bloch vector under some protocol.

    ``distance_of`` is an exact (or dense-output) evaluator of the trace
    distance to the target at a time or an array of times within the
    recorded span (see ``distance_evaluator``); it backs sub-sample
    bisection of threshold crossings.  ``dist``, the trace distance of each
    sample to the target, is derived from ``r`` and ``target`` on
    construction (``trace_distances``) unless the integrator gives it, as
    the compiled kernel does, with the same floats.  ``rates``, the (n, 3)
    rates at the sample times, is computed by ``rates_of`` from ``t`` when
    first read, as only the trajectory CSV reads it.  ``envelope``, set only for an
    oscillating rate modulation, bounds the modulation's amplitude at a
    time (the schedule's ``envelope``).  ``nfev``, ``n_accepted`` and
    ``n_rejected`` count the right-hand-side calls and the accepted and
    rejected steps of the adaptive integrator, and stay 0 for runs that do
    not use it.  ``analysis`` is the threshold analysis (tau, inconclusive,
    n_crossings) at the run's eps where the integrator made it with the
    samples, else None.
    """

    t: np.ndarray
    r: np.ndarray
    rates_of: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    target: BlochVector
    distance_of: Callable = field(repr=False, compare=False)
    timed_out: bool = False
    envelope: Optional[Callable[[float], float]] = field(
        default=None, repr=False, compare=False
    )
    nfev: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    analysis: Optional[tuple] = None
    dist: Optional[np.ndarray] = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if len(self.t) != len(self.r):
            raise ValueError("sample arrays must share one length")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("sample times must be strictly increasing")
        if self.dist is None:
            self.dist = trace_distances(self.r, self.target.as_array())

    @functools.cached_property
    def rates(self) -> np.ndarray:
        return np.asarray(self.rates_of(self.t), dtype=float)

    def __len__(self) -> int:
        return len(self.t)


def distance_evaluator(
    states: Callable[[np.ndarray], np.ndarray], target: np.ndarray
) -> Callable:
    """Trace distance to ``target`` at a time (a float) or an array of times.

    ``states`` maps an array of times to the (n, 3) Bloch vectors at those
    times.  Every distance is computed row by row, so a value does not depend
    on the other times in its call.
    """

    def distance_of(t):
        ts = np.asarray(t, dtype=float)
        d = trace_distances(states(ts.reshape(-1)), target)
        return float(d[0]) if ts.ndim == 0 else d

    return distance_of


def trace_distances(r: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Trace distance of each row of the (n, 3) array ``r`` to ``target``.

    Half the row-wise Euclidean norm, summed as ``np.linalg.norm(x, axis=1)``
    sums it, so every sample's value is the same in any batch.
    """
    x = r - target
    return 0.5 * np.sqrt(np.add.reduce(x * x, axis=1))


def validate_endpoint(p: ParameterPoint) -> ParameterPoint:
    """Check that a static S/A/F definition has finite fields and rates >= 0."""
    _require_finite(p.h.as_array(), f"field of endpoint {p.label!r}")
    g = p.gamma.as_array()
    _require_finite(g, f"rates of endpoint {p.label!r}")
    if np.any(g < 0):
        raise NegativeEndpointRate(
            f"endpoint {p.label!r} has negative rate(s) {tuple(g.tolist())}"
        )
    return p
