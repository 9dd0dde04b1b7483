"""Domain types for Bloch-ball dynamics of an open two-level system, with
the trace distance (``trace_distances``, row by row), endpoint validation
and the CSV writer.

All quantities are dimensionless: the magnitude of the initial control field
is the energy unit, times are measured in its inverse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    construction (``trace_distances``).  ``rates``, the (n, 3) rates at the
    sample times, is computed by ``rates_of`` from ``t`` when first read, as
    only the trajectory CSV reads it.  ``envelope``, set only for an
    oscillating rate modulation, bounds the modulation's amplitude at a
    time (the schedule's ``envelope``).  ``nfev``, ``n_accepted`` and
    ``n_rejected`` count the right-hand-side calls and the accepted and
    rejected steps of the adaptive integrator, and stay 0 for runs that do
    not use it.
    """

    t: np.ndarray
    r: np.ndarray
    rates_of: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    dist: np.ndarray = field(init=False)
    target: BlochVector
    distance_of: Callable = field(repr=False, compare=False)
    timed_out: bool = False
    envelope: Optional[Callable[[float], float]] = field(
        default=None, repr=False, compare=False
    )
    nfev: int = 0
    n_accepted: int = 0
    n_rejected: int = 0

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if len(self.t) != len(self.r):
            raise ValueError("sample arrays must share one length")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("sample times must be strictly increasing")
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
            f"endpoint {p.label!r} has negative rate(s) {tuple(g)}"
        )
    return p


#: Rows of a CSV file formatted together by ``write_csv``.
_CSV_BLOCK = 512


def write_csv(path, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write a CSV file: the header line, then one line per row of ``columns``.

    A float64 column is written byte for byte as ``%.17g`` writes it, which
    round-trips a float, any other column (an object array of bytes) as its
    bytes.  Rows go out in blocks of ``_CSV_BLOCK``: one uint8 matrix with a
    fixed slot per value, written with its NUL padding deleted.  A column
    constant (bitwise) in a block is formatted once.  Floats are formatted by
    numpy (``_format_floats``), the 17 digits being |x| 10**(16 - e) rounded,
    as a double-double; ``%.17g`` itself formats a value whose fraction there
    is within 1e-9 of 1/2 and any nonzero |x| outside [1e-280, 1e280].
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            fh.write(_csv_block([col[start : start + _CSV_BLOCK] for col in columns]))


def _csv_block(blocks) -> bytearray:
    """The bytes of one block of rows, given each column's block."""
    once = []
    for block in blocks:  # -0.0 == 0.0, but prints "-0": compare bits
        bits = block.view(np.int64) if block.dtype == np.float64 else block
        once.append(block[:1] if (bits == bits[0]).all() else block)
    floats = [block for block in once if block.dtype == np.float64] or [np.empty(0)]  # or none
    text = iter(np.split(_format_floats(np.concatenate(floats)), np.cumsum([*map(len, floats)])))
    slots = [
        next(text) if block.dtype == np.float64
        else np.asarray(block, dtype=bytes).view(np.uint8).reshape(len(block), -1)
        for block in once
    ]
    slots = [slot[:, slot[0] > 0] if len(slot) == 1 else slot for slot in slots]  # once: unpadded
    ends = np.cumsum([slot.shape[1] + 1 for slot in slots])  # each slot and its separator
    out = bytearray(len(blocks[0]) * int(ends[-1]))
    matrix = np.frombuffer(out, np.uint8).reshape(len(blocks[0]), -1)
    for slot, end in zip(slots, ends):
        matrix[:, end - 1 - slot.shape[1] : end - 1] = slot
        matrix[:, end - 1] = ord(",")
    matrix[:, -1] = ord("\n")
    return out.translate(None, b"\0")


@functools.cache
def _g17_tables():
    """Tables of ``_format_floats``, built on first use: 10**p for |p| <= 300
    as a double-double (from Python ints); per four-digit group its ASCII,
    each digit followed by 0xFF, and per place of the group the digit count
    up to its last nonzero digit; word 0 per sign and "0.000" prefix; word 5
    per exponent; the AND masks of a row per digit count and dot position."""
    hi, lo = [], []
    for p in range(-300, 301):  # int / int rounds once, to the nearest double
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        m, s = (num / den).as_integer_ratio()
        hi.append(m / s)
        lo.append((num * s - m * den) / (den * s))
    spread = np.full((10, 10, 10, 10, 4, 2), 255, np.uint8)  # flat index: the group
    ndigits = np.ones((4, 10, 10, 10, 10), np.uint8)  # per place and group; 1: a zero group
    for k in range(4):  # a group's k-th digit, and the count where it is the last nonzero
        spread[..., k, 0] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
        count = np.arange(2 + k, 18 + k, 4, dtype=np.uint8).reshape(4, 1, 1, 1, 1)
        ndigits[(slice(None),) * (k + 1) + (slice(1, None),)] = count
    masks = b"".join(  # keep k digits, a dot after digit d
        b"\xff" * 6 + bytes(c for j in range(17) for c in (255 * (j < k), 46 * (j == d)))
        + b"\xff" * 8
        for k in range(18) for d in range(-1, 17)
    )
    heads = [sign + b"0.000"[:n] for sign in (b"", b"-") for n in (0, 2, 3, 4, 5)]
    return (
        np.array(hi),
        np.array(lo),
        spread.reshape(10000, 8).view("<u8").ravel(),
        ndigits.ravel(),
        np.array(heads, "S8").view("<u8"),
        np.array([b""] + [b"e%+03d" % e for e in range(-320, 321)], "S8").view("<u8"),
        np.frombuffer(masks, "<u8").reshape(-1, 6).T.copy(),
    )


def _scaled(a, e, hi, lo):
    """a * 10**(16 - e) as an unevaluated sum of two doubles: Dekker's exact
    product of a and the double nearest 10**(16 - e), plus a times the rest."""
    th, tl = hi[316 - e], lo[316 - e]
    ca, ct = 134217729.0 * a, 134217729.0 * th  # Veltkamp's split by 2**27 + 1
    ah, bh = ca - (ca - a), ct - (ct - th)
    al, bl, ph = a - ah, th - bh, a * th
    return ph, ((ah * bh - ph) + ah * bl + al * bh) + al * bl + a * tl


def _percent_g(values) -> list:
    """``%.17g`` of each value, one at a time: ``_format_floats``' fallback."""
    return [b"%.17g" % v for v in values]


def _significand(x: np.ndarray, hi, lo):
    """N = round(|x| 10**(16 - e)) in [1e16, 1e17) and the decimal exponent
    e, as int64 (0 and 0 for a zero), and the indices of the values left to
    ``_percent_g`` (see ``write_csv``).  The product is good to about 3e-15."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    ph, pl = _scaled(a, e, hi, lo)
    shift = ((ph > 1e17) | ((ph == 1e17) & (pl >= 0))).astype(np.int64)
    shift -= (ph < 1e16) | ((ph == 1e16) & (pl < 0))
    if shift.any():  # log10 was one off, next to a power of ten
        e += shift
        ph, pl = _scaled(a, e, hi, lo)
    r = np.floor(pl + 0.5)
    n = ph.astype(np.int64) + r.astype(np.int64)
    carry = n == 10**17
    n[carry], e[carry] = 10**16, e[carry] + 1
    n[x == 0] = 0  # and e is 0: |x| was taken as 1
    return n, e, np.flatnonzero((~fast & (x != 0)) | (np.abs(pl - r) > 0.5 - 1e-9))


def _format_floats(x: np.ndarray) -> np.ndarray:
    """The bytes of ``b"%.17g" % v`` for each value of ``x``, NUL-padded to
    one 48-byte row each, or 40 if no value needs an exponent.

    ``%g``'s rules: fixed notation for -4 <= e < 17, no trailing zeros or
    bare dot, at least two exponent digits.  A row is six little-endian
    words: the sign, the "0.000" of a fixed e < 0 and the first digit; the
    other 16 digits; the exponent.  A byte for the dot follows each digit.
    """
    hi, lo, quad, ndigits, heads, suffix, masks = _g17_tables()
    n, e, slow = _significand(x, hi, lo)
    top = n // 10**8
    halves = np.array([top - top // 10**8 * 10**8, n - top * 10**8])
    quads = np.empty((4, len(x)), np.intp)
    quads[::2] = halves // 10**4
    quads[1::2] = halves - quads[::2] * 10**4
    count = np.take(ndigits, quads + np.array([[0], [10000], [20000], [30000]])).max(axis=0)
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, e, 0).clip(-1)  # the dot follows this digit, if any does
    dot = np.where(count > point + 1, point, -1)
    words = np.take(masks, np.maximum(count, point + 1) * 18 + dot + 1, axis=1)
    head = np.take(heads, np.signbit(x) * 5 + np.where(fixed & (e < 0), -e, 0))
    words[0] &= head | ((top // 10**8).astype("<u8") + 0xFF30) << 48
    words[1:5] &= np.take(quad, quads)
    words[5] &= np.take(suffix, np.where(fixed, 0, e + 321))
    out = np.ascontiguousarray(words[: 5 if fixed.all() else 6].T).view(np.uint8)
    fallback = np.array(_percent_g(x[slow].tolist()), f"S{out.shape[1]}")
    out[slow] = fallback.view(np.uint8).reshape(-1, out.shape[1])
    return out
