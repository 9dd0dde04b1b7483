"""The in-house Brent root finder against scipy.optimize.brentq.

Every comparison is bit for bit, sign of zero included: the same root, the
same sequence of evaluation points, or the same exception type and message.
"""

import math
import random

import pytest
from scipy.optimize import brentq as scipy_brentq

from pontus._roots import brentq

EPS = 2.220446049250313e-16
XTOLS = (4 * EPS, 1e-12, 1e-9, 1e-6, None)  # None: the default 2e-12


def outcome(solver, f, a, b, **kw):
    """(kind, value, evaluation points) of one solve, floats as hex strings."""
    xs = []

    def logged(x):
        xs.append(x.hex())
        return f(x)

    try:
        return "root", solver(logged, a, b, **kw).hex(), xs
    except (ValueError, RuntimeError) as err:
        return type(err).__name__, str(err), xs


def same(f, a, b, **kw):
    got, want = outcome(brentq, f, a, b, **kw), outcome(scipy_brentq, f, a, b, **kw)
    assert got == want, (a, b, kw)
    return got


def damped_cosine(rng, scale):
    # a rate as in nonmarkov: exp(-k t) cos(w t) + c
    k, w, c = rng.uniform(0.01, 2.0), rng.uniform(0.1, 5.0), rng.uniform(0.01, 0.9)
    return lambda t: scale * (math.exp(-k * t) * math.cos(w * t) + c), 0.0, 20.0


def cubic(rng, scale):
    r1, r2, r3 = (rng.uniform(-3.0, 3.0) for _ in range(3))
    return lambda x: scale * ((x - r1) * (x - r2) * (x - r3)), -4.0, 4.0


def tanh_step(rng, scale):
    s, x0, off = 10 ** rng.uniform(-1.0, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-0.99, 0.99)
    return lambda x: scale * (math.tanh(s * (x - x0)) + off), -4.0, 4.0


def event_gap(rng, scale):
    # the stepper's stop function on one step: a quartic path toward a
    # target, max(distance - tol, settle(s) - eps), with s in [0, 1]
    g = [rng.uniform(-0.5, 0.5) for _ in range(3)]
    u = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    c0, c1, c2, c3, c4 = (rng.uniform(-1.0, 1.0) for _ in range(5))
    tol, eps, amp, kap = 1e-5, 1e-4, 10 ** rng.uniform(-6.0, -3.0), rng.uniform(0.1, 5.0)

    def gap(s):
        m = 1e-4 * (c0 + s * (c1 + s * (c2 + s * (c3 + s * c4))))
        d = 0.5 * math.sqrt(sum((m * ui) ** 2 for ui in u))
        return scale * max(d - tol, amp * math.exp(-kap * s) - eps)

    return gap, 0.0, 1.0


FAMILIES = (damped_cosine, cubic, tanh_step, event_gap)


def brackets(family, seed, n, tiny=False):
    """``n`` brackets with a sign change of one family, each from a random
    sample grid: adjacent points or a wider pair, in either order."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        scale = 10 ** -rng.uniform(170.0, 200.0) if tiny else 1.0
        f, lo, hi = family(rng, scale)
        xs = sorted(rng.uniform(lo, hi) for _ in range(12))
        signs = [f(x) > 0 for x in xs]
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12) if signs[i] != signs[j]]
        if not pairs:
            continue
        i, j = rng.choice(pairs)
        a, b = (xs[i], xs[j]) if rng.random() < 0.5 else (xs[j], xs[i])
        out.append((f, a, b))
    return out


@pytest.mark.parametrize("family", FAMILIES, ids=lambda fam: fam.__name__)
def test_roots_and_evaluations_match_scipy(family):
    cases = brackets(family, 101, 1250)
    for f, a, b in cases:
        for xtol in XTOLS:
            kind, _, _ = same(f, a, b, **({} if xtol is None else {"xtol": xtol}))
            assert kind == "root"


@pytest.mark.parametrize("family", FAMILIES, ids=lambda fam: fam.__name__)
def test_tiny_function_values_match_scipy(family):
    # products and differences of such values underflow, so some steps
    # divide by zero in C and must bisect
    for f, a, b in brackets(family, 202, 150, tiny=True):
        for xtol in XTOLS:
            assert same(f, a, b, **({} if xtol is None else {"xtol": xtol}))[0] == "root"


def test_tiny_cubic_is_pinned():
    root = same(lambda x: 1e-180 * (x - 0.3) ** 3, -1.0, 1.0)[1]
    assert float.fromhex(root) == 0.3000000000000286


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x, 0.0, 1.0),  # a root at a
        (lambda x: x, -1.0, -0.0),  # at b, with its sign
        (lambda x: -0.0 if x == 0 else x - 0.5, 0.0, 1.0),  # f(a) = -0
        (lambda x: x * x - 2.0, 0, 2),  # integer ends
        (lambda x: x - 0.3, 1.0, 0.0),  # reversed bracket
    ],
)
def test_edge_brackets_match_scipy(f, a, b):
    assert same(f, a, b)[0] == "root"


@pytest.mark.parametrize(
    "f, a, b, kw",
    [
        (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0}),
        (lambda x: x - 0.3, 0.0, 1.0, {"xtol": -1e-9}),
        (lambda x: x - 0.3, 0.0, 1.0, {"rtol": 1e-17}),
        (lambda x: x - 0.3, 0.0, 1.0, {"maxiter": -1}),
        (lambda x: math.nan, 0.0, 1.0, {}),  # NaN at a
        (lambda x: x if x > 0.5 else math.nan, 1.0, 0.0, {}),  # NaN at b
        (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5, 0.0, 1.0, {}),  # NaN inside
        (lambda x: x * x + 1.0, -1.0, 1.0, {}),  # no sign change
        (lambda x: 1e-180 * (x + 2.0), -1.0, 1.0, {}),  # same sign, product underflows
        (lambda x: math.cos(3 * x) - 0.2, 0.0, 1.0, {"maxiter": 2}),
        (lambda x: x - 0.3, 0.0, 1.0, {"maxiter": 0}),
    ],
)
def test_refusals_match_scipy(f, a, b, kw):
    assert same(f, a, b, **kw)[0] in ("ValueError", "RuntimeError")
