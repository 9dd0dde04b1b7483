"""Constant stages in the affine ramp form that ``integrate`` reads.

The library runs constant stages through exact flows; the tests integrate
these forms adaptively to cross-check those flows and to pin the stepper.
"""

import math
import types

import numpy as np

from pontus import ExponentialCosineSchedule, assemble_generator


def held(p, kappa=0.3):
    """The ramp with equal endpoints: p's generator at every time."""
    return ExponentialCosineSchedule(p.gamma, p.gamma, p.h, kappa, 0.0)


def two_step_ramp(p_a, p_f, t_i):
    """A's parameters up to and at t_i, F's after: m = 1, then 0."""
    ga, gf = assemble_generator(p_a), assemble_generator(p_f)
    rates_a, rates_f = p_a.gamma.as_array(), p_f.gamma.as_array()
    return types.SimpleNamespace(
        parts=(gf.Lambda, gf.b, ga.Lambda - gf.Lambda, ga.b - gf.b),
        m=lambda t: 1.0 if t <= t_i else 0.0,
        m_stages=lambda *ts: tuple(1.0 if t <= t_i else 0.0 for t in ts),
        settle_bound=lambda t: math.inf if t <= t_i else 0.0,
        rates_array=lambda ts: np.where((np.asarray(ts) <= t_i)[:, None], rates_a, rates_f),
        envelope=None,
    )
