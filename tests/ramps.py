"""Constant stages as damped-cosine ramps, the one schedule ``integrate`` reads.

The library runs constant stages through exact flows; the tests integrate
these ramps adaptively to cross-check those flows and to pin the stepper.
"""

from pontus import ExponentialCosineSchedule


def held(p, kappa=0.3):
    """The ramp with equal endpoints: p's generator at every time."""
    return ExponentialCosineSchedule(p.gamma, p.gamma, p.h, kappa, 0.0)
