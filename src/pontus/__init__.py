"""Relaxation speed-up protocols for an open two-level system.

The library propagates the affine Bloch equation through constant stages
(exact flows) and under its one rate schedule, the damped-cosine ramp
(adaptive integration), extracts cutoff-based relaxation times, classifies
the resulting speed-ups, quantifies non-Markovianity of the ramp's rates,
and sweeps the gain over parameter planes.
"""

from .core import (
    TOL_BALL,
    AffineGenerator,
    BlochVector,
    FieldVector,
    ParameterPoint,
    RateTriple,
    Trajectory,
    trace_distances,
    validate_endpoint,
)
from .dynamics import (
    ConstantFlow,
    IntegratorConfig,
    assemble_generator,
    integrate,
    product_integration_oracle,
    steady_state,
    superoperator_oracle,
    trajectory_to_csv,
    velocity_field_grid,
    velocity_field_to_csv,
)
from .errors import (
    BallViolation,
    ConfigError,
    DivergentIntervalCount,
    NegativeEndpointRate,
    NonFinite,
    NoSolution,
    NotConverged,
    PontusError,
    SingularGenerator,
    StepSizeUnderflow,
)
from .mpemba import (
    ContinuousClass,
    GainValue,
    TwoStepClass,
    classify_continuous,
    classify_two_step,
    count_crossings,
    gain,
    relevant_crossings,
)
from .nonmarkov import (
    CHANNELS,
    NmChannelReport,
    boundary_curve,
    channel_boundary_omega,
    channel_report,
    is_non_markovian,
    markov_boundary_alpha,
    negative_intervals,
    nm_measure_closed_form,
    nm_measure_quadrature,
    truncation_horizon,
)
from .protocols import (
    DEFAULT_EPS,
    ExponentialCosineSchedule,
    ProtocolResult,
    run_continuous,
    run_direct,
    run_two_step,
)
from .sweep import (
    GainMap,
    GridAxis,
    SweepSpec,
    gain_map_sidecar,
    gain_map_to_csv,
    scan_two_step,
    sweep_kappa_omega,
    sweep_kappa_theta,
)

__version__ = "0.1.0"
