"""Simulation and analysis of single-qubit Markovian channels on the PSD cone.

The package covers linear completely positive channels, channels that are
nonlinear only through their trace normalization, and linear channels that
are positive but not completely positive, together with the fixed-point,
stability and timing analysis of the Bloch vector amplification gates they
generate.
"""

from .channels import (
    AffineGenerator,
    ChannelClass,
    ChannelSpec,
    JumpTerm,
    assemble,
    classify,
    dualize,
    initial_velocity,
    jump_generator,
    load_spec,
    save_spec,
    shift_transform,
)
from .analysis import (
    FixedLine,
    FixedPoint,
    FixedPointReport,
    GatePlan,
    choi_spectra,
    choi_spectrum,
    find_fixed_points,
    plan_amplification,
    rotate,
    slowdown_exponent,
)
from .dynamics import (
    IntegratorOpts,
    Trajectory,
    integrate,
    rhs,
)
from .errors import (
    ApexReached,
    BlochampError,
    BlowUp,
    ConeViolation,
    InvalidParams,
    StepFailure,
    TargetUnreachable,
)
from .pauli import (
    HermitianPauliVector,
    PauliVectorC,
    PsdState,
    decompose,
    expectation,
    is_pure,
    purity_entropy,
    reconstruct,
    spectrum,
    trace_product,
)
from .presets import Preset, expand_preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "AffineGenerator", "ApexReached", "BlochampError", "BlowUp", "ChannelClass",
    "ChannelSpec", "ConeViolation", "FixedLine", "FixedPoint",
    "FixedPointReport", "GatePlan", "HermitianPauliVector", "IntegratorOpts",
    "InvalidParams", "JumpTerm", "PauliVectorC", "Preset", "PsdState",
    "StepFailure", "TargetUnreachable", "Trajectory", "assemble",
    "choi_spectra", "choi_spectrum", "classify", "decompose", "dualize",
    "expand_preset", "expectation", "find_fixed_points", "initial_velocity",
    "integrate", "is_pure", "jump_generator", "load_spec",
    "plan_amplification", "preset_names", "purity_entropy", "reconstruct",
    "rhs", "rotate", "save_spec", "shift_transform", "slowdown_exponent",
    "spectrum", "trace_product",
]
