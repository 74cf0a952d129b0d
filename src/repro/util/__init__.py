"""Shared utilities: errors, RNG plumbing, validation, timing.

These helpers are deliberately small and dependency-free so that every
other subpackage can import them without cycles.
"""

from repro.util.errors import (
    RtspError,
    InvalidActionError,
    InvalidScheduleError,
    InfeasibleInstanceError,
    CapacityError,
    ConfigurationError,
)
from repro.util.rng import ensure_rng, spawn_rngs, derive_seed
from repro.util.timing import timed
from repro.util.validation import (
    check_binary_matrix,
    check_nonnegative,
    check_positive,
    check_probability,
    check_symmetric,
)

__all__ = [
    "RtspError",
    "InvalidActionError",
    "InvalidScheduleError",
    "InfeasibleInstanceError",
    "CapacityError",
    "ConfigurationError",
    "ensure_rng",
    "spawn_rngs",
    "derive_seed",
    "timed",
    "check_binary_matrix",
    "check_nonnegative",
    "check_positive",
    "check_probability",
    "check_symmetric",
]
