"""Exception hierarchy shared by all gradobs modules."""

import numpy as np


class GradobsError(Exception):
    """Base class for all library errors."""


class DomainError(GradobsError, ValueError):
    """An argument lies outside the supported domain of an operation."""


class AccuracyError(GradobsError, ArithmeticError):
    """A numerical scheme failed to reach its target tolerance."""


class SizeError(GradobsError, ValueError):
    """A requested discretization exceeds a hard size cap."""


class ConvergenceError(GradobsError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ConfigError(GradobsError, ValueError):
    """An experiment configuration failed validation."""


def check_finite(values, what: str):
    """`values`, or a DomainError naming `what` if an entry is inf or NaN."""
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} overflowed double precision (inf or NaN)")
    return values
