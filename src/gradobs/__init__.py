"""Regional gradient observability and reconstruction for time-fractional
diffusion on the unit interval and unit square."""

from .errors import (
    AccuracyError,
    ConfigError,
    ConvergenceError,
    DomainError,
    GradobsError,
    SizeError,
)
from .mlf import phi_density, wright_psi
from .spectral import Basis, Region, SpectralField, build_basis, whole_domain
from .sensing import Sensor, SensorSuite
from .dynamics import TimeGrid, simulate, time_grid
from .observability import (
    GramReport,
    StrategicReport,
    build_g_matrices,
    gram_regional,
    kernel_test,
    strategic_test_1d,
)
from .hum import HumConfig, HumContext, HumResult, solve

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "Basis",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "GradobsError",
    "GramReport",
    "HumConfig",
    "HumContext",
    "HumResult",
    "Region",
    "Sensor",
    "SensorSuite",
    "SizeError",
    "SpectralField",
    "StrategicReport",
    "TimeGrid",
    "build_basis",
    "build_g_matrices",
    "gram_regional",
    "kernel_test",
    "phi_density",
    "simulate",
    "solve",
    "strategic_test_1d",
    "time_grid",
    "whole_domain",
    "wright_psi",
    "__version__",
]
