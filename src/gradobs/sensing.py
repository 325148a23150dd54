"""Sensor models and the output operator.

A sensor is a (support, spatial distribution) pair producing one output
channel: zone sensors integrate the state against an L^2 distribution on a
rectangle, pointwise sensors evaluate at a point, and filament sensors
integrate along an axis-aligned segment.  The whole output map is linear in
the state, so each sensor reduces to one coupling number per basis mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import (
    MIN_PANELS,
    Basis,
    Mode,
    Region,
    SpectralField,
    _panel_rule,
    region_quadrature,
)

ZONE = "zone"
POINTWISE = "pointwise"
FILAMENT = "filament"


@dataclass(frozen=True)
class BilinearTable:
    """Tabulated distribution, bilinearly interpolated onto quadrature nodes."""

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray  # (len(x1), len(x2))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x1 = np.asarray(self.x1, dtype=float)
        x2 = np.asarray(self.x2, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        i = np.clip(np.searchsorted(x1, pts[:, 0]) - 1, 0, x1.size - 2)
        j = np.clip(np.searchsorted(x2, pts[:, 1]) - 1, 0, x2.size - 2)
        t = (pts[:, 0] - x1[i]) / (x1[i + 1] - x1[i])
        u = (pts[:, 1] - x2[j]) / (x2[j + 1] - x2[j])
        return ((1 - t) * (1 - u) * vals[i, j] + t * (1 - u) * vals[i + 1, j]
                + (1 - t) * u * vals[i, j + 1] + t * u * vals[i + 1, j + 1])


@dataclass(frozen=True)
class Filament:
    """Axis-aligned segment: coordinate `axis` varies over `interval`, the
    other coordinate is pinned at `fixed`."""

    axis: int
    interval: tuple[float, float]
    fixed: float

    def __post_init__(self) -> None:
        lo, hi = self.interval
        if self.axis not in (0, 1):
            raise DomainError(f"filament axis must be 0 or 1, got {self.axis}")
        if not (0.0 <= lo < hi <= 1.0):
            raise DomainError(f"filament interval ({lo}, {hi}) invalid")
        if not (0.0 <= self.fixed <= 1.0):
            raise DomainError(f"filament offset {self.fixed} outside [0,1]")


@dataclass(frozen=True)
class Sensor:
    """One output channel: kind, geometry and (for zone/filament) distribution."""

    kind: str
    geometry: object  # Region | point tuple | Filament
    distribution: object = None  # callable on points, or BilinearTable

    def __post_init__(self) -> None:
        if self.kind == ZONE:
            if not isinstance(self.geometry, Region):
                raise DomainError("zone sensor geometry must be a Region")
            if self.distribution is None:
                raise DomainError("zone sensor needs a distribution")
        elif self.kind == POINTWISE:
            point = tuple(float(c) for c in np.atleast_1d(self.geometry))
            if any(not (0.0 <= c <= 1.0) for c in point):
                raise DomainError(f"sensor location {point} outside the domain")
            object.__setattr__(self, "geometry", point)
        elif self.kind == FILAMENT:
            if not isinstance(self.geometry, Filament):
                raise DomainError("filament sensor geometry must be a Filament")
            if self.distribution is None:
                raise DomainError("filament sensor needs a distribution")
        else:
            raise DomainError(f"unknown sensor kind {self.kind!r}")


@dataclass(frozen=True)
class SensorSuite:
    """Fixed-order collection of sensors; order fixes output channel order."""

    sensors: tuple[Sensor, ...]

    def __post_init__(self) -> None:
        if not self.sensors:
            raise DomainError("a sensor suite needs at least one sensor")

    def __len__(self) -> int:
        return len(self.sensors)


def _filament_points(fil: Filament, max_index: int) -> tuple[np.ndarray, np.ndarray]:
    panels = max(MIN_PANELS, 2 * max_index)
    s, w = _panel_rule(fil.interval[0], fil.interval[1], panels)
    pts = np.empty((s.size, 2))
    pts[:, fil.axis] = s
    pts[:, 1 - fil.axis] = fil.fixed
    return pts, w


def _mode_values(sensor: Sensor, mode: Mode, deriv_axis: int | None) -> float:
    """Shared quadrature for coupling / grad_coupling."""
    if deriv_axis is not None and not (0 <= deriv_axis < mode.dimension):
        raise DomainError(f"axis {deriv_axis} invalid in {mode.dimension}-D")

    def mode_vals(pts: np.ndarray) -> np.ndarray:
        if deriv_axis is None:
            return mode.eval(pts)
        return mode.grad(pts)[:, deriv_axis]

    if sensor.kind == POINTWISE:
        pt = np.asarray(sensor.geometry, dtype=float)[None, :]
        return float(mode_vals(pt)[0])
    if sensor.kind == ZONE:
        grid = region_quadrature(sensor.geometry, mode.max_index)
        f = np.asarray(sensor.distribution(grid.points), dtype=float)
        return float(np.sum(grid.weights * f * mode_vals(grid.points)))
    pts, w = _filament_points(sensor.geometry, mode.max_index)
    f = np.asarray(sensor.distribution(pts), dtype=float)
    return float(np.sum(w * f * mode_vals(pts)))


def coupling(sensor: Sensor, mode: Mode) -> float:
    """Per-mode output factor (f, xi_mode) over the sensor support."""
    return _mode_values(sensor, mode, None)


def grad_coupling(sensor: Sensor, mode: Mode, axis: int) -> float:
    """Same quadrature against d(xi_mode)/dx_axis (axis is 0-based)."""
    return _mode_values(sensor, mode, axis)


def coupling_matrix(suite: SensorSuite, basis: Basis) -> np.ndarray:
    """kappa[i, j] = coupling(sensor_i, mode_j), in basis mode order."""
    kappa = np.empty((len(suite), len(basis)))
    for i, sensor in enumerate(suite.sensors):
        for j, mode in enumerate(basis.modes):
            kappa[i, j] = coupling(sensor, mode)
    return kappa


def observe(state: SpectralField, suite: SensorSuite) -> np.ndarray:
    """Output vector z = kappa c of the state with coefficients c."""
    return coupling_matrix(suite, state.basis) @ state.coefficients


def adjoint_inject(z: np.ndarray, suite: SensorSuite, basis: Basis) -> SpectralField:
    """Spectral realization of the adjoint output map C*: c = kappa^T z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (len(suite),):
        raise DomainError(f"expected {len(suite)} channel values, got {z.shape}")
    return SpectralField(basis, coupling_matrix(suite, basis).T @ z)


def counterexample_sensor() -> Sensor:
    """Filament realization of the distribution delta(x1 - 1/2) sin(pi x2)."""
    return Sensor(
        FILAMENT,
        Filament(axis=1, interval=(0.0, 1.0), fixed=0.5),
        lambda pts: np.sin(np.pi * pts[:, 1]),
    )
