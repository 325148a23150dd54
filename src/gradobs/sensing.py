"""Sensor models and the output operator.

A sensor is a (support, spatial distribution) pair producing one output
channel: zone sensors integrate the state against an L^2 distribution on a
rectangle, pointwise sensors evaluate at a point, and filament sensors
integrate along an axis-aligned segment.  Each sensor is one linear
functional on the state, realized as a weighted point set (a pointwise sensor
is its location with weight 1), so it reduces to one coupling number per
basis mode, or per mode and gradient axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import (
    Basis,
    Mode,
    Region,
    SpectralField,
    interval_rule,
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


def _weighted_points(sensor: Sensor, max_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The sensor as points (N, dim) and weights (quadrature weight times
    distribution), resolving modes with indices up to max_index."""
    if sensor.kind == POINTWISE:
        return np.asarray(sensor.geometry, dtype=float)[None, :], np.ones(1)
    if sensor.kind == ZONE:
        grid = region_quadrature(sensor.geometry, max_index)
        pts, w = grid.points, grid.weights
    else:
        fil = sensor.geometry
        s, w = interval_rule(*fil.interval, max_index)
        pts = np.empty((s.size, 2))
        pts[:, fil.axis] = s
        pts[:, 1 - fil.axis] = fil.fixed
    return pts, w * np.asarray(sensor.distribution(pts), dtype=float)


def _coupling_row(
    sensor: Sensor, modes: tuple[Mode, ...], axis: int | None
) -> np.ndarray:
    """Couplings of one sensor with each mode, or with d(mode)/dx_axis; the
    weighted point set is built once per distinct mode.max_index."""
    rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    row = np.empty(len(modes))
    for j, mode in enumerate(modes):
        if axis is not None and not (0 <= axis < mode.dimension):
            raise DomainError(f"axis {axis} invalid in {mode.dimension}-D")
        if mode.max_index not in rules:
            rules[mode.max_index] = _weighted_points(sensor, mode.max_index)
        pts, w = rules[mode.max_index]
        vals = mode.eval(pts) if axis is None else mode.grad(pts)[:, axis]
        row[j] = np.sum(w * vals)
    return row


def coupling(sensor: Sensor, mode: Mode) -> float:
    """Per-mode output factor (f, xi_mode) over the sensor support."""
    return float(_coupling_row(sensor, (mode,), None)[0])


def grad_coupling(sensor: Sensor, mode: Mode, axis: int) -> float:
    """Same quadrature against d(xi_mode)/dx_axis (axis is 0-based)."""
    return float(_coupling_row(sensor, (mode,), axis)[0])


def coupling_matrix(
    suite: SensorSuite, basis: Basis, axis: int | None = None
) -> np.ndarray:
    """kappa[i, j] = coupling(sensor_i, mode_j), in basis mode order; with an
    axis, grad_coupling(sensor_i, mode_j, axis) instead."""
    return np.array([_coupling_row(sensor, basis.modes, axis)
                     for sensor in suite.sensors])


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
