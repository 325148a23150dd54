"""Sensor models and the output operator.

A sensor is a (support, spatial distribution) pair producing one output
channel: zone sensors integrate the state against an L^2 distribution on a
rectangle, pointwise sensors evaluate at a point, and filament sensors
integrate along an axis-aligned segment.  Each sensor is one linear
functional on the state, realized as a weighted tensor-product rule per
rectangle (a pointwise sensor is its location, a 1 x 1 rule of weight 1),
one rule per pass that resolves its top mode index, evaluated axis by axis
into one coupling number per mode of the pass, or per mode and gradient axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite
from .spectral import (
    Basis,
    Mode,
    Region,
    axis_tables,
    contract,
    interval_rule,
    tensor_blocks,
    tensor_grid,
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

    def check_spans(self, rect) -> None:
        """Raise DomainError unless x1 and x2 span rect, (lo, hi) per axis: outside
        its axes the table would extrapolate."""
        for name, x, (lo, hi) in zip(("x1", "x2"), (self.x1, self.x2), rect):
            first, last = float(x[0]), float(x[-1])
            if not (first <= lo and hi <= last):
                raise DomainError(f"table {name} = [{first:g}, {last:g}] does not span "
                                  f"the sensor's [{lo:g}, {hi:g}]")


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
        if isinstance(self.distribution, BilinearTable) and self.kind != POINTWISE:
            if self.kind == ZONE:
                rects = self.geometry.rectangles
            else:
                fil = self.geometry
                span = [fil.interval, (fil.fixed, fil.fixed)]
                rects = [span[::-1] if fil.axis else span]
            for rect in rects:
                self.distribution.check_spans(rect)


@dataclass(frozen=True)
class SensorSuite:
    """Fixed-order collection of sensors; order fixes output channel order."""

    sensors: tuple[Sensor, ...]

    def __post_init__(self) -> None:
        if not self.sensors:
            raise DomainError("a sensor suite needs at least one sensor")

    def __len__(self) -> int:
        return len(self.sensors)


def _tensor_grids(sensor: Sensor, max_index: int) -> list:
    """(per-axis nodes, W) grids on the rule resolving indices up to max_index:
    a zone's rectangles, a filament's n x 1 (1 x n along axis 1), a point's
    1 x 1.  W, of shape (n_1, ..., n_dim), is weight times distribution,
    formed on the flat grid and then reshaped."""
    if sensor.kind == POINTWISE:
        point = sensor.geometry
        return [([np.array([c]) for c in point], np.ones((1,) * len(point)))]
    if sensor.kind == ZONE:
        rules = [[interval_rule(lo, hi, max_index) for lo, hi in rect]
                 for rect in sensor.geometry.rectangles]
    else:
        fil = sensor.geometry
        rules = [[interval_rule(*fil.interval, max_index),
                  (np.array([fil.fixed]), np.ones(1))][::-1 if fil.axis else 1]]
    pts, w = tensor_grid(rules)
    blocks = tensor_blocks(w * np.asarray(sensor.distribution(pts), dtype=float), rules)
    return [([x for x, _ in rule], block) for rule, block in zip(rules, blocks)]


def coupling_tables(suite: SensorSuite, indices: np.ndarray,
                    gradients: bool = False) -> np.ndarray:
    """kappa[i, j] = (f_i, xi_j) for the modes with indices (M, dim) or, with
    gradients, G[s, i, j] = (f_i, d(xi_j)/dx_s): each sensor's grids W on the
    rule of the pass's top index, summed axis by axis against the sine tables
    (derivatives on axis s) of every index up to it, each mode's entry picked."""
    dim, top = indices.shape[1], int(indices.max())
    pick = tuple(indices.T - 1)
    out = np.zeros((dim if gradients else 1, len(suite), len(indices)))
    for i, sensor in enumerate(suite.sensors):
        for nodes, w in _tensor_grids(sensor, top):
            if len(nodes) != dim:
                raise DomainError(f"{len(nodes)}-D sensor given for {dim}-D modes")
            tables = [axis_tables(np.arange(1, top + 1), x) for x in nodes]
            for k, s in enumerate(range(dim) if gradients else [None]):
                out[k, i] += contract(w, tables, s)[pick]
    out *= np.sqrt(2.0) ** dim
    check_finite(out, "sensor couplings")
    return out if gradients else out[0]


def grad_coupling(sensor: Sensor, mode: Mode, axis: int) -> float:
    """(f, d(xi_mode)/dx_axis) over the sensor support (axis is 0-based).

    A one-mode pass, so it integrates on the mode's own rule: for a zone or
    filament it differs from the entry of a suite pass, which uses the rule
    of the pass's top index (1.7e-6 relative on a bilinear zone, where the
    values differ by 2.6e-6).  Pointwise sensors agree bit for bit.
    """
    if not 0 <= axis < len(mode.indices):
        raise DomainError(f"axis {axis} invalid in {len(mode.indices)}-D")
    suite, indices = SensorSuite((sensor,)), np.array([mode.indices])
    return float(coupling_tables(suite, indices, gradients=True)[axis, 0, 0])


def coupling_matrix(suite: SensorSuite, basis: Basis) -> np.ndarray:
    """kappa[i, j] = (f_i, xi_j), in basis mode order."""
    return coupling_tables(suite, basis.indices)
