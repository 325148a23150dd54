"""Sensor couplings: closed forms, per-point references and validation."""

import math

import numpy as np
import pytest

from gradobs.cli import Experiment
from gradobs.errors import DomainError
from gradobs.presets import preset
from gradobs.sensing import (
    BilinearTable,
    FILAMENT,
    Filament,
    POINTWISE,
    Sensor,
    SensorSuite,
    ZONE,
    coupling_matrix,
    coupling_tables,
    grad_coupling,
)
from gradobs.spectral import (
    Region,
    build_basis,
    interval_rule,
    region_quadrature,
)


def _couplings(sensor, basis):
    """The value couplings of one sensor with every mode of the basis."""
    return coupling_tables(SensorSuite((sensor,)), basis.indices)[0]


def test_pointwise_coupling_is_evaluation():
    basis = build_basis(1, 4)
    c = 0.37
    sensor = Sensor(POINTWISE, (c,))
    for j, got in enumerate(_couplings(sensor, basis), start=1):
        expected = math.sqrt(2.0) * math.sin(j * math.pi * c)
        assert got == pytest.approx(expected, rel=1e-14)


def test_pointwise_grad_coupling_closed_form():
    basis = build_basis(1, 5)
    c = 0.41
    sensor = Sensor(POINTWISE, (c,))
    for j, mode in enumerate(basis.modes, start=1):
        expected = math.sqrt(2.0) * j * math.pi * math.cos(j * math.pi * c)
        assert grad_coupling(sensor, mode, 0) == pytest.approx(expected, rel=1e-13)


def test_zone_coupling_closed_form():
    # constant distribution on [a, b]: (f, xi_j) = sqrt(2)(cos(j pi a) - cos(j pi b))/(j pi)
    a, b = 0.2, 0.7
    sensor = Sensor(
        ZONE, Region((((a, b),),)), lambda pts: np.ones(pts.shape[0])
    )
    basis = build_basis(1, 6)
    for j, got in enumerate(_couplings(sensor, basis), start=1):
        expected = math.sqrt(2.0) * (
            math.cos(j * math.pi * a) - math.cos(j * math.pi * b)
        ) / (j * math.pi)
        assert got == pytest.approx(expected, abs=1e-13)


def test_filament_coupling_selects_first_transverse_mode():
    # sin(pi x2) on {x1 = 1/2}: coupling is sin(j pi / 2) * delta_{k,1}
    sensor = Experiment(preset("counterexample")).suite.sensors[0]
    basis = build_basis(2, 4)
    for mode, got in zip(basis.modes, _couplings(sensor, basis)):
        j, k = mode.indices
        expected = math.sin(j * math.pi / 2.0) if k == 1 else 0.0
        assert got == pytest.approx(expected, abs=1e-13)


def _flat_couplings(sensor, modes, top):
    """The couplings as flat per-point sums sum w f t(xi_j), t the value and
    each d/dx_s, on the sensor's points of the rule resolving indices up to
    top: region quadrature for a zone, segment nodes for a filament, the
    point itself."""
    if sensor.kind == ZONE:
        grid = region_quadrature(sensor.geometry, top)
        pts, w = grid.points, grid.weights * sensor.distribution(grid.points)
    elif sensor.kind == FILAMENT:
        fil = sensor.geometry
        s, w = interval_rule(*fil.interval, top)
        pts = np.full((s.size, 2), fil.fixed)
        pts[:, fil.axis] = s
        w = w * sensor.distribution(pts)
    else:
        pts, w = np.array([sensor.geometry]), np.ones(1)
    return np.array([[np.sum(w * mode.eval(pts)), *(w @ mode.grad(pts))]
                     for mode in modes]).T


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_coupling_matrix_consistency():
    basis = build_basis(1, 3)
    suite = SensorSuite((Sensor(POINTWISE, (0.3,)), Sensor(POINTWISE, (0.8,))))
    kappa = coupling_matrix(suite, basis)
    assert kappa.shape == (2, 3)
    for i, sensor in enumerate(suite.sensors):
        for j, mode in enumerate(basis.modes):
            # a point's 1 x 1 rule is the same in every pass, so its
            # couplings keep every bit with the mode alone in its pass
            one = np.array([mode.indices])
            assert kappa[i, j] == coupling_tables(SensorSuite((sensor,)), one)[0, 0]
    # every sensor kind, values and both gradient axes: bitwise those of the
    # sensor alone in its pass, and against the flat per-point sums, which
    # evaluate each mode on the flattened rule of the pass's top index with
    # `Mode.eval`/`grad` instead of axis by axis; `grad_coupling`, a one-mode
    # pass, against the flat sums on the mode's own rule
    x = np.linspace(0.0, 1.0, 6)
    suites = [(build_basis(2, 4), (
        Sensor(ZONE, Region((((0.1, 0.4), (0.2, 0.7)),)),
               lambda pts: np.sin(2.0 * pts[:, 0]) + pts[:, 1]),
        Sensor(ZONE, Region((((0.5, 0.9), (0.0, 0.3)), ((0.5, 0.9), (0.6, 1.0)))),
               BilinearTable(x, x, 1.0 + np.outer(x, x**2))),
        Sensor(ZONE, Region((((0.05, 0.35), (0.4, 0.95)),)),
               lambda pts: np.full(len(pts), 1.7)),
        Sensor(FILAMENT, Filament(axis=0, interval=(0.2, 0.8), fixed=0.35),
               lambda pts: np.cos(np.pi * pts[:, 0])),
        Sensor(FILAMENT, Filament(axis=1, interval=(0.1, 0.75), fixed=0.6),
               lambda pts: 1.0 + pts[:, 1] ** 2),
        Sensor(POINTWISE, (0.62, 0.27)),
    )), (build_basis(1, 7), (
        Sensor(ZONE, Region((((0.15, 0.55),), ((0.6, 0.9),))),
               lambda pts: np.exp(pts[:, 0])),
        Sensor(POINTWISE, (0.43,)),
    ))]
    for basis, sensors in suites:
        suite = SensorSuite(sensors)
        kappa = coupling_matrix(suite, basis)
        assert (coupling_tables(suite, basis.indices) == kappa).all()
        grads = coupling_tables(suite, basis.indices, gradients=True)
        for i, sensor in enumerate(suite.sensors):
            alone = SensorSuite((sensor,))
            assert np.array_equal(kappa[i], coupling_tables(alone, basis.indices)[0])
            alone_grads = coupling_tables(alone, basis.indices, gradients=True)
            assert np.array_equal(grads[:, i], alone_grads[:, 0])
            ref = _flat_couplings(sensor, basis.modes, int(basis.indices.max()))
            for got, want in zip([kappa[i], *grads[:, i]], ref):
                assert _close(got, want)
            own = np.hstack([_flat_couplings(sensor, [mode], max(mode.indices))
                             for mode in basis.modes])
            for s in range(basis.dimension):
                got = np.array([grad_coupling(sensor, mode, s) for mode in basis.modes])
                assert _close(got, own[1 + s])


def test_bilinear_table_reproduces_bilinear_function():
    x1 = np.linspace(0.0, 1.0, 5)
    x2 = np.linspace(0.0, 1.0, 7)
    values = 2.0 * x1[:, None] + 3.0 * x2[None, :] - x1[:, None] * x2[None, :]
    table = BilinearTable(x1, x2, values)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    expected = 2.0 * pts[:, 0] + 3.0 * pts[:, 1] - pts[:, 0] * pts[:, 1]
    assert np.max(np.abs(table(pts) - expected)) < 1e-13


def test_sensor_validation():
    with pytest.raises(DomainError):
        Sensor("blob", (0.5,))
    with pytest.raises(DomainError):
        Sensor(POINTWISE, (1.5,))
    with pytest.raises(DomainError):
        Sensor(ZONE, Region((((0.0, 1.0),),)))  # missing distribution
    with pytest.raises(DomainError):
        Sensor(FILAMENT, (0.5, 0.5))  # geometry must be a Filament
    with pytest.raises(DomainError):
        Filament(axis=2, interval=(0.0, 1.0), fixed=0.5)
    with pytest.raises(DomainError):
        Filament(axis=0, interval=(0.7, 0.2), fixed=0.5)
    with pytest.raises(DomainError):
        SensorSuite(())


def test_table_distribution_must_span_its_sensor():
    # outside its axes a table extrapolates: on [0, 0.5]^2 with values
    # [[1, 2], [3, 4]] it reads 7 at (1, 1), far from every tabulated value
    half = np.array([0.0, 0.5])
    table = BilinearTable(half, half, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert table(np.array([[1.0, 1.0]]))[0] == pytest.approx(7.0)
    for geometry in [
        Region((((0.2, 0.7), (0.3, 0.8)),)),
        Region((((0.1, 0.4), (0.1, 0.4)), ((0.1, 0.4), (0.45, 0.6)))),
        Filament(axis=0, interval=(0.1, 0.6), fixed=0.3),
        Filament(axis=1, interval=(0.1, 0.4), fixed=0.6),  # x1 = 0.6 outside
    ]:
        kind = ZONE if isinstance(geometry, Region) else FILAMENT
        with pytest.raises(DomainError, match="does not span"):
            Sensor(kind, geometry, table)
    # spanning to the last node, a filament's fixed coordinate included
    for kind, geometry in [
        (ZONE, Region((((0.0, 0.5), (0.1, 0.5)),))),
        (FILAMENT, Filament(axis=0, interval=(0.1, 0.5), fixed=0.5)),
        (FILAMENT, Filament(axis=1, interval=(0.0, 0.4), fixed=0.2)),
    ]:
        Sensor(kind, geometry, table)


def test_grad_coupling_rejects_bad_axis():
    basis = build_basis(1, 2)
    sensor = Sensor(POINTWISE, (0.4,))
    with pytest.raises(DomainError):
        grad_coupling(sensor, basis.modes[0], 1)


def test_coupling_rejects_dimension_mismatch():
    one, two = build_basis(1, 3), build_basis(2, 3)
    strip = Region((((0.0, 1.0),),))
    # a 2-D point must not couple through x1 alone, a 1-D point not index x2
    for sensor, basis in [
        (Sensor(POINTWISE, (0.3, 0.4)), one),
        (Sensor(POINTWISE, (0.3,)), two),
        (Sensor(ZONE, strip, lambda pts: np.ones(len(pts))), two),
        (Experiment(preset("counterexample")).suite.sensors[0], one),  # filaments are 2-D
    ]:
        with pytest.raises(DomainError):
            coupling_matrix(SensorSuite((sensor,)), basis)
        with pytest.raises(DomainError):
            coupling_tables(SensorSuite((sensor,)), basis.indices, gradients=True)
        with pytest.raises(DomainError):
            grad_coupling(sensor, basis.modes[0], 0)

