"""Forward dynamics, time quadratures and the response-product integrals.

The convolution reference values were generated independently with mpmath at
high precision: for the unweighted case via the inverse Laplace transform
L^{-1}[1 / ((s^a + x)(s^a + y))](b), for the compensated case via adaptive
quadrature with Talbot-inverted pointwise responses.
"""

import math

import numpy as np
import pytest

from gradobs.errors import DomainError
from gradobs.dynamics import (
    ObservationRecord,
    TimeGrid,
    WEIGHTING_COMPENSATED,
    WEIGHTING_NONE,
    duhamel_weight,
    response_gram_weight,
    response_matrix,
    simulate,
    time_grid,
)
from gradobs.sensing import POINTWISE, Sensor, SensorSuite
from gradobs.spectral import SpectralField, build_basis

PI2 = math.pi**2

# (alpha, j, k, value): int_0^1 resp_j(s) resp_k(1-s) ds with lambda = -(j pi)^2
DUHAMEL_ORACLE = [
    (0.6, 1, 1, 0.00060995909160311656),
    (0.6, 1, 2, 9.3632252236893072e-5),
    (0.6, 2, 3, 2.8814945584804606e-6),
    (0.75, 1, 1, 0.00058465156844876287),
    (0.75, 1, 2, 8.3698632426966321e-5),
    (0.75, 2, 3, 2.290040136117353e-6),
    (0.9, 1, 1, 0.00038230633137123468),
    (0.9, 1, 2, 4.7856437628898587e-5),
    (0.9, 2, 3, 1.0908407922273883e-6),
]

# same integral with the weight (s(1-s))**(1-a), which keeps it finite
# for a <= 1/2
DUHAMEL_COMPENSATED_ORACLE = [
    (0.4, 1, 1, 3.604776897068572e-5),
    (0.4, 1, 2, 2.7675788398028366e-6),
    (0.4, 2, 3, 4.3553536803754124e-8),
]


def test_time_grid_properties():
    grid = time_grid(0.6, 2.0)
    assert float(np.sum(grid.weights)) == pytest.approx(2.0, rel=1e-13)
    assert grid.nodes[0] > 0.0
    assert grid.nodes[-1] <= 2.0
    assert bool(np.all(np.diff(grid.nodes) > 0.0))
    with pytest.raises(DomainError):
        time_grid(1.2, 1.0)
    with pytest.raises(DomainError):
        time_grid(0.5, -1.0)


def test_time_grid_rejects_inconsistent_weights():
    with pytest.raises(DomainError):
        TimeGrid(1.0, np.array([0.25, 0.75]), np.array([0.25, 0.25]))
    with pytest.raises(DomainError):
        TimeGrid(1.0, np.array([0.0, 0.5]), np.array([0.5, 0.5]))


def test_response_matrix_integer_order():
    lams = [-PI2, -4.0 * PI2]
    times = np.array([0.1, 0.5, 1.0])
    resp = response_matrix(1.0, lams, times)
    assert resp.shape == (2, 3)
    for j, lam in enumerate(lams):
        for k, t in enumerate(times):
            assert resp[j, k] == pytest.approx(math.exp(lam * t), rel=1e-14)
    with pytest.raises(DomainError):
        response_matrix(0.5, lams, np.array([0.0, 0.5]))  # singular prefactor
    with pytest.raises(DomainError):
        response_matrix(0.5, lams, np.array([-0.1, 0.5]))
    with pytest.raises(DomainError):
        response_matrix(0.5, [-PI2, 1.0], times)  # positive eigenvalue
    with pytest.raises(DomainError):
        response_matrix(1.5, lams, times)


@pytest.mark.parametrize("alpha,j,k,expected", DUHAMEL_ORACLE)
def test_convolution_integral_against_oracle(alpha, j, k, expected):
    value = duhamel_weight(alpha, -(j**2) * PI2, -(k**2) * PI2, 1.0)
    assert value == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("alpha,j,k,expected", DUHAMEL_COMPENSATED_ORACLE)
def test_compensated_convolution_against_oracle(alpha, j, k, expected):
    value = duhamel_weight(
        alpha, -(j**2) * PI2, -(k**2) * PI2, 1.0, WEIGHTING_COMPENSATED
    )
    assert value == pytest.approx(expected, rel=1e-7)


def test_convolution_integer_order_closed_form():
    # int_0^b e^{lj s} e^{lk (b-s)} ds
    for lj, lk in [(-PI2, -4 * PI2), (-PI2, -9 * PI2), (-4 * PI2, -4 * PI2)]:
        if lj != lk:
            expected = (math.exp(lj) - math.exp(lk)) / (lj - lk)
        else:
            expected = math.exp(lj)
        assert duhamel_weight(1.0, lj, lk, 1.0) == pytest.approx(
            expected, rel=1e-9
        )


def test_same_time_product_integer_order_closed_form():
    # int_0^b e^{(lj+lk)s} ds = (e^{(lj+lk)b} - 1) / (lj + lk)
    for lj, lk in [(-PI2, -4 * PI2), (-PI2, -PI2), (-4 * PI2, -9 * PI2)]:
        expected = (math.exp(lj + lk) - 1.0) / (lj + lk)
        assert response_gram_weight(1.0, lj, lk, 1.0) == pytest.approx(
            expected, rel=1e-12
        )


def test_unweighted_integrals_reject_small_alpha():
    # the unweighted response is not square integrable for alpha <= 1/2
    with pytest.raises(DomainError):
        duhamel_weight(0.5, -PI2, -PI2, 1.0, WEIGHTING_NONE)
    with pytest.raises(DomainError):
        response_gram_weight(0.4, -PI2, -PI2, 1.0, WEIGHTING_NONE)
    with pytest.raises(DomainError):
        duhamel_weight(0.6, -PI2, -PI2, 1.0, "sqrt")


def test_response_integrals_reject_positive_eigenvalue():
    with pytest.raises(DomainError):
        duhamel_weight(0.6, -PI2, 1.0, 1.0)
    with pytest.raises(DomainError):
        response_gram_weight(0.6, 1.0, -PI2, 1.0)


def test_simulate_heat_limit_matches_semigroup():
    basis = build_basis(1, 5)
    coeffs = np.array([1.0, -0.7, 0.0, 0.0, 0.3])
    y0 = SpectralField(basis, coeffs)
    locations = (1.0 / math.pi, 1.0 / math.sqrt(2.0))
    suite = SensorSuite(tuple(Sensor(POINTWISE, (c,)) for c in locations))
    grid = time_grid(1.0, 1.0)
    record = simulate(y0, suite, 1.0, grid)
    for i, c in enumerate(locations):
        expected = np.zeros_like(grid.nodes)
        for j, c0 in enumerate(coeffs, start=1):
            expected += (
                c0
                * math.sqrt(2.0)
                * math.sin(j * math.pi * c)
                * np.exp(-(j**2) * PI2 * grid.nodes)
            )
        assert np.max(np.abs(record.channels[i] - expected)) < 1e-12


def test_noise_is_counter_based_and_deterministic():
    basis = build_basis(1, 3)
    y0 = SpectralField(basis, np.array([1.0, 0.0, 0.0]))
    suite = SensorSuite((Sensor(POINTWISE, (0.3,)),))
    grid = time_grid(0.7, 1.0)
    a = simulate(y0, suite, 0.7, grid, noise_sigma=1e-3, noise_seed=42)
    b = simulate(y0, suite, 0.7, grid, noise_sigma=1e-3, noise_seed=42)
    c = simulate(y0, suite, 0.7, grid, noise_sigma=1e-3, noise_seed=43)
    clean = simulate(y0, suite, 0.7, grid)
    assert np.array_equal(a.channels, b.channels)
    assert not np.array_equal(a.channels, c.channels)
    noise = a.channels - clean.channels
    assert 1e-4 < float(np.std(noise)) < 1e-2
    with pytest.raises(DomainError):
        simulate(y0, suite, 0.7, grid, noise_sigma=1e-3)  # seed required


def test_observation_record_length_check():
    grid = time_grid(0.7, 1.0)
    with pytest.raises(DomainError):
        ObservationRecord(grid, np.ones((1, 3)))
