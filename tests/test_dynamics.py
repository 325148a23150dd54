"""Forward dynamics, the time rule and the Gram time kernel's closed forms.

The fractional-order values of the Gram kernel are checked against a frozen
mpmath table by acceptance check A6 (`test_acceptance.py`).
"""

import itertools
import math

import numpy as np
import pytest

from gradobs.errors import DomainError
from gradobs.dynamics import (
    ObservationRecord,
    TimeGrid,
    WEIGHTING_COMPENSATED,
    WEIGHTING_NONE,
    response_matrix,
    simulate,
    time_grid,
)
from gradobs.mlf import mlf
from gradobs.observability import response_kernel_matrix
from gradobs.sensing import POINTWISE, Sensor, SensorSuite
from gradobs.spectral import SpectralField, build_basis

PI2 = math.pi**2


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


@pytest.mark.parametrize("alpha,b", [(0.3, 1.0), (0.75, 2.5), (1.0, 0.4)])
def test_gram_time_mesh_is_mirror_symmetric(alpha, b):
    # the one time rule, shared by simulation, the Gramians and HUM
    grid = time_grid(alpha, b)
    nodes, weights = grid.nodes, grid.weights
    assert nodes.size == 256
    assert np.allclose(nodes, b - nodes[::-1], rtol=0.0, atol=1e-14 * b)
    assert np.allclose(weights, weights[::-1], rtol=0.0, atol=1e-14 * b)
    assert float(np.sum(weights)) == pytest.approx(b, rel=1e-13)


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


@pytest.mark.parametrize("shape", [(9, 7), (1, 7), (9, 1), (1, 1)])
def test_integer_order_responses_are_the_exact_branch_bits(shape):
    # at alpha = 1 every entry is mlf's own exact-branch scalar exp(lambda t)
    lams = -PI2 * np.arange(1, shape[0] + 1) ** 1.3
    times = np.linspace(0.013, 1.7, shape[1]) ** 1.5
    resp = response_matrix(1.0, lams, times)
    assert resp.shape == shape
    for j, lam in enumerate(lams):
        for k, t in enumerate(times):
            assert resp[j, k] == mlf(1.0, 1.0, lam * t)


def test_same_time_product_integer_order_closed_form():
    # V[j,k] = int_0^b e^{(lj+lk)s} ds = (e^{(lj+lk)b} - 1) / (lj + lk)
    lams = np.array([-PI2, -4 * PI2, -9 * PI2])
    v = response_kernel_matrix(1.0, lams, 1.0, WEIGHTING_NONE)
    for (j, lj), (k, lk) in itertools.product(enumerate(lams), repeat=2):
        expected = (math.exp(lj + lk) - 1.0) / (lj + lk)
        assert v[j, k] == pytest.approx(expected, rel=1e-12)


def test_unweighted_integrals_reject_small_alpha():
    # the unweighted response is not square integrable for alpha <= 1/2
    with pytest.raises(DomainError):
        response_kernel_matrix(0.5, [-PI2], 1.0, WEIGHTING_NONE)
    with pytest.raises(DomainError):
        response_kernel_matrix(0.4, [-PI2], 1.0, WEIGHTING_NONE)
    with pytest.raises(DomainError):
        response_kernel_matrix(0.6, [-PI2], 1.0, "sqrt")


def test_response_integrals_reject_positive_eigenvalue():
    with pytest.raises(DomainError):
        response_kernel_matrix(0.6, [-PI2, 1.0], 1.0, WEIGHTING_NONE)
    with pytest.raises(DomainError):
        response_kernel_matrix(0.6, [1.0, -PI2], 1.0, WEIGHTING_COMPENSATED)


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
