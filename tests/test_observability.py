"""Strategic rank tests, kernel tests and the observability Gramians."""

import math
import warnings

import numpy as np
import pytest

from gradobs.errors import DomainError
from gradobs.dynamics import TimeGrid, gram_time_mesh, simulate, time_grid
from gradobs.observability import (
    COMPONENT,
    GRADIENT,
    ConditioningWarning,
    build_g_matrices,
    grad_overlap_matrix,
    gram_regional,
    kernel_test,
    output_energy,
    strategic_test_1d,
)
from gradobs.sensing import (
    POINTWISE,
    Sensor,
    SensorSuite,
    counterexample_sensor,
)
from gradobs.spectral import (
    Region,
    SpectralField,
    build_basis,
    grad_adjoint,
    restrict,
    sample_vector_field,
    whole_domain,
)

PI2 = math.pi**2


def _pointwise_suite(*locations):
    return SensorSuite(tuple(Sensor(POINTWISE, loc) for loc in locations))


def _vortex_free_field(pts):
    # grad(xi_{(1,3)}) / (2 pi^2): globally invisible to the midline filament
    g1 = np.cos(np.pi * pts[:, 0]) * np.sin(3 * np.pi * pts[:, 1]) / np.pi
    g2 = 3 * np.sin(np.pi * pts[:, 0]) * np.cos(3 * np.pi * pts[:, 1]) / np.pi
    return np.stack([g1, g2], axis=1)


def test_midpoint_sensor_is_not_strategic():
    # every even spatial derivative vanishes at x = 1/2
    basis = build_basis(1, 12)
    report = strategic_test_1d(build_g_matrices(basis, _pointwise_suite((0.5,))))
    assert not report.verdict
    assert report.offending_group == 1
    assert report.ranks[0] == 0
    assert report.multiplicities == (1,) * 12


def test_irrational_sensor_is_strategic():
    basis = build_basis(1, 12)
    report = strategic_test_1d(
        build_g_matrices(basis, _pointwise_suite((1.0 / math.pi,)))
    )
    assert report.verdict
    assert report.offending_group is None
    assert report.ranks == (1,) * 12


def test_rank_threshold_uses_global_scale():
    # cos(5 pi / 10) evaluates to ~1e-16, not exactly 0; a per-group relative
    # threshold would wrongly certify that 1x1 matrix as full rank
    basis = build_basis(1, 5)
    gset = build_g_matrices(basis, _pointwise_suite((0.1,)))
    report = strategic_test_1d(gset)
    assert abs(gset.matrices[4][0][0, 0]) < 1e-12
    assert report.ranks[4] == 0
    assert not report.verdict


def test_strategic_rank_form_is_one_dimensional_only():
    basis = build_basis(2, 3)
    gset = build_g_matrices(basis, _pointwise_suite((0.3, 0.4)))
    with pytest.raises(DomainError):
        strategic_test_1d(gset)


def test_component_gram_diagonalizes_at_full_domain():
    # on the whole domain the overlap matrix is the identity, so the
    # component Gramian factors as V[q,q'] * G_q * G_q'
    basis = build_basis(1, 3)
    c = 0.37
    suite = _pointwise_suite((c,))
    report = gram_regional(
        basis, suite, 0.7, 1.0, whole_domain(1), truncation=3, kind=COMPONENT
    )
    from gradobs.observability import response_kernel_matrix

    eigenvalues = np.array([m.eigenvalue for m in basis.modes])
    v = response_kernel_matrix(0.7, eigenvalues, 1.0, "none")
    g = np.array(
        [math.sqrt(2.0) * q * math.pi * math.cos(q * math.pi * c) for q in (1, 2, 3)]
    )
    expected = v * np.outer(g, g)
    assert np.max(np.abs(report.matrix - expected)) < 1e-10 * np.max(np.abs(expected))


def test_gradient_gram_closed_form_integer_order():
    # single mode, single sensor: Gram = d^2 kappa^2 (e^{2 lam b} - 1)/(2 lam)
    # with d the regional Dirichlet overlap and kappa the sensor coupling
    basis = build_basis(1, 1)
    c = 0.3
    lo, hi = 0.2, 0.6
    region = Region((((lo, hi),),))
    suite = _pointwise_suite((c,))
    report = gram_regional(
        basis, suite, 1.0, 1.0, region, truncation=1, kind=GRADIENT
    )
    lam = -PI2

    def anti(x):
        return 0.5 * x + math.sin(2.0 * math.pi * x) / (4.0 * math.pi)

    d = 2.0 * PI2 * (anti(hi) - anti(lo))
    kappa = math.sqrt(2.0) * math.sin(math.pi * c)
    expected = d**2 * kappa**2 * (math.exp(2.0 * lam) - 1.0) / (2.0 * lam)
    assert report.matrix[0, 0] == pytest.approx(expected, rel=1e-12)


def test_gradient_gram_annihilates_invisible_direction():
    # the direction along grad(xi_{(1,3)}) produces zero output through the
    # midline filament sensor (its transverse coupling vanishes), so the
    # quadratic form must vanish on the matching unit vector
    basis = build_basis(2, 4)
    suite = SensorSuite((counterexample_sensor(),))
    report = gram_regional(
        basis, suite, 0.5, 1.0, whole_domain(2),
        truncation=4, weighting="compensated", kind=GRADIENT,
    )
    test_basis_index = report.test_modes.index((1, 3))
    a = np.zeros(report.matrix.shape[0])
    a[test_basis_index] = 1.0
    form = float(a @ report.matrix @ a)
    assert not report.positive_definite
    assert abs(form) < 1e-14 * report.largest_eigenvalue


def test_gradient_gram_quadratic_form_is_output_energy():
    # a^T G a equals the weighted output energy of the pulled-back state
    basis = build_basis(2, 3)
    region = Region((((0.0, 1.0), (0.0, 0.5)),))
    suite = _pointwise_suite((0.31, 0.57), (0.72, 0.23))
    report = gram_regional(
        basis, suite, 0.8, 1.0, region, truncation=3, kind=GRADIENT
    )
    test_basis = build_basis(2, 3)
    d = grad_overlap_matrix(test_basis, basis, region)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=report.matrix.shape[0])
        energy = output_energy(d.T @ a, basis, suite, 0.8, 1.0)
        assert float(a @ report.matrix @ a) == pytest.approx(energy, rel=1e-12)


def test_output_energy_matches_time_quadrature_of_channels():
    basis = build_basis(1, 4)
    suite = _pointwise_suite((0.29,), (0.81,))
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=len(basis))
    nodes, wq = gram_time_mesh(0.8, 1.0)
    record = simulate(
        SpectralField(basis, coeffs), suite, 0.8, TimeGrid(1.0, nodes, wq)
    )
    direct = float(np.sum(wq[None, :] * record.channels**2))
    assert output_energy(coeffs, basis, suite, 0.8, 1.0) == pytest.approx(
        direct, rel=1e-12
    )


def test_strategic_verdict_matches_gram_nullity_at_matched_truncation():
    basis = build_basis(1, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for loc in (0.5, 0.25, 0.75, 1.0 / math.pi, 0.37, 1.0 / 3.0):
            suite = _pointwise_suite((loc,))
            strategic = strategic_test_1d(build_g_matrices(basis, suite)).verdict
            pd = gram_regional(
                basis, suite, 0.7, 1.0, whole_domain(1),
                truncation=5, kind=COMPONENT,
            ).positive_definite
            assert strategic == pd, loc


def test_stiffness_overlap_grows_with_region():
    # enlarging omega adds a positive semidefinite piece to the Dirichlet
    # overlap matrix (the integral over the added set)
    test_basis = build_basis(2, 3)
    strip = Region((((0.0, 1.0), (0.0, 0.5)),))
    d_small = grad_overlap_matrix(test_basis, test_basis, strip)
    d_full = grad_overlap_matrix(test_basis, test_basis, whole_domain(2))
    diff_eigs = np.linalg.eigvalsh(d_full - d_small)
    assert diff_eigs[0] > -1e-10 * diff_eigs[-1]


def test_conditioning_warning_fires_for_deep_truncation():
    basis = build_basis(1, 11)
    suite = _pointwise_suite((1.0 / math.pi,))
    with pytest.warns(ConditioningWarning):
        gram_regional(
            basis, suite, 0.7, 1.0, whole_domain(1), truncation=11, kind=COMPONENT
        )


def test_kernel_test_counterexample_field():
    basis = build_basis(2, 6)
    suite = SensorSuite((counterexample_sensor(),))
    g = sample_vector_field(_vortex_free_field, whole_domain(2), 6)
    grid = time_grid(0.5, 1.0)
    whole = kernel_test(g, suite, 0.5, whole_domain(2), basis, grid)
    assert whole.in_kernel
    assert whole.sup_norm < 1e-9 * whole.scale
    strip = Region((((0.0, 1.0), (0.0, 1.0 / 6.0)),))
    partial = kernel_test(g, suite, 0.5, strip, basis, grid)
    assert not partial.in_kernel
    zero = sample_vector_field(
        lambda pts: np.zeros_like(pts), whole_domain(2), 6
    )
    assert kernel_test(zero, suite, 0.5, whole_domain(2), basis, grid).in_kernel


def test_kernel_test_channels_match_simulate():
    # simulate is the independent path to the strip state's output
    basis = build_basis(2, 6)
    suite = SensorSuite((counterexample_sensor(),))
    g = sample_vector_field(_vortex_free_field, whole_domain(2), 6)
    grid = time_grid(0.5, 1.0, panels=4)
    strip = Region((((0.0, 1.0), (0.0, 1.0 / 6.0)),))
    report = kernel_test(g, suite, 0.5, strip, basis, grid)
    state = grad_adjoint(restrict(g, strip), basis)
    expected = simulate(state, suite, 0.5, grid).channels
    assert report.channels.shape == expected.shape
    assert np.max(np.abs(report.channels - expected)) <= 1e-14 * np.max(
        np.abs(expected)
    )


def test_gram_validation():
    basis = build_basis(1, 3)
    suite = _pointwise_suite((0.3,))
    with pytest.raises(DomainError):
        gram_regional(basis, suite, 0.7, 1.0, whole_domain(1), truncation=4)
    with pytest.raises(DomainError):
        gram_regional(
            basis, suite, 0.7, 1.0, whole_domain(1), truncation=2, kind="mixed"
        )
