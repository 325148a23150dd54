"""Strategic rank tests, kernel tests and the observability Gramians."""

import math
import re
import warnings

import numpy as np
import pytest

from gradobs.errors import DomainError
from gradobs.dynamics import TimeGrid, grading_exponent, simulate, time_grid
from gradobs.observability import (
    COMPONENT,
    GRADIENT,
    NULL_REL_TOL,
    ConditioningWarning,
    _spectrum_report,
    build_g_matrices,
    grad_overlap_matrix,
    gram_regional,
    kernel_test,
    numerical_rank,
    overlap_matrix,
    response_kernel_matrix,
    strategic_test_1d,
)
from gradobs.sensing import (
    FILAMENT,
    POINTWISE,
    ZONE,
    Filament,
    Sensor,
    SensorSuite,
    counterexample_sensor,
    coupling_matrix,
    coupling_tables,
)
from gradobs.spectral import (
    Region,
    SpectralField,
    build_basis,
    gauss_panels,
    grad_adjoint,
    region_quadrature,
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


def test_gradient_couplings_match_per_element_assembly():
    basis = build_basis(2, 4)
    suite = SensorSuite((
        Sensor(ZONE, Region((((0.1, 0.6), (0.3, 0.8)),)),
               lambda pts: 1.0 + pts[:, 0] * pts[:, 1]),
        Sensor(FILAMENT, Filament(axis=1, interval=(0.1, 0.9), fixed=0.3),
               lambda pts: np.sin(np.pi * pts[:, 1])),
        Sensor(POINTWISE, (0.41, 0.73)),
    ))
    gset = build_g_matrices(basis, suite)
    assert len(gset.matrices) == len(basis.groups)
    # each sensor alone in a pass over the whole basis: (dim, M) per sensor
    alone = [coupling_tables(SensorSuite((sensor,)), basis.indices,
                             gradients=True)[:, 0] for sensor in suite.sensors]
    for group, per_axis in zip(basis.groups, gset.matrices):
        for s, m in enumerate(per_axis):
            expected = [[g[s, basis.index_of(mode.indices)] for mode in group.members]
                        for g in alone]
            assert np.array_equal(m, np.array(expected))
    # component Gramian: sum over sensors of rows V rows^T, with row block s
    # the overlaps R scaled by the sensor's axis-s gradient couplings
    region = Region((((0.0, 1.0), (0.0, 0.5)),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        report = gram_regional(basis, suite, 0.7, 1.0, region, truncation=3,
                               kind=COMPONENT)
    r = overlap_matrix(build_basis(2, 3), basis, region)
    v = response_kernel_matrix(0.7, basis.eigenvalues, 1.0, "none")
    gram = np.zeros((2 * len(r), 2 * len(r)))
    for g in alone:
        rows = np.vstack([r * g[s] for s in range(2)])
        gram += rows @ v @ rows.T
    assert np.array_equal(report.matrix, 0.5 * (gram + gram.T))


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
    with pytest.warns(ConditioningWarning):  # the Gramian is singular
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


def _output_energy(coefficients, basis, suite):
    """int_0^1 ||z(t)||**2 dt of the state with the given coefficients at
    alpha = 0.8: the time quadrature of its simulated channels on the
    Gramians' mesh (unweighted, so every weight is the quadrature weight)."""
    grid = time_grid(0.8, 1.0)
    record = simulate(SpectralField(basis, coefficients), suite, 0.8, grid)
    return float(np.sum(grid.weights[None, :] * record.channels**2))


def test_gradient_gram_quadratic_form_is_output_energy():
    # a^T G a equals the output energy of the pulled-back state D^T a
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
        energy = _output_energy(d.T @ a, basis, suite)
        assert float(a @ report.matrix @ a) == pytest.approx(energy, rel=1e-12)


def test_output_energy_matches_time_quadrature_of_channels():
    # the Gramians' form c^T (V o kappa^T kappa) c against simulated channels
    basis = build_basis(1, 4)
    suite = _pointwise_suite((0.29,), (0.81,))
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=len(basis))
    kappa = coupling_matrix(suite, basis)
    v = response_kernel_matrix(0.8, basis.eigenvalues, 1.0, "none")
    form = float(coeffs @ (v * (kappa.T @ kappa)) @ coeffs)
    assert form == pytest.approx(_output_energy(coeffs, basis, suite), rel=1e-12)


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


ONE_RECTANGLE = (((0.1, 0.7), (0.2, 0.9)),)
TWO_RECTANGLES = (((0.05, 0.45), (0.2, 0.9)), ((0.5, 0.95), (0.0, 0.6)))


@pytest.mark.parametrize(
    "dimension,truncation,test_truncation,rectangles",
    [pytest.param(*case, ONE_RECTANGLE, id="-".join(map(str, case)))
     for case in [(1, 6, 3), (1, 6, 6), (1, 6, 9), (2, 4, 2), (2, 4, 4), (2, 4, 5)]]
    + [pytest.param(1, 6, 4, TWO_RECTANGLES, id="1-6-4-two-rectangles"),
       pytest.param(2, 4, 5, TWO_RECTANGLES, id="2-4-5-two-rectangles")],
)
def test_overlap_matrices_match_per_mode_reference(dimension, truncation,
                                                   test_truncation, rectangles):
    # the test basis below, at and above the basis truncation; the overlaps
    # sum per rectangle, the reference over the region's flat grid
    basis = build_basis(dimension, truncation)
    test_basis = build_basis(dimension, test_truncation)
    region = Region(tuple(rect[:dimension] for rect in rectangles))
    grid = region_quadrature(region, max(truncation, test_truncation))
    w = grid.weights[None, :]
    tq = np.stack([m.eval(grid.points) for m in test_basis.modes])
    tj = np.stack([m.eval(grid.points) for m in basis.modes])
    gq = np.stack([m.grad(grid.points) for m in test_basis.modes])  # (Q, N, dim)
    gj = np.stack([m.grad(grid.points) for m in basis.modes])
    r_ref = (tq * w) @ tj.T
    d_ref = sum((gq[:, :, s] * w) @ gj[:, :, s].T for s in range(dimension))
    r = overlap_matrix(test_basis, basis, region)
    d = grad_overlap_matrix(test_basis, basis, region)
    assert r.shape == d.shape == (len(test_basis), len(basis))
    assert np.max(np.abs(r - r_ref)) <= 1e-14 * np.max(np.abs(r_ref))
    assert np.max(np.abs(d - d_ref)) <= 1e-14 * np.max(np.abs(d_ref))


def test_overlaps_reject_dimension_mismatch():
    strip = Region((((0.0, 1.0), (0.0, 0.5)),))
    one, two = build_basis(1, 3), build_basis(2, 3)
    for overlap in (overlap_matrix, grad_overlap_matrix):
        with pytest.raises(DomainError):
            overlap(one, two, strip)  # must not pair x1 alone with 2-D modes
        with pytest.raises(DomainError):
            overlap(two, two, Region((((0.0, 0.5),),)))
        with pytest.raises(DomainError):
            overlap(one, one, strip)


def test_conditioning_warning_fires_for_deep_truncation():
    basis = build_basis(1, 11)
    suite = _pointwise_suite((1.0 / math.pi,))
    with pytest.warns(ConditioningWarning):
        gram_regional(
            basis, suite, 0.7, 1.0, whole_domain(1), truncation=11, kind=COMPONENT
        )


def test_conditioning_warning_goes_by_the_size_of_the_smallest_eigenvalue():
    # a singular Gramian's smallest eigenvalue is rounding noise of either
    # sign; an exact 0 reads as an infinite ratio
    for smallest, ratio in [(-1e-17, "1.00e+17"), (1e-17, "1.00e+17"), (0.0, "inf")]:
        with pytest.warns(ConditioningWarning, match=re.escape(f"ratio {ratio} ")):
            report = _spectrum_report(GRADIENT, np.diag([smallest, 1.0]), ())
        assert not report.positive_definite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _spectrum_report(GRADIENT, np.zeros((2, 2)), ())  # no scale to compare
        _spectrum_report(GRADIENT, np.diag([-1e-11, 1.0]), ())


@pytest.mark.parametrize("eigenvalues", [
    [0.5, 1.0, 2.0],        # well conditioned
    [2e-10, 1.0, 2.0],      # smallest just below the threshold
    [3e-10, 1.0, 2.0],      # and just above it
    [0.0, 0.0, 1.0],        # singular
    [-1e-17, 1.0, 2.0],     # singular with negative rounding noise
    [0.0, 0.0, 0.0],        # no scale
    [-3.0, -2.0, -1.0],     # negative definite
])
def test_positive_definite_is_full_numerical_rank(eigenvalues):
    # the one rank rule: gram's verdict is rank == size, the same as the
    # largest being positive and the smallest above NULL_REL_TOL times it
    eigenvalues = np.array(eigenvalues)
    largest, smallest = eigenvalues[-1], eigenvalues[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        report = _spectrum_report(GRADIENT, np.diag(eigenvalues), ())
    assert report.positive_definite == (numerical_rank(eigenvalues) == eigenvalues.size)
    assert report.positive_definite == (largest > 0.0
                                        and smallest > NULL_REL_TOL * largest)
    # Lambda's singular values squared come in descending order
    assert numerical_rank(eigenvalues[::-1]) == numerical_rank(eigenvalues)


def test_kernel_test_counterexample_field():
    basis = build_basis(2, 6)
    suite = SensorSuite((counterexample_sensor(),))
    g = sample_vector_field(_vortex_free_field, whole_domain(2), 6)
    grid = time_grid(0.5, 1.0)
    strip = Region((((0.0, 1.0), (0.0, 1.0 / 6.0)),))
    whole, partial = kernel_test(g, suite, 0.5, (whole_domain(2), strip), basis, grid)
    assert whole.in_kernel
    assert whole.sup_norm < 1e-9 * whole.scale
    assert not partial.in_kernel
    # one region at a time gives the same reports as the pair
    assert kernel_test(g, suite, 0.5, (strip,), basis, grid)[0].sup_norm \
        == partial.sup_norm
    zero = sample_vector_field(
        lambda pts: np.zeros_like(pts), whole_domain(2), 6
    )
    (report,) = kernel_test(zero, suite, 0.5, (whole_domain(2),), basis, grid)
    assert report.in_kernel


def test_kernel_test_channels_match_simulate():
    # simulate is the independent path to the strip state's output
    basis = build_basis(2, 6)
    suite = SensorSuite((counterexample_sensor(),))
    g = sample_vector_field(_vortex_free_field, whole_domain(2), 6)
    edges = np.linspace(0.0, 1.0, 5) ** grading_exponent(0.5)  # 4 panels
    grid = TimeGrid(1.0, *gauss_panels(edges))
    strip = Region((((0.0, 1.0), (0.0, 1.0 / 6.0)),))
    (report,) = kernel_test(g, suite, 0.5, (strip,), basis, grid)
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
