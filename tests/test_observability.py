"""Strategic rank tests, kernel tests and the observability Gramians."""

import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import gradobs.observability as observability_module
from gradobs.cli import Experiment
from gradobs.errors import DomainError
from gradobs.dynamics import TimeGrid, grading_exponent, simulate, time_grid
from gradobs.observability import (
    COMPONENT,
    GRADIENT,
    NULL_REL_TOL,
    RANK_REL_TOL,
    ConditioningWarning,
    _spectrum_report,
    build_g_matrices,
    grad_overlap_matrix,
    gram_regional,
    kernel_test,
    level_ranks,
    numerical_rank,
    overlap_matrix,
    response_kernel_matrix,
    strategic_test_1d,
)
from gradobs.presets import preset
from gradobs.sensing import (
    FILAMENT,
    POINTWISE,
    ZONE,
    Filament,
    Sensor,
    SensorSuite,
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
    sub_basis,
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


def _random_location(rng):
    kind = rng.integers(3)
    if kind == 0:
        return float(rng.uniform(0.01, 0.99))  # generic
    if kind == 1:
        b = 2 * int(rng.integers(1, 11))  # a / b with b even
        return int(rng.integers(1, b)) / b
    return 0.5


def test_strategic_verdict_matches_the_closed_form_rule():
    # every eigenvalue is simple in 1-D, so mode j has rank 1 iff the column
    # (j cos(j pi x_i))_i exceeds RANK_REL_TOL times the largest column norm
    rng = np.random.default_rng(27)
    cases = [(Experiment(preset("gram-zero")).suite, t) for t in (1, 7, 200)]
    for _ in range(200):
        locations = [_random_location(rng) for _ in range(rng.integers(1, 4))]
        suite = SensorSuite(tuple(Sensor(POINTWISE, (x,)) for x in locations))
        cases.append((suite, int(rng.integers(1, 201))))
    for suite, t in cases:
        report = strategic_test_1d(build_g_matrices(build_basis(1, t), suite))
        if suite.sensors[0].kind == POINTWISE:
            j = np.arange(1, t + 1)[:, None]
            x = np.array([s.geometry[0] for s in suite.sensors])[None, :]
            norms = np.sqrt(np.sum((j * np.cos(j * np.pi * x)) ** 2, axis=1))
            ranks = tuple(int(n > RANK_REL_TOL * norms.max()) for n in norms)
        else:  # the zero distribution couples to nothing
            ranks = (0,) * t
        offending = ranks.index(0) + 1 if 0 in ranks else None
        assert report.ranks == ranks, (suite, t)
        assert report.offending_group == offending
        assert report.verdict == (offending is None)
        assert report.multiplicities == (1,) * t
        assert report.max_multiplicity == 1
        assert report.channel_count == len(suite)


def test_level_ranks_match_a_per_level_svd():
    # T = 8 in 2-D has levels of multiplicity 1 to 4 (65 = 1 + 64 = 16 + 49);
    # each block's rank counts its singular values above the global scale,
    # whatever the batched pass per multiplicity does
    basis = build_basis(2, 8)
    rng = np.random.default_rng(31)
    bounds = np.cumsum([group.multiplicity for group in basis.groups])[:-1]
    for p in (1, 2, 3, 5):
        for fraction in (0.5, 1.0):
            kappa = rng.normal(size=(p, len(basis)))
            kappa[:, rng.random(len(basis)) > fraction] = 0.0  # some levels lose columns
            report = level_ranks(basis, kappa)
            tol = RANK_REL_TOL * np.linalg.norm(kappa, axis=0).max()
            ranks = tuple(int(np.sum(np.linalg.svd(block, compute_uv=False) > tol))
                          for block in np.split(kappa, bounds, axis=1))
            multiplicities = tuple(g.multiplicity for g in basis.groups)
            assert report.ranks == ranks
            assert report.multiplicities == multiplicities
            assert report.max_multiplicity == 4
            assert report.channel_count == p
            short = [j for j, (r, m) in enumerate(zip(ranks, multiplicities)) if r < m]
            assert report.offending_group == (short[0] + 1 if short else None)
            assert report.verdict == (not short)
    # no coupling at all: every rank is 0
    assert level_ranks(basis, np.zeros((2, len(basis)))).ranks == (0,) * len(basis.groups)


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
    # component Gramian against the independent sum over sensors of
    # rows V rows^T, with row block s the overlaps R scaled by the sensor's
    # axis-s gradient couplings: the blocks R (V o G_a^T G_b) R^T associate
    # the sum differently, 4.9e-16 of the largest entry
    region = Region((((0.0, 1.0), (0.0, 0.5)),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        report = gram_regional(basis, suite, 0.7, 1.0, region, truncation=3,
                               kind=COMPONENT)
        gradient = gram_regional(basis, suite, 0.7, 1.0, region, truncation=3,
                                 kind=GRADIENT)
    test_basis = build_basis(2, 3)
    r = overlap_matrix(test_basis, basis, region)
    v = response_kernel_matrix(0.7, basis.eigenvalues, 1.0, "none")
    gram = np.zeros((2 * len(r), 2 * len(r)))
    for g in alone:
        rows = np.vstack([r * g[s] for s in range(2)])
        gram += rows @ v @ rows.T
    gram = 0.5 * (gram + gram.T)
    assert np.max(np.abs(report.matrix - gram)) <= 2e-15 * np.max(np.abs(gram))
    # the gradient Gramian keeps every bit of D (V o kappa^T kappa) D^T, the
    # association `gram`, `strategic` and `reconstruct` report
    d = grad_overlap_matrix(test_basis, basis, region)
    kappa = coupling_matrix(suite, basis)
    expected = d @ (v * (kappa.T @ kappa)) @ d.T
    assert np.array_equal(gradient.matrix, 0.5 * (expected + expected.T))


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
    suite = Experiment(preset("counterexample")).suite
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


@pytest.mark.parametrize("dimension,truncation", [(1, 2000), (2, 40)])
def test_whole_domain_overlaps_are_the_identity_and_the_levels(dimension, truncation):
    # on Omega the sine basis is orthonormal, R = I and D = diag(n pi**2) for
    # the mode's integer level n, however many basis modes the rows cross
    basis = build_basis(dimension, truncation)
    test_basis = sub_basis(basis, 6)
    same = (test_basis.indices[:, None, :] == basis.indices[None, :, :]).all(-1)
    levels = (test_basis.indices**2).sum(axis=1)
    r = overlap_matrix(test_basis, basis, whole_domain(dimension))
    d = grad_overlap_matrix(test_basis, basis, whole_domain(dimension))
    assert np.max(np.abs(r - same)) <= 1e-13
    assert np.max(np.abs(d - same * PI2 * levels[:, None])) <= 1e-13 * PI2 * levels.max()


def _mp_axis_overlaps(lo, hi, top):
    """40-digit 1-D overlaps on [lo, hi] of the indices 1..top, sin-sin and
    the derivatives' cos-cos, from the antiderivative of cos(m pi x)."""
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        c = {m: (mpmath.sinpi(m * hi) - mpmath.sinpi(m * lo)) / (m * mpmath.pi)
             for m in range(-top, 2 * top + 1) if m}
        c[0] = hi - lo
        js = range(1, top + 1)
        sin_sin = [[float((c[q - j] - c[q + j]) / 2) for j in js] for q in js]
        cos_cos = [[float(q * j * mpmath.pi**2 * (c[q - j] + c[q + j]) / 2) for j in js]
                   for q in js]
    return np.array(sin_sin), np.array(cos_cos)


@pytest.mark.parametrize("rectangles,truncation", [
    pytest.param((((0.0, 1.0),),), 200, id="1-D-whole"),
    pytest.param((((0.2, 0.7),),), 200, id="1-D-segment"),
    pytest.param((((0.0, 1.0), (0.0, 0.5)),), 20, id="2-D-strip"),
    pytest.param(TWO_RECTANGLES, 20, id="2-D-two-rectangles"),
])
def test_overlaps_match_a_40_digit_evaluation(rectangles, truncation):
    # every row against the 1-D integrals at 40 digits, multiplied per axis,
    # the cos-cos on the differentiated axis, summed over the rectangles
    region = Region(rectangles)
    basis = build_basis(region.dimension, truncation)
    r_ref = d_ref = 0.0
    for rect in rectangles:
        tables = [[t[np.ix_(j - 1, j - 1)] for t in _mp_axis_overlaps(lo, hi, truncation)]
                  for (lo, hi), j in zip(rect, basis.indices.T)]
        r_ref = r_ref + math.prod(t[0] for t in tables)
        d_ref = d_ref + sum(math.prod(t[1 if a == s else 0] for a, t in enumerate(tables))
                            for s in range(region.dimension))
    scale = 2.0**region.dimension
    for overlap, ref in [(overlap_matrix, scale * r_ref), (grad_overlap_matrix, scale * d_ref)]:
        got = overlap(basis, basis, region)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), overlap.__name__


def test_grad_overlap_memory_is_test_rows_times_basis():
    # the closed form builds Q x T arrays per axis, never a T x T product or
    # a table on a rule of 16 T nodes (489 MB at T = 1000 with that table)
    test_basis, basis = build_basis(1, 6), build_basis(1, 1000)
    region = Region((((0.2, 0.7),),))
    tracemalloc.start()
    try:
        grad_overlap_matrix(test_basis, basis, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


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
    suite = Experiment(preset("counterexample")).suite
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
    suite = Experiment(preset("counterexample")).suite
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


def test_gram_validation(monkeypatch):
    basis = build_basis(1, 3)
    suite = _pointwise_suite((0.3,))
    with pytest.raises(DomainError):
        gram_regional(basis, suite, 0.7, 1.0, whole_domain(1), truncation=4)
    # an unknown kind is refused before the time kernel is evaluated
    monkeypatch.setattr(observability_module, "response_kernel_matrix", None)
    with pytest.raises(DomainError, match="unknown Gramian kind 'mixed'"):
        gram_regional(
            basis, suite, 0.7, 1.0, whole_domain(1), truncation=2, kind="mixed"
        )
