"""Eigenbasis, regions, quadrature and the gradient/adjoint-gradient pair."""

import math

import numpy as np
import pytest

from gradobs.errors import DomainError, SizeError
from gradobs.mlf import LAPLACE_NODES, LAPLACE_WEIGHTS
from gradobs.spectral import (
    Basis,
    Region,
    SpectralField,
    VectorFieldSamples,
    axis_tables,
    build_basis,
    gauss_panels,
    grad_adjoint,
    region_quadrature,
    restrict_gradient,
    sub_basis,
    whole_domain,
)


def test_build_basis_validation():
    with pytest.raises(DomainError):
        build_basis(3, 4)
    with pytest.raises(DomainError):
        build_basis(1, 0)
    with pytest.raises(SizeError):
        build_basis(2, 101)  # 10201 modes exceeds the cap


def test_eigenvalues_and_ordering():
    basis = build_basis(1, 4)
    assert [m.indices for m in basis.modes] == [(1,), (2,), (3,), (4,)]
    for j, mode in enumerate(basis.modes, start=1):
        assert mode.eigenvalue == pytest.approx(-(j * math.pi) ** 2)
    eigs = [g.eigenvalue for g in basis.groups]
    assert eigs == sorted(eigs, reverse=True)


def test_eigenvalue_grouping_multiplicities():
    basis = build_basis(2, 7)
    by_eig = {g.eigenvalue: g for g in basis.groups}
    lam12 = -(1 + 4) * math.pi**2
    g12 = by_eig[min(by_eig, key=lambda e: abs(e - lam12))]
    assert g12.multiplicity == 2
    assert {m.indices for m in g12.members} == {(1, 2), (2, 1)}
    # 50 = 1+49 = 25+25 = 49+1: a multiplicity-3 group
    lam50 = -50 * math.pi**2
    g50 = by_eig[min(by_eig, key=lambda e: abs(e - lam50))]
    assert g50.multiplicity == 3
    assert {m.indices for m in g50.members} == {(1, 7), (5, 5), (7, 1)}


@pytest.mark.parametrize("dimension,truncation", [(1, 10_000), (2, 100)])
def test_groups_are_the_maximal_runs_of_one_integer_level(dimension, truncation):
    # modes run in increasing level n = sum of squared indices, each group is
    # every mode of one n with eigenvalue exactly -n pi^2, and a 2-D group
    # holds every ordered pair (a, b) in [1, T]^2 with a^2 + b^2 = n
    basis = build_basis(dimension, truncation)
    levels = [sum(j * j for j in idx) for idx in basis.indices.tolist()]
    assert levels == sorted(levels)
    start = 0
    for group in basis.groups:
        n = levels[start]
        run = levels[start:start + group.multiplicity]
        assert run == [n] * group.multiplicity
        assert start == 0 or levels[start - 1] < n
        assert group.eigenvalue == -n * math.pi**2
        assert all(m.eigenvalue == group.eigenvalue for m in group.members)
        if dimension == 2:
            pairs = sum(1 for a in range(1, truncation + 1)
                        if 0 < n - a * a == math.isqrt(n - a * a) ** 2
                        and math.isqrt(n - a * a) <= truncation)
            assert group.multiplicity == pairs, n
        else:
            assert group.multiplicity == 1
        start += group.multiplicity
    assert start == len(basis) == truncation**dimension


def test_sub_basis_is_the_basis_at_the_test_truncation():
    basis = build_basis(2, 5)
    for truncation in (1, 3, 5):
        assert sub_basis(basis, truncation) == build_basis(2, truncation)
    with pytest.raises(DomainError, match="test truncation 6 exceeds"):
        sub_basis(basis, 6)
    with pytest.raises(DomainError):
        sub_basis(basis, 0)


@pytest.mark.parametrize("dimension,truncation", [(1, 6), (2, 3)])
def test_orthonormality(dimension, truncation):
    basis = build_basis(dimension, truncation)
    grid = region_quadrature(whole_domain(dimension), truncation)
    vals = np.stack([m.eval(grid.points) for m in basis.modes])
    gram = (vals * grid.weights[None, :]) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12


def test_gradient_matches_finite_differences():
    basis = build_basis(2, 3)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    h = 1e-6
    for mode in basis.modes:
        grad = mode.grad(pts)
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = h
            fd = (mode.eval(pts + shift) - mode.eval(pts - shift)) / (2 * h)
            assert np.max(np.abs(grad[:, axis] - fd)) < 1e-5


@pytest.mark.parametrize("dimension,truncation", [(1, 200), (2, 6)])
def test_basis_tables_match_mode_formulas(dimension, truncation):
    # axis_tables holds sin(j pi x) and (j pi) * cos(j pi x); a mode is
    # sqrt(2)**dim times one row per axis, multiplied in axis order, with the
    # derivative row on the differentiated axis; so equal bits
    basis = build_basis(dimension, truncation)
    pts = np.random.default_rng(11).uniform(0.0, 1.0, size=(37, dimension))
    js = np.arange(1, truncation + 1)
    for axis in range(dimension):
        sines, derivatives = axis_tables(js, pts[:, axis])
        assert sines.shape == derivatives.shape == (truncation, len(pts))
        for j in js:
            assert (sines[j - 1] == np.sin(j * np.pi * pts[:, axis])).all()
            assert (derivatives[j - 1]
                    == (j * np.pi) * np.cos(j * np.pi * pts[:, axis])).all()
    for mode in basis.modes:
        value = np.full(len(pts), math.sqrt(2.0) ** dimension)
        for axis, j in enumerate(mode.indices):
            value = value * np.sin(j * np.pi * pts[:, axis])
        assert (mode.eval(pts) == value).all()
        assert mode.grad(pts).shape == (len(pts), dimension)
        for s in range(dimension):
            col = np.full(len(pts), math.sqrt(2.0) ** dimension)
            for axis, j in enumerate(mode.indices):
                if axis == s:
                    col = col * ((j * np.pi) * np.cos(j * np.pi * pts[:, axis]))
                else:
                    col = col * np.sin(j * np.pi * pts[:, axis])
            assert (mode.grad(pts)[:, s] == col).all()


def test_basis_tables_reject_point_dimension(psi):
    mode = build_basis(2, 3).modes[4]
    with pytest.raises(DomainError):
        mode.eval(np.full((4, 1), 0.5))
    with pytest.raises(DomainError):
        mode.grad(np.full((4, 3), 0.5))
    with pytest.raises(DomainError):
        SpectralField(build_basis(1, 3), np.ones(3)).grid_gradient([np.ones(4)] * 2)
    with pytest.raises(DomainError):
        SpectralField(build_basis(2, 3), np.ones(9)).grid_gradient([np.ones(4)])
    samples = restrict_gradient(psi(build_basis(2, 3)), whole_domain(2))
    with pytest.raises(DomainError):
        grad_adjoint(samples, build_basis(1, 3))


def test_basis_index_array_stays_out_of_equality():
    a, b = build_basis(2, 3), build_basis(2, 3)
    assert a.indices.shape == (9, 2)
    assert [tuple(r) for r in a.indices] == [m.indices for m in a.modes]
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ValueError):
        a.indices[0, 0] = 5  # shared by every evaluation of the basis


def test_grad_adjoint_recovers_eigenfunction_gradient(psi):
    # g = grad(xi_{(1,3)}) / (2 pi^2): the pullback coefficient on (1,3) is
    # |lambda_{(1,3)}| / (2 pi^2) = 10 pi^2 / (2 pi^2) = 5, all others vanish.
    basis = build_basis(2, 4)
    samples = restrict_gradient(psi(basis), whole_domain(2))
    state = grad_adjoint(samples, basis)
    target = basis.index_of((1, 3))
    for j, c in enumerate(state.coefficients):
        expected = 5.0 if j == target else 0.0
        assert c == pytest.approx(expected, abs=1e-10)


def test_region_validation():
    with pytest.raises(DomainError):
        Region((((0.5, 0.5),),))  # degenerate
    with pytest.raises(DomainError):
        Region((((-0.1, 0.5),),))  # leaves the domain
    with pytest.raises(DomainError):
        Region((((0.0, 0.6),), ((0.5, 1.0),)))  # overlap
    with pytest.raises(DomainError):
        Region(())


def test_region_measure_and_contains():
    region = Region((((0.0, 0.5), (0.0, 1.0)), ((0.6, 1.0), (0.0, 0.5))))
    assert region.measure == pytest.approx(0.5 + 0.2)
    pts = np.array([[0.25, 0.5], [0.8, 0.25], [0.8, 0.75], [0.55, 0.5]])
    assert list(region.contains(pts)) == [True, True, False, False]


def test_region_quadrature_weights_sum_to_measure():
    region = Region((((0.2, 0.7), (0.3, 0.8)),))
    grid = region_quadrature(region, 4)
    assert float(np.sum(grid.weights)) == pytest.approx(region.measure, rel=1e-13)
    assert bool(np.all(region.contains(grid.points)))


@pytest.mark.parametrize(
    "rule,degree",
    [((), 15), ((LAPLACE_NODES, LAPLACE_WEIGHTS), 47)],
    ids=["8-node", "24-node"],
)
def test_gauss_panels_exact_on_graded_edges(rule, degree):
    # uneven panels graded toward the left end of [0.25, 1.75]
    edges = 0.25 + 1.5 * np.linspace(0.0, 1.0, 8) ** 3
    nodes, weights = gauss_panels(edges, *rule)
    assert float(np.sum(weights)) == pytest.approx(1.5, rel=1e-14)
    for k in range(degree + 1):
        exact = (1.75 ** (k + 1) - 0.25 ** (k + 1)) / (k + 1)
        assert float(np.sum(weights * nodes**k)) == pytest.approx(exact, rel=1e-13)


def test_parseval_identity():
    basis = build_basis(2, 3)
    rng = np.random.default_rng(3)
    field = SpectralField(basis, rng.normal(size=len(basis)))
    grid = region_quadrature(whole_domain(2), 3)
    values = sum(c * m.eval(grid.points) for c, m in zip(field.coefficients, basis.modes))
    quad_norm = math.sqrt(float(np.sum(grid.weights * values**2)))
    assert quad_norm == pytest.approx(np.linalg.norm(field.coefficients), rel=1e-12)


def test_spectral_field_validation():
    basis = build_basis(1, 3)
    with pytest.raises(DomainError):
        SpectralField(basis, np.ones(4))
    with pytest.raises(DomainError):
        basis.index_of((7,))


def test_restrict_gradient_matches_mode_gradients():
    basis = build_basis(2, 2)
    coeffs = np.zeros(len(basis))
    coeffs[basis.index_of((2, 1))] = 1.5
    field = SpectralField(basis, coeffs)
    region = Region((((0.1, 0.6), (0.2, 0.9)),))
    g = restrict_gradient(field, region)
    mode = basis.modes[basis.index_of((2, 1))]
    expected = 1.5 * mode.grad(g.grid.points).T
    assert np.max(np.abs(g.components - expected)) < 1e-13


def test_vector_field_samples_shape_validation():
    grid = region_quadrature(whole_domain(1), 2)
    with pytest.raises(DomainError):
        VectorFieldSamples(grid, np.ones((2, grid.points.shape[0])))


ONE_RECTANGLE = (((0.1, 0.7), (0.2, 0.9)),)
TWO_RECTANGLES = (((0.05, 0.45), (0.2, 0.9)), ((0.5, 0.95), (0.0, 0.6)))
REGIONS = [pytest.param(dimension, truncation, rectangles,
                        id=f"{dimension}-{truncation}-{len(rectangles)}")
           for dimension, truncation in [(1, 1), (1, 7), (2, 1), (2, 3), (2, 5)]
           for rectangles in (ONE_RECTANGLE, TWO_RECTANGLES)]


def _random_field(dimension, truncation):
    basis = build_basis(dimension, truncation)
    rng = np.random.default_rng(dimension * 100 + truncation)
    return SpectralField(basis, rng.normal(size=len(basis)))


def _mode_gradient_sum(field, pts):
    """sum_m c_m grad(xi_m) at scattered points, (dim, N), one mode at a time."""
    return sum(c * m.grad(pts) for c, m in zip(field.coefficients, field.basis.modes)).T


@pytest.mark.parametrize("dimension,truncation,rectangles", REGIONS)
def test_grid_gradient_matches_mode_gradients(dimension, truncation, rectangles):
    # the per-axis contraction against the per-mode sum, per component within
    # 1e-14 of its largest value: on the region's quadrature grid (per
    # rectangle) and on a uniform tensor grid of the whole domain
    field = _random_field(dimension, truncation)
    region = Region(tuple(rect[:dimension] for rect in rectangles))
    g = restrict_gradient(field, region)
    uniform = [np.linspace(0.0, 1.0, 13), np.linspace(0.0, 1.0, 9)][:dimension]
    pts = np.stack([x.ravel() for x in np.meshgrid(*uniform, indexing="ij")], axis=1)
    on_axes = field.grid_gradient(uniform)
    assert on_axes.shape == (dimension, *(len(x) for x in uniform))
    for got, want in [(g.components, _mode_gradient_sum(field, g.grid.points)),
                      (on_axes.reshape(dimension, -1), _mode_gradient_sum(field, pts))]:
        assert got.shape == want.shape
        for s in range(dimension):
            assert np.max(np.abs(got[s] - want[s])) <= 1e-14 * np.max(np.abs(want[s]))


@pytest.mark.parametrize("dimension,truncation,rectangles", REGIONS)
def test_grad_adjoint_is_adjoint_of_restricted_gradient(dimension, truncation,
                                                        rectangles):
    # sum_q w g . grad(u_c) = c . grad_adjoint(g) for random samples g and
    # coefficients c on the region's quadrature grid, relative to the sum of
    # the terms' sizes, which random signs can cancel by orders of magnitude
    field = _random_field(dimension, truncation)
    region = Region(tuple(rect[:dimension] for rect in rectangles))
    grad_u = restrict_gradient(field, region)
    rng = np.random.default_rng(5)
    for _ in range(3):
        g = VectorFieldSamples(grad_u.grid, rng.normal(size=grad_u.components.shape))
        terms = grad_u.grid.weights * g.components * grad_u.components
        lhs = float(np.sum(terms))
        rhs = float(field.coefficients @ grad_adjoint(g, field.basis).coefficients)
        assert abs(lhs - rhs) <= 1e-15 * float(np.sum(np.abs(terms)))
