"""Eigenbasis, regions, quadrature and the gradient/adjoint-gradient pair."""

import math

import numpy as np
import pytest

from gradobs.errors import DomainError, SizeError
from gradobs.mlf import LAPLACE_NODES, LAPLACE_WEIGHTS
from gradobs.spectral import (
    Basis,
    Region,
    SineTables,
    SpectralField,
    VectorFieldSamples,
    build_basis,
    gauss_panels,
    grad_adjoint,
    region_quadrature,
    restrict,
    restrict_gradient,
    sample_vector_field,
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
    # the tables multiply in the per-mode order: sqrt(2)**dim first, then
    # axis by axis, (c * j pi) * cos on the differentiated axis; so equal bits
    basis = build_basis(dimension, truncation)
    pts = np.random.default_rng(11).uniform(0.0, 1.0, size=(37, dimension))
    tables = SineTables(basis.indices, pts, gradients=True)
    vals, grads = SineTables(basis.indices, pts)(), tables()
    assert vals.shape == (len(basis), len(pts))
    assert grads.shape == (dimension, len(basis), len(pts))
    one = slice(len(basis) // 2, len(basis) // 2 + 1)  # one mode, same tables
    assert (tables(one) == grads[:, one]).all()
    assert (SineTables(basis.indices, pts)(one) == vals[one]).all()
    for row, mode in enumerate(basis.modes):
        value = np.full(len(pts), math.sqrt(2.0) ** dimension)
        for axis, j in enumerate(mode.indices):
            value = value * np.sin(j * np.pi * pts[:, axis])
        assert (vals[row] == value).all()
        assert (mode.eval(pts) == value).all()
        for s in range(dimension):
            col = np.full(len(pts), math.sqrt(2.0) ** dimension)
            for axis, j in enumerate(mode.indices):
                if axis == s:
                    col = col * (j * np.pi) * np.cos(j * np.pi * pts[:, axis])
                else:
                    col = col * np.sin(j * np.pi * pts[:, axis])
            assert (grads[s, row] == col).all()
            assert (mode.grad(pts)[:, s] == col).all()


def test_basis_tables_reject_point_dimension():
    with pytest.raises(DomainError):
        SineTables(build_basis(2, 3).indices, np.full((4, 1), 0.5))
    with pytest.raises(DomainError):
        SpectralField(build_basis(1, 3), np.ones(3)).eval(np.full((4, 2), 0.5))


def test_basis_index_array_stays_out_of_equality():
    a, b = build_basis(2, 3), build_basis(2, 3)
    assert a.indices.shape == (9, 2)
    assert [tuple(r) for r in a.indices] == [m.indices for m in a.modes]
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ValueError):
        a.indices[0, 0] = 5  # shared by every evaluation of the basis


def test_grad_adjoint_recovers_eigenfunction_gradient():
    # g = grad(xi_{(1,3)}) / (2 pi^2): the pullback coefficient on (1,3) is
    # |lambda_{(1,3)}| / (2 pi^2) = 10 pi^2 / (2 pi^2) = 5, all others vanish.
    basis = build_basis(2, 4)

    def g(pts):
        g1 = np.cos(np.pi * pts[:, 0]) * np.sin(3 * np.pi * pts[:, 1]) / np.pi
        g2 = 3 * np.sin(np.pi * pts[:, 0]) * np.cos(3 * np.pi * pts[:, 1]) / np.pi
        return np.stack([g1, g2], axis=1)

    samples = sample_vector_field(g, whole_domain(2), 4)
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
    quad_norm = math.sqrt(float(np.sum(grid.weights * field.eval(grid.points) ** 2)))
    assert quad_norm == pytest.approx(field.norm, rel=1e-12)


def test_spectral_field_validation():
    basis = build_basis(1, 3)
    with pytest.raises(DomainError):
        SpectralField(basis, np.ones(4))
    with pytest.raises(DomainError):
        basis.index_of((7,))


def test_restrict_masks_outside_region():
    basis = build_basis(1, 3)
    field = SpectralField(basis, np.array([1.0, 0.0, -0.5]))
    g = restrict_gradient(field, whole_domain(1))
    region = Region((((0.0, 0.5),),))
    masked = restrict(g, region)
    inside = region.contains(g.grid.points)
    assert np.all(masked.components[:, ~inside] == 0.0)
    assert np.all(masked.components[:, inside] == g.components[:, inside])


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
