"""Dirichlet-Laplacian sine eigenbasis on [0,1] and [0,1]^2.

Modes are grouped by eigenvalue (2-D eigenvalues -(m^2+n^2)pi^2 repeat, e.g.
(1,2)/(2,1)), fields are stored as coefficient vectors on the basis, and the
gradient / adjoint-gradient pair is realized spectrally: the coefficient of
grad_adjoint(g) on a mode equals sum_s int g_s * d(xi)/dx_s, which is the weak
form of -div(g) with the zero Dirichlet boundary.

Every quadrature in gradobs is the composite Gauss-Legendre rule
`gauss_panels`; callers only choose its panel edges.  In space it has 8 nodes
per panel and max(4, 2*max_index) panels per axis (`interval_rule`), which
resolves the most oscillatory basis integrand with >= 4 nodes per half-wave.
Each spatial rule is their tensor product per rectangle: couplings and
overlaps run axis by axis on `axis_tables`, and the point-set evaluator
`SineTables` serves only fields, `grad_adjoint` and `Mode`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeError

NODES_PER_PANEL = 8
PANEL_NODES, PANEL_WEIGHTS = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
MIN_PANELS = 4
MODE_CAP = 10_000
GROUP_REL_TOL = 1e-9


@dataclass(frozen=True)
class Mode:
    """Single sine eigenfunction of the Dirichlet Laplacian."""

    indices: tuple[int, ...]
    eigenvalue: float

    def __post_init__(self) -> None:
        if not self.indices or any(j < 1 for j in self.indices):
            raise DomainError(f"mode indices must be >= 1, got {self.indices}")

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Eigenfunction values; points has shape (N, dim)."""
        return SineTables(np.array([self.indices]), points)()[0]

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Analytic gradient, shape (N, dim)."""
        return SineTables(np.array([self.indices]), points, gradients=True)()[:, 0].T


class SineTables:
    """The point-set basis evaluator for modes (M, dim) at points (N, dim).

    sin(j pi x_a) and, with gradients, cos(j pi x_a) are tabulated once per
    axis a for every index j that occurs on it.  A call combines them into
    the values (m, N) or, with gradients, every d/dx_s (dim, m, N) of the
    selected modes (all by default), each in one order of factors:
    sqrt(2)**dim first, then axis by axis, with (c * j pi) * cos(j pi x_s)
    on the differentiated axis s.
    """

    def __init__(self, indices: np.ndarray, points: np.ndarray,
                 gradients: bool = False) -> None:
        self.indices = np.asarray(indices, dtype=int)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.indices.shape[1]:
            raise DomainError(f"{pts.shape[1]}-D points given for "
                              f"{self.indices.shape[1]}-D modes")
        self.size = pts.shape[0]
        js, self.rows = zip(*(np.unique(col, return_inverse=True)
                              for col in self.indices.T))
        phase = [(j * np.pi)[:, None] * pts[:, axis] for axis, j in enumerate(js)]
        self.sin = [np.sin(p) for p in phase]  # (J_axis, N) per axis
        self.cos = [np.cos(p) for p in phase] if gradients else None

    def __call__(self, modes=slice(None)) -> np.ndarray:
        idx = self.indices[modes]
        rows = [r[modes] for r in self.rows]
        dim = idx.shape[1]
        diff = [None] if self.cos is None else range(dim)  # axis s per product
        out = np.full((len(diff), idx.shape[0], self.size), math.sqrt(2.0) ** dim)
        for col, s in zip(out, diff):
            for axis in range(dim):
                if axis == s:
                    col *= (idx[:, axis] * np.pi)[:, None]
                col *= (self.cos if axis == s else self.sin)[axis][rows[axis]]
        return out[0] if self.cos is None else out


@dataclass(frozen=True)
class EigenGroup:
    """All modes sharing one eigenvalue."""

    eigenvalue: float
    members: tuple[Mode, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Basis:
    """Truncated eigenbasis: every mode with all indices <= truncation."""

    dimension: int
    truncation: int
    groups: tuple[EigenGroup, ...]
    modes: tuple[Mode, ...] = field(init=False)
    indices: np.ndarray = field(init=False, repr=False, compare=False)  # (M, dim)

    def __post_init__(self) -> None:
        flat = tuple(m for g in self.groups for m in g.members)
        object.__setattr__(self, "modes", flat)
        object.__setattr__(self, "indices", np.array([m.indices for m in flat]))
        self.indices.setflags(write=False)

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue of each mode, in basis mode order."""
        return np.array([m.eigenvalue for m in self.modes])

    def index_of(self, indices: tuple[int, ...]) -> int:
        for pos, m in enumerate(self.modes):
            if m.indices == tuple(indices):
                return pos
        raise DomainError(f"mode {indices} not in basis (truncation {self.truncation})")


def build_basis(dimension: int, truncation: int) -> Basis:
    """Enumerate modes with indices <= truncation and group by eigenvalue."""
    if dimension not in (1, 2):
        raise DomainError(f"dimension must be 1 or 2, got {dimension}")
    if truncation < 1:
        raise DomainError(f"truncation must be >= 1, got {truncation}")
    if truncation**dimension > MODE_CAP:
        raise SizeError(
            f"truncation {truncation} yields {truncation**dimension} modes, "
            f"cap is {MODE_CAP}"
        )
    modes = [Mode(idx, -sum(j**2 for j in idx) * math.pi**2)
             for idx in itertools.product(range(1, truncation + 1), repeat=dimension)]
    # group by eigenvalue, sorted strictly decreasing (0 > lam1 > lam2 > ...)
    modes.sort(key=lambda md: (-md.eigenvalue, md.indices))
    groups: list[list[Mode]] = []
    for md in modes:
        if groups and abs(md.eigenvalue - groups[-1][0].eigenvalue) <= \
                GROUP_REL_TOL * abs(md.eigenvalue):
            groups[-1].append(md)
        else:
            groups.append([md])
    return Basis(
        dimension,
        truncation,
        tuple(EigenGroup(g[0].eigenvalue, tuple(g)) for g in groups),
    )


@dataclass(frozen=True)
class Region:
    """Finite union of pairwise-disjoint axis-aligned rectangles inside Omega.

    Each rectangle is a tuple of per-axis (lo, hi) intervals.
    """

    rectangles: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self) -> None:
        if not self.rectangles:
            raise DomainError("region needs at least one rectangle")
        dim = len(self.rectangles[0])
        for rect in self.rectangles:
            if len(rect) != dim:
                raise DomainError("rectangles must share one dimension")
            for lo, hi in rect:
                if not (0.0 <= lo < hi <= 1.0):
                    raise DomainError(
                        f"interval ({lo}, {hi}) is degenerate or leaves [0,1]"
                    )
        for i, a in enumerate(self.rectangles):
            for b in self.rectangles[i + 1:]:
                if all(lo1 < hi2 and lo2 < hi1 for (lo1, hi1), (lo2, hi2) in zip(a, b)):
                    raise DomainError(f"rectangles {a} and {b} overlap")

    @property
    def dimension(self) -> int:
        return len(self.rectangles[0])

    @property
    def measure(self) -> float:
        return sum(
            math.prod(hi - lo for lo, hi in rect) for rect in self.rectangles
        )

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership mask, points of shape (N, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mask = np.zeros(pts.shape[0], dtype=bool)
        for rect in self.rectangles:
            inside = np.ones(pts.shape[0], dtype=bool)
            for axis, (lo, hi) in enumerate(rect):
                inside &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
            mask |= inside
        return mask


def whole_domain(dimension: int) -> Region:
    return Region((((0.0, 1.0),) * dimension,))


def gauss_panels(edges: np.ndarray, nodes: np.ndarray = PANEL_NODES,
                 weights: np.ndarray = PANEL_WEIGHTS) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on the panels between sorted
    edges (an ndarray), one reference rule per panel."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def interval_rule(lo: float, hi: float, max_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform panels on [lo, hi] resolving modes with indices up to max_index."""
    return gauss_panels(np.linspace(lo, hi, max(MIN_PANELS, 2 * max_index) + 1))


def axis_tables(js: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-axis factors of the sine basis at the nodes x (n,): sin(j pi x)
    and its derivative (j pi) cos(j pi x), each (J, n), for the indices js."""
    j_pi = (np.asarray(js) * np.pi)[:, None]
    phase = j_pi * x
    return np.sin(phase), j_pi * np.cos(phase)


def tensor_grid(rules: list) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes (N, dim) and weights (N,) of tensor-product rules: one list
    of per-axis (nodes, weights) pairs per rectangle, rectangles in order."""
    pts, w = [], []
    for rule in rules:
        xs, ws = zip(*rule)
        grid = np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1)
        pts.append(grid.reshape(-1, len(xs)))
        w.append(functools.reduce(np.multiply.outer, ws).ravel())
    return np.vstack(pts), np.concatenate(w)


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Legendre nodes/weights over a Region."""

    region: Region
    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)


def region_quadrature(region: Region, max_index: int) -> QuadratureGrid:
    """Quadrature resolving modes with indices up to max_index."""
    rules = [[interval_rule(lo, hi, max_index) for lo, hi in rect]
             for rect in region.rectangles]
    return QuadratureGrid(region, *tensor_grid(rules))


@dataclass(frozen=True)
class SpectralField:
    """Scalar field represented by coefficients on an eigenbasis."""

    basis: Basis
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (len(self.basis),):
            raise DomainError(
                f"expected {len(self.basis)} coefficients, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    def _sum_modes(self, points: np.ndarray, gradients: bool) -> np.ndarray:
        """sum_j c_j t(xi_j), one mode at a time in basis order, with t the
        value (1, N) or, with gradients, every d/dx_s (dim, N)."""
        nonzero = np.flatnonzero(self.coefficients)
        tables = SineTables(self.basis.indices[nonzero], points, gradients)
        out = np.zeros((self.basis.dimension if gradients else 1, tables.size))
        for k, c in enumerate(self.coefficients[nonzero]):
            out += c * tables(slice(k, k + 1))[..., 0, :]
        return out

    def eval(self, points: np.ndarray) -> np.ndarray:
        return self._sum_modes(points, gradients=False)[0]

    def grad(self, points: np.ndarray) -> np.ndarray:
        return self._sum_modes(points, gradients=True).T

    @property
    def norm(self) -> float:
        """L2(Omega) norm via Parseval."""
        return float(np.linalg.norm(self.coefficients))


@dataclass(frozen=True)
class VectorFieldSamples:
    """Vector field sampled on a region quadrature grid (one array per axis)."""

    grid: QuadratureGrid
    components: np.ndarray  # (dim, N)

    def __post_init__(self) -> None:
        comps = np.atleast_2d(np.asarray(self.components, dtype=float))
        if comps.shape != (self.grid.region.dimension, self.grid.points.shape[0]):
            raise DomainError(
                f"component array shape {comps.shape} does not match grid "
                f"({self.grid.region.dimension} x {self.grid.points.shape[0]})"
            )
        object.__setattr__(self, "components", comps)

    @property
    def norm(self) -> float:
        """(L2)^n norm over the sampled region."""
        return math.sqrt(
            float(np.sum(self.grid.weights * np.sum(self.components**2, axis=0)))
        )


def sample_vector_field(func, region: Region, max_index: int) -> VectorFieldSamples:
    """Sample a callable (N,dim)->(N,dim) vector field on a region quadrature."""
    grid = region_quadrature(region, max_index)
    values = np.asarray(func(grid.points), dtype=float)
    return VectorFieldSamples(grid, values.T)


def grad_adjoint(g: VectorFieldSamples, basis: Basis) -> SpectralField:
    """Adjoint gradient (minus divergence with Dirichlet boundary).

    Coefficient on xi equals sum_s int g_s * d(xi)/dx_s, the boundary term of
    the integration by parts vanishing on the zero-trace eigenfunctions.
    """
    if basis.dimension != g.grid.region.dimension:
        raise DomainError("basis and samples have different dimensions")
    tables = SineTables(basis.indices, g.grid.points, gradients=True)
    coeffs = np.empty(len(basis))
    for pos in range(len(basis)):
        dxi = tables(slice(pos, pos + 1))[:, 0]  # (dim, N)
        coeffs[pos] = float(np.sum(g.grid.weights * np.sum(g.components * dxi, axis=0)))
    return SpectralField(basis, coeffs)


def restrict(g: VectorFieldSamples, region: Region) -> VectorFieldSamples:
    """Mask samples to the region (p_omega); zero-extension is its adjoint."""
    mask = region.contains(g.grid.points)
    comps = np.where(mask[None, :], g.components, 0.0)
    return VectorFieldSamples(g.grid, comps)


def restrict_gradient(field: SpectralField, region: Region) -> VectorFieldSamples:
    """p_omega grad(field), sampled on the region's own quadrature grid."""
    grid = region_quadrature(region, field.basis.truncation)
    return VectorFieldSamples(grid, field.grad(grid.points).T)
