"""Dirichlet-Laplacian sine eigenbasis on [0,1] and [0,1]^2.

Modes are ordered and grouped by their exact integer level n = j_1^2 + ... +
j_d^2, eigenvalue -n pi^2 (2-D levels repeat, e.g. (1,2)/(2,1)); `sub_basis`
builds the test span of the Gramians and HUM.  Fields are coefficient vectors
on the basis; the gradient / adjoint-gradient pair is spectral: grad_adjoint(g)
has coefficient sum_s int g_s * d(xi)/dx_s on a mode, the weak form of -div(g)
with the zero Dirichlet boundary.

Every quadrature in gradobs is the composite Gauss-Legendre rule
`gauss_panels`; callers choose its panel edges.  In space it integrates data
(sensor distributions, sampled fields; basis overlaps are closed forms in
`observability`) on 8 nodes per panel and max(4, 2*max_index) panels per
axis (`interval_rule`), >= 4 per half-wave of the fastest sine, as tensor
products per rectangle.  `axis_tables` is the one basis evaluator at nodes:
couplings, tensor-grid fields and `grad_adjoint` contract its per-axis tables
axis by axis (`contract`); `Mode` multiplies one row of each at points.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeError

NODES_PER_PANEL = 8
PANEL_NODES, PANEL_WEIGHTS = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
MIN_PANELS = 4
MODE_CAP = 10_000


@dataclass(frozen=True)
class Mode:
    """Single sine eigenfunction of the Dirichlet Laplacian."""

    indices: tuple[int, ...]
    eigenvalue: float

    def __post_init__(self) -> None:
        if not self.indices or any(j < 1 for j in self.indices):
            raise DomainError(f"mode indices must be >= 1, got {self.indices}")

    def _product(self, points: np.ndarray, s: int | None = None) -> np.ndarray:
        """sqrt(2)**dim times one `axis_tables` row per axis at the points
        (N, dim), multiplied in axis order, the derivative row on axis s."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != len(self.indices):
            raise DomainError(f"{pts.shape[1]}-D points given for "
                              f"{len(self.indices)}-D mode {self.indices}")
        rows = (axis_tables([j], x)[1 if a == s else 0][0]
                for a, (j, x) in enumerate(zip(self.indices, pts.T)))
        return math.prod(rows, start=math.sqrt(2.0) ** len(self.indices))

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Eigenfunction values; points has shape (N, dim)."""
        return self._product(points)

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Analytic gradient, shape (N, dim)."""
        return np.stack([self._product(points, s) for s in range(len(self.indices))],
                        axis=1)


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
    """Every mode with indices <= truncation, one group per integer level
    n = j_1**2 + ... + j_dim**2 in increasing order, eigenvalue -n pi**2."""
    if dimension not in (1, 2):
        raise DomainError(f"dimension must be 1 or 2, got {dimension}")
    if truncation < 1:
        raise DomainError(f"truncation must be >= 1, got {truncation}")
    if truncation**dimension > MODE_CAP:
        raise SizeError(
            f"truncation {truncation} yields {truncation**dimension} modes, "
            f"cap is {MODE_CAP}"
        )
    indices = itertools.product(range(1, truncation + 1), repeat=dimension)
    levels = sorted((sum(j * j for j in idx), idx) for idx in indices)
    groups = []
    for n, run in itertools.groupby(levels, key=operator.itemgetter(0)):
        lam = -n * math.pi**2
        groups.append(EigenGroup(lam, tuple(Mode(idx, lam) for _, idx in run)))
    return Basis(dimension, truncation, tuple(groups))


def sub_basis(basis: Basis, truncation: int) -> Basis:
    """The test span of the Gramians and HUM: `basis` cut to `truncation`."""
    if truncation > basis.truncation:
        raise DomainError(f"test truncation {truncation} exceeds basis "
                          f"truncation {basis.truncation}")
    return build_basis(basis.dimension, truncation)


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


def contract(w: np.ndarray, tables: list, s: int | None = None) -> np.ndarray:
    """Sum an array w (n_1, ..., n_dim) over its axes against one table pair
    of `axis_tables` per axis, each table (J_a, n_a), the derivative table on
    axis s: the (J_1, ..., J_dim) array of tensor-grid sums."""
    for a, table in enumerate(tables):  # (n_a, ...) -> (..., J_a)
        # each sum runs along one contiguous row, so no entry depends on
        # which other modes share the pass
        w = np.multiply(np.moveaxis(w, 0, -1)[..., None, :],
                        table[1 if a == s else 0], order="C").sum(-1)
    return w


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


def tensor_blocks(values: np.ndarray, rules: list) -> list:
    """A per-point array (..., N) on `tensor_grid(rules)` split into its
    rectangles' blocks (..., n_1, ..., n_dim)."""
    shapes = [[x.size for x, _ in rule] for rule in rules]
    parts = np.split(values, np.cumsum([math.prod(n) for n in shapes])[:-1], axis=-1)
    return [part.reshape(*part.shape[:-1], *n) for part, n in zip(parts, shapes)]


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Legendre nodes/weights over a Region, with the
    per-rectangle per-axis (nodes, weights) rules they flatten."""

    region: Region
    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)
    rules: list = field(repr=False, compare=False)


def region_quadrature(region: Region, max_index: int) -> QuadratureGrid:
    """Quadrature resolving modes with indices up to max_index."""
    rules = [[interval_rule(lo, hi, max_index) for lo, hi in rect]
             for rect in region.rectangles]
    return QuadratureGrid(region, *tensor_grid(rules), rules)


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

    def grid_gradient(self, axes: list) -> np.ndarray:
        """Every d/dx_s (dim, n_1, ..., n_dim) on the tensor grid of the
        per-axis nodes: the coefficients as a dense (T, ..., T) array,
        contracted with the sine tables, the derivative table on axis s."""
        dim, top = self.basis.dimension, self.basis.truncation
        if len(axes) != dim:
            raise DomainError(f"{len(axes)}-D grid given for a {dim}-D field")
        dense = np.zeros((top,) * dim)
        dense[tuple(self.basis.indices.T - 1)] = self.coefficients
        tables = [[t.T for t in axis_tables(np.arange(1, top + 1), np.asarray(x, float))]
                  for x in axes]  # (n_a, T): the sums run over the mode index
        return math.sqrt(2.0) ** dim * np.stack(
            [contract(dense, tables, s) for s in range(dim)])


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
    the integration by parts vanishing on the zero-trace eigenfunctions: per
    rectangle, weight times g_s contracted with the sine tables, the
    derivative table on axis s.
    """
    if basis.dimension != g.grid.region.dimension:
        raise DomainError("basis and samples have different dimensions")
    js = np.arange(1, basis.truncation + 1)
    total = 0.0
    for rule, wg in zip(g.grid.rules,
                        tensor_blocks(g.grid.weights * g.components, g.grid.rules)):
        tables = [axis_tables(js, x) for x, _ in rule]
        for s, block in enumerate(wg):
            total = total + contract(block, tables, s)
    coeffs = math.sqrt(2.0) ** basis.dimension * total[tuple(basis.indices.T - 1)]
    return SpectralField(basis, coeffs)


def restrict(g: VectorFieldSamples, region: Region) -> VectorFieldSamples:
    """Mask samples to the region (p_omega); zero-extension is its adjoint."""
    mask = region.contains(g.grid.points)
    comps = np.where(mask[None, :], g.components, 0.0)
    return VectorFieldSamples(g.grid, comps)


def restrict_gradient(field: SpectralField, region: Region) -> VectorFieldSamples:
    """p_omega grad(field), sampled on the region's own quadrature grid."""
    grid = region_quadrature(region, field.basis.truncation)
    blocks = [field.grid_gradient([x for x, _ in rule]) for rule in grid.rules]
    return VectorFieldSamples(grid, np.hstack(
        [b.reshape(len(b), -1) for b in blocks]))
