"""Dirichlet-Laplacian sine eigenbasis on [0,1] and [0,1]^2.

Modes are grouped by eigenvalue (2-D eigenvalues -(m^2+n^2)pi^2 repeat, e.g.
(1,2)/(2,1)), fields are stored as coefficient vectors on the basis, and the
gradient / adjoint-gradient pair is realized spectrally: the coefficient of
grad_adjoint(g) on a mode equals sum_s int g_s * d(xi)/dx_s, which is the weak
form of -div(g) with the zero Dirichlet boundary.

Quadrature everywhere is composite tensor Gauss-Legendre with 8 nodes per
panel and at least max(4, 2*max_index) panels per axis, which resolves the
most oscillatory basis integrand with >= 4 nodes per half-wave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeError

NODES_PER_PANEL = 8
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

    @property
    def dimension(self) -> int:
        return len(self.indices)

    @property
    def max_index(self) -> int:
        return max(self.indices)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Eigenfunction values; points has shape (N, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(pts.shape[0], math.sqrt(2.0) ** len(self.indices))
        for axis, j in enumerate(self.indices):
            out = out * np.sin(j * np.pi * pts[:, axis])
        return out

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Analytic gradient, shape (N, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dim = len(self.indices)
        out = np.empty((pts.shape[0], dim))
        for s in range(dim):
            col = np.full(pts.shape[0], math.sqrt(2.0) ** dim)
            for axis, j in enumerate(self.indices):
                if axis == s:
                    col = col * (j * np.pi) * np.cos(j * np.pi * pts[:, axis])
                else:
                    col = col * np.sin(j * np.pi * pts[:, axis])
            out[:, s] = col
        return out


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

    def __post_init__(self) -> None:
        flat = tuple(m for g in self.groups for m in g.members)
        object.__setattr__(self, "modes", flat)

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
    modes = []
    if dimension == 1:
        for j in range(1, truncation + 1):
            modes.append(Mode((j,), -(j**2) * math.pi**2))
    else:
        for m in range(1, truncation + 1):
            for n in range(1, truncation + 1):
                modes.append(Mode((m, n), -(m**2 + n**2) * math.pi**2))
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


def _panel_rule(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Legendre nodes/weights over a Region."""

    region: Region
    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)


def region_quadrature(region: Region, max_index: int) -> QuadratureGrid:
    """Quadrature resolving modes with indices up to max_index."""
    panels = max(MIN_PANELS, 2 * max_index)
    pts_parts = []
    w_parts = []
    for rect in region.rectangles:
        axes = [_panel_rule(lo, hi, panels) for lo, hi in rect]
        if len(axes) == 1:
            pts = axes[0][0][:, None]
            wts = axes[0][1]
        else:
            (x1, w1), (x2, w2) = axes
            pts = np.column_stack(
                [np.repeat(x1, x2.size), np.tile(x2, x1.size)]
            )
            wts = (w1[:, None] * w2[None, :]).ravel()
        pts_parts.append(pts)
        w_parts.append(wts)
    return QuadratureGrid(
        region, np.vstack(pts_parts), np.concatenate(w_parts)
    )


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

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for c, mode in zip(self.coefficients, self.basis.modes):
            if c != 0.0:
                out += c * mode.eval(pts)
        return out

    def grad(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((pts.shape[0], self.basis.dimension))
        for c, mode in zip(self.coefficients, self.basis.modes):
            if c != 0.0:
                out += c * mode.grad(pts)
        return out

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
    coeffs = np.empty(len(basis))
    pts = g.grid.points
    wts = g.grid.weights
    for pos, mode in enumerate(basis.modes):
        dxi = mode.grad(pts)
        coeffs[pos] = float(np.sum(wts * np.sum(g.components * dxi.T, axis=0)))
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
