"""Strategic-sensor level ranks and the regional observability Gramians.

`level_ranks` is the one rank count of coupling blocks: a level (one exact
eigenvalue, multiplicity r_j) is full when its p x r_j block has rank r_j.
Each Gramian is the S x S block matrix O (V o C_a^T C_b) O^T of one response
kernel V[j,k] = int_0^b w(s) resp_j(s) resp_k(s) ds, resp_j(s) =
s**(alpha-1) E_{alpha,alpha}(lambda_j s**alpha); the test family picks
(O, C).  The *gradient* Gramian (p_omega grad(xi_q), S = 1) takes the
gradient overlaps D and the value couplings kappa: its kernel holds the
unobservable directions (the filament counterexample), HUM inverts it, and
its `numerical_rank` is the verdict of `gram`, `strategic` and
`reconstruct`; on the whole domain D is diagonal, so a deficient level of
kappa makes it singular.  The *component* Gramian (p_omega(xi_q e_s),
S = n) takes the value overlaps R and the per-axis gradient couplings G_s;
it asks that every vector field be seen, and no command reaches it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite
from .dynamics import (
    TimeGrid,
    response_matrix,
    time_grid,
    time_weight,
)
from .sensing import SensorSuite, coupling_matrix, coupling_tables
from .spectral import (
    Basis,
    Region,
    VectorFieldSamples,
    grad_adjoint,
    restrict,
    sub_basis,
)

RANK_REL_TOL = 1e-10
NULL_REL_TOL = 1e-10
CONDITION_WARN = 1e12

COMPONENT = "component"
GRADIENT = "gradient"


class ConditioningWarning(UserWarning):
    """Gramian eigenvalue ratio, largest over |smallest|, exceeds the threshold."""


@dataclass(frozen=True)
class GMatrixSet:
    """Per eigenvalue group and axis: the p x r_j gradient-coupling matrix."""

    basis: Basis
    matrices: tuple[tuple[np.ndarray, ...], ...]  # [group][axis] -> (p, r_j)


@dataclass(frozen=True)
class StrategicReport:
    """Rank per level (eigenvalue group), up to the basis truncation."""

    verdict: bool
    truncation: int
    channel_count: int
    max_multiplicity: int
    ranks: tuple[int, ...]
    multiplicities: tuple[int, ...]
    offending_group: int | None  # first deficient level, 1-based; None if none


@dataclass(frozen=True)
class KernelReport:
    """Whether a gradient field is invisible to the sensor suite."""

    in_kernel: bool
    sup_norm: float
    scale: float
    channels: np.ndarray  # (p, K) output of the pulled-back state


@dataclass(frozen=True)
class GramReport:
    """Observability Gramian with its spectrum."""

    kind: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    positive_definite: bool
    test_modes: tuple[tuple[int, ...], ...]

    @property
    def smallest_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def largest_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


def build_g_matrices(basis: Basis, suite: SensorSuite) -> GMatrixSet:
    """Assemble every group's p x r_j matrix of gradient couplings per axis.

    Basis.modes lists the groups in order, so each group's matrix is a column
    slice of the per-axis coupling matrix.
    """
    bounds = np.cumsum([group.multiplicity for group in basis.groups])[:-1]
    grads = coupling_tables(suite, basis.indices, gradients=True)
    per_axis = [np.split(g, bounds, axis=1) for g in grads]
    return GMatrixSet(basis, tuple(zip(*per_axis)))


def level_ranks(basis: Basis, couplings: np.ndarray) -> StrategicReport:
    """Rank of each level's p x r_j block of `couplings` (p, len(basis)):
    singular values above RANK_REL_TOL times the largest column norm, a
    global scale, so a vanishing block cannot self-normalize to full rank."""
    norms = check_finite(np.linalg.norm(couplings, axis=0), "the coupling column norms")
    tol = RANK_REL_TOL * norms.max()
    mult = np.array([group.multiplicity for group in basis.groups])
    starts = np.cumsum(mult) - mult
    ranks = np.empty(mult.size, dtype=int)
    for r in np.unique(mult):
        levels = np.flatnonzero(mult == r)
        if r == 1:
            ranks[levels] = norms[starts[levels]] > tol
        else:  # one batched SVD of the (levels, p, r) blocks
            blocks = couplings[:, starts[levels, None] + np.arange(r)].transpose(1, 0, 2)
            ranks[levels] = np.count_nonzero(
                np.linalg.svd(blocks, compute_uv=False) > tol, axis=1)
    missing = np.flatnonzero(ranks < mult)
    offending = int(missing[0]) + 1 if missing.size else None
    return StrategicReport(
        offending is None, basis.truncation, couplings.shape[0], int(mult.max()),
        tuple(ranks.tolist()), tuple(mult.tolist()), offending,
    )


def strategic_test_1d(gset: GMatrixSet) -> StrategicReport:
    """`level_ranks` of the derivative couplings (f_i, xi_j')_i in one
    dimension, where every level is the single mode j."""
    if gset.basis.dimension != 1:
        raise DomainError("the rank form of the strategic test is 1-D only")
    return level_ranks(gset.basis, np.hstack([g[0] for g in gset.matrices]))


def kernel_test(
    g: VectorFieldSamples,
    suite: SensorSuite,
    alpha: float,
    regions: tuple[Region, ...],
    basis: Basis,
    grid: TimeGrid,
) -> tuple[KernelReport, ...]:
    """Test, per region omega, whether p_omega g generates zero output.

    Observes the state obtained by adjoint-gradient pullback of p_omega g
    and compares the channel sup-norm against a constructive upper bound on
    the output magnitude (the scale of the verdict threshold).  One coupling
    matrix and one response matrix serve every region.
    """
    kappa = coupling_matrix(suite, basis)
    resp = response_matrix(alpha, basis.eigenvalues, grid.nodes)
    reports = []
    for region in regions:
        c = grad_adjoint(restrict(g, region), basis).coefficients
        channels = kappa @ (c[:, None] * resp)
        sup = float(np.max(np.abs(channels)))
        bound = float(np.max(np.abs(kappa) @ (np.abs(c)[:, None] * np.abs(resp))))
        scale = max(1.0, bound)
        reports.append(KernelReport(sup <= 1e-9 * scale, sup, scale, channels))
    return tuple(reports)


def response_kernel_matrix(
    alpha: float, eigenvalues: np.ndarray, b: float, weighting: str
) -> np.ndarray:
    """V[j,k] = int_0^b w(s) resp_j(s) resp_k(s) ds for all eigenvalue pairs."""
    grid = time_grid(alpha, b)
    w = time_weight(alpha, grid.nodes, weighting)
    f = response_matrix(alpha, eigenvalues, grid.nodes)
    return (f * (grid.weights * w)[None, :]) @ f.T


def _region_overlap(test_basis: Basis, basis: Basis, region: Region,
                    gradients: bool) -> np.ndarray:
    """sum_s int_omega t_s(xi_q) t_s(xi_j), t the value or each d/dx_s: per
    rectangle a product over the axes of sqrt(2) sin(j pi x) overlaps C(q-j) -
    C(q+j), differentiated q j pi**2 (C(q-j) + C(q+j)), C(m) = int cos(m pi x)."""
    if not test_basis.dimension == basis.dimension == region.dimension:
        raise DomainError("test basis, basis and region differ in dimension")
    q, j = np.ix_(*(np.arange(1, b.truncation + 1) for b in (test_basis, basis)))
    pairs = [np.ix_(a - 1, b - 1) for a, b in zip(test_basis.indices.T, basis.indices.T)]
    total = 0.0
    for rect in region.rectangles:
        one_d = []
        for pair, (lo, hi) in zip(pairs, rect):
            minus, plus = ((hi - lo) * np.cos(0.5 * np.pi * m * (hi + lo))
                           * np.sinc(0.5 * m * (hi - lo)) for m in (q - j, q + j))
            one_d.append(((minus - plus)[pair], (np.pi**2 * q * j * (minus + plus))[pair]))
        for s in range(basis.dimension) if gradients else [None]:  # d/dx_s
            total = total + math.prod(t[1 if a == s else 0] for a, t in enumerate(one_d))
    return total


def overlap_matrix(test_basis: Basis, basis: Basis, region: Region) -> np.ndarray:
    """R[q,j] = int_omega xi_q xi_j."""
    return _region_overlap(test_basis, basis, region, gradients=False)


def grad_overlap_matrix(test_basis: Basis, basis: Basis, region: Region) -> np.ndarray:
    """D[q,j] = int_omega grad(xi_q) . grad(xi_j)."""
    return _region_overlap(test_basis, basis, region, gradients=True)


def numerical_rank(eigenvalues: np.ndarray) -> int:
    """Eigenvalues above NULL_REL_TOL times the largest: the rank rule of
    the Gramian verdicts and of reconstruct's refusal (0 when none is
    positive)."""
    eigenvalues = np.asarray(eigenvalues)
    return int(np.count_nonzero(eigenvalues > NULL_REL_TOL * eigenvalues.max()))


def _spectrum_report(kind: str, gram: np.ndarray, test_modes) -> GramReport:
    gram = check_finite(0.5 * (gram + gram.T), "the Gramian")
    eigenvalues = np.linalg.eigvalsh(gram)
    largest = float(eigenvalues[-1])
    smallest = float(eigenvalues[0])
    pd = numerical_rank(eigenvalues) == eigenvalues.size
    # by |smallest|: a singular Gramian's smallest eigenvalue is rounding
    # noise of either sign
    if largest > 0.0 and largest > CONDITION_WARN * abs(smallest):
        ratio = largest / abs(smallest) if smallest else math.inf
        warnings.warn(
            f"Gramian eigenvalue ratio {ratio:.2e} exceeds {CONDITION_WARN:.0e}",
            ConditioningWarning,
            stacklevel=3,
        )
    return GramReport(kind, gram, eigenvalues, pd, tuple(test_modes))


def gram_regional(
    basis: Basis,
    suite: SensorSuite,
    alpha: float,
    b: float,
    region: Region,
    truncation: int = 6,
    weighting: str = "none",
    kind: str = COMPONENT,
) -> GramReport:
    """Observability Gramian on omega at test truncation Q, blocks axis-major:
    (O, C) = (D, [kappa]) for kind=GRADIENT (size Q) and (R, [G_0 .. G_n-1])
    for kind=COMPONENT (size n*Q), the block formula of the module."""
    test_basis = sub_basis(basis, truncation)
    if kind == GRADIENT:
        o = grad_overlap_matrix(test_basis, basis, region)
        c = [coupling_matrix(suite, basis)]
    elif kind == COMPONENT:
        o = overlap_matrix(test_basis, basis, region)
        c = coupling_tables(suite, basis.indices, gradients=True)
    else:
        raise DomainError(f"unknown Gramian kind {kind!r}")
    v = response_kernel_matrix(alpha, basis.eigenvalues, b, weighting)
    gram = np.block([[o @ (v * (ca.T @ cb)) @ o.T for cb in c] for ca in c])
    return _spectrum_report(kind, gram, [m.indices for m in test_basis.modes])
