"""Strategic-sensor tests and the regional gradient observability Gramian.

Two quadratic forms certify observability at a finite truncation:

* the *component-basis* Gramian pairs the gradient couplings
  (d(xi_jk)/dx_s, f_i) with plain overlaps int_omega xi_q xi_jk.  Its nullity
  reproduces the per-eigenvalue rank conditions of the strategic test exactly
  (on the whole domain the overlap matrix is the identity, so a null
  direction appears iff some group's coupling matrix is rank deficient).
* the *gradient-basis* Gramian is the forward composition: a gradient field
  supported on omega is pulled back through the adjoint gradient, propagated,
  and observed; its kernel contains the classical unobservable directions
  (the filament counterexample) and it is the matrix HUM inverts.

Both are assembled from one response kernel V[j,j'] =
int_0^b w(s) resp_j(s) resp_k(s) ds with resp_j(s) = s**(alpha-1)
E_{alpha,alpha}(lambda_j s**alpha).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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
    axis_tables,
    build_basis,
    grad_adjoint,
    interval_rule,
    restrict,
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
    suite: SensorSuite
    matrices: tuple[tuple[np.ndarray, ...], ...]  # [group][axis] -> (p, r_j)


@dataclass(frozen=True)
class StrategicReport:
    """Rank verdict per eigenvalue group, up to the basis truncation."""

    verdict: bool
    truncation: int
    channel_count: int
    max_multiplicity: int
    ranks: tuple[int, ...]
    multiplicities: tuple[int, ...]
    offending_group: int | None  # 1-based group index, None if strategic


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
    return GMatrixSet(basis, suite, tuple(zip(*per_axis)))


def strategic_test_1d(gset: GMatrixSet) -> StrategicReport:
    """Necessary-and-sufficient rank test in one dimension.

    Strategic at this truncation iff the channel count is at least the
    maximal multiplicity and every group's coupling matrix has full rank
    r_j (numerical rank at relative singular-value tolerance).
    """
    if gset.basis.dimension != 1:
        raise DomainError("the rank form of the strategic test is 1-D only")
    p = len(gset.suite)
    mults = tuple(g.multiplicity for g in gset.basis.groups)
    # Rank threshold scales with the largest singular value over ALL groups:
    # a group whose couplings vanish must not self-normalize to full rank.
    svs = [np.linalg.svd(per_axis[0], compute_uv=False)
           for per_axis in gset.matrices]
    scale = max((float(sv[0]) for sv in svs if sv.size), default=0.0)
    ranks = []
    offending = None
    for jg, sv in enumerate(svs):
        rank = int(np.sum(sv > RANK_REL_TOL * scale)) if scale > 0.0 else 0
        ranks.append(rank)
        if offending is None and rank < mults[jg]:
            offending = jg + 1
    verdict = p >= max(mults) and offending is None
    if p < max(mults) and offending is None:
        offending = int(np.argmax(mults)) + 1
    return StrategicReport(
        verdict, gset.basis.truncation, p, max(mults), tuple(ranks), mults, offending
    )


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
    """sum_s int_omega t_s(xi_q) t_s(xi_j), t the value or, with gradients,
    each d/dx_s: per rectangle 2**dim times a product over the axes of 1-D
    overlaps on the axis rule, sin-sin or, on the differentiated axis, the
    derivatives' cos-cos."""
    if not test_basis.dimension == basis.dimension == region.dimension:
        raise DomainError("test basis, basis and region differ in dimension")
    top = max(test_basis.truncation, basis.truncation)
    pairs = [np.ix_(q - 1, j - 1) for q, j in zip(test_basis.indices.T, basis.indices.T)]
    total = 0.0
    for rect in region.rectangles:
        one_d = [[((t * w) @ t.T)[pair] for t in axis_tables(np.arange(1, top + 1), x)]
                 for pair, (x, w) in zip(pairs, (interval_rule(*iv, top) for iv in rect))]
        for s in range(basis.dimension) if gradients else [None]:  # d/dx_s
            total = total + math.prod(t[1 if a == s else 0] for a, t in enumerate(one_d))
    return 2.0**basis.dimension * total


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
    gram = 0.5 * (gram + gram.T)
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
    """Observability Gramian on omega at the given test truncation.

    kind=COMPONENT uses the test family p_omega(xi_q e_s) (size n*Q, block
    order: axis-major) and the gradient couplings; kind=GRADIENT uses
    p_omega grad(xi_q) (size Q) and the forward output map.
    """
    if truncation > basis.truncation:
        raise DomainError(
            f"test truncation {truncation} exceeds basis truncation "
            f"{basis.truncation}"
        )
    test_basis = build_basis(basis.dimension, truncation)
    v = response_kernel_matrix(alpha, basis.eigenvalues, b, weighting)
    test_modes = [m.indices for m in test_basis.modes]
    if kind == GRADIENT:
        d = grad_overlap_matrix(test_basis, basis, region)
        kappa = coupling_matrix(suite, basis)
        mmat = v * (kappa.T @ kappa)
        return _spectrum_report(kind, d @ mmat @ d.T, test_modes)
    if kind != COMPONENT:
        raise DomainError(f"unknown Gramian kind {kind!r}")
    r = overlap_matrix(test_basis, basis, region)
    n = basis.dimension
    q = len(test_basis)
    grads = coupling_tables(suite, basis.indices, gradients=True)
    gram = np.zeros((n * q, n * q))
    for i in range(len(suite)):
        rows = np.vstack([r * g[i][None, :] for g in grads])
        gram += rows @ v @ rows.T
    return _spectrum_report(COMPONENT, gram, test_modes)

