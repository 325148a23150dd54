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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .dynamics import (
    TimeGrid,
    gram_time_mesh,
    response_matrix,
    time_weight,
)
from .sensing import SensorSuite, coupling_matrix, grad_coupling
from .spectral import (
    Basis,
    Region,
    VectorFieldSamples,
    build_basis,
    grad_adjoint,
    region_quadrature,
    restrict,
)

RANK_REL_TOL = 1e-10
NULL_REL_TOL = 1e-10
CONDITION_WARN = 1e12

COMPONENT = "component"
GRADIENT = "gradient"


class ConditioningWarning(UserWarning):
    """Gramian eigenvalue ratio exceeds the conditioning threshold."""


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
    axes: int

    @property
    def smallest_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def largest_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


def build_g_matrices(basis: Basis, suite: SensorSuite) -> GMatrixSet:
    """Assemble every group's p x r_j matrix of gradient couplings per axis."""
    mats = []
    for group in basis.groups:
        per_axis = []
        for s in range(basis.dimension):
            m = np.empty((len(suite), group.multiplicity))
            for i, sensor in enumerate(suite.sensors):
                for k, mode in enumerate(group.members):
                    m[i, k] = grad_coupling(sensor, mode, s)
            per_axis.append(m)
        mats.append(tuple(per_axis))
    return GMatrixSet(basis, suite, tuple(mats))


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
    region: Region,
    basis: Basis,
    grid: TimeGrid,
) -> KernelReport:
    """Test whether the restricted gradient field generates zero output.

    Observes the state obtained by adjoint-gradient pullback of p_omega g
    and compares the channel sup-norm against a constructive upper bound on
    the output magnitude (the scale of the verdict threshold).
    """
    c = grad_adjoint(restrict(g, region), basis).coefficients
    kappa = coupling_matrix(suite, basis)
    resp = response_matrix(alpha, basis.eigenvalues, grid.nodes)
    channels = kappa @ (c[:, None] * resp)
    sup = float(np.max(np.abs(channels)))
    bound = float(np.max(np.abs(kappa) @ (np.abs(c)[:, None] * np.abs(resp))))
    scale = max(1.0, bound)
    return KernelReport(sup <= 1e-9 * scale, sup, scale, channels)


def response_kernel_matrix(
    alpha: float, eigenvalues: np.ndarray, b: float, weighting: str
) -> np.ndarray:
    """V[j,k] = int_0^b w(s) resp_j(s) resp_k(s) ds for all eigenvalue pairs."""
    nodes, wq = gram_time_mesh(alpha, b)
    w = time_weight(alpha, nodes, weighting)
    f = response_matrix(alpha, eigenvalues, nodes)
    return (f * (wq * w)[None, :]) @ f.T


def overlap_matrix(test_basis: Basis, basis: Basis, region: Region) -> np.ndarray:
    """R[q,j] = int_omega xi_q xi_j."""
    max_index = max(test_basis.truncation, basis.truncation)
    grid = region_quadrature(region, max_index)
    tq = np.stack([m.eval(grid.points) for m in test_basis.modes])
    tj = np.stack([m.eval(grid.points) for m in basis.modes])
    return (tq * grid.weights[None, :]) @ tj.T


def grad_overlap_matrix(test_basis: Basis, basis: Basis, region: Region) -> np.ndarray:
    """D[q,j] = int_omega grad(xi_q) . grad(xi_j)."""
    max_index = max(test_basis.truncation, basis.truncation)
    grid = region_quadrature(region, max_index)
    out = np.zeros((len(test_basis), len(basis)))
    gq = np.stack([m.grad(grid.points) for m in test_basis.modes])  # (Q, N, dim)
    gj = np.stack([m.grad(grid.points) for m in basis.modes])
    for s in range(basis.dimension):
        out += (gq[:, :, s] * grid.weights[None, :]) @ gj[:, :, s].T
    return out


def _spectrum_report(
    kind: str, gram: np.ndarray, test_modes, axes: int
) -> GramReport:
    gram = 0.5 * (gram + gram.T)
    eigenvalues = np.linalg.eigvalsh(gram)
    largest = float(eigenvalues[-1])
    smallest = float(eigenvalues[0])
    pd = largest > 0.0 and smallest > NULL_REL_TOL * largest
    if smallest > 0.0 and largest / smallest > CONDITION_WARN:
        warnings.warn(
            f"Gramian eigenvalue ratio {largest / smallest:.2e} exceeds "
            f"{CONDITION_WARN:.0e}",
            ConditioningWarning,
            stacklevel=3,
        )
    return GramReport(kind, gram, eigenvalues, pd, tuple(test_modes), axes)


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
        return _spectrum_report(kind, d @ mmat @ d.T, test_modes, basis.dimension)
    if kind != COMPONENT:
        raise DomainError(f"unknown Gramian kind {kind!r}")
    r = overlap_matrix(test_basis, basis, region)
    n = basis.dimension
    q = len(test_basis)
    gram = np.zeros((n * q, n * q))
    for i, sensor in enumerate(suite.sensors):
        rows = np.empty((n * q, len(basis)))
        for s in range(n):
            gs = np.array(
                [grad_coupling(sensor, mode, s) for mode in basis.modes]
            )
            rows[s * q:(s + 1) * q] = r * gs[None, :]
        gram += rows @ v @ rows.T
    return _spectrum_report(COMPONENT, gram, test_modes, n)


def output_energy(
    state_coefficients: np.ndarray,
    basis: Basis,
    suite: SensorSuite,
    alpha: float,
    b: float,
    weighting: str = "none",
) -> float:
    """int_0^b w(t) ||z(t)||**2 dt for the state with the given coefficients.

    This is the forward quadratic form whose null directions are the
    unobservable initial states.
    """
    c = np.asarray(state_coefficients, dtype=float)
    v = response_kernel_matrix(alpha, basis.eigenvalues, b, weighting)
    kappa = coupling_matrix(suite, basis)
    mmat = v * (kappa.T @ kappa)
    return float(c @ mmat @ c)
