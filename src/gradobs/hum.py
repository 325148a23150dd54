"""Regional gradient reconstruction by duality.

The unknown regional gradient is parametrized on the potential span
{p_omega grad(xi_q) : q <= Q}.  The reconstruction operator Lambda maps a
coefficient vector a to the Gram-weighted image D (V o kappa^T kappa) D^T a,
where D is the regional gradient-overlap matrix, kappa the sensor couplings
and V the same-time response kernel.  The data side pairs the measured
channels against the simulated output of each potential direction; the time
reversal of the adjoint system composes with the backward solve's reversal
and drops out, so both sides share one quadrature mesh and one kernel.

Conjugate gradients solve (Lambda + eps*I) a = b with Lambda a = V S^2 V^T a
and b = V S U^T y, both from one thin SVD A = U S V^T of the whitened forward
map (Lambda = A^T A, never assembled), which also gives Lambda's exact
smallest eigenvalue and the discrepancy rule's misfits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, check_finite
from .dynamics import (
    ObservationRecord,
    TimeGrid,
    WEIGHTING_NONE,
    response_matrix,
    time_grid,
    time_weight,
)
from .sensing import SensorSuite, coupling_matrix
from .spectral import (
    Basis,
    Region,
    SpectralField,
    VectorFieldSamples,
    restrict_gradient,
    sub_basis,
)
from .observability import grad_overlap_matrix

DISCREPANCY_FACTOR = 1.05
LAGRANGE_POINTS = 8
EPS_GRID_DECADES = 14
EPS_GRID_PER_DECADE = 4


@dataclass(frozen=True)
class PotentialVector:
    """Coefficients over the potential span {p_omega grad(xi_q)}."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise DomainError("potential coefficients must be a finite vector")
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True)
class HumConfig:
    """Solver settings for the reconstruction normal equations."""

    cg_tolerance: float = 1e-10
    max_iterations: int = 500
    regularization: float = 0.0

    def __post_init__(self) -> None:
        # stated so that NaN fails them
        if not 0.0 < self.cg_tolerance < math.inf:
            raise DomainError("cg tolerance must be positive and finite")
        if not 0.0 <= self.regularization < math.inf:
            raise DomainError("regularization must be >= 0 and finite")
        if not self.max_iterations >= 1:
            raise DomainError("max iterations must be >= 1")


class HumContext:
    """Precomputed matrices shared by Lambda applications and data functionals.

    `singular_vectors` U, `singular_values` s and `right_vectors` V^T are the
    thin SVD of the whitened forward matrix A (p*K, Q), column q the output of
    potential q times `root_weights`, the root of the weighted quadrature, so
    Lambda = A^T A.  Lambda stays factored: an assembled A^T A loses its
    smallest eigenvalues to rounding, and CG then stalls on them.
    """

    def __init__(
        self,
        basis: Basis,
        suite: SensorSuite,
        alpha: float,
        horizon: float,
        region: Region,
        truncation: int = 6,
        weighting: str = WEIGHTING_NONE,
    ) -> None:
        self.basis = basis
        self.suite = suite
        self.alpha = float(alpha)
        self.horizon = float(horizon)
        self.region = region
        self.weighting = weighting
        self.potential_basis = sub_basis(basis, truncation)
        self.d_matrix = grad_overlap_matrix(self.potential_basis, basis, region)
        self.kappa = coupling_matrix(suite, basis)
        self.grid = time_grid(self.alpha, self.horizon)
        self.quad_weights = self.grid.weights
        self.weight_values = time_weight(self.alpha, self.grid.nodes, weighting)
        self.response = response_matrix(self.alpha, basis.eigenvalues, self.grid.nodes)
        self.root_weights = np.sqrt(self.quad_weights * self.weight_values)
        forward = np.stack([(self.forward_channels(e) * self.root_weights).ravel()
                            for e in np.eye(self.size)], axis=1)
        check_finite(forward, "the whitened forward matrix")
        u, s, vt = np.linalg.svd(forward, full_matrices=False)
        self.singular_vectors, self.singular_values, self.right_vectors = u, s, vt
        # on the rows of V^T, descending
        self.lambda_eigenvalues = check_finite(s**2, "Lambda's eigenvalues")
        # Lambda's smallest eigenvalue; Lambda is singular when Q > p*K
        self.smallest_eigenvalue = float(s[-1] ** 2) if s.size == self.size else 0.0

    @property
    def size(self) -> int:
        return len(self.potential_basis)

    def time_grid(self) -> TimeGrid:
        """The shared quadrature mesh, the one every command samples on."""
        return self.grid

    def forward_channels(self, a: np.ndarray) -> np.ndarray:
        """Output samples (p, K) of the state pulled back from potentials a."""
        c = self.d_matrix.T @ np.asarray(a, dtype=float)
        return self.kappa @ (c[:, None] * self.response)

    def data_functional(self, channels: np.ndarray) -> np.ndarray:
        """b_q = sum_i int w(t) channels_i(t) [output of potential q]_i(t) dt,
        as V S U^T y for the whitened channels y, so both sides round alike."""
        y = (channels * self.root_weights).ravel()
        return (y @ self.singular_vectors * self.singular_values) @ self.right_vectors


@dataclass(frozen=True)
class HumResult:
    """Reconstruction output with solver diagnostics."""

    potential: PotentialVector
    gradient: VectorFieldSamples
    iterations: int
    residual: float
    converged: bool
    smallest_eigenvalue: float  # of Lambda + eps I
    regularization: float


def apply_lambda(a: np.ndarray, context: HumContext) -> np.ndarray:
    """Gram-weighted image Lambda a = V S^2 V^T a, from the context's SVD."""
    a = np.asarray(a, float)
    if a.shape != (context.size,):
        raise DomainError(f"expected {context.size} coefficients, got {a.shape}")
    vt = context.right_vectors
    return (vt @ a * context.lambda_eigenvalues) @ vt


def _channels_on_mesh(record: ObservationRecord, context: HumContext) -> np.ndarray:
    """The record's channels on the context mesh.

    Off the mesh, the regular part t**(1-alpha) z_i(t) of each channel, a
    smooth function of s = t**alpha, is interpolated in s by degree-7
    Lagrange on the 8 consecutive record nodes nearest each mesh node (all
    of them if fewer), then multiplied by t**(alpha-1); a coarser record
    grid warns.  The discrepancy rule assumes iid noise only on the mesh.
    """
    if record.channels.shape[0] != len(context.suite):
        raise DomainError(
            f"record has {record.channels.shape[0]} channels, suite has "
            f"{len(context.suite)}"
        )
    nodes = record.grid.nodes
    mesh = context.grid.nodes
    if nodes.size == mesh.size and np.allclose(nodes, mesh, rtol=0.0, atol=1e-14):
        return record.channels
    if nodes.size < mesh.size:
        warnings.warn(
            f"observation grid ({nodes.size} nodes) is coarser than the "
            f"quadrature mesh ({mesh.size}); interpolating",
            UserWarning,
            stacklevel=3,
        )
    alpha = context.alpha
    s, s_mesh = nodes**alpha, mesh**alpha
    n = min(LAGRANGE_POINTS, nodes.size)
    start = np.clip(np.searchsorted(s, s_mesh) - n // 2, 0, nodes.size - n)
    window = start[:, None] + np.arange(n)  # (K, n) record indices per mesh node
    x = s[window]
    # Lagrange basis L[k, j] = prod_{l != j} (s_k - x_l) / (x_j - x_l)
    off = ~np.eye(n, dtype=bool)
    numer = np.where(off, s_mesh[:, None, None] - x[:, None, :], 1.0)
    denom = np.where(off, x[:, :, None] - x[:, None, :], 1.0)
    lagrange = np.prod(numer / denom, axis=2)
    regular = record.channels * nodes ** (1.0 - alpha)
    return np.einsum("kj,pkj->pk", lagrange, regular[:, window]) * mesh ** (alpha - 1.0)


def rhs_from_data(record: ObservationRecord, context: HumContext) -> np.ndarray:
    """Data-side functional b from measured channels on the context mesh."""
    return context.data_functional(_channels_on_mesh(record, context))


def _conjugate_gradients(
    b: np.ndarray, eps: float, config: HumConfig, context: HumContext
) -> tuple[np.ndarray, int, float, bool]:
    """CG for (Lambda + eps I) a = b from a = 0.

    Returns the iterate, the iteration count, the relative residual and
    whether it met the tolerance.
    """
    a = np.zeros(context.size)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    bnorm = math.sqrt(rr)
    iterations = 0
    converged = bnorm == 0.0
    while not converged and iterations < config.max_iterations:
        ap = apply_lambda(p, context) + eps * p
        curvature = float(p @ ap)
        if curvature <= 0.0:
            raise ConvergenceError(
                "nonpositive curvature in conjugate gradients: the "
                "configuration is unobservable along "
                f"direction {p / max(np.linalg.norm(p), 1e-300)}"
            )
        step = rr / curvature
        a += step * p
        r -= step * ap
        rr_old, rr = rr, float(r @ r)
        iterations += 1
        if math.sqrt(rr) <= config.cg_tolerance * bnorm:
            converged = True
            break
        p = r + (rr / rr_old) * p
    residual = math.sqrt(rr) / bnorm if bnorm > 0.0 else 0.0
    return a, iterations, residual, converged


def solve(record: ObservationRecord, config: HumConfig, context: HumContext
          ) -> HumResult:
    """Conjugate-gradient solution of (Lambda + eps I) a = b from a = 0."""
    eps = config.regularization
    a, iterations, residual, converged = _conjugate_gradients(
        rhs_from_data(record, context), eps, config, context
    )
    potential = PotentialVector(a)
    return HumResult(
        potential, reconstruct_gradient(potential, context), iterations,
        residual, converged, context.smallest_eigenvalue + eps, eps,
    )


def reconstruct_gradient(
    a: PotentialVector, context: HumContext
) -> VectorFieldSamples:
    """Regional gradient of the reconstructed state, on the region grid.

    The dual solution a determines the state coefficients c = D^T a; the
    physical reconstruction is p_omega grad of that state.  (At matched
    truncation with invertible D and kernel matrix this recovers the true
    initial gradient exactly: D^T (D M D^T)^{-1} D M = I.)
    """
    c = context.d_matrix.T @ a.coefficients
    return restrict_gradient(SpectralField(context.basis, c), context.region)


def reconstruction_error(
    reconstructed: VectorFieldSamples, truth: VectorFieldSamples
) -> float:
    """Relative (L2(omega))^n error; absolute norm when the truth vanishes."""
    if reconstructed.components.shape != truth.components.shape:
        raise DomainError("fields must share one quadrature grid")
    diff = reconstructed.components - truth.components
    err = VectorFieldSamples(truth.grid, diff).norm
    ref = truth.norm
    return err / ref if ref > 0.0 else err


def discrepancy_regularization(
    record: ObservationRecord,
    config: HumConfig,
    context: HumContext,
    noise_sigma: float,
) -> float:
    """Pick eps by the discrepancy principle in the output space.

    The weighted output misfit int w ||z_model(a_eps) - z||^2 dt grows with
    eps; iid channel noise on the context mesh, of standard deviation sigma,
    carries expected weighted energy sigma^2 * p * int w dt.  Scanning the
    positive grid eps upward, returns the last one before the first whose
    misfit exceeds DISCREPANCY_FACTOR^2 times that level (0 when the smallest
    already does).

    The context's thin SVD A = U S V^T of the whitened forward matrix gives
    every grid misfit in closed form through the Tikhonov filter factors:
    sum_k (eps / (s_k^2 + eps))^2 beta_k^2 + ||y - U beta||^2 with
    beta = U^T y for the whitened channels y.  That locates the crossing;
    the two grid eps around it are then confirmed with the misfit of the CG
    solution at `config`'s tolerance and budget, the solution `solve`
    returns, stepping along the grid while the two disagree.
    Near the noise level a CG misfit can sit on the other side of it than the
    exact one, and the returned eps must hold for the solution callers get.
    """
    if not 0.0 <= noise_sigma < math.inf:
        raise DomainError("noise level must be >= 0 and finite")
    if noise_sigma == 0.0:
        return 0.0
    channels = _channels_on_mesh(record, context)
    b = context.data_functional(channels)
    wq = context.quad_weights * context.weight_values
    delta2 = DISCREPANCY_FACTOR**2 * noise_sigma**2 * len(context.suite) \
        * float(np.sum(wq))
    lam_scale = float(np.max(np.abs(apply_lambda(np.ones(context.size), context))))
    lam_scale = max(lam_scale, 1e-300)
    grid = np.array([
        lam_scale * 10.0 ** (-EPS_GRID_DECADES + d / EPS_GRID_PER_DECADE)
        for d in range(EPS_GRID_DECADES * EPS_GRID_PER_DECADE + 1)
    ])
    y = (channels * context.root_weights).ravel()
    u = context.singular_vectors
    beta = u.T @ y
    outside = float(np.sum((y - u @ beta) ** 2))
    filtered = grid[:, None] / (context.lambda_eigenvalues + grid[:, None])
    above = np.flatnonzero((filtered**2) @ beta**2 + outside > delta2)
    first = int(above[0]) if above.size else grid.size

    def exceeds(i: int) -> bool:
        a = _conjugate_gradients(b, float(grid[i]), config, context)[0]
        model = context.forward_channels(a)
        return float(np.sum(wq[None, :] * (model - channels) ** 2)) > delta2

    while first < grid.size and not exceeds(first):
        first += 1
    while first > 0 and exceeds(first - 1):
        first -= 1
    return float(grid[first - 1]) if first > 0 else 0.0
