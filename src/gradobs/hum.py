"""Regional gradient reconstruction by duality.

The unknown regional gradient is parametrized on the potential span
{p_omega grad(xi_q) : q <= Q}.  The reconstruction operator Lambda maps a
coefficient vector a to the Gram-weighted image D (V o kappa^T kappa) D^T a,
where D is the regional gradient-overlap matrix, kappa the sensor couplings
and V the same-time response kernel.  The data side pairs the measured
channels against the simulated output of each potential direction; the time
reversal of the adjoint system composes with the backward solve's reversal
and drops out, so both sides share one quadrature mesh and one kernel.

Conjugate gradients solve (Lambda + eps*I) a = b; the Lanczos tridiagonal
assembled from the CG recurrence reports the smallest Ritz value as a
coercivity surrogate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .dynamics import (
    ObservationRecord,
    TimeGrid,
    WEIGHTING_NONE,
    gram_time_mesh,
    response_matrix,
    time_weight,
)
from .sensing import SensorSuite, coupling_matrix
from .spectral import (
    Basis,
    Region,
    SpectralField,
    VectorFieldSamples,
    build_basis,
    restrict_gradient,
)
from .observability import grad_overlap_matrix

DISCREPANCY_FACTOR = 1.05
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
        if self.cg_tolerance <= 0.0:
            raise DomainError("cg tolerance must be positive")
        if self.regularization < 0.0:
            raise DomainError("regularization must be >= 0")
        if self.max_iterations < 1:
            raise DomainError("max iterations must be >= 1")


class HumContext:
    """Precomputed matrices shared by Lambda applications and data functionals."""

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
        if truncation > basis.truncation:
            raise DomainError(
                f"potential truncation {truncation} exceeds basis truncation "
                f"{basis.truncation}"
            )
        self.basis = basis
        self.suite = suite
        self.alpha = float(alpha)
        self.horizon = float(horizon)
        self.region = region
        self.weighting = weighting
        self.potential_basis = build_basis(basis.dimension, truncation)
        self.d_matrix = grad_overlap_matrix(self.potential_basis, basis, region)
        self.kappa = coupling_matrix(suite, basis)
        nodes, quad_weights = gram_time_mesh(self.alpha, self.horizon)
        self.time_nodes = nodes
        self.quad_weights = quad_weights
        self.weight_values = time_weight(self.alpha, nodes, weighting)
        self.response = response_matrix(self.alpha, basis.eigenvalues, nodes)

    @property
    def size(self) -> int:
        return len(self.potential_basis)

    def time_grid(self) -> TimeGrid:
        """The shared quadrature mesh as a simulation grid."""
        return TimeGrid(self.horizon, self.time_nodes, self.quad_weights)

    def forward_channels(self, a: np.ndarray) -> np.ndarray:
        """Output samples (p, K) of the state pulled back from potentials a."""
        c = self.d_matrix.T @ np.asarray(a, dtype=float)
        return self.kappa @ (c[:, None] * self.response)

    def data_functional(self, channels: np.ndarray) -> np.ndarray:
        """b_q = sum_i int w(t) channels_i(t) [output of potential q]_i(t) dt."""
        weighted = channels * (self.quad_weights * self.weight_values)[None, :]
        c = (self.response * (self.kappa.T @ weighted)).sum(axis=1)
        return self.d_matrix @ c


@dataclass(frozen=True)
class HumResult:
    """Reconstruction output with solver diagnostics."""

    potential: PotentialVector
    gradient: VectorFieldSamples
    iterations: int
    residual: float
    converged: bool
    smallest_ritz_value: float
    regularization: float
    relative_error: float | None = None


def apply_lambda(a: PotentialVector | np.ndarray, context: HumContext) -> np.ndarray:
    """Gram-weighted image of a potential vector (matrix-free composition).

    Forward-propagates the pulled-back state, observes it, and pairs the
    weighted output against each potential direction's output.
    """
    a = a.coefficients if isinstance(a, PotentialVector) else np.asarray(a, float)
    if a.shape != (context.size,):
        raise DomainError(f"expected {context.size} coefficients, got {a.shape}")
    return context.data_functional(context.forward_channels(a))


def _channels_on_mesh(record: ObservationRecord, context: HumContext) -> np.ndarray:
    """The record's channels on the context mesh.

    Channels sampled on a grid other than the context mesh are linearly
    interpolated onto it (with a warning when the observation grid is the
    coarser of the two).
    """
    nodes = record.grid.nodes
    if nodes.size == context.time_nodes.size and np.allclose(
        nodes, context.time_nodes, rtol=0.0, atol=1e-14
    ):
        return record.channels
    if nodes.size < context.time_nodes.size:
        warnings.warn(
            f"observation grid ({nodes.size} nodes) is coarser than the "
            f"quadrature mesh ({context.time_nodes.size}); interpolating",
            UserWarning,
            stacklevel=3,
        )
    return np.stack(
        [np.interp(context.time_nodes, nodes, ch) for ch in record.channels]
    )


def rhs_from_data(record: ObservationRecord, context: HumContext) -> np.ndarray:
    """Data-side functional b from measured channels on the context mesh."""
    if record.channels.shape[0] != len(context.suite):
        raise DomainError(
            f"record has {record.channels.shape[0]} channels, suite has "
            f"{len(context.suite)}"
        )
    return context.data_functional(_channels_on_mesh(record, context))


def _smallest_ritz(alphas: list[float], betas: list[float]) -> float:
    """Smallest eigenvalue of the Lanczos tridiagonal built from CG scalars."""
    k = len(alphas)
    if k == 0:
        return float("nan")
    t = np.zeros((k, k))
    for i in range(k):
        t[i, i] = 1.0 / alphas[i] + (betas[i - 1] / alphas[i - 1] if i else 0.0)
        if i + 1 < k:
            off = np.sqrt(max(betas[i], 0.0)) / alphas[i]
            t[i, i + 1] = t[i + 1, i] = off
    return float(np.linalg.eigvalsh(t)[0])


def solve(
    record: ObservationRecord,
    config: HumConfig,
    context: HumContext,
    true_gradient: VectorFieldSamples | None = None,
) -> HumResult:
    """Conjugate-gradient solution of (Lambda + eps I) a = b from a = 0."""
    b = rhs_from_data(record, context)
    eps = config.regularization
    a = np.zeros(context.size)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    bnorm = float(np.sqrt(rr))
    alphas: list[float] = []
    betas: list[float] = []
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
        rr_new = float(r @ r)
        alphas.append(step)
        betas.append(rr_new / rr)
        rr = rr_new
        iterations += 1
        if np.sqrt(rr) <= config.cg_tolerance * bnorm:
            converged = True
            break
        p = r + betas[-1] * p
    residual = float(np.sqrt(rr) / bnorm) if bnorm > 0.0 else 0.0
    potential = PotentialVector(a)
    gradient = reconstruct_gradient(potential, context)
    rel = None
    if true_gradient is not None:
        rel = reconstruction_error(gradient, true_gradient)
    return HumResult(
        potential,
        gradient,
        iterations,
        residual,
        converged,
        _smallest_ritz(alphas, betas),
        eps,
        rel,
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
    w = truth.grid.weights
    err = float(np.sqrt(np.sum(w * np.sum(diff**2, axis=0))))
    ref = truth.norm
    return err / ref if ref > 0.0 else err


def discrepancy_regularization(
    record: ObservationRecord,
    config: HumConfig,
    context: HumContext,
    noise_sigma: float,
    factor: float = DISCREPANCY_FACTOR,
) -> float:
    """Pick eps by the discrepancy principle in the output space.

    The weighted output misfit int w ||z_model(a_eps) - z||^2 dt grows with
    eps; iid channel noise of standard deviation sigma carries expected
    weighted energy sigma^2 * p * int w dt.  Returns the largest grid eps
    whose misfit stays below factor^2 times that level (0 when even the
    unregularized misfit exceeds it).
    """
    if noise_sigma < 0.0:
        raise DomainError("noise level must be >= 0")
    if noise_sigma == 0.0:
        return 0.0
    wq = context.quad_weights * context.weight_values
    delta2 = factor**2 * noise_sigma**2 * len(context.suite) * float(np.sum(wq))
    channels = _channels_on_mesh(record, context)
    lam_scale = float(np.max(np.abs(apply_lambda(np.ones(context.size), context))))
    lam_scale = max(lam_scale, 1e-300)
    grid = [0.0] + [
        lam_scale * 10.0 ** (-EPS_GRID_DECADES + d / EPS_GRID_PER_DECADE)
        for d in range(EPS_GRID_DECADES * EPS_GRID_PER_DECADE + 1)
    ]
    best = 0.0
    for eps in grid:
        cfg = HumConfig(config.cg_tolerance, config.max_iterations, eps)
        result = solve(record, cfg, context)
        model = context.forward_channels(result.potential.coefficients)
        misfit2 = float(np.sum(wq[None, :] * (model - channels) ** 2))
        if misfit2 <= delta2:
            best = eps
        elif eps > 0.0:
            break
    return best
