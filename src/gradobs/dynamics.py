"""Forward dynamics of the fractional diffusion and its time quadratures.

The mild solution acts mode-by-mode: a coefficient c0 on an eigenfunction
with eigenvalue lambda evolves to t**(alpha-1) * E_{alpha,alpha}(lambda *
t**alpha) * c0.  The t**(alpha-1) factor is singular at t=0, so the one
time rule, `time_grid`, is a composite Gauss-Legendre mesh excluding 0 and
graded toward both endpoints: simulation samples outputs on it, and the
Gramians and HUM integrate products of two responses on the same nodes.

For alpha <= 1/2 the response is not square-integrable in time; the
`compensated` weighting multiplies the integrands by s**(1-alpha) factors to
keep every downstream integral finite on all of alpha in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mlf import mlf
from .sensing import SensorSuite, coupling_matrix
from .spectral import SpectralField, gauss_panels

TIME_PANELS = 32
WEIGHTING_NONE = "none"
WEIGHTING_COMPENSATED = "compensated"


def grading_exponent(alpha: float) -> float:
    return max(2.0, 2.0 / alpha)


def _graded_edges(lo: float, hi: float, panels: int, q: float) -> np.ndarray:
    """Panel edges accumulating toward `lo` with grading exponent q."""
    u = np.linspace(0.0, 1.0, panels + 1)
    return lo + (hi - lo) * u**q


@dataclass(frozen=True)
class TimeGrid:
    """Quadrature nodes/weights on (0, b], graded toward the singular origin."""

    horizon: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if self.horizon <= 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if nodes.size == 0 or np.any(nodes <= 0.0) or np.any(np.diff(nodes) <= 0.0):
            raise DomainError("nodes must be strictly increasing and exclude t=0")
        if nodes[-1] > self.horizon or np.any(weights <= 0.0):
            raise DomainError("nodes must lie in (0, b] with positive weights")
        if abs(float(np.sum(weights)) - self.horizon) > 1e-12 * max(1.0, self.horizon):
            raise DomainError("weights must sum to the horizon")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def time_grid(alpha: float, horizon: float) -> TimeGrid:
    """The time rule of every command: TIME_PANELS Gauss-Legendre panels on
    (0, b), the left half's edges graded as u**q toward 0, mirrored about b/2."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"fractional order must be in (0, 1], got {alpha}")
    left = _graded_edges(0.0, 0.5 * horizon, TIME_PANELS // 2, grading_exponent(alpha))
    return TimeGrid(horizon, *gauss_panels(np.concatenate([left, horizon - left[-2::-1]])))


@dataclass(frozen=True)
class ObservationRecord:
    """p-channel sensor output sampled on a time grid."""

    grid: TimeGrid
    channels: np.ndarray  # (p, K)
    noise_sigma: float = 0.0
    noise_seed: int | None = None

    def __post_init__(self) -> None:
        channels = np.atleast_2d(np.asarray(self.channels, dtype=float))
        if channels.shape[1] != self.grid.nodes.size:
            raise DomainError(
                f"channel length {channels.shape[1]} does not match grid "
                f"({self.grid.nodes.size} nodes)"
            )
        object.__setattr__(self, "channels", channels)


def response_matrix(alpha: float, eigenvalues: np.ndarray, times: np.ndarray) -> np.ndarray:
    """F[j, k] = t_k**(alpha-1) E_{alpha,alpha}(lambda_j t_k**alpha)."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    times = np.asarray(times, dtype=float)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"fractional order must be in (0, 1], got {alpha}")
    if np.any(eigenvalues > 0.0):
        raise DomainError(f"eigenvalues must be <= 0, got {eigenvalues.max()}")
    if np.any(times <= 0.0):
        raise DomainError(
            f"times must be positive (singular prefactor), got {times.min()}"
        )
    if alpha == 1.0:  # mlf's exact branch, the scalar exp(lambda t), per entry
        return np.vectorize(math.exp, otypes=[float])(np.outer(eigenvalues, times))
    out = np.empty((eigenvalues.size, times.size))
    ta = times**alpha
    pref = times ** (alpha - 1.0)
    for j, lam in enumerate(eigenvalues):
        out[j] = pref * np.array([mlf(alpha, alpha, lam * s) for s in ta])
    return out


def _noise_samples(sigma: float, seed: int, p: int, k: int) -> np.ndarray:
    """Counter-based Gaussian noise: one Philox counter per (channel, sample)."""
    out = np.empty((p, k))
    for i in range(p):
        for s in range(k):
            gen = np.random.Generator(
                np.random.Philox(key=seed, counter=[0, 0, i, s])
            )
            out[i, s] = gen.normal(0.0, sigma)
    return out


def simulate(
    y0: SpectralField,
    suite: SensorSuite,
    alpha: float,
    grid: TimeGrid,
    noise_sigma: float = 0.0,
    noise_seed: int | None = None,
) -> ObservationRecord:
    """Sensor outputs z_i(t_k) of the mild solution from initial state y0."""
    kappa = coupling_matrix(suite, y0.basis)
    resp = response_matrix(alpha, y0.basis.eigenvalues, grid.nodes)
    channels = kappa @ (y0.coefficients[:, None] * resp)
    if noise_sigma > 0.0:
        if noise_seed is None:
            raise DomainError("noise_sigma > 0 requires a seed")
        channels = channels + _noise_samples(
            noise_sigma, noise_seed, channels.shape[0], channels.shape[1]
        )
    return ObservationRecord(grid, channels, noise_sigma, noise_seed)


def check_weighting(alpha: float, weighting: str) -> None:
    """A known weighting that keeps the time integrands integrable at alpha."""
    if weighting not in (WEIGHTING_NONE, WEIGHTING_COMPENSATED):
        raise DomainError(f"unknown weighting {weighting!r}")
    if weighting == WEIGHTING_NONE and alpha <= 0.5:
        raise DomainError(
            f"alpha={alpha} <= 1/2 makes the unweighted response non-square-"
            "integrable; use the 'compensated' weighting"
        )


POINT_KERNEL_PANELS = 48


def _point_kernel_mesh(lo: float, hi: float, alpha: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Mesh graded toward `lo` hard enough to resolve s**(alpha-1) endpoints.

    Grading exponent ~(2m+1)/alpha restores the full composite-Gauss order
    against the algebraic singularity; panel products stay finite in double
    precision because weights shrink as fast as the integrand grows.
    """
    return gauss_panels(_graded_edges(lo, hi, POINT_KERNEL_PANELS, 17.0 / alpha))


def duhamel_weight(
    alpha: float,
    lambda_j: float,
    lambda_k: float,
    b: float,
    weighting: str = WEIGHTING_NONE,
) -> float:
    """Convolution integral of two mode responses over [0, b].

    I = int_0^b w(s) s**(a-1) E_{a,a}(lam_j s**a) (b-s)**(a-1)
        E_{a,a}(lam_k (b-s)**a) ds,
    w = 1 (`none`, alpha > 1/2 only) or w = s**(1-a)(b-s)**(1-a)
    (`compensated`).  Folded onto (0, b/2] by the s <-> b-s symmetry so the
    only quadrature singularity sits at the graded end of the mesh.
    """
    if b <= 0.0:
        raise DomainError(f"horizon must be positive, got {b}")
    check_weighting(alpha, weighting)
    s, wq = _point_kernel_mesh(0.0, 0.5 * b, alpha)
    fjl, fkl = response_matrix(alpha, [lambda_j, lambda_k], s)
    fjr, fkr = response_matrix(alpha, [lambda_j, lambda_k], b - s)
    w = np.ones_like(s)
    if weighting == WEIGHTING_COMPENSATED:
        w = (s * (b - s)) ** (1.0 - alpha)
    return float(np.sum(wq * w * (fjl * fkr + fjr * fkl)))


def response_gram_weight(
    alpha: float,
    lambda_j: float,
    lambda_k: float,
    b: float,
    weighting: str = WEIGHTING_NONE,
) -> float:
    """Same-time product integral of two mode responses over [0, b].

    V = int_0^b w(s) s**(a-1) E_{a,a}(lam_j s**a) s**(a-1)
        E_{a,a}(lam_k s**a) ds,
    w = 1 (`none`) or w = s**(2(1-a)) (`compensated`).  This is the kernel of
    the output-energy quadratic form int_0^b w ||z||**2 dt.
    """
    if b <= 0.0:
        raise DomainError(f"horizon must be positive, got {b}")
    check_weighting(alpha, weighting)
    nodes, wq = _point_kernel_mesh(0.0, b, alpha)
    fj, fk = response_matrix(alpha, [lambda_j, lambda_k], nodes)
    w = np.ones_like(nodes)
    if weighting == WEIGHTING_COMPENSATED:
        w = nodes ** (2.0 * (1.0 - alpha))
    return float(np.sum(wq * w * fj * fk))


def time_weight(alpha: float, nodes: np.ndarray, weighting: str) -> np.ndarray:
    """Compensation factor w(s) applied to each output sample."""
    check_weighting(alpha, weighting)
    if weighting == WEIGHTING_COMPENSATED:
        return np.asarray(nodes, dtype=float) ** (2.0 * (1.0 - alpha))
    return np.ones_like(np.asarray(nodes, dtype=float))
