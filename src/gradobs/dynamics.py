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
        # each test is stated so that NaN fails it
        if not 0.0 < self.horizon < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if not (nodes.size and np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)):
            raise DomainError("nodes must be strictly increasing and exclude t=0")
        if not (nodes[-1] <= self.horizon and np.all(weights > 0.0)):
            raise DomainError("nodes must lie in (0, b] with positive weights")
        if not abs(float(np.sum(weights)) - self.horizon) <= 1e-12 * max(1.0, self.horizon):
            raise DomainError("weights must sum to the horizon")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def time_grid(alpha: float, horizon: float) -> TimeGrid:
    """The time rule of every command: TIME_PANELS Gauss-Legendre panels on
    (0, b), the left half's edges graded as u**q toward 0, mirrored about b/2."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"fractional order must be in (0, 1], got {alpha}")
    if not 0.0 < horizon < math.inf:  # before numpy meets it in the edges
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
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
    if not 0.0 <= noise_sigma < math.inf:
        raise DomainError(f"noise_sigma must be >= 0 and finite, got {noise_sigma}")
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


def time_weight(alpha: float, nodes: np.ndarray, weighting: str) -> np.ndarray:
    """Compensation factor w(s) applied to each output sample."""
    check_weighting(alpha, weighting)
    if weighting == WEIGHTING_COMPENSATED:
        return np.asarray(nodes, dtype=float) ** (2.0 * (1.0 - alpha))
    return np.ones_like(np.asarray(nodes, dtype=float))
