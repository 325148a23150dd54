"""References the benchmark checks the program's outputs against.

Each is computed outside the timed region and shares no code with gradobs.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def mlf_reference(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) by its power series in mpmath, with the working
    precision raised past the alternating-term peak exp(|z|**(1/alpha))."""
    peak = abs(z) ** (1.0 / alpha) if z < 0.0 else 0.0
    dps = 30 + int(0.4343 * peak)
    with mp.workdps(dps):
        am, bm, zm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        tol = mp.mpf(10) ** (-(dps - 3))
        total = mp.mpf(0)
        power = mp.mpf(1)
        k = 0
        while True:
            term = power * mp.rgamma(am * k + bm)
            total += term
            if k > peak + 2 and abs(term) <= tol * abs(total):
                return float(total)
            power *= zm
            k += 1


def correct_digits(value: float, reference: float) -> float:
    """-log10 of the relative error, capped at 17 for an exact match."""
    err = abs(value - reference)
    if err == 0.0:
        return 17.0
    return -math.log10(err / abs(reference))


def strategic_rule_1d(locations, truncation: int, rel_tol: float) -> bool:
    """Closed-form 1-D rank rule for pointwise sensors at x_i: strategic iff
    for no j <= T the column (j cos(j pi x_i))_i vanishes, relative to the
    largest column norm (the rank tolerance of the test)."""
    j = np.arange(1, truncation + 1, dtype=float)[:, None]
    x = np.asarray(locations, dtype=float)[None, :]
    norms = np.sqrt(np.sum((j * np.cos(j * np.pi * x)) ** 2, axis=1))
    return bool(np.all(norms > rel_tol * np.max(norms)))


def exponential_kernel(eigenvalues: np.ndarray, horizon: float) -> np.ndarray:
    """V[j,k] = int_0^b exp((lam_j + lam_k) s) ds, the integer-order
    (alpha = 1) response kernel in closed form."""
    s = np.add.outer(eigenvalues, eigenvalues)
    return np.expm1(s * horizon) / s
