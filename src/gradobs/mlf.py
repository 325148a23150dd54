"""Two-parameter Mittag-Leffler function and the Wright-type density.

The solution operator of the fractional system only ever needs
``E_{alpha,alpha}`` at real arguments ``z = lambda * t**alpha <= 0``, so the
evaluator is specialized to the real line with ``z <= Z_MAX``:

* power series while the alternating-term peak ``exp(|z|**(1/alpha))`` stays
  within double precision's cancellation budget,
* asymptotic expansion ``-sum z**-k / Gamma(beta - alpha*k)`` once the
  omitted exponentially small part ``exp(-|z|**(1/alpha))`` is negligible,
* in the gap between the two, for 0 < alpha < 1, Gauss-Legendre quadrature
  of the positive-axis Laplace integral (Gorenflo, Loutchko & Luchko 2002)
  in double precision, and for alpha = 1 an extended-precision (mpmath)
  power series.  Orders alpha > 1 are rejected: there the asymptotic
  expansion omits more than ``exp(-|z|**(1/alpha))``.

The density ``psi_alpha`` is the one-sided stable series
``(1/pi) * sum (-1)**(n-1) theta**(-alpha*n-1) Gamma(n*alpha+1)/n! *
sin(n*pi*alpha)`` and ``phi_alpha(theta) =
theta**(-1-1/alpha)/alpha * psi_alpha(theta**(-1/alpha))`` is the Mainardi
density whose moments are ``Gamma(1+nu)/Gamma(1+alpha*nu)``.
"""

from __future__ import annotations

import functools
import math
import warnings

import mpmath as mp
import numpy as np

from .errors import AccuracyError, DomainError
from .spectral import gauss_panels

Z_MAX = 5.0
SERIES_SAFE_NATS = 9.0
ASYMPTOTIC_SAFE_NATS = 34.0
ASYMPTOTIC_TERMS = 400
SERIES_CAP = 4000
THETA_MIN = 0.05
PSI_TERM_CAP = 500
PSI_STOP_REL = 1e-14
# Laplace-integral quadrature (gap branch): 24-point Gauss-Legendre panels,
# graded geometrically in v = r**gamma from 1e-15 up to r = 1 and dyadic in r
# from 1 out to 64, where exp(-r) is far below double precision
LAPLACE_NODES, LAPLACE_WEIGHTS = np.polynomial.legendre.leggauss(24)
LAPLACE_V_EDGES = (0.0,) + tuple(1e-15 * 8.0**k for k in range(17)) + (1.0,)
LAPLACE_R_EDGES = tuple(2.0**k for k in range(7))
# for alpha > 1/2, extra edges at r* +- (1/4, 1, 4, 16, ...) dip half-widths
LAPLACE_DIP_FIRST = 0.25
LAPLACE_DIP_RATIO = 4.0


class AccuracyWarning(UserWarning):
    """Quadrature error estimate exceeded the requested tolerance."""


def rgamma(x: float) -> float:
    """Reciprocal gamma function 1/Gamma(x), zero at the poles."""
    if x > 0.5:
        if x > 170.0:
            return math.exp(-math.lgamma(x))
        return 1.0 / math.gamma(x)
    n = round(x)
    if abs(x - n) < 1e-12 and n <= 0:
        return 0.0
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x) / pi, with 1-x >= 0.5
    s = math.sin(math.pi * x) / math.pi
    lg = math.lgamma(1.0 - x)
    if lg > 700.0:
        return math.copysign(math.inf, s)
    return math.exp(lg) * s


def _mlf_series(alpha: float, beta: float, z: float) -> float:
    """Kahan-compensated power series.

    Safe while the largest term stays below exp(SERIES_SAFE_NATS); the peak
    grows like exp(|z|**(1/alpha)), so the caller gates on that estimate.
    """
    total = rgamma(beta)
    if z == 0.0:
        return total
    comp = 0.0
    log_az = math.log(abs(z))
    for k in range(1, SERIES_CAP + 1):
        mag = math.exp(k * log_az - math.lgamma(alpha * k + beta))
        term = mag if z > 0.0 or k % 2 == 0 else -mag
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if mag <= 1e-16 * abs(total) + 5e-324:
            return total
    raise AccuracyError(
        f"Mittag-Leffler series did not converge for alpha={alpha}, "
        f"beta={beta}, z={z}"
    )


def _mlf_series_mp(alpha: float, beta: float, z: float, peak_nats: float) -> float:
    """Power series in extended precision for the alpha = 1 cancellation gap.

    Only ever called with peak_nats in (SERIES_SAFE_NATS, ASYMPTOTIC_SAFE_NATS),
    so both the precision and the term count stay small.
    """
    dps = 25 + int(0.4343 * peak_nats)
    cap = int(6.0 * peak_nats / alpha) + 100
    with mp.workdps(dps):
        zm = mp.mpf(z)
        # the gamma argument must be formed in working precision: a double-
        # rounded argument perturbs the huge alternating terms enough to
        # wreck their cancellation
        am = mp.mpf(alpha)
        bm = mp.mpf(beta)
        total = mp.mpf(0)
        pw = mp.mpf(1)
        term_tol = mp.mpf(10) ** (-(dps - 5))
        for k in range(cap + 1):
            term = pw * mp.rgamma(am * k + bm)
            total += term
            pw *= zm
            if k > 0 and abs(term) <= term_tol * abs(total):
                return float(total)
    raise AccuracyError(
        f"extended-precision Mittag-Leffler series did not converge for "
        f"alpha={alpha}, beta={beta}, z={z}"
    )


def _sin_pi(t: float) -> float:
    """sin(pi t), accurate relative to its size also next to an integer t."""
    n = round(t)
    s = math.sin(math.pi * (t - n))  # t - n is exact
    return -s if n % 2 else s


def _laplace_integral(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(-x) for 0 < alpha < 1, 0 < beta <= 1 and x > 0.

    Collapsing the Hankel contour of L^{-1}[s**(alpha-beta) / (s**alpha + x)]
    onto the negative axis (no pole on the principal sheet for alpha < 1)
    gives

        (1/pi) int_0^inf exp(-r) r**(alpha-beta)
            [r**alpha sin(pi beta) + x sin(pi (beta-alpha))]
            / ((r**alpha + x cos(pi alpha))**2 + (x sin(pi alpha))**2) dr.

    For beta = alpha the integrand is positive.  For alpha > 1/2 the
    denominator dips to (x sin(pi alpha))**2 at
    r* = (-x cos(pi alpha))**(1/alpha), a peak of relative width
    sin(pi alpha) / (alpha |cos(pi alpha)|) that narrows as alpha -> 1, so
    panel edges cluster there.  Below r = 1 the rule runs in v = r**gamma,
    gamma = 1 + alpha - beta, which absorbs the endpoint factor:
    r**(alpha-beta) dr = dv / gamma.  Above it the rule runs in the offset
    u = r - r*, and r**alpha + x cos(pi alpha) is formed as
    (r* - x) + u + (r**alpha - r) + x (1 + cos(pi alpha)), with every sine
    and 1 + cos reduced to a small argument, so nothing cancels however
    narrow the peak.
    """
    gamma = 1.0 + alpha - beta
    sin_a = _sin_pi(alpha)
    one_plus_cos = 2.0 * math.sin(0.5 * math.pi * (1.0 - alpha)) ** 2
    r_star = 0.0
    dip_offsets = []
    if alpha > 0.5:
        minus_cos = 1.0 - one_plus_cos
        r_star = (x * minus_cos) ** (1.0 / alpha)
        step = LAPLACE_DIP_FIRST * r_star * sin_a / (alpha * minus_cos)
        while step < LAPLACE_R_EDGES[-1]:
            dip_offsets += [-step, step]
            step *= LAPLACE_DIP_RATIO
    v_edges = list(LAPLACE_V_EDGES) + [
        (r_star + u) ** gamma for u in dip_offsets if 0.0 < r_star + u < 1.0]
    u_edges = [r - r_star for r in LAPLACE_R_EDGES] + [
        u for u in dip_offsets if 1.0 < r_star + u < LAPLACE_R_EDGES[-1]]
    v, v_weights = gauss_panels(np.unique(v_edges), LAPLACE_NODES, LAPLACE_WEIGHTS)
    u, u_weights = gauss_panels(np.unique(u_edges), LAPLACE_NODES, LAPLACE_WEIGHTS)
    log_v = np.log(v)
    r_a_lo = np.exp(log_v * (alpha / gamma))
    r_hi = r_star + u
    log_r_hi = np.log(r_hi)
    r = np.concatenate([np.exp(log_v / gamma), r_hi])
    r_a = np.concatenate([r_a_lo, np.exp(alpha * log_r_hi)])
    weights = np.concatenate(
        [v_weights / gamma, u_weights * np.exp((alpha - beta) * log_r_hi)]
    )
    dip = np.concatenate([
        r_a_lo - x,
        (r_star - x) + u + r_hi * np.expm1((alpha - 1.0) * log_r_hi),
    ]) + x * one_plus_cos
    sin_b = _sin_pi(beta)
    # the bracket's two terms cancel near the dip as alpha -> 1, so there it
    # is regrouped as sin(pi beta) dip - x cos(pi beta) sin(pi alpha)
    numer = np.where(
        2.0 * r_a < x,
        r_a * sin_b + x * _sin_pi(beta - alpha),
        dip * sin_b - x * _sin_pi(0.5 - beta) * sin_a,
    )
    denom = dip**2 + (x * sin_a) ** 2
    return float(np.sum(weights * np.exp(-r) * numer / denom)) / math.pi


def _mlf_laplace(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for 0 < alpha < 1 and z < -1 via the Laplace integral.

    beta > 1 is first lowered to beta <= 1 by the recurrence
    E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, which divides by |z| > 1
    and cancels nothing.  Stopping anywhere below 1 + alpha instead could
    leave gamma = 1 + alpha - beta near zero, which the quadrature cannot
    resolve.
    """
    steps = max(0, math.ceil((beta - 1.0) / alpha))
    value = _laplace_integral(alpha, beta - steps * alpha, -z)
    for k in range(steps, 0, -1):
        value = (value - rgamma(beta - k * alpha)) / z
    return value


def _mlf_asymptotic(alpha: float, beta: float, z: float) -> float:
    """Asymptotic expansion for large negative z, truncated at the smallest term."""
    total = 0.0
    log_az = math.log(-z)
    best_env = math.inf
    for k in range(1, ASYMPTOTIC_TERMS + 1):
        if k * log_az > 700.0:
            break
        # |1/Gamma(beta-alpha*k)| = Gamma(1-beta+alpha*k)|sin(pi(beta-alpha*k))|/pi;
        # the sine factor makes raw term magnitudes non-monotone, so both the
        # divergence break and the smallness stop watch the sine-free envelope.
        # The envelope is only meaningful once its gamma argument clears the
        # pole strip (near a pole of the numerator gamma the sine vanishes
        # simultaneously and the actual coefficient stays finite).
        total += -rgamma(beta - alpha * k) / z**k
        arg = alpha * k + 1.0 - beta
        if arg >= 2.0:
            log_env = math.lgamma(arg) - k * log_az - math.log(math.pi)
            if log_env > best_env + 1.0:
                break
            best_env = min(best_env, log_env)
            if log_env < -40.0:
                break
    return total


def mlf(alpha: float, beta: float, z: float) -> float:
    """Evaluate E_{alpha,beta}(z) on the real line, z <= Z_MAX, 0 < alpha <= 1."""
    if not (0.0 < alpha <= 1.0 and beta > 0.0):
        raise DomainError(f"Mittag-Leffler parameters need 0 < alpha <= 1 and "
                          f"beta > 0, got alpha={alpha}, beta={beta}")
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got {z}")
    if z > Z_MAX:
        raise DomainError(f"argument {z} exceeds the supported maximum {Z_MAX}")
    if alpha == 1.0 and beta == 1.0:
        # exact limit; the asymptotic branch would drop this exponentially
        # small tail entirely (every 1/Gamma(1-k) term vanishes)
        return math.exp(z)
    if z >= -1.0:
        return _mlf_series(alpha, beta, z)
    # the alternating series cancels through a peak of ~|z|**(1/alpha) nats
    log_peak = math.log(-z) / alpha
    peak_nats = math.exp(log_peak) if log_peak < 700.0 else math.inf
    if peak_nats <= SERIES_SAFE_NATS:
        return _mlf_series(alpha, beta, z)
    if peak_nats >= ASYMPTOTIC_SAFE_NATS:
        # the omitted exponentially small part is exp(-peak_nats) <= 2e-15
        return _mlf_asymptotic(alpha, beta, z)
    if alpha < 1.0:
        return _mlf_laplace(alpha, beta, z)
    return _mlf_series_mp(alpha, beta, z, peak_nats)


def _psi_series(alpha: float, theta: float) -> tuple[float, float, bool]:
    """Stable-density series with a rounding-error estimate.

    Returns (value, absolute error estimate, converged flag).
    """
    log_theta = math.log(theta)
    total = 0.0
    comp = 0.0
    max_mag = 0.0
    for n in range(1, PSI_TERM_CAP + 1):
        log_mag = (-alpha * n - 1.0) * log_theta + math.lgamma(n * alpha + 1.0) \
            - math.lgamma(n + 1.0)
        if log_mag > 690.0:
            return 0.0, math.inf, False
        mag = math.exp(log_mag) / math.pi
        max_mag = max(max_mag, mag)
        term = mag * math.sin(n * math.pi * alpha)
        if n % 2 == 0:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # the sine factor vanishes on a sublattice for rational alpha, so the
        # stopping rule watches the term envelope rather than the term itself
        if mag < PSI_STOP_REL * abs(total):
            return total, max_mag * n * 1e-17, True
    return total, math.inf, False


def wright_psi(alpha: float, theta: float) -> float:
    """One-sided stable density psi_alpha(theta) by its inverse-power series."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"wright_psi requires alpha in (0, 1), got {alpha}")
    if theta < THETA_MIN:
        raise DomainError(
            f"theta={theta} below the supported minimum {THETA_MIN} "
            "(series too slowly convergent)"
        )
    value, err, converged = _psi_series(alpha, theta)
    if converged and err <= 1e-12 * max(abs(value), 1e-10):
        return value
    # Near the small-theta boundary the alternating terms cancel past double
    # precision.  The density decays like exp(-B * theta**(-a/(1-a))) there,
    # which fixes both an underflow clamp and the absolute target for an
    # extended-precision rerun of the same series.
    decay_nats = (
        (1.0 - alpha)
        * alpha ** (alpha / (1.0 - alpha))
        * theta ** (-alpha / (1.0 - alpha))
    )
    if decay_nats > 575.0:
        return 0.0  # below ~1e-250: vanishes at double precision
    return _psi_mp(alpha, theta, math.exp(-(decay_nats + 65.0)))


def phi_alpha(alpha: float, theta: float) -> float:
    """Mainardi density phi_alpha(theta) via the psi composition."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"phi_alpha requires alpha in (0, 1), got {alpha}")
    if theta <= 0.0:
        raise DomainError(f"phi_alpha requires theta > 0, got {theta}")
    arg = theta ** (-1.0 / alpha)
    return theta ** (-1.0 - 1.0 / alpha) / alpha * wright_psi(alpha, arg)


def _mainardi_mp(alpha: float, z: float, abs_tol: float = 0.0) -> float:
    """Mainardi series sum (-z)**k / (k! Gamma(1 - alpha - alpha*k)) in mpmath."""
    if z <= 0.0:
        return rgamma(1.0 - alpha)
    # largest-term estimate drives the working precision
    k_peak = max(1.0, (z * alpha**alpha) ** (1.0 / (1.0 - alpha)))
    peak_nats = k_peak * (1.0 - alpha)
    if abs_tol > 0.0:
        target_nats = -math.log(abs_tol)
    else:
        # full relative accuracy of the ~exp(-peak_nats) sized result
        target_nats = peak_nats + 34.0
    # precision must absorb the ~exp(peak_nats) term growth on top of the target
    dps = int(0.4343 * (peak_nats + target_nats)) + 8
    # truncation index from the double-precision term envelope
    log_z = math.log(z)
    cap = int(5 * k_peak) + 200
    k_stop = cap
    for k in range(int(k_peak) + 1, cap):
        env = k * log_z - math.lgamma(k + 1.0) + math.lgamma(alpha * (k + 1) + 1.0)
        if env < -target_nats - 2.3:
            k_stop = k
            break
    with mp.workdps(dps):
        zm = mp.mpf(z)
        am = mp.mpf(alpha)
        total = mp.mpf(0)
        pw = mp.mpf(1)
        for k in range(k_stop + 1):
            if k:
                pw = pw * (-zm) / k
            # the rgamma argument must be formed in working precision: a
            # double-rounded argument shifts sin(pi*x) enough to wreck the
            # cancellation of the ~exp(peak_nats) peak terms
            total += pw * mp.rgamma(1 - am * (k + 1))
        return float(total)


def _psi_mp(alpha: float, u: float, abs_tol: float) -> float:
    """Extended-precision stable-density series for arguments below 1.

    Much better conditioned than the Mainardi series at the same point: the
    largest term grows like exp((1-alpha)*u**(-alpha/(1-alpha))) instead of
    exp((1-alpha)*(alpha**alpha*u**-alpha)**(1/(1-alpha))).
    """
    log_u = math.log(u)
    target_nats = -math.log(abs_tol)
    # double-precision envelope scan fixes the peak size and truncation index
    peak = 0.0
    n_stop = 0
    for n in range(1, 100000):
        env = (-alpha * n - 1.0) * log_u + math.lgamma(n * alpha + 1.0) \
            - math.lgamma(n + 1.0)
        peak = max(peak, env)
        if env < peak and env < -target_nats - 2.3:
            n_stop = n
            break
    else:
        raise AccuracyError(
            f"extended-precision psi series too long for alpha={alpha}, u={u}"
        )
    dps = int(0.4343 * (peak + target_nats)) + 8
    with mp.workdps(dps):
        am = mp.mpf(alpha)
        um = mp.mpf(u)
        pi = mp.pi
        step = um**(-am)
        pw = 1 / um
        fact = mp.mpf(1)
        total = mp.mpf(0)
        for n in range(1, n_stop + 1):
            pw = pw * step
            fact = fact * n
            term = pw * mp.gamma(n * am + 1) / fact * mp.sin(n * pi * am)
            total += -term if n % 2 == 0 else term
        return float(total / pi)


def phi_density(alpha: float, theta: float, abs_tol: float = 0.0) -> float:
    """phi_alpha evaluated on all of (0, inf), switching series as needed.

    The composition route is used whenever the stable series' tracked rounding
    error meets the accuracy target; deep in the tail, where its alternating
    terms cancel catastrophically, the extended-precision Mainardi series
    takes over.  ``abs_tol`` relaxes the target to an absolute one, which
    keeps tail evaluations cheap inside quadratures.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"phi_density requires alpha in (0, 1), got {alpha}")
    if theta < 0.0:
        raise DomainError(f"phi_density requires theta >= 0, got {theta}")
    if theta == 0.0:
        return rgamma(1.0 - alpha)
    prefactor = theta ** (-1.0 - 1.0 / alpha) / alpha
    u = theta ** (-1.0 / alpha)
    value, err, converged = _psi_series(alpha, u)
    if converged and prefactor * err <= max(abs_tol, 5e-15 * prefactor * abs(value)):
        return prefactor * value
    if abs_tol > 0.0 and u < 1.0:
        return prefactor * _psi_mp(alpha, u, min(1e-3, abs_tol / prefactor))
    return _mainardi_mp(alpha, theta, abs_tol)


@functools.lru_cache(maxsize=8192)
def _phi_moment(alpha: float, theta: float) -> float:
    """Cached density evaluation for the moment quadratures."""
    return phi_density(alpha, theta, abs_tol=1e-11)


def moment_check(alpha: float, nu: float) -> float:
    """Quadrature of the nu-th moment of phi_alpha, for comparison against
    Gamma(1+nu)/Gamma(1+alpha*nu)."""
    if not (0.0 <= nu <= 4.0):
        raise DomainError(f"moment order must be in [0, 4], got {nu}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"moment_check requires alpha in (0, 1), got {alpha}")

    def integrand(theta: float) -> float:
        if theta == 0.0:
            return 0.0 if nu > 0.0 else phi_density(alpha, 0.0)
        return theta**nu * _phi_moment(alpha, theta)

    # the cut covers every admissible moment order (theta**4 envelope), so the
    # node set depends only on alpha and cached density values are shared
    # across successive moment orders
    cut = 1.0
    while cut < 60.0 and cut**4 * _phi_moment(alpha, cut) > 1e-16:
        cut += 1.0

    def quad(panels: int) -> float:
        total = 0.0
        for x, w in zip(*gauss_panels(np.linspace(0.0, cut, panels + 1))):
            total += w * integrand(x)
        return total

    coarse = quad(10)
    fine = quad(20)
    if abs(fine - coarse) > 1e-4:
        warnings.warn(
            f"moment quadrature error estimate {abs(fine - coarse):.2e} exceeds 1e-4",
            AccuracyWarning,
            stacklevel=2,
        )
    return fine
