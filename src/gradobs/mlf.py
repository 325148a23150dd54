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

Calls share (alpha, beta): a response matrix makes thousands at one pair.
So the series' ``lgamma(alpha*k + beta)`` and the asymptotic coefficients
``-1/Gamma(beta - alpha*k)`` (for beta = alpha reflected about the exact
pole offset (k-1)(1-alpha)) with their envelopes ``lgamma(alpha*k + 1 -
beta)`` live in per-(alpha, beta) tables behind a bounded LRU cache.  Each
table grows on demand up to the largest k a call has reached.  The loops
read the same values in the same order, so every series and asymptotic
result is bit-for-bit the one a table-free evaluation gives.

The gap band at beta = alpha, the pair a response matrix evaluates in
bulk, reads a per-alpha Chebyshev interpolant of
``log((1+x)**2 E_{alpha,alpha}(-x))`` instead, built once from Laplace-
integral samples behind a second bounded LRU cache and summed by Clenshaw's
recurrence.  It is a fixed function of alpha, so a value does not depend on
which calls built its table; it stays within 7e-15 relative of a 30-digit
power series for alpha from 0.05 to 1 - 1e-10 (the test suite's frozen
table).  Every other beta in the gap integrates per call.

The one-sided stable density ``psi_alpha`` and the Mainardi density
``phi_alpha(theta) = theta**(-1-1/alpha)/alpha * psi_alpha(theta**(-1/alpha))``,
whose moments are ``Gamma(1+nu)/Gamma(1+alpha*nu)``, both come from one
double-precision quadrature of Kanter's positive integral over (0, pi),
split at the integrand's peak (Nolan 1997): no series and no mpmath, with
full relative accuracy deep into either tail.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import AccuracyError, DomainError
from .spectral import gauss_panels

Z_MAX = 5.0
# the gap branch lowers beta by the recurrence E_{a,b} = (E_{a,b-a} -
# 1/Gamma(b-a)) / z, which cancels for large beta: up to 20 every branch
# keeps 5e-13 relative error, at beta = 50 the gap branch was off by 3e-2
# to 5e3 relative
BETA_MAX = 20.0
SERIES_SAFE_NATS = 9.0
ASYMPTOTIC_SAFE_NATS = 34.0
ASYMPTOTIC_TERMS = 400
SERIES_CAP = 4000
THETA_MIN = 0.05
TERM_TABLES = 16  # (alpha, beta) pairs whose term tables are kept
# gap-band table of E_{alpha,alpha}: Chebyshev degrees doubled from the first
# up to the largest, until every coefficient of the top quarter is below tol
GAP_TABLE_FIRST_DEGREE = 16
GAP_TABLE_MAX_DEGREE = 512
GAP_TABLE_TOL = 1e-15
LOG_PI = math.log(math.pi)
PHI_THETA_ZERO = 1e-250
# Laplace-integral quadrature (gap branch): 24-point Gauss-Legendre panels,
# graded geometrically in v = r**gamma from 1e-15 up to r = 1 and dyadic in r
# from 1 out to 64, where exp(-r) is far below double precision
LAPLACE_NODES, LAPLACE_WEIGHTS = np.polynomial.legendre.leggauss(24)
LAPLACE_V_EDGES = (0.0,) + tuple(1e-15 * 8.0**k for k in range(17)) + (1.0,)
LAPLACE_R_EDGES = tuple(2.0**k for k in range(7))
# for alpha > 1/2, extra edges at r* +- (1/4, 1, 4, 16, ...) dip half-widths
LAPLACE_DIP_FIRST = 0.25
LAPLACE_DIP_RATIO = 4.0
# Kanter-integral quadrature (density) on the same 24-point panels
KANTER_PEAK_STEP = 1e-9
KANTER_FLOOR = 1e-15
KANTER_BISECTIONS = 60
KANTER_LOG_W_MIN = -665.0  # peak offsets from pi below exp(-665) are clamped
KANTER_LOG_U_MAX = math.log(750.0)  # X A(0+) beyond: exp(-X A) underflows


class AccuracyWarning(UserWarning):
    """Quadrature error estimate exceeded the requested tolerance."""


def rgamma(x: float) -> float:
    """Reciprocal gamma function 1/Gamma(x), zero exactly at the poles."""
    if x > 0.5:
        if x > 170.0:
            return math.exp(-math.lgamma(x))
        return 1.0 / math.gamma(x)
    if x == round(x):
        return 0.0
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x) / pi, with 1-x >= 0.5
    s = _sin_pi(x) / math.pi
    lg = math.lgamma(1.0 - x)
    if lg > 700.0:
        return math.copysign(math.inf, s)
    return math.exp(lg) * s


@functools.lru_cache(maxsize=TERM_TABLES)
def _terms(alpha: float, beta: float) -> tuple[list, list]:
    """The per-(alpha, beta) tables behind the series and asymptotic loops.

    The first holds lgamma(alpha*k + beta), the second the pairs
    (-1/Gamma(beta - alpha*k), lgamma(alpha*k + 1 - beta) or None below 2),
    at index k - 1.  Both start empty and the loops fill them up to the
    largest k any call has reached, so every value is the one the loop would
    compute itself.  An entry is stored by slice assignment at its own index:
    two threads filling the same entry store the same value once.
    """
    return [], []


def _mlf_series(alpha: float, beta: float, z: float) -> float:
    """Kahan-compensated power series.

    Safe while the largest term stays below exp(SERIES_SAFE_NATS); the peak
    grows like exp(|z|**(1/alpha)), so the caller gates on that estimate.
    """
    total = rgamma(beta)
    if z == 0.0:
        return total
    lgammas = _terms(alpha, beta)[0]
    comp = 0.0
    log_az = math.log(abs(z))
    filled = len(lgammas)
    for k in range(1, SERIES_CAP + 1):
        if k > filled:
            lgammas[k - 1:k] = [math.lgamma(alpha * k + beta)]
            filled = k
        log_mag = k * log_az - lgammas[k - 1]
        mag = math.exp(log_mag) if log_mag < 709.7 else math.inf
        term = mag if z > 0.0 or k % 2 == 0 else -mag
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if mag <= 1e-16 * abs(total) + 5e-324:
            if math.isinf(total):
                raise DomainError(
                    f"E_{{alpha,beta}}(z) overflows double precision for "
                    f"alpha={alpha}, beta={beta}, z={z}"
                )
            return total
    raise AccuracyError(
        f"Mittag-Leffler series did not converge for alpha={alpha}, "
        f"beta={beta}, z={z}"
    )


def _mlf_series_mp(alpha: float, beta: float, z: float, peak_nats: float) -> float:
    """Power series in extended precision for the alpha = 1 cancellation gap.

    Only ever called with peak_nats in (SERIES_SAFE_NATS, ASYMPTOTIC_SAFE_NATS),
    so both the precision and the term count stay small.  mpmath is imported
    here, its only use, so importing gradobs does not load it.
    """
    import mpmath as mp

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


@functools.lru_cache(maxsize=TERM_TABLES)
def _gap_table(alpha: float) -> tuple[float, float, list] | None:
    """Chebyshev interpolant of log((1+x)**2 E_{alpha,alpha}(-x)) on the gap
    band x in [9**alpha, 34**alpha], for 0 < alpha < 1.

    E_{alpha,alpha}(-x) is positive, so its log is smooth and an absolute
    error there is a relative one in E; the (1+x)**2 factor takes out the
    x**-2 decay.  The samples are `_laplace_integral` values at Chebyshev-
    Lobatto points; the degree doubles from GAP_TABLE_FIRST_DEGREE, reusing
    every sample, until the top quarter of the coefficients is below
    GAP_TABLE_TOL (Battles & Trefethen, SISC 25, 2004), and the trailing
    coefficients below it are dropped.  Returns the band's centre, its half-
    width and the coefficients from the highest degree down, or None when
    GAP_TABLE_MAX_DEGREE does not resolve the band (the gap branch then
    integrates per call).
    """
    lo = SERIES_SAFE_NATS**alpha
    hi = ASYMPTOTIC_SAFE_NATS**alpha
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def log_samples(k, n):  # at the Lobatto points cos(pi k / n)
        return [math.log((1.0 + x) ** 2 * _laplace_integral(alpha, alpha, x))
                for x in (mid + half * np.cos(np.pi * k / n)).tolist()]

    n = GAP_TABLE_FIRST_DEGREE
    values = np.array(log_samples(np.arange(n + 1), n))
    while True:
        # DCT-I of the samples, from the FFT of their even extension (a
        # cosine-matrix product instead loses a digit next to alpha = 1)
        coeffs = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / n
        coeffs[[0, n]] *= 0.5
        if np.max(np.abs(coeffs[-(n // 4):])) < GAP_TABLE_TOL:
            kept = np.flatnonzero(np.abs(coeffs) >= GAP_TABLE_TOL)
            return mid, half, coeffs[:max(kept, default=0) + 1][::-1].tolist()
        if n >= GAP_TABLE_MAX_DEGREE:
            return None
        refined = np.empty(2 * n + 1)
        refined[0::2] = values
        refined[1::2] = log_samples(np.arange(1, 2 * n, 2), 2 * n)
        values, n = refined, 2 * n


def _mlf_gap_table(table: tuple[float, float, list], x: float) -> float:
    """E_{alpha,alpha}(-x) from its `_gap_table`, by Clenshaw's recurrence."""
    mid, half, coeffs = table
    t = (x - mid) / half
    t2 = t + t
    b1 = b2 = 0.0
    for c in coeffs[:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return math.exp(coeffs[-1] + t * b1 - b2) / ((1.0 + x) * (1.0 + x))


def _mlf_asymptotic(alpha: float, beta: float, z: float) -> float:
    """Asymptotic expansion for large negative z, truncated at the smallest term."""
    terms = _terms(alpha, beta)[1]
    total = 0.0
    log_az = math.log(-z)
    best_env = math.inf
    filled = len(terms)
    for k in range(1, ASYMPTOTIC_TERMS + 1):
        if k * log_az > 700.0:
            break
        # |1/Gamma(beta-alpha*k)| = Gamma(1-beta+alpha*k)|sin(pi(beta-alpha*k))|/pi;
        # the sine factor makes raw term magnitudes non-monotone, so both the
        # divergence break and the smallness stop watch the sine-free envelope.
        # The envelope is only meaningful once its gamma argument clears the
        # pole strip (near a pole of the numerator gamma the sine vanishes
        # simultaneously and the actual coefficient stays finite).
        if k > filled:
            arg = alpha * k + 1.0 - beta
            # beta = alpha: reflect about the exact pole offset (k-1)(1-alpha)
            coef = -rgamma(beta - alpha * k) if beta != alpha else (
                (-1) ** k * _sin_pi((k - 1) * (1.0 - alpha)) / math.pi
                * math.exp(math.lgamma(arg)))
            terms[k - 1:k] = [(coef, math.lgamma(arg) if arg >= 2.0 else None)]
            filled = k
        coef, lgamma_arg = terms[k - 1]
        total += coef / z**k
        if lgamma_arg is not None:
            log_env = lgamma_arg - k * log_az - LOG_PI
            if log_env > best_env + 1.0:
                break
            if log_env < best_env:
                best_env = log_env
            if log_env < -40.0:
                break
    return total


def mlf(alpha: float, beta: float, z: float) -> float:
    """Evaluate E_{alpha,beta}(z) on the real line, z <= Z_MAX, 0 < alpha <= 1,
    0 < beta <= BETA_MAX."""
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= BETA_MAX):
        raise DomainError(f"Mittag-Leffler parameters need 0 < alpha <= 1 and "
                          f"0 < beta <= {BETA_MAX}, got alpha={alpha}, beta={beta}")
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
        table = _gap_table(alpha) if beta == alpha else None
        if table is not None:
            return _mlf_gap_table(table, -z)
        return _mlf_laplace(alpha, beta, z)
    return _mlf_series_mp(alpha, beta, z, peak_nats)


def _kanter_shift(alpha: float, phi, w):
    """log(A(phi) / A(0+)), from phi and its offset w = pi - phi.

    Each sine takes the smaller of x and pi - x, formed from phi or from w,
    and is divided by its leading term: the logs of phi then cancel exactly,
    since alpha + (1-alpha) - 1 = 0, and nothing is lost next to 0 or pi."""
    c = 1.0 - alpha
    a = np.sin(np.minimum(alpha * phi, c * np.pi + alpha * w)) / (alpha * phi)
    b = np.sin(np.minimum(c * phi, alpha * np.pi + c * w)) / (c * phi)
    return (alpha * np.log(a) + c * np.log(b)
            - np.log(np.sin(np.minimum(phi, w)) / phi)) / c


def _kanter_integral(alpha: float, base: float, power: float) -> float:
    """int_0^pi X A(phi) exp(-X A(phi)) dphi for X = base**power, where
    A(phi) = [sin(alpha phi)**alpha sin((1-alpha) phi)**(1-alpha)
    / sin(phi)]**(1/(1-alpha)) is Kanter's function (Ann. Probab. 3, 1975).

    A increases from A(0+) = alpha**(alpha/(1-alpha)) (1-alpha) to +inf at
    pi, so the positive integrand peaks once, where X A(phi*) = 1 (found by
    bisection in log w, w = pi - phi), or at phi* = 0 when X A(0+) >= 1.
    The rule runs in phi on [0, pi/2] and in w on [0, pi/2].  Panel edges
    sit at the peak +- pi / 2**k down to KANTER_PEAK_STEP, and grade by 4**k
    from pi/2 toward pi, where A blows up, down to KANTER_FLOOR; both floors
    are in units of w* when the peak lies closer than 1 to pi.  Below pi/2,
    X A is u0 A / A(0+) with u0 = X A(0+) from a power, so a deep tail
    exp(-u0) keeps its relative accuracy.
    """
    c = 1.0 - alpha
    log_u0 = power * math.log(base) + (alpha * math.log(alpha) + c * math.log(c)) / c
    if log_u0 > KANTER_LOG_U_MAX:
        return 0.0  # exp(-X A) underflows on all of (0, pi)
    u0 = base**power * alpha ** (alpha / c) * c
    lo, hi = KANTER_LOG_W_MIN, math.log(math.pi)
    for _ in range(KANTER_BISECTIONS):  # log w* where X A(pi - w*) = 1
        mid = 0.5 * (lo + hi)
        w_mid = math.exp(mid)
        if log_u0 + _kanter_shift(alpha, math.pi - w_mid, w_mid) > 0.0:
            lo = mid
        else:
            hi = mid
    w_star = math.exp(0.5 * (lo + hi))
    phi_star = math.pi - w_star
    half = 0.5 * math.pi
    scale = min(1.0, w_star)
    steps = math.pi * 0.5 ** np.arange(
        math.ceil(math.log2(math.pi / (KANTER_PEAK_STEP * scale))) + 1)
    steps = np.append(-steps, steps)
    grading = half * 0.25 ** np.arange(
        math.ceil(math.log(half / (KANTER_FLOOR * scale), 4.0)) + 1)
    (phi, phi_weights), (w, w_weights) = (
        gauss_panels(np.unique(np.append(e[(e > 0.0) & (e < half)], [0.0, half])),
                     LAPLACE_NODES, LAPLACE_WEIGHTS)
        for e in (phi_star + steps, np.append(w_star - steps, grading)))
    shift = _kanter_shift(alpha, np.append(phi, np.pi - w), np.append(np.pi - phi, w))
    y = log_u0 + shift
    with np.errstate(over="ignore"):  # X A = inf gives exp(-inf) = 0
        u = np.append(u0 * np.exp(shift[:phi.size]), np.exp(y[phi.size:]))
    return float(np.append(phi_weights, w_weights) @ np.exp(y - u))


def wright_psi(alpha: float, theta: float) -> float:
    """One-sided stable density psi_alpha(theta) by Kanter's integral,
    psi = alpha / (pi (1-alpha) theta) * I(theta**(-alpha/(1-alpha)))."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"wright_psi requires alpha in (0, 1), got {alpha}")
    if theta < THETA_MIN:
        raise DomainError(f"theta={theta} below the supported minimum {THETA_MIN}")
    c = 1.0 - alpha
    return alpha * _kanter_integral(alpha, theta, -alpha / c) / (math.pi * c * theta)


def phi_density(alpha: float, theta: float) -> float:
    """phi_alpha on all of [0, inf) by Kanter's integral,
    phi = I(theta**(1/(1-alpha))) / (pi (1-alpha) theta)."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"phi_density requires alpha in (0, 1), got {alpha}")
    if theta < 0.0:
        raise DomainError(f"phi_density requires theta >= 0, got {theta}")
    if theta < PHI_THETA_ZERO:
        # phi(theta) = phi(0) - theta / Gamma(1 - 2 alpha) + ...: the first
        # correction is far below double precision
        return rgamma(1.0 - alpha)
    c = 1.0 - alpha
    return _kanter_integral(alpha, theta, 1.0 / c) / (math.pi * c * theta)


# cached density evaluations for the moment quadratures
_phi_moment = functools.lru_cache(maxsize=8192)(phi_density)


def moment_check(alpha: float, nu: float) -> float:
    """Quadrature of the nu-th moment of phi_alpha, for comparison against
    Gamma(1+nu)/Gamma(1+alpha*nu)."""
    if not (0.0 <= nu <= 4.0):
        raise DomainError(f"moment order must be in [0, 4], got {nu}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"moment_check requires alpha in (0, 1), got {alpha}")

    # the cut covers every admissible moment order (theta**4 envelope), so the
    # node set depends only on alpha and cached density values are shared
    # across successive moment orders
    cut = 1.0
    while cut < 60.0 and cut**4 * _phi_moment(alpha, cut) > 1e-16:
        cut += 1.0

    def quad(panels: int) -> float:
        total = 0.0
        for x, w in zip(*gauss_panels(np.linspace(0.0, cut, panels + 1))):
            total += w * x**nu * _phi_moment(alpha, x)
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
