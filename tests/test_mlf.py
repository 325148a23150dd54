"""Mittag-Leffler evaluator and Wright-type density tests.

The reference values below were generated independently with mpmath at 50
significant digits via the inverse-Laplace representation
E_{a,b}(-x) = L^{-1}[s^(a-b) / (s^a + x)](1) (Talbot contour, degree 80).
The branch tests compute theirs in the test with `_mp_series`.
"""

import math
import random
import sys
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradobs.mlf as mlf_module
from gradobs.errors import DomainError
from gradobs.mlf import (
    BETA_MAX,
    THETA_MIN,
    mlf,
    moment_check,
    phi_density,
    rgamma,
    wright_psi,
)

# (alpha, beta, z, reference value); spans the power-series, extended-
# precision and asymptotic branches of the evaluator.
MLF_ORACLE = [
    (0.6, 0.6, -2.0, 0.064794543691715564),
    (0.6, 0.6, -15.0, 0.0012559189916879758),
    (0.75, 0.75, -9.869604401089358, 0.0026180568518323588),
    (0.9, 0.9, -39.47841760435743, 6.62863562200634e-5),
    (0.5, 1.0, -1.0, 0.427583576155807),
    (0.7, 0.7, -11.96, 0.0018612182298984148),
    (0.4, 1.3, -7.5, 0.11505251430556516),
    (0.8, 1.0, -25.0, 0.0091709970964705297),
    (1.0, 1.0, -30.0, 9.3576229688401746e-14),
    (0.55, 0.9, -18.0, 0.022311496713496242),
    # cancellation-gap cases: |z|**(1/alpha) in (9, 34) nats
    (0.5, 0.5, -5.0, 0.010666394882413155),
    (0.8, 0.8, -12.0, 0.001509159922538111),
    (0.65, 1.0, -8.0, 0.052490523697224753),
]


@pytest.mark.parametrize("alpha,beta,z,expected", MLF_ORACLE)
def test_mlf_against_inverse_laplace_oracle(alpha, beta, z, expected):
    value = mlf(alpha, beta, z)
    assert value == pytest.approx(expected, rel=5e-12, abs=0.0)


def _mp_series(alpha, beta, z, dps=None):
    """E_{alpha,beta}(z) by its power series in mpmath, with the working
    precision raised past the alternating-term peak exp(|z|**(1/alpha))
    unless dps is given."""
    peak = abs(z) ** (1.0 / alpha)
    if dps is None:
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


def _at_peak_nats(alpha, peak_nats):
    """The negative argument whose alternating-series peak is peak_nats."""
    return -(peak_nats**alpha)


@pytest.mark.parametrize(
    "alpha", [0.05, 0.35, 0.5, 0.75, 0.9, 0.97, 0.999, 1.0 - 1e-6, 1.0 - 1e-10]
)
def test_gap_branch_against_mp_series(alpha):
    # beta > 1 runs the downward recurrence, alpha >= 0.97 the panels
    # clustered at the denominator's dip; next to alpha = 1 the dip is only
    # ~pi (1 - alpha) r* wide, and forming sin(pi alpha) or r**alpha - x
    # naively there loses ~-log10(1 - alpha) digits
    assert mlf_module.SERIES_SAFE_NATS < 9.01
    assert 33.99 < mlf_module.ASYMPTOTIC_SAFE_NATS
    for beta in (alpha, 0.3, 1.0, 1.0 + alpha, 2.5):
        for peak_nats in (9.01, 15.0, 25.0, 33.99):
            z = _at_peak_nats(alpha, peak_nats)
            assert mlf(alpha, beta, z) == pytest.approx(
                _mp_series(alpha, beta, z), rel=5e-12, abs=0.0
            ), (beta, peak_nats)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 0.97, 0.99])
def test_branch_seams_against_mp_series(alpha):
    # each side is held to what its method meets: the double-precision
    # series just below the lower seam and the asymptotic expansion just
    # above the upper one are the weakest; at peak 1 nat (z = -1) the series
    # moves from its z >= -1 early return to the peak gate
    lower = mlf_module.SERIES_SAFE_NATS
    upper = mlf_module.ASYMPTOTIC_SAFE_NATS
    for peak_nats, rel in [
        (1.0 - 1e-9, 1e-13),
        (1.0 + 1e-9, 1e-13),
        (lower * (1.0 - 1e-9), 1e-8),
        (lower * (1.0 + 1e-9), 5e-12),
        (upper * (1.0 - 1e-9), 5e-12),
        (upper * (1.0 + 1e-9), 1e-9),
    ]:
        z = _at_peak_nats(alpha, peak_nats)
        assert mlf(alpha, alpha, z) == pytest.approx(
            _mp_series(alpha, alpha, z), rel=rel, abs=0.0
        ), peak_nats


@pytest.mark.parametrize(
    "alpha,rel", [(1.0 - 1e-12, 5e-5), (1.0 - 1e-10, 5e-8), (1.0 - 1e-9, 3e-8),
                  (1.0 - 1e-7, 2e-10)]
)
def test_asymptotic_branch_next_to_integer_order(alpha, rel):
    # the coefficients 1/Gamma(alpha - alpha k) lie (k-1)(1-alpha) from a
    # pole.  rgamma used to return 0 within 1e-12 of a pole and to reflect
    # through sin(pi x) with pi rounded, which left 0.92, 6e-7, 9e-8 and
    # 7e-10 relative error at these alphas.  The coefficients are now
    # reflected about that offset (see the test below); what remains at
    # x = 49 is the exponentially small part the expansion drops, ~exp(-49)
    # absolute
    for x in (49.0, 100.0):
        assert mlf(alpha, alpha, -x) == pytest.approx(
            _mp_series(alpha, alpha, -x, dps=120), rel=rel, abs=0.0
        ), x


@pytest.mark.parametrize("alpha", [1.0 - 1e-12, 1.0 - 1e-7])
def test_asymptotic_coefficients_from_the_exact_pole_offset(alpha):
    # with beta = alpha the k-th coefficient -1/Gamma(alpha - alpha k) sits
    # (k-1)(1-alpha) from a pole; reflected about that offset, formed
    # without the rounding of alpha k, it keeps full relative accuracy
    # (4.3e-6 and 4.3e-11 relative error when taken from alpha - alpha k).
    # At x = 100 the dropped exponentially small part is below 1e-43
    assert mlf(alpha, alpha, -100.0) == pytest.approx(
        _mp_series(alpha, alpha, -100.0, dps=200), rel=1e-12, abs=0.0)


def test_term_tables_leave_every_value_unchanged(monkeypatch):
    # a value must not depend on which calls filled its (alpha, beta) tables
    # or how often they were evicted: compare, over series and asymptotic
    # arguments, against calls that each get empty tables of their own
    tables = mlf_module._terms
    maxsize = tables.cache_info().maxsize
    assert maxsize >= 8  # the mlf-scan benchmark cycles through 4 alphas
    args = [
        (alpha, beta, z)
        for alpha in (0.3, 0.8, 0.95)
        for beta in (alpha, 1.0)
        for z in [0.9, -0.5] + [_at_peak_nats(alpha, nats)
                                for nats in (5.0, 8.99, 34.5, 60.0, 400.0)]
    ]
    with monkeypatch.context() as patch:
        patch.setattr(mlf_module, "_terms", lambda alpha, beta: ([], []))
        reference = [mlf(*arg) for arg in args]
    tables.cache_clear()
    assert [mlf(*arg) for arg in args] == reference
    fillers = [(0.1 + 0.05 * i, 0.5) for i in range(maxsize + 1)]
    rng = random.Random(4)
    for _ in range(2):
        for i in rng.sample(range(len(args)), len(args)):
            for alpha, beta in rng.choices(fillers, k=rng.randint(0, maxsize)):
                mlf(alpha, beta, _at_peak_nats(alpha, rng.choice((3.0, 40.0))))
                assert tables.cache_info().currsize <= maxsize
            assert mlf(*args[i]) == reference[i], args[i]
            assert tables.cache_info().currsize <= maxsize


def test_gap_branch_uses_mpmath_only_at_integer_order(monkeypatch):
    calls = []

    def recorder(alpha, beta, z, peak_nats):
        calls.append(alpha)
        return 0.0

    monkeypatch.setattr(mlf_module, "_mlf_series_mp", recorder)
    for alpha in (0.2, 0.6, 0.999):
        mlf(alpha, alpha, _at_peak_nats(alpha, 20.0))
        mlf(alpha, 1.7, _at_peak_nats(alpha, 20.0))
    assert calls == []
    mlf(1.0, 2.0, -20.0)
    assert calls == [1.0]


def test_mlf_at_zero_is_reciprocal_gamma():
    for alpha, beta in [(0.5, 1.0), (0.7, 0.7), (1.0, 2.0), (0.3, 1.5)]:
        assert mlf(alpha, beta, 0.0) == pytest.approx(rgamma(beta), rel=1e-15)


def test_half_order_equals_scaled_erfc():
    # E_{1/2,1}(-x) = exp(x**2) * erfc(x)
    for x in (0.3, 1.0, 2.0, 3.0, 5.0):
        expected = math.exp(x * x) * math.erfc(x)
        assert mlf(0.5, 1.0, -x) == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_integer_order_equals_exponential():
    for z in np.linspace(-50.0, 5.0, 23):
        assert mlf(1.0, 1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-13, abs=0.0)


def test_integer_order_beta_two_closed_form():
    # E_{1,2}(z) = (exp(z) - 1) / z, including the deep asymptotic regime
    for z in (-50.0, -40.0, -10.0, -2.0, 0.5, 3.0):
        expected = (math.exp(z) - 1.0) / z
        assert mlf(1.0, 2.0, z) == pytest.approx(expected, rel=1e-10, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(0.35, 1.0),
    beta=st.floats(0.4, 2.5),
    z=st.floats(-30.0, 4.0),
)
def test_recurrence_property(alpha, beta, z):
    # E_{a,b}(z) = z * E_{a,a+b}(z) + 1/Gamma(b)
    lhs = mlf(alpha, beta, z)
    rhs = z * mlf(alpha, alpha + beta, z) + rgamma(beta)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.4, 0.99), x=st.floats(0.0, 60.0))
def test_completely_monotone_on_negative_axis(alpha, x):
    # E_{a,a}(-x) is positive and decreasing in x for a in (0, 1]
    v1 = mlf(alpha, alpha, -x)
    v2 = mlf(alpha, alpha, -(x + 0.5))
    assert v1 > 0.0
    assert v2 < v1


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 0.99))
def test_asymptotic_seam_continuity_property(alpha):
    # the step mlf takes across the 34-nat seam must be the function's own
    # change over that step (from the Laplace quadrature on both sides) to
    # within the two per-side tolerances of test_branch_seams_against_mp_series
    seam = mlf_module.ASYMPTOTIC_SAFE_NATS
    below = _at_peak_nats(alpha, seam * (1.0 - 1e-9))
    above = _at_peak_nats(alpha, seam * (1.0 + 1e-9))
    step = mlf(alpha, alpha, above) - mlf(alpha, alpha, below)
    change = mlf_module._mlf_laplace(alpha, alpha, above) - mlf_module._mlf_laplace(
        alpha, alpha, below
    )
    assert abs(step - change) <= (5e-12 + 1e-9) * abs(mlf(alpha, alpha, below))


def test_mlf_rejects_bad_arguments():
    with pytest.raises(DomainError):
        mlf(0.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        mlf(0.5, -1.0, -1.0)
    with pytest.raises(DomainError):
        mlf(0.5, 1.0, 6.0)  # above the supported maximum
    with pytest.raises(DomainError):
        mlf(0.5, 1.0, math.inf)


def test_mlf_series_overflow_is_a_domain_error():
    # a term past the double range used to raise OverflowError, and a sum
    # past it returned inf
    for alpha, beta, z in [(0.05, 0.05, 5.0), (0.1, 0.1, 4.0), (0.2, 1.0, 5.0)]:
        with pytest.raises(DomainError, match=f"alpha={alpha}, beta={beta}"):
            mlf(alpha, beta, z)
    # just inside the range: E_{1/2,1/2}(z) = 1/sqrt(pi) + z exp(z**2) erfc(-z)
    expected = 1.0 / math.sqrt(math.pi) + 5.0 * math.exp(25.0) * math.erfc(-5.0)
    assert mlf(0.5, 0.5, 5.0) == pytest.approx(expected, rel=1e-12)


def test_mlf_rejects_orders_outside_the_model():
    # for alpha > 1 the asymptotic branch dropped more than exp(-peak): it
    # returned -1.05682e-5 for (1.5, 1.5, -200), where the mpmath series gives
    # -1.05764e-5, and -4.71e-5 for (1.9, 1, -2000), whose value is -6.00e-3
    assert _mp_series(1.5, 1.5, -200.0) == pytest.approx(-1.05764e-5, rel=1e-5)
    for alpha, beta, z in [(1.5, 1.5, -200.0), (1.9, 1.0, -2000.0),
                           (math.nan, 0.5, -1.0), (0.5, math.nan, -1.0)]:
        with pytest.raises(DomainError):
            mlf(alpha, beta, z)


@pytest.mark.parametrize("alpha,beta,z", [
    (0.5, 50.0, -3.5),  # gap branch: relative error 2.7e-2
    (0.8, 50.0, -6.0),  # gap branch: 5.3e3
    (0.8, 100.0, -6.0),  # gap branch: 1e48
    (0.5, 1e308, -50.0),  # these four raised OverflowError
    (0.5, 1e308, -3.0),
    (0.5, 1e308, -0.5),
    (0.5, 1e308, 4.0),
    (0.5, math.inf, -1.0),  # returned 0
])
def test_mlf_rejects_beta_above_the_cap(alpha, beta, z):
    # the gap branch lowers beta by E_{a,b} = (E_{a,b-a} - 1/Gamma(b-a)) / z,
    # which cancels for large beta
    assert BETA_MAX == 20.0
    with pytest.raises(DomainError, match="0 < beta <= 20"):
        mlf(alpha, beta, z)


@pytest.mark.parametrize("alpha,peak_nats", [
    (0.5, 0.5),  # series, z >= -1
    (0.5, 5.0),  # series, peak gate
    (0.2, 9.5), (0.5, 15.0), (0.9, 9.5), (0.9, 33.9),  # Laplace integral
    (1.0, 15.0),  # alpha = 1 mpmath series
    (0.5, 60.0), (1.0, 60.0),  # asymptotic expansion
])
def test_mlf_at_the_beta_cap_against_mp_series(alpha, peak_nats):
    # measured worst case 3.1e-13, at (0.2, 20, peak 9.5 nats)
    z = _at_peak_nats(alpha, peak_nats)
    assert mlf(alpha, BETA_MAX, z) == pytest.approx(
        _mp_series(alpha, BETA_MAX, z), rel=5e-12, abs=0.0
    )


def test_rgamma_poles_and_values():
    assert rgamma(1.0) == pytest.approx(1.0, rel=1e-15)
    assert rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert rgamma(0.0) == 0.0
    assert rgamma(-3.0) == 0.0
    assert rgamma(-0.5) == pytest.approx(1.0 / math.gamma(-0.5), rel=1e-13)


def test_wright_psi_matches_levy_closed_form():
    # psi_{1/2}(t) = t**(-3/2) exp(-1/(4t)) / (2 sqrt(pi))
    for theta in (0.05, 0.1, 0.5, 1.0, 2.0, 10.0):
        expected = theta ** (-1.5) * math.exp(-0.25 / theta) / (2.0 * math.sqrt(math.pi))
        assert wright_psi(0.5, theta) == pytest.approx(expected, rel=1e-10)


def test_phi_density_matches_gaussian_closed_form():
    # phi_{1/2}(t) = exp(-t**2/4) / sqrt(pi)
    for theta in (0.0, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        expected = math.exp(-0.25 * theta * theta) / math.sqrt(math.pi)
        assert phi_density(0.5, theta) == pytest.approx(expected, rel=1e-10)


def _phi_by_composition(alpha, theta):
    """The Mainardi density from the stable one, the identity
    phi_alpha(theta) = theta**(-1-1/alpha)/alpha * psi_alpha(theta**(-1/alpha))."""
    psi = wright_psi(alpha, theta ** (-1.0 / alpha))
    return theta ** (-1.0 - 1.0 / alpha) / alpha * psi


def test_phi_density_composition_route_agrees():
    for alpha in (0.4, 0.6, 0.8):
        for theta in (0.3, 0.7, 1.2):
            assert phi_density(alpha, theta) == pytest.approx(
                _phi_by_composition(alpha, theta), rel=1e-12
            )


@pytest.mark.parametrize("alpha,theta", [(0.5, 1e-200), (0.1, 1e-40)])
def test_phi_density_at_tiny_theta_is_its_value_at_zero(alpha, theta):
    # theta**(-1/alpha) leaves the double range; Kanter's form does not
    assert phi_density(alpha, theta) == pytest.approx(rgamma(1.0 - alpha))


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.2, 0.9), theta=st.floats(0.06, 20.0))
def test_wright_psi_nonnegative(alpha, theta):
    assert wright_psi(alpha, theta) >= 0.0


def test_wright_psi_rejects_small_argument():
    with pytest.raises(DomainError):
        wright_psi(0.5, 0.01)
    with pytest.raises(DomainError):
        wright_psi(1.0, 1.0)


def _mainardi_mp(alpha, theta, digits=40):
    """phi_alpha(theta) = sum_k (-theta)**k / (k! Gamma(1 - alpha - alpha k))
    in mpmath, at a precision that absorbs both the term peak and the decay
    of the result; two runs 20 digits apart agree to `digits` digits."""
    decay = 0.0
    while True:
        cut = decay + 2.31 * digits + 50.0
        peak, k_stop = 0.0, 0
        while True:
            env = (k_stop * math.log(theta) - math.lgamma(k_stop + 1.0)
                   + math.lgamma(alpha * (k_stop + 1)))
            peak = max(peak, env)
            if k_stop > 10 and env < -cut and env < peak:
                break
            k_stop += 1

        def run(dps):
            with mp.workdps(dps):
                a, z = mp.mpf(alpha), mp.mpf(theta)
                total, power = mp.mpf(0), mp.mpf(1)
                for k in range(k_stop + 1):
                    if k:
                        power = power * (-z) / k
                    total += power * mp.rgamma(1 - a * (k + 1))
                return total

        dps = int((peak + cut) / 2.3026) + 10
        coarse, fine = run(dps), run(dps + 20)
        if fine > 0 and abs(coarse - fine) <= mp.mpf(10) ** -digits * fine:
            return fine
        decay = max(2.0 * decay, 50.0, -float(mp.log(abs(fine))) if fine else 0.0)


DENSITY_THETAS = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0, 2.25, 2.5,
    2.6, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 12.0, 15.0,
)
# phi_alpha at DENSITY_THETAS, frozen from
#   {a: tuple(float(_mainardi_mp(a, t)) for t in DENSITY_THETAS) ...},
# where None marks a value below 1e-250 by Kanter's bound
# phi <= u0 exp(-u0) / ((1-alpha) theta), u0 = theta**(1/(1-alpha))
# alpha**(alpha/(1-alpha)) (1-alpha) >= 1.  Tails near 1e-250 need hundreds
# of digits and thousands of terms, so only three cheap rows are rerun below
DENSITY_ORACLE = {
    0.1: (
        0.9349201689733461, 0.933205373559657, 0.9272277581970277,
        0.9103542799469407, 0.8536273310955519, 0.778540080389652,
        0.6472370126532249, 0.4899430273252101, 0.37029046275149086,
        0.23142825117505983, 0.14406688865856315, 0.11350660424933247,
        0.08934734607418239, 0.08117031307818816, 0.055214685040576805,
        0.020877028014907262, 0.007797266934475792, 0.001742996921611316,
        0.00038093620796911726, 4.860528275392854e-05, 6.0070012216783806e-06,
        2.4758363221339464e-07,
    ),
    0.25: (
        0.8154848874225381, 0.8143576115174145, 0.8104208339611566,
        0.7992473618116057, 0.7610082322273136, 0.708714468710336,
        0.612243644780329, 0.48701171173568386, 0.38333541657068354,
        0.2517249440385265, 0.16125108345458586, 0.12795134785429718,
        0.10097740554834661, 0.09171802559192943, 0.06192208425161672,
        0.02198996334047836, 0.007289297072506667, 0.0012410701358857015,
        0.00018711315303530202, 1.2708213116565745e-05, 7.284317170210214e-07,
        7.548026325891204e-09,
    ),
    0.4: (
        0.6712870617092421, 0.6708507259633456, 0.6693181793118714,
        0.6648941387335018, 0.6489085985290718, 0.6248639330634567,
        0.5734871259864828, 0.4919333078817834, 0.4102335940438268,
        0.2856884926272521, 0.18558227451010914, 0.14591332638229543,
        0.11291112932636946, 0.10146024574972479, 0.06455724038163378,
        0.017703699590908645, 0.00389660637991026, 0.00027432246000742475,
        1.2574911565294458e-05, 1.1077506218995964e-07, 5.010794329556983e-10,
        4.73788231103197e-14,
    ),
    0.5: (
        0.5641894425003781, 0.5641883141226214, 0.5641754789844754,
        0.5640626551714358, 0.5627808712130096, 0.5585758033944684,
        0.5420673935524316, 0.4991418560723049, 0.4393912894677224,
        0.3214655345976037, 0.20755374871029736, 0.15913697925038464,
        0.1182605612236454, 0.10410399339803483, 0.05946514461181469,
        0.010333492677046027, 0.0010891421151763548, 1.4594512691790851e-05,
        6.349117335933279e-08, 7.835433265508668e-12, 1.3086506196246325e-16,
        2.1006826890574942e-25,
    ),
    0.6: (
        0.45099589940562856, 0.45133877554417245, 0.45253329756463423,
        0.4558977123882316, 0.4670690619621377, 0.48119821179314876,
        0.501690221927903, 0.5086247947876528, 0.48323543334806185,
        0.377031490216195, 0.23387335110670507, 0.16753470082169744,
        0.11216223259832639, 0.09367082442028059, 0.04052147222454105,
        0.002054362698080632, 2.5504528476523856e-05, 1.7838420471980985e-09,
        2.2673977499675397e-15, 2.906452584801119e-26, 5.499808664343233e-41,
        4.817110367895378e-71,
    ),
    0.75: (
        0.27609788512958844, 0.27666309477098416, 0.2786493610947242,
        0.2843932291088357, 0.3052957509442536, 0.3372579884800382,
        0.40763401985295844, 0.5195454072487847, 0.606598543590276,
        0.5487378622264564, 0.2251400701489675, 0.09122407582516487,
        0.024491540550029375, 0.012638239700876111, 0.0003512636102313409,
        4.504628075192352e-12, 7.053234215183924e-29, 6.700484073142177e-82,
        1.16120793807552e-187, None, None, None,
    ),
    0.9: (
        0.10528815959853212, 0.10563827544005645, 0.1068763780105452,
        0.11052569229536297, 0.1247327855016799, 0.14970970945688594,
        0.22411249995914362, 0.4566697904831586, 1.0081467456212712,
        0.45575251057063776, 7.819366916221752e-17, 2.3865984672538622e-55,
        1.1210264892751052e-159, 1.1420921669323864e-236, None, None, None,
        None, None, None, None, None,
    ),
}


@pytest.mark.parametrize("alpha", sorted(DENSITY_ORACLE))
def test_density_against_mainardi_oracle(alpha):
    for theta, expected in zip(DENSITY_THETAS, DENSITY_ORACLE[alpha]):
        if expected is None:
            assert phi_density(alpha, theta) < 1e-250
            continue
        assert phi_density(alpha, theta) == pytest.approx(expected, rel=1e-12, abs=0.0)
        if theta ** (-1.0 / alpha) >= THETA_MIN:
            assert _phi_by_composition(alpha, theta) == pytest.approx(
                expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha,theta", [(0.25, 1.0), (0.6, 2.0), (0.9, 0.7)])
def test_density_oracle_rows_match_their_generator(alpha, theta):
    expected = DENSITY_ORACLE[alpha][DENSITY_THETAS.index(theta)]
    assert float(_mainardi_mp(alpha, theta)) == pytest.approx(expected, rel=1e-15)


def test_moments_match_gamma_ratio():
    for alpha in (0.4, 0.7):
        for nu in (0.0, 1.0, 2.0):
            expected = math.gamma(1.0 + nu) / math.gamma(1.0 + alpha * nu)
            assert moment_check(alpha, nu) == pytest.approx(expected, abs=1e-4)


def test_moment_check_rejects_bad_orders():
    with pytest.raises(DomainError):
        moment_check(0.5, 5.0)
    with pytest.raises(DomainError):
        moment_check(1.0, 1.0)


def test_submodule_is_not_shadowed_by_the_function():
    assert isinstance(mlf_module, types.ModuleType)
    assert sys.modules["gradobs.mlf"] is mlf_module
    assert mlf_module.mlf is mlf
