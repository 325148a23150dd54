"""Mittag-Leffler evaluator and Wright-type density tests.

The reference values below were generated independently with mpmath at 50
significant digits via the inverse-Laplace representation
E_{a,b}(-x) = L^{-1}[s^(a-b) / (s^a + x)](1) (Talbot contour, degree 80).
The branch tests compute theirs in the test with `_mp_series`.
"""

import math
import sys
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradobs.mlf as mlf_module
from gradobs.errors import DomainError
from gradobs.mlf import (
    mlf,
    moment_check,
    phi_alpha,
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


def _mp_series(alpha, beta, z):
    """E_{alpha,beta}(z) by its power series in mpmath, with the working
    precision raised past the alternating-term peak exp(|z|**(1/alpha))."""
    peak = abs(z) ** (1.0 / alpha)
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


def test_mlf_rejects_orders_outside_the_model():
    # for alpha > 1 the asymptotic branch dropped more than exp(-peak): it
    # returned -1.05682e-5 for (1.5, 1.5, -200), where the mpmath series gives
    # -1.05764e-5, and -4.71e-5 for (1.9, 1, -2000), whose value is -6.00e-3
    assert _mp_series(1.5, 1.5, -200.0) == pytest.approx(-1.05764e-5, rel=1e-5)
    for alpha, beta, z in [(1.5, 1.5, -200.0), (1.9, 1.0, -2000.0),
                           (math.nan, 0.5, -1.0), (0.5, math.nan, -1.0)]:
        with pytest.raises(DomainError):
            mlf(alpha, beta, z)


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


def test_phi_density_composition_route_agrees():
    for alpha in (0.4, 0.6, 0.8):
        for theta in (0.3, 0.7, 1.2):
            assert phi_density(alpha, theta) == pytest.approx(
                phi_alpha(alpha, theta), rel=1e-12
            )


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.2, 0.9), theta=st.floats(0.06, 20.0))
def test_wright_psi_nonnegative(alpha, theta):
    assert wright_psi(alpha, theta) >= 0.0


def test_wright_psi_rejects_small_argument():
    with pytest.raises(DomainError):
        wright_psi(0.5, 0.01)
    with pytest.raises(DomainError):
        wright_psi(1.0, 1.0)


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
