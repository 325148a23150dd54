"""Regenerate the frozen gap-band table of E_{alpha,alpha} that test_mlf reads.

For each alpha of ALPHAS and 20 peak nats p from just above 9 to just below
34 (the band where `mlf` neither sums its power series in double precision
nor takes the asymptotic expansion), z = -(p**alpha) is rounded to a double
and E_{alpha,alpha}(z) is summed as its power series in mpmath, independent
of gradobs.  The alternating terms peak near exp(p) and the sum can be as
small as exp(-p), so the working precision is raised by 2 p / ln(10)
digits past DIGITS + 10; a second sum 15 digits finer must agree to DIGITS
digits.

Run ``python tests/mlf_gap_table.py [ALPHA ...]`` (a few seconds; the
arguments pick rows by alpha as printed).  It prints one (alpha, z, value)
row per line, the value to DIGITS significant digits.
"""

import sys

import mpmath as mp

DIGITS = 30
ALPHAS = (0.05, 0.3, 0.55, 0.8, 0.95, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-10)
LOWER, UPPER = 9.0, 34.0


def band_arguments(alpha: float) -> list[float]:
    """20 arguments z across the gap band, both ends 1e-12 inside it."""
    nats = [LOWER * (1.0 + 1e-12)] + [LOWER + (UPPER - LOWER) * i / 19 for i in range(1, 19)]
    return [-(p**alpha) for p in nats + [UPPER * (1.0 - 1e-12)]]


def gap_value(alpha: float, z: float, extra: int = 0) -> mp.mpf:
    """E_{alpha,alpha}(z) by its power series at the exact double inputs."""
    peak = abs(z) ** (1.0 / alpha)
    with mp.workdps(DIGITS + 10 + extra + int(2.0 * peak / 2.302585)):
        a, x = mp.mpf(alpha), mp.mpf(z)
        tol = mp.eps * 100
        total, power, k = mp.mpf(0), mp.mpf(1), 0
        while True:
            term = power * mp.rgamma(a * k + a)
            total += term
            if k > peak + 2 and abs(term) <= tol * abs(total):
                return +total
            power *= x
            k += 1


def main() -> None:
    picked = [a for a in ALPHAS if len(sys.argv) < 2 or repr(a) in sys.argv[1:]]
    for alpha in picked:
        for z in band_arguments(alpha):
            value = gap_value(alpha, z)
            check = gap_value(alpha, z, extra=15)
            with mp.workdps(DIGITS + 20):
                if abs(value - check) > mp.mpf(10) ** -DIGITS * abs(check):
                    sys.exit(f"alpha={alpha!r}, z={z!r}: the two sums disagree")
                print(f"    ({alpha!r}, {z!r}, {mp.nstr(check, DIGITS)}),", flush=True)


if __name__ == "__main__":
    main()
