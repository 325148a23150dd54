"""Regenerate the frozen Gram-kernel table that acceptance check A6 reads.

V[j,k] = int_0^b w(s) s**(2a-2) E_{a,a}(lam_j s**a) E_{a,a}(lam_k s**a) ds
with b = 1 and lam_j = -(j pi)**2, in mpmath at 30 digits, independent of
gradobs:

* E_{a,a}(-x) for 0 < a < 1 by its positive Laplace integral
  (sin(a pi)/pi) int_0^inf exp(-r) r**a / (r**(2a) + 2 x r**a cos(a pi) + x**2) dr,
  tanh-sinh split at r = 1, 4, 16, 64 and, for a > 1/2, at the dip
  r* = (-x cos(a pi))**(1/a) and one half-width to either side of it;
* the time integral by tanh-sinh, split at s = 1e-3, 1e-2, 1e-1.  For the
  `none` weighting (w = 1) the substitution s = u**(1/(2a-1)) cancels
  s**(2a-2), leaving int_0^1 E_j E_k du / (2a-1); the `compensated` weighting
  w = s**(2-2a) cancels it outright.  The E values are cached per node and
  shared by every pair.

Run ``python tests/gram_kernel_table.py [ALPHA ...]`` (about five minutes
per alpha on one core; the arguments pick rows by alpha).  It prints one
(alpha, weighting, j, k, V) row per line, rounded to 17 significant digits,
and the time integrals' largest relative error estimate.
"""

import functools
import sys

import mpmath as mp

DPS = 30
ROWS = [(a, w) for a in ("0.6", "0.7", "0.8", "0.95") for w in ("none", "compensated")]
ROWS += [("0.4", "compensated"), ("0.1", "compensated")]
PAIRS = ((1, 1), (1, 2), (2, 3))


@functools.lru_cache(maxsize=None)
def mlf_aa(alpha: mp.mpf, x: mp.mpf) -> mp.mpf:
    """E_{alpha,alpha}(-x) for x >= 0 by the positive Laplace integral."""
    if x == 0:
        return mp.rgamma(alpha)
    c = mp.cospi(alpha)
    points = {mp.mpf(0), mp.mpf(1), mp.mpf(4), mp.mpf(16), mp.mpf(64)}
    if c < 0:
        dip = (-x * c) ** (1 / alpha)
        half = x * mp.sinpi(alpha) / (alpha * dip ** (alpha - 1))  # in r
        points |= {dip, dip + half}
        if dip - half > 0:
            points.add(dip - half)
    edges = sorted(points) + [mp.inf]

    def f(r):
        ra = r**alpha
        return mp.exp(-r) * ra / (ra * ra + 2 * x * ra * c + x * x)

    return mp.sinpi(alpha) / mp.pi * mp.quad(f, edges)


def gram_kernel(alpha: str, weighting: str, lj: mp.mpf, lk: mp.mpf
                ) -> tuple[mp.mpf, mp.mpf]:
    """V for eigenvalues lj, lk on (0, 1] and the time quadrature's error
    estimate."""
    a = mp.mpf(alpha)

    def product(s):
        sa = s**a
        return mlf_aa(a, -lj * sa) * mlf_aa(a, -lk * sa)

    splits = [mp.mpf(0), mp.mpf("1e-3"), mp.mpf("1e-2"), mp.mpf("1e-1"), mp.mpf(1)]
    if weighting == "compensated":
        return mp.quad(product, splits, error=True)
    p = 1 / (2 * a - 1)
    value, err = mp.quad(lambda u: product(u**p), [s ** (2 * a - 1) for s in splits],
                         error=True)
    return value * p, err * p


def main() -> None:
    mp.mp.dps = DPS
    rows = [r for r in ROWS if len(sys.argv) < 2 or r[0] in sys.argv[1:]]
    worst = mp.mpf(0)
    for alpha, weighting in rows:
        for j, k in PAIRS:
            value, err = gram_kernel(alpha, weighting, -(j * mp.pi) ** 2,
                                     -(k * mp.pi) ** 2)
            worst = max(worst, err / value)
            print(f'    ({alpha}, "{weighting}", {j}, {k}, {mp.nstr(value, 17)}),',
                  flush=True)
    print(f"# largest relative error estimate {mp.nstr(worst, 3)}")


if __name__ == "__main__":
    main()
