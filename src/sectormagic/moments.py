"""Exact ensemble moments of the 2-stabilizer-purity for charge-sector
random states, tilted-charge generalizations, participation-entropy
references, and concentration bounds.

All closed forms are evaluated in arbitrary-precision integer/rational
arithmetic (no log-domain fallback, even at L = 512);
the two ``*_m2_bound`` functions take the logarithm of the exact mean last.

The second moment sums thirteen grouped permutation classes; the 960-class
prefactor multiplies the sector dimension d_q.  Four classes reduce to the
kernels K1..K4 below: K2 and K3 are binomial sums, K1 and K4 sums of
products of the integer kernels K_q(a, b) of :mod:`sectormagic.kravchuk`,
which both reduce to h(L, q) = sum_k C(L,k) R[k]^4, R[t] = K_q(L-t, t):

- K1 = h^2/d.  Its triple sum reads only the row R (the (-i)^b phases
  cancel its sign (-1)^{k-j}): sum_{k,j,p} C(L,k) C(k,j) C(L-k,p) R[k]^3
  R[s] R[t]^3, s = L-k-p+j, t = L-p-j.  At fixed k the weight
  C(k,j) C(L-k,p) has the generating function (x+y)^k (1+xy)^{L-k} in
  x^s y^t, and summing it against R[s] gives R[k] C(L,t) R[t]/d by
  Krawtchouk reciprocity C(n,i) K_j(i) = C(n,j) K_i(j) (MacWilliams &
  Sloane, ch. 5).  So the sum over j, p is R[k] h/d, and K1 = h^2/d.
  This is a sketch; the exact test against the triple sum is the proof.
- K4's weight C(L,k) C(k,j) C(L-k,p) is a multinomial, so collecting the
  terms at fixed n = a + b leaves sum_n C(L,n) h(n,q) h(L-n,0).

Costs, in big-integer operations: h is one Kravchuk row, O(L); the mean
is one h; K1 is O(1) once h is known; K4 is 2(L+1) h sums, so the second
moment is O(L^2); K2 and K3 are O(L).  The tilted-axis mean is an O(L^2)
sum, evaluated once per (L, q, axis) and process: three integer
polynomials in (f-1)/4, (g-1)/8 and w, the exact rationals of the axis'
doubles, run by Horner's scheme on the integers; its a_k and b_k sums
are O(L^2) C-level products over two Pascal rows.

The index-for-index transcriptions of K1 (its (-i)^b phases tracked
exactly) and K4, the sliced K1 sum, the per-term a_k and b_k sums, and
the rejected 2^{5L} reading of the 960-class prefactor live in
``tests/oracles.py``.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, floordiv, mul

import numpy as np

from .kravchuk import binomial, h_sum, kravchuk_int
from .sectors import Direction, SectorError, _check_sector

__all__ = [
    "SectorError",
    "AnalyticMoments",
    "mean_sp2",
    "second_moment_sp2",
    "variance_sp2",
    "analytic_moments",
    "m2_mean_bound",
    "haar_mean_sp2",
    "mean_sp2_tilted",
    "tilted_m2_bound",
    "tilt_factors",
    "pe_moment_mean",
    "pe_shannon_mean",
    "porter_thomas_cdf",
    "levy_tail_bound",
    "levy_variance_bound",
    "LIPSCHITZ_ETA",
]

#: Lipschitz constant of the 2-stabilizer-purity as a function of the state,
#: entering the concentration-of-measure bounds.
LIPSCHITZ_ETA = 5.4


# ---------------------------------------------------------------------------
# first moment


@lru_cache(maxsize=None)
def mean_sp2(L: int, q: int) -> Fraction:
    """Exact mean of the 2-stabilizer-purity over sector-q random states.

    mean = (12 d^2 + 8 d + 2^{2-L} h(L,q)) / (4! C(d+3, 4)), d = C(L,(L-q)/2).
    """
    d = _check_sector(L, q)
    num = 12 * d * d + 8 * d + Fraction(4 * h_sum(L, q), 2 ** L)
    return num / (24 * math.comb(d + 3, 4))


def haar_mean_sp2(L: int) -> Fraction:
    """Mean 2-stabilizer-purity of unconstrained Haar states, 4/(2^L+3)."""
    return Fraction(4, 2 ** L + 3)


def m2_mean_bound(L: int, q: int) -> float:
    """-log2 of the exact mean (the ensemble-typical 2-stabilizer-entropy)
    as log2(den) - log2(num) in floats.  tilted_m2_bound's 60-digit decimal
    logs and run_disorder_sweep's -log2(float(haar_mean_sp2(L))) are two
    more formulas, each behind pinned bytes; on the z axis, over L = 2..64
    and |q| <= 12, the tilted one differs from this one in 473 of 738
    sectors, by at most 3 ulps (tests/test_tilted.py bounds the gap)."""
    v = mean_sp2(L, q)
    return math.log2(v.denominator) - math.log2(v.numerator)


# ---------------------------------------------------------------------------
# second moment: the K1..K4 kernels


def _k4_numerator(L: int, q: int) -> int:
    """2^{4L} K4(L,q) = sum_n C(L,n) h(n,q) h(L-n,0).

    The transcribed sum weighs K_q(a,b)^4 K_0(j,p)^4 (a = k-j, b = L-k-p)
    by C(L,k) C(k,j) C(L-k,p) = L!/(a! b! j! p!) = C(L,n) C(n,a) C(L-n,j)
    at n = a + b; summing a and j at fixed n gives the two h sums.
    """
    return sum(math.comb(L, n) * h_sum(n, q) * h_sum(L - n, 0)
               for n in range(L + 1))


def _k_central(L: int, q: int, power: int) -> int:
    """K2 (power 2) and K3 (power 3):
    sum_m C(L,2m) C(2m,m)^power C(L-2m, (L-2m-q)/2)^power.

    The charge sits only in the second binomial; the first is the
    charge-blind central binomial.  The caller checks the sector, so
    L - q, and with it every n - q, is even.
    """
    total = 0
    for m in range(L // 2 + 1):
        n = L - 2 * m
        total += (
            math.comb(L, 2 * m)
            * math.comb(2 * m, m) ** power
            * binomial(n, (n - q) // 2) ** power
        )
    return total


@lru_cache(maxsize=None)
def second_moment_sp2(L: int, q: int) -> Fraction:
    """Exact second moment of the 2-stabilizer-purity over sector q.

    Thirteen grouped permutation classes; their integer prefactors sum to
    8! = 40320.
    """
    d = _check_sector(L, q)
    hq = Fraction(h_sum(L, q), 2 ** L)
    total = hq * (96 * d * d + 640 * d + 1536 + 16 * hq)
    total += d * (144 * d ** 3 + 3648 * d ** 2 + 17152 * d + 8704)
    total += 256 * hq * hq / d
    total += (960 * d + 5920) * _k_central(L, q, 2)
    total += 1152 * _k_central(L, q, 3)
    total += 96 * Fraction(_k4_numerator(L, q), 2 ** L)
    return total / (math.factorial(8) * math.comb(d + 7, 8))


def variance_sp2(L: int, q: int) -> Fraction:
    """Exact ensemble variance of the 2-stabilizer-purity."""
    return second_moment_sp2(L, q) - mean_sp2(L, q) ** 2


@dataclass(frozen=True)
class AnalyticMoments:
    """Exact rational moment bundle for one charge sector."""

    L: int
    q: int
    mean: Fraction
    second_moment: Fraction
    variance: Fraction


def analytic_moments(L: int, q: int) -> AnalyticMoments:
    m = mean_sp2(L, q)
    s = second_moment_sp2(L, q)
    return AnalyticMoments(L, q, m, s, s - m * m)


# ---------------------------------------------------------------------------
# tilted charge axis


def tilt_factors(direction) -> tuple[float, float, float]:
    """The three symmetric polynomials (f, g, w) of the charge axis that
    enter the tilted-axis mean.  All are 1 on coordinate axes."""
    n = Direction.of(direction)
    n1, n2, n3 = n.nx, n.ny, n.nz
    f = (n1 - n2 - n3) * (n1 + n2 - n3) * (n1 - n2 + n3) * (n1 + n2 + n3)
    s4 = n1 ** 4 + n2 ** 4 + n3 ** 4
    g = s4 - 6 * (n1 ** 2 * n2 ** 2 + n1 ** 2 * n3 ** 2 + n2 ** 2 * n3 ** 2)
    return f, g, s4


def _tilted_row_sums(L: int, q: int) -> tuple[list[int], list[int]]:
    """a_k = sum_j C(k,j)^2 C(L-k, t-j) and b_k = sum_j C(k,j)^4 C(L-k, t-j)
    for k = 0..L, t = (L+q)//2 >= -1 (all zeros at t = -1 and t = L+1).

    C(k, .) is carried by addition and C(m, .), m = L-k, by the exact
    division C(m-1, i) = C(m, i)(m-i)/m.  Reading C(m, t-j) as C(m, m-t+j)
    makes both factors slices over j in [max(0, t-m), min(k, t)].
    """
    t = (L + q) // 2
    a, b = [], []
    up, down = [1], [math.comb(L, i) for i in range(L + 1)]
    for k in range(L + 1):
        m = L - k
        lo, hi = max(0, t - m), min(k, t) + 1
        sq = list(map(mul, up[lo:hi], up[lo:hi]))
        col = down[m - t + lo:m - t + hi]
        a.append(sum(map(mul, sq, col)))
        b.append(sum(map(mul, map(mul, sq, sq), col)))
        up = [1, *map(add, up, up[1:]), 1]
        down = list(map(floordiv, map(mul, down[:-1], range(m, 0, -1)),
                        repeat(m)))
    return a, b


def _horner(x: Fraction, coeffs) -> Fraction:
    """sum_k c_k x^k over integer c_k, evaluated at x = a/b on the integers:
    sum_k c_k a^k b^(n-k) by Horner's scheme, divided by b^n once."""
    a, b = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * scale
        scale *= b
    return Fraction(acc, scale // b)


@lru_cache(maxsize=None)
def _tilted_mean_sum(L: int, q: int, direction: Direction) -> Fraction:
    """The exact tilted-axis mean of the doubles f, g, w, memoized per axis."""
    d = _check_sector(L, q)
    f, g, w = map(Fraction, tilt_factors(direction))
    a, b = _tilted_row_sums(L, q)
    cl = [math.comb(L, k) for k in range(L + 1)]
    i1 = _horner((f - 1) / 4, list(map(mul, cl, map(mul, a, a))))
    i2 = _horner((g - 1) / 8, list(map(mul, cl, b)))
    i3 = _horner(w, [c * kravchuk_int(L - k, k, q) ** 4
                     for k, c in enumerate(cl)])
    total = 12 * i1 + 8 * i2 + 4 * i3 / 2 ** L
    return total / (24 * math.comb(d + 3, 4))


def mean_sp2_tilted(L: int, q: int, direction) -> float:
    """Ensemble mean of the 2-stabilizer-purity when the conserved charge is
    measured along an arbitrary unit axis.

    The exact rational of the axis' double tilt factors, rounded once;
    it equals :func:`mean_sp2` on coordinate axes.
    """
    return float(_tilted_mean_sum(L, q, Direction.of(direction)))


def tilted_m2_bound(L: int, q: int, direction) -> float:
    """-log2 of the exact tilted-axis mean, from 60-digit logarithms of its
    numerator and denominator: up to 3 ulps from m2_mean_bound on z."""
    v = _tilted_mean_sum(L, q, Direction.of(direction))
    ctx = decimal.Context(prec=60)
    num, den = decimal.Decimal(v.numerator), decimal.Decimal(v.denominator)
    return float(ctx.divide(ctx.subtract(ctx.ln(den), ctx.ln(num)), ctx.ln(2)))


# ---------------------------------------------------------------------------
# participation-entropy references


def pe_moment_mean(d: int, k: int) -> Fraction:
    """Ensemble mean of sum_x |c_x|^{2k} over a d-dimensional sector:
    k! d! / (d+k-1)!."""
    if d < 1 or k < 1:
        raise ValueError("require d >= 1, k >= 1")
    denom = 1
    for i in range(1, k):
        denom *= d + i
    return Fraction(math.factorial(k), denom)


def pe_shannon_mean(d: int) -> float:
    """Ensemble mean Shannon participation entropy, (H_d - 1)/ln 2 bits."""
    if d < 1:
        raise ValueError("require d >= 1")
    harmonic = sum(1.0 / p for p in range(1, d + 1))
    return (harmonic - 1.0) / math.log(2)


def porter_thomas_cdf(w, d: int):
    """CDF of the rescaled sector weight, 1 - (1 - w/d)^{d-1}."""
    w = np.asarray(w, dtype=float)
    t = np.clip(1.0 - w / d, 0.0, 1.0)
    out = 1.0 - t ** (d - 1)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# concentration of measure


def levy_tail_bound(L: int, q: int, eps: float) -> float:
    """Concentration bound P(|Xi_2 - mean| >= eps) <= 2 exp(-d eps^2 / (9 pi^3 eta^2)).

    Past the float range of d (or of eps^2) the exponent x is taken
    exactly; exp(-x) rounds to 0.0 for every x beyond 746."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    d = _check_sector(L, q)
    c = 9 * math.pi ** 3 * LIPSCHITZ_ETA ** 2
    try:
        return 2.0 * math.exp(-d * eps ** 2 / c)
    except OverflowError:
        x = (math.inf if math.isinf(eps)
             else d * Fraction(eps) ** 2 / Fraction(c))
        return 2.0 * math.exp(-float(min(x, 746)))


def levy_variance_bound(L: int, q: int) -> float:
    """Variance bound 18 pi^3 eta^2 / d implied by the tail bound; the
    correctly rounded exact quotient once d is past the float range."""
    d = _check_sector(L, q)
    c = 18 * math.pi ** 3 * LIPSCHITZ_ETA ** 2
    try:
        return c / d
    except OverflowError:
        return float(Fraction(c) / d)
