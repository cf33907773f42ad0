"""Exact ensemble moments of the 2-stabilizer-purity for charge-sector
random states, tilted-charge generalizations, participation-entropy
references, and concentration bounds.

All closed forms are evaluated in arbitrary-precision integer/rational
arithmetic at every system size (Python integers make the log-domain
fallback unnecessary even at L = 256); callers that only need
-log2(mean) use :func:`m2_mean_bound`, which extracts the logarithm at
the end without ever rounding the rational.

The second moment is a sum of thirteen grouped permutation classes; four
of them reduce to the combinatorial kernels K1..K4 below.  K1 and K4 are
sums of products of :func:`sectormagic.kravchuk.kravchuk_int` values.  K1's
(-i)^b phases are tracked exactly as Gaussian integers; the imaginary part
must cancel identically and this is asserted.  Every K4 term has phase 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf

from .kravchuk import binomial, h_sum, kravchuk_int
from .sectors import Direction, sector_dimension

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
    "porter_thomas_pdf",
    "porter_thomas_cdf",
    "levy_tail_bound",
    "levy_variance_bound",
    "LIPSCHITZ_ETA",
]

#: Lipschitz constant of the 2-stabilizer-purity as a function of the state,
#: entering the concentration-of-measure bounds.
LIPSCHITZ_ETA = 5.4

#: Default resolution of the second-moment coefficient question: the
#: 960-class prefactor multiplies the sector dimension, not 2^{5L}.
K2_SECTOR = "sector-dimension"
K2_PRINTED = "printed-power"


class SectorError(ValueError):
    """Requested charge sector is empty."""


def _check_sector(L: int, q: int) -> int:
    d = sector_dimension(L, q)
    if d == 0:
        raise SectorError(f"empty sector: L={L}, q={q}")
    return d


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
    """-log2 of the exact mean; the ensemble-typical 2-stabilizer-entropy."""
    v = mean_sp2(L, q)
    return math.log2(v.denominator) - math.log2(v.numerator)


# ---------------------------------------------------------------------------
# second moment: the K1 (Gaussian-integer) and K4 kernels

_PHASE = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^t as (re, im)


def _gaussian_add(acc, coeff: int, phase_pow: int):
    re, im = _PHASE[phase_pow % 4]
    acc[0] += coeff * re
    acc[1] += coeff * im


@lru_cache(maxsize=None)
def _k1_numerator(L: int, q: int) -> int:
    """2^{7L} K1(L,q): the triple nested sum transcribed index-for-index,
    with every factor's (-i)^b phase tracked exactly."""
    acc = [0, 0]
    for k in range(L + 1):
        outer = kravchuk_int(L - k, k, q) ** 3
        if outer == 0:
            continue
        ck = math.comb(L, k) * outer
        for j in range(k + 1):
            sgn = (-1) ** (k - j) * math.comb(k, j)
            for p in range(L - k + 1):
                single = kravchuk_int(k - j + p, L - k - p + j, q)
                if single == 0:
                    continue
                cubed = kravchuk_int(j + p, L - p - j, q) ** 3
                if cubed == 0:
                    continue
                coeff = ck * sgn * math.comb(L - k, p) * single * cubed
                b_total = 3 * k + (L - k - p + j) + 3 * (L - p - j)
                _gaussian_add(acc, coeff, b_total)
    if acc[1] != 0:
        raise ArithmeticError(f"K1 imaginary part nonzero at L={L}, q={q}")
    return acc[0]


@lru_cache(maxsize=None)
def _k4_numerator(L: int, q: int) -> int:
    """2^{4L} K4(L,q).  The second fourth-power factor carries frequency 0
    (it arises from the difference pair), the first the full charge q.
    K4 is real by construction: every term carries the phase
    (-i)^{4(L-k)} = 1, so the terms are summed as plain integers."""
    total = 0
    for k in range(L + 1):
        cl = math.comb(L, k)
        for j in range(k + 1):
            ckj = cl * math.comb(k, j)
            for p in range(L - k + 1):
                f1 = kravchuk_int(k - j, L - k - p, q)
                if f1 == 0:
                    continue
                f2 = kravchuk_int(j, p, 0)
                if f2 == 0:
                    continue
                total += ckj * math.comb(L - k, p) * f1 ** 4 * f2 ** 4
    return total


def _k2(L: int, q: int) -> int:
    """K2(L,q) = sum_m C(L,2m) C(2m,m)^2 C(L-2m, (L-2m-q)/2)^2.

    The charge sits only in the second binomial; the first pair is the
    charge-blind central binomial.
    """
    total = 0
    for m in range(L // 2 + 1):
        n = L - 2 * m
        if (n - q) % 2 != 0:
            continue
        total += (
            math.comb(L, 2 * m)
            * math.comb(2 * m, m) ** 2
            * binomial(n, (n - q) // 2) ** 2
        )
    return total


def _k3(L: int, q: int) -> int:
    """Same sum as K2 with cubed binomials."""
    total = 0
    for m in range(L // 2 + 1):
        n = L - 2 * m
        if (n - q) % 2 != 0:
            continue
        total += (
            math.comb(L, 2 * m)
            * math.comb(2 * m, m) ** 3
            * binomial(n, (n - q) // 2) ** 3
        )
    return total


@lru_cache(maxsize=None)
def second_moment_sp2(L: int, q: int, k2_coefficient: str = K2_SECTOR) -> Fraction:
    """Exact second moment of the 2-stabilizer-purity over sector q.

    Thirteen grouped permutation classes; their integer prefactors sum to
    8! = 40320.  `k2_coefficient` selects the resolution of the 960-class
    prefactor: "sector-dimension" (default, 960 d_q + 5920) or
    "printed-power" (960 2^{5L} + 5920); the default is the one consistent
    with Monte Carlo and with the one-dimensional-sector identity.
    """
    d = _check_sector(L, q)
    hq = Fraction(h_sum(L, q), 2 ** L)
    if k2_coefficient == K2_SECTOR:
        c960 = 960 * d + 5920
    elif k2_coefficient == K2_PRINTED:
        c960 = 960 * 2 ** (5 * L) + 5920
    else:
        raise ValueError(f"unknown k2_coefficient {k2_coefficient!r}")
    total = hq * (96 * d * d + 640 * d + 1536 + 16 * hq)
    total += d * (144 * d ** 3 + 3648 * d ** 2 + 17152 * d + 8704)
    total += 256 * Fraction(_k1_numerator(L, q), 4 ** L)
    total += c960 * _k2(L, q)
    total += 1152 * _k3(L, q)
    total += 96 * Fraction(_k4_numerator(L, q), 2 ** L)
    return total / (math.factorial(8) * math.comb(d + 7, 8))


def variance_sp2(L: int, q: int, k2_coefficient: str = K2_SECTOR) -> Fraction:
    """Exact ensemble variance of the 2-stabilizer-purity."""
    return second_moment_sp2(L, q, k2_coefficient) - mean_sp2(L, q) ** 2


@dataclass(frozen=True)
class AnalyticMoments:
    """Exact rational moment bundle for one charge sector."""

    L: int
    q: int
    mean: Fraction
    second_moment: Fraction
    variance: Fraction

    @property
    def m2_mean_bound(self) -> float:
        return math.log2(self.mean.denominator) - math.log2(self.mean.numerator)


def analytic_moments(L: int, q: int, k2_coefficient: str = K2_SECTOR) -> AnalyticMoments:
    m = mean_sp2(L, q)
    s = second_moment_sp2(L, q, k2_coefficient)
    return AnalyticMoments(L, q, m, s, s - m * m)


# ---------------------------------------------------------------------------
# tilted charge axis


def tilt_factors(direction) -> tuple[float, float, float]:
    """The three symmetric polynomials (f, g, w) of the charge axis that
    enter the tilted-axis mean.  All are 1 on coordinate axes."""
    n = direction if isinstance(direction, Direction) else (
        Direction.from_axis(direction) if isinstance(direction, str)
        else Direction.normalized(direction)
    )
    n1, n2, n3 = n.nx, n.ny, n.nz
    f = (n1 - n2 - n3) * (n1 + n2 - n3) * (n1 - n2 + n3) * (n1 + n2 + n3)
    s4 = n1 ** 4 + n2 ** 4 + n3 ** 4
    g = s4 - 6 * (n1 ** 2 * n2 ** 2 + n1 ** 2 * n3 ** 2 + n2 ** 2 * n3 ** 2)
    return f, g, s4


def _tilted_mean_mp(L: int, q: int, direction) -> mpf:
    d = _check_sector(L, q)
    f, g, w = tilt_factors(direction)
    half = (L + q) // 2
    with mp.workdps(60 + 2 * L):
        fm1, gm1, wm = mpf(f) - 1, mpf(g) - 1, mpf(w)
        i1 = mp.zero
        i2 = mp.zero
        i3 = mp.zero
        for k in range(L + 1):
            cl = math.comb(L, k)
            a_k = sum(
                math.comb(k, j) ** 2 * binomial(L - k, half - j)
                for j in range(k + 1)
            )
            b_k = sum(
                math.comb(k, j) ** 4 * binomial(L - k, half - j)
                for j in range(k + 1)
            )
            if a_k and (k == 0 or fm1 != 0):
                i1 += cl * fm1 ** k / 4 ** k * mpf(a_k) ** 2
            if b_k and (k == 0 or gm1 != 0):
                i2 += cl * gm1 ** k / 8 ** k * mpf(b_k)
            kv = kravchuk_int(L - k, k, q)
            if kv:
                i3 += cl * wm ** k * mpf(kv) ** 4
        total = 12 * i1 + 8 * i2 + 4 * i3 / 2 ** L
        return total / (24 * math.comb(d + 3, 4))


def mean_sp2_tilted(L: int, q: int, direction) -> float:
    """Ensemble mean of the 2-stabilizer-purity when the conserved charge is
    measured along an arbitrary unit axis.

    Evaluated in extended precision (the alternating (f-1)^k sums cancel to
    ~2L bits); reduces to :func:`mean_sp2` exactly on coordinate axes.
    """
    return float(_tilted_mean_mp(L, q, direction))


def tilted_m2_bound(L: int, q: int, direction) -> float:
    """-log2 of the tilted-axis mean, computed before leaving extended
    precision (safe for large L)."""
    v = _tilted_mean_mp(L, q, direction)
    with mp.workdps(60 + 2 * L):
        return float(-mp.log(v) / mp.log(2))


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


def porter_thomas_pdf(w, d: int):
    """Density of the rescaled sector weight w = d |c_x|^2, on [0, d]:
    ((d-1)/d) (1 - w/d)^{d-2}.  Degenerate (point mass at 1) for d = 1."""
    w = np.asarray(w, dtype=float)
    if d < 2:
        return np.zeros_like(w)
    out = np.where(
        (w >= 0) & (w <= d), (d - 1) / d * (1.0 - w / d) ** (d - 2), 0.0
    )
    return out if out.ndim else float(out)


def porter_thomas_cdf(w, d: int):
    """CDF of the rescaled sector weight, 1 - (1 - w/d)^{d-1}."""
    w = np.asarray(w, dtype=float)
    t = np.clip(1.0 - w / d, 0.0, 1.0)
    out = 1.0 - t ** (d - 1)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# concentration of measure


def levy_tail_bound(L: int, q: int, eps: float) -> float:
    """Concentration bound P(|Xi_2 - mean| >= eps) <= 2 exp(-d eps^2 / (9 pi^3 eta^2))."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    d = _check_sector(L, q)
    return 2.0 * math.exp(-d * eps ** 2 / (9 * math.pi ** 3 * LIPSCHITZ_ETA ** 2))


def levy_variance_bound(L: int, q: int) -> float:
    """Variance bound 18 pi^3 eta^2 / d implied by the tail bound."""
    d = _check_sector(L, q)
    return 18 * math.pi ** 3 * LIPSCHITZ_ETA ** 2 / d
