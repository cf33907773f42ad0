"""Large-L saddle-point asymptotics of the mean 2-stabilizer-purity.

At charge density s = q/L the typical 2-stabilizer-entropy grows as
m(s) L + g(s) + O(1/L) with

    R      = sqrt(1 + 8 s^2)
    z(s)   = (3 s + R) / (1 - s)                  (saddle location)
    F*(s)  = -ln((3 - R)/2) - s ln z(s)           (saddle exponent)
    m(s)   = 4 H2((1-s)/2) - F*(s)/ln 2 - 3
    g(s)   = -log2(8 (1-s^2)^2 xi(s))

where H2 is the binary entropy in bits and xi = |det H|^{-1/2} is the
Gaussian-fluctuation factor of the four-dimensional saddle, with

    det H = 256 (3s+R)^3 (1-s)^4 (1 + 8 s^2 + 3 s R) / (1 + 8 s + 3 R)^4,

so xi(0) = 1 and g(0) = -3, the limit of the exact finite-size formula.
The rejected printed xi, which gives g(0) = -6, lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sectors import Direction

__all__ = [
    "AsymptoticPrediction",
    "binary_entropy",
    "z_saddle",
    "saddle_exponent",
    "xi_factor",
    "asymptotic_prediction",
    "tilted_asymptotic_q0",
    "nearest_sector_charge",
]


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    total = 0.0
    for t in (p, 1.0 - p):
        if t > 0.0:
            total -= t * math.log2(t)
    return total


def _check_density(s: float) -> float:
    if not 0.0 <= s < 1.0:
        raise ValueError(f"charge density must lie in [0, 1), got {s}")
    return float(s)


def z_saddle(s: float) -> float:
    s = _check_density(s)
    return (3 * s + math.sqrt(1 + 8 * s * s)) / (1 - s)


def saddle_exponent(s: float) -> float:
    """F evaluated at the saddle; 0 at s = 0."""
    s = _check_density(s)
    r = math.sqrt(1 + 8 * s * s)
    return -math.log((3 - r) / 2) - s * math.log(z_saddle(s))


def xi_factor(s: float) -> float:
    """Gaussian-fluctuation factor |det Hess|^{-1/2} at the saddle."""
    s = _check_density(s)
    r = math.sqrt(1 + 8 * s * s)
    det = (
        256
        * (3 * s + r) ** 3
        * (1 - s) ** 4
        * (1 + 8 * s * s + 3 * s * r)
        / (1 + 8 * s + 3 * r) ** 4
    )
    return 1.0 / math.sqrt(det)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Large-L prediction bundle at fixed charge density s."""

    s: float
    z: float
    F_star: float
    xi: float
    m: float
    g: float


def asymptotic_prediction(s: float) -> AsymptoticPrediction:
    """Volume coefficient m(s) and offset g(s) of the typical entropy."""
    s = _check_density(s)
    z = z_saddle(s)
    f_star = saddle_exponent(s)
    xi = xi_factor(s)
    m = 4 * binary_entropy((1 - s) / 2) - f_star / math.log(2) - 3
    g = -math.log2(8 * (1 - s * s) ** 2 * xi)
    return AsymptoticPrediction(s=s, z=z, F_star=f_star, xi=xi, m=m, g=g)


def tilted_asymptotic_q0(direction) -> float:
    """Constant offset of the typical entropy at s = 0: the suppression is
    -3 when the charge axis is a coordinate axis and -2 otherwise."""
    n = Direction.of(direction)
    comps = sorted(abs(c) for c in (n.nx, n.ny, n.nz))
    axis_aligned = comps[2] > 1.0 - 1e-12 and comps[1] < 1e-12
    return -3.0 if axis_aligned else -2.0


def nearest_sector_charge(L: int, s: float) -> int:
    """Nearest valid charge to s*L (parity of L; ties toward smaller |q|)."""
    target = s * L
    lo = math.floor(target)
    if (L - lo) % 2 != 0:
        lo -= 1
    hi = lo + 2
    candidates = [q for q in (lo, hi) if abs(q) <= L]
    return min(candidates, key=lambda q: (abs(q - target), abs(q)))
