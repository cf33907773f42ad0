"""Exact integer kernels of trigonometric Fourier coefficients.

Everything combinatorial in this repository reduces to the coefficients

    (1/2pi) * Integral_0^{2pi} cos^a(t) sin^b(t) e^{-i q t} dt
        = (-i)^b * K_q(a, b) / 2^(a+b),

where K_q(a, b) is an integer-valued signed binomial sum (an evaluation
of a Kravchuk polynomial).  Expanding cos = (e^{it}+e^{-it})/2 and
sin = (e^{it}-e^{-it})/(2i) and collecting the frequency-q term gives

    K_q(a, b) = sum_m (-1)^m C(a, (a+b-q)/2 - m) C(b, m),

zero whenever a+b-q is odd.  Useful identities, exercised in tests:
K_{-q}(a,b) = (-1)^b K_q(a,b), so fourth powers are independent of the
sign of q.

A row R[k] = K_q(n-k, k), k = 0..n, is the binary Krawtchouk polynomial
K_j(k; n) of degree j = (n-q)/2, so it obeys the three-term recurrence
in k (MacWilliams & Sloane, ch. 5)

    (n-k) R[k+1] = q R[k] - k R[k-1],    R[0] = C(n, j).

Costs, in big-integer operations: :func:`kravchuk_int` O(a+b) per value,
:func:`kravchuk_row` O(n) per row, :func:`h_sum` O(L).
"""

from __future__ import annotations

import math

__all__ = ["binomial", "kravchuk_int", "kravchuk_row", "h_sum"]


def binomial(n: int, k: int) -> int:
    """C(n, k), 0 for any out-of-range lower index (total function)."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def kravchuk_int(a: int, b: int, q: int) -> int:
    """Integer kernel K_q(a, b); exact, arbitrary precision."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be non-negative")
    if (a + b - q) % 2 != 0:
        return 0
    top = (a + b - q) // 2
    total = 0
    for m in range(max(0, top - a), min(b, top) + 1):
        total += (-1) ** m * math.comb(a, top - m) * math.comb(b, m)
    return total


def kravchuk_row(n: int, q: int) -> list[int]:
    """The row [K_q(n-k, k) for k in 0..n] by the three-term recurrence.

    Every division is exact, since each R[k+1] is an integer.  A row with
    n - q odd or |q| > n is all zeros.
    """
    if n < 0:
        raise ValueError("exponents must be non-negative")
    if (n - q) % 2 != 0 or abs(q) > n:
        return [0] * (n + 1)
    row = [math.comb(n, (n - q) // 2)]
    prev = 0
    for k in range(n):
        row.append((q * row[k] - k * prev) // (n - k))
        prev = row[k]
    return row


def h_sum(L: int, q: int) -> int:
    """The integer combinatorial weight h(L, q) = sum_k C(L,k) K_q(L-k,k)^4.

    Equals 2^{4L} * sum_k C(L,k) J_q(L-k,k)^4; the (-i)^{4k} phases cancel,
    so the sum is a non-negative integer.  h(L, L) = 2^L; h is zero when
    L - q is odd.  One Kravchuk row, O(L) operations.
    """
    return sum(math.comb(L, k) * r ** 4
               for k, r in enumerate(kravchuk_row(L, q)))
