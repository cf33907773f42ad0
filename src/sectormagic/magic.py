"""Pauli-spectrum functionals of dense pure states: stabilizer purity and
entropy (Walsh-Hadamard kernel) and participation entropies.

The kernel uses the identity (Leone, Oliviero & Hamma, "Stabilizer Renyi
entropy", PRL 2022)

    Xi_alpha = 2^{-L} sum_{a,b} |g_a(b)|^{2 alpha},
    g_a(b)   = sum_x (-1)^{b.x} conj(c_{x XOR a}) c_x,

i.e. for each X-mask a the vector f_a(x) = conj(c_{x XOR a}) c_x is
Walsh-Hadamard transformed over b.  Masks are processed in fixed-order
batches (deterministic accumulation) in O(L 4^L) total time; the i^{a.b}
phase of the Hermitian Pauli string is dropped since only moduli enter.

Layout.  The live X-masks of a batch are gathered in sub-blocks of
columns, one column per mask, as (2^L, columns) arrays, and the
butterfly runs along the leading axis, so every level's inner loop spans
h times the sub-block width instead of h elements.  numpy sends a
strided view whose contiguous run is short through its buffered
iterator: on 2 vCPUs, on a (256, 256)-float sub-block levels h = 1..8
took 145-155 us each and h = 16..128 took 39-47 us, and on (4096, 128)
floats h = 1..16 took 1135-1390 us and h >= 32 took 446-523 us, each
level touching the same elements (BENCH_swapped_layout.json).  So the
rows are gathered in a bit-swapped order: row y holds x with

    y = (x mod 2^k) 2^(L-k) + (x >> k),   k = L // 2.

The butterflies of x bits 0..k-1 then run as the leading-axis levels
h = 2^(L-k)..2^(L-1); one transposing copy, (2^k, 2^(L-k), columns) to
(2^(L-k), 2^k, columns), puts the rows in natural order, where x bits
k..L-1 run as levels h = 2^k..2^(L-1).  Every level spans at least
2^(L//2) rows.  Each sub-block's |g|^2 is put back into the row-major
(masks, 2^L) array, one row per mask, before the per-batch sums, and
its values are histogrammed.  Each element goes through the same
floating-point operations in the same order as in the row-major
last-axis transform, and the sums see the same array, so the output is
bitwise that of the row-major loop.

Workspace.  The buffers of one call (the gather, its natural-order copy,
the index table that then holds |g|^2, and the row-major array) are kept
per process and reused by the next call at the same L, so repeated calls
map no fresh pages.  A sub-block has at most 2^17 amplitudes, so the
gather, the copy and the index table stay at 5 MB, and the row-major
array at 2^21 Pauli strings (16 MB), from L = 11 on.  A forked worker
owns its copy.

Parity shortcut.  If every nonzero amplitude c_x has the same popcount
parity (every z-frame sector state, every embedded sector eigenstate),
then for an X-mask a of odd popcount x and x XOR a differ in parity, so
one factor of f_a(x) is an exact zero and the whole row g_a is zero.
Such rows are not computed: they are zero-filled before the per-batch
sums, so the summed array and its floating-point order are those of the
all-mask loop, and the histogram adds their zeros to its first bin.
The result is bitwise identical, at half the transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sectors import _qubit_count

__all__ = [
    "PauliSpectrumSummary",
    "pauli_spectrum",
    "stabilizer_purity_fast",
    "stabilizer_entropy",
    "participation_entropy",
    "shannon_pe",
]

_NORM_TOL = 1e-9


def _check_normalized(state: np.ndarray):
    nrm = float(np.sum(np.abs(state) ** 2))
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValueError(f"state not normalized: |psi|^2 = {nrm}")


def fwht_leading_axis(a: np.ndarray, start: int = 1) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the first axis, in place,
    with no temporary allocations (three in-place ufunc passes per level).
    At level h each pass runs over h times the size of the trailing axes.
    The levels run from h = start (a power of two) up, so start > 1 runs
    the butterflies of the index bits log2(start) and above only.

    The input must be C-contiguous: reshaping any other layout copies, and
    the transform would land in the copy.
    """
    if not a.flags.c_contiguous:
        raise ValueError("fwht_leading_axis needs a C-contiguous array")
    n = a.shape[0]
    h = start
    while h < n:
        v = a.reshape(n // (2 * h), 2, -1)
        a0 = v[:, 0]
        a1 = v[:, 1]
        a0 += a1          # u + v
        a1 *= -2.0        # -2v
        a1 += a0          # u - v
        h *= 2
    return a


def swapped_order(L: int) -> np.ndarray:
    """The basis index x held by each row y of the bit-swapped order:
    y = (x mod 2^k) 2^(L-k) + (x >> k), with k = L // 2."""
    k = L // 2
    x = np.arange(1 << L, dtype=np.int64)
    return x.reshape(1 << (L - k), 1 << k).T.ravel()


def fwht_swapped(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of the (2^L, ...) array a, whose rows are
    in the bit-swapped order of `swapped_order(L)`, into out in natural
    order.  The butterflies of x bits 0..k-1 run in place on a, as its
    levels h = 2^(L-k)..2^(L-1); one transposing copy puts the rows in
    natural order in out, where x bits k..L-1 run as levels
    h = 2^k..2^(L-1).  Every level's pass spans at least 2^(L//2) rows, and
    each element takes the operations of `fwht_leading_axis` on the
    natural order in the same order, so out is bitwise that transform.
    Both arrays must be C-contiguous and of one shape."""
    n = a.shape[0]
    L = n.bit_length() - 1
    k = L // 2
    fwht_leading_axis(a, 1 << (L - k))
    np.copyto(out.reshape(1 << (L - k), 1 << k, -1),
              a.reshape(1 << k, 1 << (L - k), -1).transpose(1, 0, 2))
    return fwht_leading_axis(out, 1 << k)


@dataclass
class PauliSpectrumSummary:
    """Streamed summary of the Pauli expectation spectrum of one state."""

    L: int
    purities: dict = field(default_factory=dict)  # alpha -> Xi_alpha
    histogram: tuple | None = None  # (counts, bin edges) over |<P>|^2

    def purity(self, alpha) -> float:
        return self.purities[float(alpha)]


class _Workspace:
    """The kernel's buffers at one L: the basis indices, their popcount
    parities and their bit-swapped order, one sub-block of the gather and
    of its natural-order copy (complex), and of the index table (int64,
    later read as float64 |g|^2), and the row-major array p of one
    batch."""

    def __init__(self, L: int):
        n = 1 << L
        self.L = L
        self.idx0 = np.arange(n, dtype=np.int64)
        self.odd = np.bitwise_count(self.idx0) & 1
        self.perm = swapped_order(L)
        self.batch = max(1, min(n, (1 << 21) // n))
        self.width = max(1, min(self.batch, (1 << 17) // n))
        self.gather = np.empty(n * self.width, dtype=np.complex128)
        self.swap = np.empty(n * self.width, dtype=np.complex128)
        self.table = np.empty(n * self.width, dtype=np.int64)
        self.p = np.empty((self.batch, n))


_workspace: _Workspace | None = None


def _workspace_at(L: int) -> _Workspace:
    """This process's workspace, replaced when a call at another L comes."""
    global _workspace
    if _workspace is None or _workspace.L != L:
        _workspace = None  # free the old buffers before the new ones
        _workspace = _Workspace(L)
    return _workspace


def pauli_spectrum(
    state: np.ndarray,
    alphas=(2,),
    histogram_bins: int | None = None,
) -> PauliSpectrumSummary:
    """Compute Xi_alpha for each requested alpha in one pass over all 4^L
    Pauli strings.

    X-masks are summed in batches of max(1, min(2^L, 2^21 / 2^L)) and
    transformed in sub-blocks of at most max(1, 2^17 / 2^L) of a batch's
    live masks, so the working set is fixed once L >= 11.  A sub-block is
    gathered with one column per mask, its rows in the bit-swapped order,
    and transformed by `fwht_swapped`, whose levels all run on long
    contiguous runs; a batch is summed with one row per mask, in the
    floating-point order of a row-major transform (see the module
    docstring).  A bounded histogram of the |<P>|^2 values over [0, 1] is
    accumulated when histogram_bins is given; the full 4^L list is never
    stored.

    When the exact zeros of the state leave support of one popcount
    parity only, the odd X-mask rows, which are exactly zero, are skipped
    and zero-filled (see the module docstring); the output is bitwise the
    same as transforming every row.  Any other state transforms them all.
    """
    psi = np.ascontiguousarray(state, dtype=np.complex128)
    L = _qubit_count(psi)
    _check_normalized(psi)
    n = psi.size
    alphas = tuple(float(a) for a in alphas)
    if any(a < 1 for a in alphas):
        raise ValueError("alpha must be >= 1")

    acc = {a: 0.0 for a in alphas}
    hist_counts = None
    hist_edges = None
    if histogram_bins:
        hist_counts = np.zeros(histogram_bins, dtype=np.int64)
        hist_edges = np.linspace(0.0, 1.0, histogram_bins + 1)

    ws = _workspace_at(L)
    idx0, perm, p = ws.idx0, ws.perm, ws.p
    psi_perm = psi[perm]
    parities = ws.odd[psi != 0]
    # support of one parity: every odd X-mask row is exactly zero
    live = (ws.odd == 0) | (parities.min() != parities.max())
    for start in range(0, n, ws.batch):
        masks = idx0[start : start + ws.batch]
        rows = np.flatnonzero(live[masks])
        # skipped rows stay zero, so the sums run in the floating-point
        # order of the all-mask loop
        p.fill(0.0)
        for lo in range(0, rows.size, ws.width):
            sub = rows[lo : lo + ws.width]
            idx = ws.table[: n * sub.size].reshape(n, sub.size)
            gs = ws.gather[: n * sub.size].reshape(n, sub.size)
            g = ws.swap[: n * sub.size].reshape(n, sub.size)
            # row y, column r holds f_{m_r}(x) = conj(psi[x ^ m_r]) psi[x]
            # for x = perm[y]; every index is in range, and mode="clip"
            # takes no buffered copy
            np.bitwise_xor(perm[:, None], masks[sub], out=idx)
            np.take(psi, idx, out=gs, mode="clip")
            np.conjugate(gs, out=gs)
            gs *= psi_perm[:, None]
            # real and imaginary parts take the same additions; the real
            # -2.0 differs from the complex one only in the sign of exact
            # zeros, which the modulus drops.  g is in natural order.
            fwht_swapped(gs.view(np.float64), g.view(np.float64))
            g2 = idx.view(np.float64)  # the index table is spent
            np.abs(g, out=g2)
            np.multiply(g2, g2, out=g2)  # |<P>|^2
            # back to row order; 64 columns at a time keep the transposed
            # reads in cache
            for x in range(0, n, 64):
                p[sub, x : x + 64] = g2[x : x + 64].T
            if hist_counts is not None:
                # counts do not depend on the element order; clamp the
                # one-ulp overshoot of the identity string
                np.minimum(g2, 1.0, out=g2)
                hist_counts += np.histogram(g2, bins=hist_edges)[0]
        if hist_counts is not None:
            hist_counts[0] += (masks.size - rows.size) * n  # skipped zeros
        for a in alphas[:-1]:
            acc[a] += float(np.sum(p ** a))
        for a in alphas[-1:]:
            # the last power in place: p ** 2.0 is np.square, bitwise p * p
            if a == 2.0:
                np.multiply(p, p, out=p)
            else:
                np.power(p, a, out=p)
            acc[a] += float(np.sum(p))

    purities = {a: acc[a] / n for a in alphas}
    histogram = (hist_counts, hist_edges) if hist_counts is not None else None
    return PauliSpectrumSummary(L=L, purities=purities, histogram=histogram)


def stabilizer_purity_fast(state: np.ndarray, alpha=2) -> float:
    """Xi_alpha via the Walsh-Hadamard kernel."""
    return pauli_spectrum(state, (alpha,)).purity(alpha)


def stabilizer_entropy(state: np.ndarray, alpha=2) -> float:
    """M_alpha = log2(Xi_alpha) / (1 - alpha); non-negative for pure states."""
    if alpha == 1:
        raise ValueError("alpha = 1 is the degenerate (Shannon) index")
    xi = stabilizer_purity_fast(state, alpha)
    return 0.0 - math.log2(xi) / (alpha - 1)  # 0.0 - x: never -0.0


def participation_entropy(state: np.ndarray, k=2) -> float:
    """Renyi participation entropy S_k = log2(sum_x p_x^k)/(1-k), bits."""
    if k == 1:
        return shannon_pe(state)
    if k < 0:
        raise ValueError("k must be >= 0")
    p = np.abs(np.asarray(state)) ** 2
    if k == 0:
        return math.log2(int(np.count_nonzero(p > 1e-14)))
    return 0.0 - math.log2(float(np.sum(p ** k))) / (k - 1)


def shannon_pe(state: np.ndarray) -> float:
    """Shannon participation entropy -sum p log2 p, bits."""
    p = np.abs(np.asarray(state)) ** 2
    p = p[p > 0]
    return float(0.0 - np.sum(p * np.log2(p)))
