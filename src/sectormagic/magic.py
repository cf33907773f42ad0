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
`pauli_spectrum` returns Xi_alpha of one alpha per call; given a caller's
int64 array, it also adds to it the bin counts of the 4^L |<P>|^2 values.

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

import numpy as np

from .sectors import _qubit_count

__all__ = [
    "pauli_spectrum",
    "stabilizer_entropy",
    "participation_block",
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


def pauli_spectrum(state: np.ndarray, alpha=2.0, hist=None) -> float:
    """Xi_alpha of a normalized 2^L-amplitude state, in one pass over all
    4^L Pauli strings.

    X-masks are summed in batches of max(1, min(2^L, 2^21 / 2^L)) and
    transformed in sub-blocks of at most max(1, 2^17 / 2^L) of a batch's
    live masks, so the working set is fixed once L >= 11.  A sub-block is
    gathered with one column per mask, its rows in the bit-swapped order,
    and transformed by `fwht_swapped`, whose levels all run on long
    contiguous runs; a batch is summed with one row per mask, in the
    floating-point order of a row-major transform (see the module
    docstring).  With hist, an int64 array, the |<P>|^2 values are counted
    over hist.size uniform bins of [0, 1] and the counts added to it in
    place; the full 4^L list is never stored.

    When the exact zeros of the state leave support of one popcount
    parity only, the odd X-mask rows, which are exactly zero, are skipped
    and zero-filled (see the module docstring); the output is bitwise the
    same as transforming every row.  Any other state transforms them all.
    """
    psi = np.ascontiguousarray(state, dtype=np.complex128)
    L = _qubit_count(psi)
    _check_normalized(psi)
    n = psi.size
    alpha = float(alpha)
    if not alpha >= 1:
        raise ValueError("alpha must be >= 1")
    if hist is not None:
        if hist.size == 0:
            raise ValueError("hist needs at least one bin")
        edges = np.linspace(0.0, 1.0, hist.size + 1)

    acc = 0.0
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
            if hist is not None:
                # counts do not depend on the element order; clamp the
                # one-ulp overshoot of the identity string
                np.minimum(g2, 1.0, out=g2)
                hist += np.histogram(g2, bins=edges)[0]
        if hist is not None:
            hist[0] += (masks.size - rows.size) * n  # skipped zeros
        # the power in place: p ** 2.0 is np.square, bitwise p * p
        if alpha == 2.0:
            np.multiply(p, p, out=p)
        else:
            np.power(p, alpha, out=p)
        acc += float(np.sum(p))
    return acc / n


def stabilizer_entropy(state: np.ndarray, alpha=2) -> float:
    """M_alpha = log2(Xi_alpha) / (1 - alpha); non-negative for pure states."""
    if alpha == 1:
        raise ValueError("alpha = 1 is the degenerate (Shannon) index")
    xi = pauli_spectrum(state, alpha)
    return 0.0 - math.log2(xi) / (alpha - 1)  # 0.0 - x: never -0.0


def participation_block(weights: np.ndarray, support, L: int):
    """(ipr2, s2, shannon_pe) of a block of states, one entry per row:
    ipr2 = sum_x p_x^2, s2 = -log2(ipr2) and -sum_x p_x log2 p_x, in bits.
    Row i holds the weights p_x = |c_x|^2 of one normalized 2^L-amplitude
    state at x = support, in increasing x (every other p_x is 0).  Each
    value has the bits of the formula on the full 2^L weights, whatever the
    support and the block: ipr2 is one BLAS dot over the 2^L weights (a dot
    over the support alone rounds differently), and shannon_pe one 1-D
    pairwise np.sum per row over the positive weights (numpy does not
    promise that order for a 2-D reduction along axis 1)."""
    full = np.zeros(1 << L)
    ipr2 = np.empty(len(weights))
    for i, w in enumerate(weights):
        full[support] = w
        ipr2[i] = full @ full
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights * np.log2(weights)
    shannon = np.array([0.0 - np.sum(t if pos.all() else t[pos])
                        for t, pos in zip(terms, weights > 0)])
    return ipr2, np.array([0.0 - math.log2(x) for x in ipr2]), shannon


def participation_entropy(state: np.ndarray, k=2) -> float:
    """Renyi participation entropy S_k = log2(sum_x p_x^k)/(1-k), bits, of a
    2^L-amplitude state; S_1 (Shannon) and S_2 are participation_block's."""
    if not k >= 0:
        raise ValueError("k must be >= 0")
    p = np.abs(np.asarray(state)).ravel() ** 2
    if k in (1, 2):
        _, s2, s1 = participation_block(p[None], slice(None), _qubit_count(p))
        return float((s1 if k == 1 else s2)[0])
    if k == 0:
        return math.log2(int(np.count_nonzero(p > 1e-14)))
    return 0.0 - math.log2(float(np.sum(p ** k))) / (k - 1)


def shannon_pe(state: np.ndarray) -> float:
    """Shannon participation entropy -sum p log2 p, bits: S_1."""
    return participation_entropy(state, 1)
