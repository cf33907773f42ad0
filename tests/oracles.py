"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles with different
algorithms than the package (permutation sums over the symmetric group,
dense Kronecker Pauli matrices and frame rotations, direct trigonometric
quadrature) so that agreement is meaningful.  The exceptions are code the
package replaced, kept to pin its output: `pauli_spectrum_all_masks` with
its own last-axis `fwht_last_axis`, `haar_chunk_per_state`,
`csyk_index_maps_loop`,
`h_sum_transcribed`, `k1_numerator_transcribed`, `k1_numerator_sliced`,
`k4_numerator_transcribed` and `tilted_row_sums_transcribed`, whose output
the package must equal exactly.  `haar_state`, `charge_expectation`,
`kravchuk_J` and `porter_thomas_pdf` are small references that only the
tests use; `kstest` is scipy's, the reference for the package's port.  The rejected readings of two printed closed forms,
`second_moment_printed_power` and `xi_printed`, are kept so that the
tests can show why the package does not use them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul

import numpy as np

from sectormagic import (Direction, GaussianStream, SeedPolicy, binomial,
                         constrained_haar_state, enumerate_sector,
                         kravchuk_int, pauli_spectrum, second_moment_sp2)


def rising(d: int, k: int) -> int:
    r = 1
    for i in range(k):
        r *= d + i
    return r


def sector_dim(L: int, q: int) -> int:
    if (L - q) % 2 != 0 or abs(q) > L:
        return 0
    return comb(L, (L - q) // 2)


def sector_states(L: int, q: int):
    if sector_dim(L, q) == 0:
        return []
    n1 = (L - q) // 2
    return [x for x in range(2 ** L) if bin(x).count("1") == n1]


# ---------------------------------------------------------------------------
# trigonometric quadrature for the integer Fourier kernel
# ---------------------------------------------------------------------------

def kernel_quadrature(a: int, b: int, q: int) -> complex:
    """(1/2pi) int_0^{2pi} cos^a(t) sin^b(t) e^{-i q t} dt evaluated by an
    equispaced Riemann sum, which is exact (to roundoff) once the number of
    nodes exceeds the top harmonic a + b + |q|."""
    n = a + b + abs(q) + 2
    t = 2.0 * np.pi * np.arange(n) / n
    vals = np.cos(t) ** a * np.sin(t) ** b * np.exp(-1j * q * t)
    return complex(np.sum(vals) / n)


# ---------------------------------------------------------------------------
# dense Pauli matrices (Kronecker construction)
# ---------------------------------------------------------------------------

_P1 = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def pauli_dense(L: int, a: int, b: int) -> np.ndarray:
    """Hermitian string over qubits; qubit 0 = least significant bit."""
    out = np.ones((1, 1), dtype=complex)
    for j in range(L - 1, -1, -1):
        out = np.kron(out, _P1[((a >> j) & 1, (b >> j) & 1)])
    return out


@lru_cache(maxsize=None)
def _pauli_stack(L: int) -> np.ndarray:
    """All 4^L dense strings stacked, a-major then b."""
    return np.stack([
        pauli_dense(L, a, b)
        for a in range(2 ** L) for b in range(2 ** L)
    ])


def pauli_moduli(state: np.ndarray) -> np.ndarray:
    """|<P>| for all 4^L strings from one dense sweep, a-major then b."""
    psi = np.asarray(state, dtype=complex)
    L = psi.size.bit_length() - 1
    return np.abs(np.einsum("i,kij,j->k", psi.conj(), _pauli_stack(L), psi))


def xi_alpha_reference(state: np.ndarray, alphas=(2,)) -> dict:
    """Xi_alpha for several alphas from one dense sweep over all strings."""
    mods = pauli_moduli(state)
    n = np.asarray(state).size  # 2^L
    return {alpha: float(np.sum(mods ** (2 * alpha)) / n) for alpha in alphas}


def fwht_last_axis(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis of a
    C-contiguous array, in place: the row-major butterfly the package's
    leading-axis transform must match element for element."""
    n = a.shape[-1]
    h = 1
    while h < n:
        v = a.reshape(-1, n // (2 * h), 2, h)
        a0 = v[:, :, 0, :]
        a1 = v[:, :, 1, :]
        a0 += a1          # u + v
        a1 *= -2.0        # -2v
        a1 += a0          # u - v
        h *= 2
    return a


def pauli_spectrum_all_masks(state: np.ndarray, alphas=(2,), bins=None):
    """The Walsh-Hadamard kernel transforming every X-mask, zero rows
    included, as (masks, n) rows with the last-axis butterfly: the
    reference that the package's row skipping and leading-axis layout must
    match bit for bit (same batches, same per-batch sums, same histogram).
    Returns ({alpha: Xi_alpha}, the |<P>|^2 counts over bins uniform bins
    of [0, 1], or None without bins)."""
    psi = np.ascontiguousarray(state, dtype=np.complex128)
    n = psi.size
    alphas = tuple(float(a) for a in alphas)
    acc = {a: 0.0 for a in alphas}
    counts = edges = None
    if bins:
        counts = np.zeros(bins, dtype=np.int64)
        edges = np.linspace(0.0, 1.0, bins + 1)
    idx0 = np.arange(n, dtype=np.int64)
    batch = max(1, min(n, (1 << 21) // n))
    for start in range(0, n, batch):
        masks = idx0[start : start + batch]
        gathered = psi[masks[:, None] ^ idx0[None, :]]
        np.conjugate(gathered, out=gathered)
        gathered *= psi[None, :]
        fwht_last_axis(gathered)
        p = np.abs(gathered)
        np.multiply(p, p, out=p)
        for a in alphas:
            if a == 2.0:
                acc[a] += float(np.sum(p * p))
            else:
                acc[a] += float(np.sum(p ** a))
        if counts is not None:
            np.minimum(p, 1.0, out=p)
            counts += np.histogram(p, bins=edges)[0]
    return {a: acc[a] / n for a in alphas}, counts


def haar_chunk_per_state(args):
    """The sector-Haar chunk worker drawing and reducing one state at a
    time: a GaussianStream per task, keyed here by child_key, the embedded
    (and rotated) state, the weights of its 2^L amplitudes and a Shannon
    sum of its own (not magic.shannon_pe).  Same arguments
    and results as `experiments._haar_chunk`, which must equal it bit for
    bit."""
    tasks, seed, exp_id, L, q, frame, observables, hist_bins = args
    keys = [SeedPolicy(seed).child_key(exp_id, i) for i in tasks]
    kernel = "xi2" in observables or "m2" in observables
    basis = enumerate_sector(L, q)
    d, probe = basis.dimension, int(basis.states[0])
    rows = np.empty((len(keys), len(observables)))
    hist = np.zeros(hist_bins, dtype=np.int64) if hist_bins else None
    for i, key in enumerate(keys):
        state = constrained_haar_state(L, q, frame=frame,
                                       seed=GaussianStream(key))
        value = {}
        if kernel:
            value["xi2"] = pauli_spectrum(state, 2.0, hist)
            value["m2"] = 0.0 - math.log2(value["xi2"])
        p = np.abs(state) ** 2
        value["ipr2"] = float(p @ p)
        value["s2"] = 0.0 - math.log2(value["ipr2"])
        value["probe"] = d * float(p[probe])
        w = p[p > 0]
        value["shannon_pe"] = 0.0 - np.sum(w * np.log2(w))
        rows[i] = [value[obs] for obs in observables]
    return rows, hist


# single-qubit U with U sigma^z U^dagger = sigma^frame
_FRAME1 = {
    "z": np.eye(2, dtype=complex),
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "y": np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2.0),
}


def project_to_sector(psi: np.ndarray, q: int, frame: str = "z") -> np.ndarray:
    """Normalized projection of a full state onto the charge-q sector of
    the frame axis: rotate to z with the dense U^{(x) L}, keep the sector
    bitstrings, rotate back."""
    psi = np.asarray(psi, dtype=complex)
    L = psi.size.bit_length() - 1
    U = np.ones((1, 1), dtype=complex)
    for _ in range(L):
        U = np.kron(U, _FRAME1[frame])
    z = U.conj().T @ psi
    kept = np.zeros_like(z)
    xs = sector_states(L, q)
    kept[xs] = z[xs]
    return U @ (kept / np.linalg.norm(kept))


def pauli_sector_block(L: int, q: int, a: int, b: int) -> np.ndarray:
    """Charge-sector block of the Hermitian string i^{|a&b|} X^a Z^b."""
    xs = sector_states(L, q)
    pos = {x: i for i, x in enumerate(xs)}
    d = len(xs)
    M = np.zeros((d, d), dtype=complex)
    ph = 1j ** (bin(a & b).count("1"))
    for c, x in enumerate(xs):
        y = x ^ a
        if y in pos:
            M[pos[y], c] = ph * (-1) ** (bin(b & x).count("1"))
    return M


# ---------------------------------------------------------------------------
# symmetric-group contraction engines for the ensemble moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _s4_class_table():
    """Cycle-type multiplicities of S4."""
    table = {}
    for perm in itertools.permutations(range(4)):
        seen = [False] * 4
        lens = []
        for i in range(4):
            if seen[i]:
                continue
            j, c = i, 0
            while not seen[j]:
                seen[j] = True
                c += 1
                j = perm[j]
            lens.append(c)
        key = tuple(sorted(lens))
        table[key] = table.get(key, 0) + 1
    return table


def _cycle_words(perm, ncolor):
    """Canonical multiset of two-colored cyclic words of a permutation of
    2*ncolor items (items < ncolor carry color 0)."""
    n = len(perm)
    seen = [False] * n
    words = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(0 if j < ncolor else 1)
            j = perm[j]
        rots = [tuple(cyc[r:] + cyc[:r]) for r in range(len(cyc))]
        words.append(min(rots))
    return tuple(sorted(words))


@lru_cache(maxsize=None)
def _s8_class_table():
    """Multiplicities of S8 permutations grouped by their two-colored
    cyclic-word multiset (4 items of each color)."""
    table = {}
    for perm in itertools.permutations(range(8)):
        key = _cycle_words(perm, 4)
        table[key] = table.get(key, 0) + 1
    return table


def _word_trace(word, M, Mp) -> float:
    prod = (M if word[0] == 0 else Mp).copy()
    for c in word[1:]:
        prod = prod @ (M if c == 0 else Mp)
    return float(np.trace(prod).real)


def engine_mean(L: int, q: int) -> float:
    """E[Xi_2] over the sector-Haar ensemble from the S4 permutation sum
    E<M>^4 = sum_sigma prod_cycles Tr M^len / (d)_4 applied per string."""
    d = sector_dim(L, q)
    table = _s4_class_table()
    tot = 0.0
    for a in range(2 ** L):
        for b in range(2 ** L):
            M = pauli_sector_block(L, q, a, b)
            if not M.any():
                continue
            powers = {1: M}
            for k in (2, 3, 4):
                powers[k] = powers[k - 1] @ M
            traces = {k: float(np.trace(powers[k]).real) for k in powers}
            acc = 0.0
            for lens, cnt in table.items():
                term = float(cnt)
                for ln in lens:
                    term *= traces[ln]
                acc += term
            tot += acc
    return tot / (2 ** L * rising(d, 4))


def engine_second_moment(L: int, q: int) -> float:
    """E[Xi_2^2] from the S8 sum with two-colored cycle words (4 copies of
    each of two sector Pauli blocks)."""
    d = sector_dim(L, q)
    table = _s8_class_table()
    blocks = []
    for a in range(2 ** L):
        for b in range(2 ** L):
            M = pauli_sector_block(L, q, a, b)
            if M.any():
                blocks.append(M)
    all_words = sorted({w for key in table for w in key})
    tot = 0.0
    for M in blocks:
        for Mp in blocks:
            cache = {w: _word_trace(w, M, Mp) for w in all_words}
            acc = 0.0
            for key, cnt in table.items():
                term = float(cnt)
                for w in key:
                    term *= cache[w]
                acc += term
            tot += acc
    return tot / (4 ** L * rising(d, 8))


# ---------------------------------------------------------------------------
# miscellaneous small exact references
# ---------------------------------------------------------------------------

def haar_mean_xi2(L: int) -> Fraction:
    """Unconstrained Haar mean of Xi_2 (Clifford orbit counting)."""
    return Fraction(4, 2 ** L + 3)


def haar_state(L: int, seed: int) -> np.ndarray:
    """Haar-random pure state: 2^L i.i.d. complex Gaussians of the stream
    SeedPolicy(seed).stream("adhoc", 0), normalized."""
    if L < 1:
        raise ValueError("L must be >= 1")
    psi = SeedPolicy(int(seed)).stream("adhoc", 0).complex_normals(2 ** L)
    psi /= np.linalg.norm(psi)
    return psi


def charge_expectation(state: np.ndarray, direction="z") -> float:
    """<psi| sum_j n . sigma_j |psi> by per-qubit accumulation, O(L 2^L);
    direction is an axis name, a Direction or a vector."""
    n = Direction.of(direction)
    psi = np.asarray(state, dtype=complex)
    N = psi.size
    L = N.bit_length() - 1
    total = 0.0
    probs = np.abs(psi) ** 2 if n.nz != 0.0 else None
    xs = np.arange(N, dtype=np.int64) if n.nz != 0.0 else None
    for j in range(L):
        if n.nz != 0.0:
            # <sigma^z_j> = sum_x |c_x|^2 (1 - 2 bit_j(x))
            bits = (xs >> j) & 1
            total += n.nz * float(np.sum(probs * (1 - 2 * bits)))
        if n.nx != 0.0 or n.ny != 0.0:
            v = psi.reshape(-1, 2, 2 ** j)
            a = complex(np.sum(np.conjugate(v[:, 0, :]) * v[:, 1, :]))
            # <sigma^x_j> = 2 Re a, <sigma^y_j> = 2 Im a
            total += 2.0 * (n.nx * a.real + n.ny * a.imag)
    return total


def kravchuk_J(a: int, b: int, q: int) -> complex:
    """The Fourier coefficient (-i)^b K_q(a,b) / 2^(a+b) from the package's
    integer kernel, exact in double precision while |K| < 2^53."""
    phase = (1, -1j, -1, 1j)[b % 4]  # (-i)^b
    return phase * (kravchuk_int(a, b, q) / 2 ** (a + b))


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


# ---------------------------------------------------------------------------
# rejected readings of printed closed forms

def second_moment_printed_power(L: int, q: int) -> Fraction:
    """E[Xi_2^2] with the 960-class prefactor read as 960 2^{5L} + 5920
    instead of 960 d_q + 5920: the package's second moment plus the
    difference of the two readings times the K2 sum."""
    d = sector_dim(L, q)
    k2 = sum(comb(L, 2 * m) * comb(2 * m, m) ** 2
             * comb(L - 2 * m, (L - 2 * m - q) // 2) ** 2
             for m in range(L // 2 + 1)
             if (L - 2 * m - q) % 2 == 0 and abs(q) <= L - 2 * m)
    return second_moment_sp2(L, q) + Fraction(
        960 * (2 ** (5 * L) - d) * k2, factorial(8) * comb(d + 7, 8))


# ---------------------------------------------------------------------------
# index-for-index transcriptions of h, of the K1 and K4 second-moment
# kernels and of the tilted mean's row sums


def h_sum_transcribed(L: int, q: int) -> int:
    """h(L, q) = sum_k C(L,k) K_q(L-k,k)^4 with every Kravchuk value from
    its own binomial sum (O(L^2) operations)."""
    if (L - q) % 2 != 0:
        return 0
    return sum(comb(L, k) * kravchuk_int(L - k, k, q) ** 4
               for k in range(L + 1))


_PHASE = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^t as (re, im)


def k1_numerator_transcribed(L: int, q: int) -> tuple[int, int]:
    """2^{7L} K1(L,q) as (real, imaginary) parts: the triple nested sum with
    every factor's (-i)^b phase tracked exactly as a Gaussian integer."""
    acc = [0, 0]
    for k in range(L + 1):
        ck = comb(L, k) * kravchuk_int(L - k, k, q) ** 3
        for j in range(k + 1):
            sgn = (-1) ** (k - j) * comb(k, j)
            for p in range(L - k + 1):
                coeff = (ck * sgn * comb(L - k, p)
                         * kravchuk_int(k - j + p, L - k - p + j, q)
                         * kravchuk_int(j + p, L - p - j, q) ** 3)
                b_total = 3 * k + (L - k - p + j) + 3 * (L - p - j)
                re, im = _PHASE[b_total % 4]
                acc[0] += coeff * re
                acc[1] += coeff * im
    return acc[0], acc[1]


def k1_numerator_sliced(L: int, q: int) -> int:
    """2^{7L} K1(L,q) = sum_{k,j,p} C(L,k) C(k,j) C(L-k,p)
    R[k]^3 R[L-k-p+j] R[L-p-j]^3, with R[t] = K_q(L-t, t), as plain
    integers (O(L^3) operations).

    Every factor of the sum has a + b = L, so the row R is all it reads.
    The factors' (-i)^b phases multiply to (-i)^{4L+2(k-j)-4p} = (-1)^{k-j},
    which cancels the sum's own sign (-1)^{k-j}: the terms are integers.
    """
    row = [kravchuk_int(L - t, t, q) for t in range(L + 1)]
    cubes = [r ** 3 for r in row]
    total = 0
    for k in range(L + 1):
        if cubes[k] == 0:
            continue
        m = L - k
        cm = [comb(m, p) for p in range(m + 1)]
        # p -> m - p (C(m, p) is symmetric) turns both factors into slices
        inner = sum(
            comb(k, j) * sum(map(mul, cm, map(
                mul, row[j:j + m + 1], cubes[k - j:L - j + 1])))
            for j in range(k + 1))
        total += comb(L, k) * cubes[k] * inner
    return total


def k4_numerator_transcribed(L: int, q: int) -> int:
    """2^{4L} K4(L,q) as the triple sum over k, j, p; the second
    fourth-power factor carries frequency 0, the first the charge q."""
    return sum(comb(L, k) * comb(k, j) * comb(L - k, p)
               * kravchuk_int(k - j, L - k - p, q) ** 4
               * kravchuk_int(j, p, 0) ** 4
               for k in range(L + 1) for j in range(k + 1)
               for p in range(L - k + 1))


def tilted_row_sums_transcribed(L: int, q: int) -> tuple[list[int], list[int]]:
    """The tilted mean's a_k = sum_j C(k,j)^2 C(L-k, t-j) and
    b_k = sum_j C(k,j)^4 C(L-k, t-j), t = (L+q)//2, k = 0..L, one
    binomial per term."""
    half = (L + q) // 2
    a = [sum(comb(k, j) ** 2 * binomial(L - k, half - j)
             for j in range(k + 1)) for k in range(L + 1)]
    b = [sum(comb(k, j) ** 4 * binomial(L - k, half - j)
             for j in range(k + 1)) for k in range(L + 1)]
    return a, b


def xi_printed(s: float) -> float:
    """The printed fluctuation factor
    [(3+R)^5 / (4 (1-s^2)^4 (1+8s^2+3R))]^{1/2}, R = sqrt(1+8s^2)."""
    r = math.sqrt(1 + 8 * s * s)
    return math.sqrt((3 + r) ** 5 / (4 * (1 - s * s) ** 4 * (1 + 8 * s * s + 3 * r)))


def g_printed(s: float) -> float:
    """The offset -log2(8 (1-s^2)^2 xi) with the printed xi."""
    return -math.log2(8 * (1 - s * s) ** 2 * xi_printed(s))


def charge_operator_dense(L: int, nx: float, ny: float, nz: float) -> np.ndarray:
    """Dense sum_j n.sigma_j, for cross-checking expectation routines."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    one = nx * sx + ny * sy + nz * sz
    total = np.zeros((2 ** L, 2 ** L), dtype=complex)
    for j in range(L):
        op = np.ones((1, 1), dtype=complex)
        for k in range(L - 1, -1, -1):
            op = np.kron(op, one if k == j else np.eye(2))
        total += op
    return total


# ---------------------------------------------------------------------------
# dense Hamiltonians: Kronecker assembly from Pauli strings and
# Jordan-Wigner fermion matrices, with the package builders' defaults

def _annihilator(L: int, m: int) -> np.ndarray:
    """Jordan-Wigner c_m with the string on sites below m (qubit 0 = LSB)."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
    out = np.ones((1, 1), dtype=complex)
    for k in range(L - 1, -1, -1):
        if k == m:
            f = lower
        elif k < m:
            f = _P1[(0, 1)]
        else:
            f = np.eye(2)
        out = np.kron(out, f)
    return out


def dense_csyk(H) -> np.ndarray:
    """4 (2L)^{-3/2} sum J_{ij;kl} cdag_i cdag_j c_k c_l of a csyk
    Hamiltonian, J = H.params["J"] over the lexicographic pairs (i<j)."""
    L = H.L
    pairs = list(itertools.combinations(range(L), 2))
    c = [_annihilator(L, m) for m in range(L)]
    create = np.stack([c[i].conj().T @ c[j].conj().T for i, j in pairs])
    destroy = np.stack([c[k] @ c[l] for k, l in pairs])
    mixed = np.tensordot(H.params["J"], destroy, axes=(1, 0))
    return (create @ mixed).sum(axis=0) * 4.0 * (2 * L) ** -1.5


def dense_xxz(L: int, J1=1.0, delta=0.5, J2=0.0, h_b=0.0,
              h_x=0.0) -> np.ndarray:
    X = [pauli_dense(L, 1 << j, 0) for j in range(L)]
    Y = [pauli_dense(L, 1 << j, 1 << j) for j in range(L)]
    Z = [pauli_dense(L, 0, 1 << j) for j in range(L)]
    ref = np.zeros((2 ** L, 2 ** L), dtype=complex)
    for j in range(L - 1):
        ref += J1 * (X[j] @ X[j + 1] + Y[j] @ Y[j + 1])
        ref += delta * Z[j] @ Z[j + 1]
    for j in range(L - 2):
        ref += J2 * Z[j] @ Z[j + 1] @ Z[j + 2]
    ref += h_b * (Z[0] - Z[L - 1])
    for j in range(L):
        ref += h_x * X[j]
    return ref


def dense_mfim(L: int, g=1.1, h=0.35, h1=0.25, hL=-0.25) -> np.ndarray:
    X = [pauli_dense(L, 1 << j, 0) for j in range(L)]
    Z = [pauli_dense(L, 0, 1 << j) for j in range(L)]
    ref = np.zeros((2 ** L, 2 ** L), dtype=complex)
    for j in range(L - 1):
        ref += Z[j] @ Z[j + 1]
    for j in range(L):
        ref += g * X[j] + h * Z[j]
    ref += h1 * Z[0] + hL * Z[L - 1]
    return ref


def csyk_index_maps_loop(L: int):
    """Full-space csyk assembly maps (row state, column state, fermionic
    sign, coupling index (i, j) * P + (k, l)) by an explicit loop over
    basis states and operator pairs, in the order x, (k, l), (i, j)."""
    pairs = list(itertools.combinations(range(L), 2))
    pos = {p: n for n, p in enumerate(pairs)}

    def sign(x, site):  # Jordan-Wigner string on the modes below site
        return -1 if bin(x & ((1 << site) - 1)).count("1") & 1 else 1

    out = []
    for x in range(2 ** L):
        occ = [m for m in range(L) if (x >> m) & 1]
        for k, l in itertools.combinations(occ, 2):
            s0 = sign(x, l) * sign(x ^ (1 << l), k)
            y0 = x ^ (1 << l) ^ (1 << k)
            free = [m for m in range(L) if not (y0 >> m) & 1]
            for i, j in itertools.combinations(free, 2):
                s = s0 * sign(y0, j) * sign(y0 ^ (1 << j), i)
                out.append((y0 ^ (1 << j) ^ (1 << i), x, s,
                            pos[(i, j)] * len(pairs) + pos[(k, l)]))
    return [np.array(col) for col in zip(*out)]


def csyk_index_maps_one_shot(L: int, q):
    """The csyk assembly maps with the (x, (k, l), (i, j)) masks filled
    for every basis state at once: the reference for the package's fill,
    which runs 64 basis states at a time."""
    from sectormagic.hamiltonians import _positions, _sector_basis

    basis = _sector_basis("csyk", L, q)
    lo, hi = np.array(list(itertools.combinations(range(L), 2)),
                      dtype=np.int64).T
    pbits = (1 << lo) | (1 << hi)
    x = basis.states[:, None]
    y0 = x ^ pbits
    cols, kl, ij = np.nonzero(((x & pbits) == pbits)[:, :, None]
                              & ((y0[:, :, None] & pbits) == 0))
    x, y0 = basis.states[cols], y0[cols, kl]
    below = (1 << np.arange(L)) - 1
    strings = sum(np.bitwise_count(v & below[site]) for v, site in (
        (x, hi[kl]), (x, lo[kl]), (y0, hi[ij]), (y0, lo[ij])))
    return (_positions(basis, y0 | pbits[ij]), cols,
            1.0 - 2.0 * (strings & 1), ij * lo.size + kl)


def csyk_block_one_shot(H, q) -> np.ndarray:
    """The csyk charge-q block made Hermitian in one shot over the whole
    block, (B + B^H) / 2: the reference for the package's tiled pass."""
    from sectormagic.hamiltonians import _sector_basis

    basis = _sector_basis("csyk", H.L, q)
    rows, cols, signs, cidx = csyk_index_maps_one_shot(H.L, q)
    block = np.zeros((basis.dimension,) * 2, dtype=np.complex128)
    np.add.at(block, (rows, cols),
              signs * H.params["J"].reshape(-1)[cidx])
    block *= 4.0 * (2 * H.L) ** -1.5
    return (block + block.conj().T) / 2


def diagonalize_one_shot(matrix: np.ndarray):
    """Eigenvalues and phase-fixed vectors of a Hermitian matrix with the
    phases divided out over the whole vector array at once: the reference
    for the package's sliced phase fix."""
    import scipy.linalg

    evals, evecs = scipy.linalg.eigh(np.asarray(matrix))
    pivot = np.argmax(np.abs(evecs), axis=0)
    lead = evecs[pivot, np.arange(evecs.shape[1])]
    phase = np.where(np.abs(lead) > 0, lead / np.abs(lead), 1.0)
    return evals, np.ascontiguousarray(evecs / phase[None, :])


def kstest(x, cdf):
    """(statistic, pvalue) of scipy's two-sided one-sample KS test: the
    reference for `harness.stats.ks_two_sided`, ported from it."""
    import scipy.stats

    res = scipy.stats.kstest(x, cdf)
    return float(res.statistic), float(res.pvalue)
