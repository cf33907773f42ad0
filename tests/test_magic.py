import math
import tracemalloc

import numpy as np
import pytest

import oracles
from sectormagic import (
    constrained_haar_state,
    participation_entropy,
    pauli_spectrum,
    shannon_pe,
    stabilizer_entropy,
    stabilizer_purity_fast,
)
from sectormagic import magic
from sectormagic.magic import fwht_leading_axis, fwht_swapped, swapped_order
from sectormagic.sectors import popcount

from oracles import haar_state


def t_state(L):
    one = np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2.0)
    psi = np.ones(1, dtype=complex)
    for _ in range(L):
        psi = np.kron(psi, one)
    return psi


def ghz_state(L):
    psi = np.zeros(2 ** L, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    return psi


def test_fwht_matches_hadamard_matrix():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    H1 = np.array([[1.0, 1.0], [1.0, -1.0]])
    H = np.kron(np.kron(H1, H1), H1)
    got = fwht_leading_axis(v.copy())
    np.testing.assert_allclose(got, H @ v, atol=1e-12)
    # involution up to n
    np.testing.assert_allclose(fwht_leading_axis(got.copy()) / 8.0, v,
                               atol=1e-12)


def test_fwht_rejects_non_contiguous_input():
    """A transposed view would be reshaped into a copy: the transform would
    leave the input unchanged, so the kernel refuses it, also with a start
    level, and the swapped transform refuses one as input or output."""
    x = np.random.default_rng(1).normal(size=(3, 16)) + 0j
    view = x.T
    before = view.copy()
    with pytest.raises(ValueError, match="C-contiguous"):
        fwht_leading_axis(view)
    np.testing.assert_array_equal(view, before)
    with pytest.raises(ValueError, match="C-contiguous"):
        fwht_leading_axis(view, 4)
    y = np.random.default_rng(2).normal(size=(6, 16))
    for a, out in ((y.T, np.empty((16, 6))),
                   (np.ascontiguousarray(y.T), np.empty((6, 16)).T)):
        with pytest.raises(ValueError, match="C-contiguous"):
            fwht_swapped(a, out)
    np.testing.assert_array_equal(view, before)
    contiguous = np.ascontiguousarray(view)
    H1 = np.array([[1.0, 1.0], [1.0, -1.0]])
    H = np.kron(np.kron(np.kron(H1, H1), H1), H1)
    np.testing.assert_allclose(fwht_leading_axis(contiguous), H @ before,
                               atol=1e-12)


def test_fwht_leading_axis_equals_last_axis_butterfly():
    """The leading-axis transform of A.T runs the row-major butterfly of A
    in the same order: equal element for element, not just to rounding,
    also on the float64 view of the complex array that the kernel
    transforms."""
    rng = np.random.default_rng(3)
    for k in range(1, 11):
        A = rng.normal(size=(5, 2 ** k)) + 1j * rng.normal(size=(5, 2 ** k))
        ref = oracles.fwht_last_axis(A.copy())
        got = fwht_leading_axis(np.ascontiguousarray(A.T))
        np.testing.assert_array_equal(got, ref.T)
        got = np.ascontiguousarray(A.T)
        fwht_leading_axis(got.view(np.float64))
        np.testing.assert_array_equal(got, ref.T)


def test_swapped_transform_equals_last_axis_butterfly():
    """Row y of the swapped order holds x with y = (x mod 2^k) 2^(L-k) +
    (x >> k), k = L // 2.  Rows gathered in that order, the low levels,
    the one transposing copy and the high levels give the row-major
    last-axis butterfly element for element, not just to rounding: for
    even and odd L (unequal halves), on the float64 view of a complex
    array and on plain float64."""
    rng = np.random.default_rng(5)
    for L in range(1, 13):
        k = L // 2
        perm = swapped_order(L)
        x = np.arange(2 ** L)
        np.testing.assert_array_equal(
            perm[(x % 2 ** k) * 2 ** (L - k) + (x >> k)], x)
        for cols in (1, 3, 32, 128):
            A = (rng.normal(size=(cols, 2 ** L))
                 + 1j * rng.normal(size=(cols, 2 ** L)))
            for B in (A, A.real.copy()):
                ref = oracles.fwht_last_axis(B.copy())
                gathered = np.ascontiguousarray(B.T[perm])
                out = np.empty_like(gathered)
                fwht_swapped(gathered.view(np.float64), out.view(np.float64))
                np.testing.assert_array_equal(out, ref.T)


def test_fast_equals_bruteforce_on_random_states():
    """The kernel against the dense sweep over all 4^L Pauli matrices."""
    for L in (1, 2, 3, 4):
        for seed in (1, 2):
            psi = haar_state(L, seed=seed)
            brute = oracles.xi_alpha_reference(psi, alphas=(2, 3))
            for alpha in (2, 3):
                fast = stabilizer_purity_fast(psi, alpha)
                assert fast == pytest.approx(brute[alpha], abs=1e-12), (
                    L, seed, alpha)


def test_parseval_alpha_one():
    """Xi_1 = 1 for every normalized state (completeness of the Pauli basis)."""
    for L in (1, 3, 5):
        psi = haar_state(L, seed=L)
        assert stabilizer_purity_fast(psi, 1) == pytest.approx(1.0, abs=1e-10)


def test_magic_free_states():
    """Computational basis states and GHZ are stabilizer states: Xi_2 = 1."""
    for L in (2, 3, 4):
        e0 = np.zeros(2 ** L, dtype=complex)
        e0[3 % 2 ** L] = 1.0
        assert stabilizer_purity_fast(e0) == pytest.approx(1.0, abs=1e-12)
        assert stabilizer_purity_fast(ghz_state(L)) == pytest.approx(1.0, abs=1e-12)
        assert stabilizer_entropy(ghz_state(L)) == pytest.approx(0.0, abs=1e-10)


def test_t_state_tensor_powers():
    """Xi_2(T^L) = (3/4)^L and Xi_3(T^L) = (5/8)^L; M_2 additive.  L = 11
    runs the kernel over two batches of 1024 X-masks."""
    for L in (1, 2, 3, 5, 11):
        psi = t_state(L)
        assert stabilizer_purity_fast(psi, 2) == pytest.approx(0.75 ** L, rel=1e-10)
        assert stabilizer_purity_fast(psi, 3) == pytest.approx(0.625 ** L, rel=1e-10)
        assert stabilizer_entropy(psi, 2) == pytest.approx(
            L * math.log2(4.0 / 3.0), abs=1e-9
        )


def test_clifford_invariance():
    """Hadamard on every qubit and CZ on a pair leave the purity unchanged."""
    L = 4
    psi = haar_state(L, seed=17)
    base = stabilizer_purity_fast(psi)
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    H = np.ones((1, 1))
    for _ in range(L):
        H = np.kron(H, h1)
    assert stabilizer_purity_fast(H @ psi) == pytest.approx(base, abs=1e-11)
    # CZ between qubits 0 and 1 (diagonal phase on bits 0 and 1 both set)
    x = np.arange(2 ** L)
    cz = np.where((x & 1) & ((x >> 1) & 1), -1.0, 1.0)
    assert stabilizer_purity_fast(cz * psi) == pytest.approx(base, abs=1e-11)


def test_multi_alpha_single_pass_and_batching():
    psi = haar_state(5, seed=4)
    summary = pauli_spectrum(psi, alphas=(1, 2, 3))
    assert summary.L == 5
    assert summary.purity(1) == pytest.approx(1.0, abs=1e-10)
    ref2 = oracles.xi_alpha_reference(psi, alphas=(2, 3))
    assert summary.purity(2) == pytest.approx(ref2[2], abs=1e-11)
    assert summary.purity(3) == pytest.approx(ref2[3], abs=1e-11)


def test_histogram_counts_all_strings():
    L = 4
    psi = constrained_haar_state(L, 0, seed=8)
    s = pauli_spectrum(psi, alphas=(2,), histogram_bins=50)
    counts, edges = s.histogram
    assert counts.sum() == 4 ** L
    assert edges[0] == 0.0 and edges[-1] == 1.0
    # bin by bin against the dense sweep (the identity string clamped to 1)
    ref = np.minimum(oracles.pauli_moduli(psi) ** 2, 1.0)
    np.testing.assert_array_equal(np.histogram(ref, bins=edges)[0], counts)
    # moment reconstructed from the histogram approximates Xi_2
    mids = 0.5 * (edges[1:] + edges[:-1])
    approx = float(np.sum(counts * mids ** 2)) / 2 ** L
    assert approx == pytest.approx(s.purity(2), abs=0.01)


def test_sector_states_have_even_x_mask_support():
    """For fixed-charge states every Pauli with an odd number of X/Y factors
    has exactly zero expectation (it changes the charge).  The kernel skips
    these rows, so the dense sweep must give exact zeros there."""
    L, q = 4, 0
    psi = constrained_haar_state(L, q, seed=21)
    for a in range(2 ** L):
        if popcount(a) % 2 == 0:
            continue
        for b in range(0, 2 ** L, 3):
            P = oracles.pauli_dense(L, a, b)
            assert abs(np.vdot(psi, P @ psi)) < 1e-13
    for L in (4, 5):
        odd = np.bitwise_count(np.arange(2 ** L)) % 2 == 1
        for q in range(-L, L + 1, 2):
            psi = constrained_haar_state(L, q, seed=L + q)
            mods = oracles.pauli_moduli(psi).reshape(2 ** L, 2 ** L)
            assert np.all(mods[odd] == 0.0), (L, q)


def test_row_skipping_is_bitwise_equal_to_all_masks():
    """Parity-definite states skip the odd X-mask rows; purities and
    histogram counts equal the all-mask loop, row-major with its own
    last-axis butterfly, exactly.  The mixed-parity, x-frame, full Haar
    and real full-space states take the all-rows path: the L = 11 Haar
    state over two batches, the L = 12 x-frame state over 8 batches of 16
    sub-blocks each."""
    cases = [(L, q) for L in range(1, 11) for q in range(-L, L + 1, 2)]
    states = [constrained_haar_state(L, q, seed=L + q)
              for L, q in cases + [(12, 0), (12, 2)]]
    mixed = np.zeros(2 ** 6, dtype=complex)
    mixed[0] = mixed[1] = 1.0 / math.sqrt(2.0)
    xframes = [constrained_haar_state(6, 2, frame="x", seed=5),
               constrained_haar_state(12, 0, frame="x", seed=7)]
    full = haar_state(11, seed=6)
    real = np.ascontiguousarray(haar_state(9, seed=8).real)
    real /= np.linalg.norm(real)
    for psi in [mixed] + xframes:
        parity = np.bitwise_count(np.arange(psi.size)) % 2
        assert set(parity[psi != 0]) == {0, 1}
    assert np.all(full != 0) and np.all(real != 0)
    for psi in states + [mixed, full, real] + xframes:
        got = pauli_spectrum(psi, (2, 3), histogram_bins=200)
        ref = oracles.pauli_spectrum_all_masks(psi, (2, 3), histogram_bins=200)
        assert got.purities == ref.purities
        np.testing.assert_array_equal(got.histogram[0], ref.histogram[0])
    psi = constrained_haar_state(8, 2, seed=7)
    got = pauli_spectrum(psi, (2,))
    assert got.histogram is None
    assert got.purities == oracles.pauli_spectrum_all_masks(psi, (2,)).purities


def test_input_validation():
    with pytest.raises(ValueError):
        stabilizer_purity_fast(np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        stabilizer_purity_fast(np.ones(4, dtype=complex))  # unnormalized
    with pytest.raises(ValueError):
        pauli_spectrum(haar_state(2, 0), alphas=(0.5,))
    with pytest.raises(ValueError):
        stabilizer_entropy(haar_state(2, 0), alpha=1)


def test_kernel_working_set_is_fixed(monkeypatch):
    """From L = 11 on the kernel transforms 2^21 Pauli strings per batch,
    so its peak allocation stops growing with L and stays below the 4^L
    spectrum it never materializes.  A sector state, whose skipped rows
    are zero-filled for the sums, peaks no higher than a full state.  Each
    measured call starts from a cleared workspace, so its peak holds the
    workspace's buffers too.  The L = 12 peak is no higher than the
    24 177 320 B that the same call peaked at with unswapped 2^18-amplitude
    sub-blocks (gather and index table, no swap buffer)."""
    states = [haar_state(L, seed=2) for L in (11, 12)]
    states.append(constrained_haar_state(12, 0, seed=2))
    pauli_spectrum(states[0], (2,), histogram_bins=200)  # warm up
    peaks = []
    for psi in states:
        monkeypatch.setattr(magic, "_workspace", None)
        tracemalloc.start()
        pauli_spectrum(psi, (2,), histogram_bins=200)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] == pytest.approx(peaks[0], rel=0.01)
    assert peaks[1] < (4 ** 12) * 8
    assert peaks[2] <= peaks[1]
    assert peaks[1] <= 24_177_320


def _spectrum_bytes(psi, bins=None):
    summ = pauli_spectrum(psi, (2, 3), histogram_bins=bins)
    hist = None if summ.histogram is None else summ.histogram[0].tobytes()
    return summ.purities, hist


def test_fresh_and_reused_workspace_give_equal_bytes(monkeypatch):
    """The kernel's buffers outlive a call; the next call at the same L
    reuses them and gives the bytes of a call on a fresh workspace."""
    for psi in (constrained_haar_state(8, 0, seed=3),
                constrained_haar_state(8, 2, frame="x", seed=3)):
        for bins in (None, 200):
            monkeypatch.setattr(magic, "_workspace", None)
            fresh = _spectrum_bytes(psi, bins)
            assert _spectrum_bytes(psi, bins) == fresh


def test_interleaved_sizes_change_nothing(monkeypatch):
    """Each call at another L replaces the workspace; going back and forth
    between L = 8 and L = 10 gives the bytes of fresh calls."""
    states = (constrained_haar_state(8, 0, seed=4),
              constrained_haar_state(10, 2, frame="x", seed=4))
    fresh = []
    for psi in states:
        monkeypatch.setattr(magic, "_workspace", None)
        fresh.append(_spectrum_bytes(psi))
    for _ in range(2):
        for psi, want in zip(states, fresh):
            assert _spectrum_bytes(psi) == want


def test_histogram_call_between_plain_calls_changes_nothing(monkeypatch):
    psi = constrained_haar_state(8, 0, seed=5)
    monkeypatch.setattr(magic, "_workspace", None)
    plain = _spectrum_bytes(psi)
    binned = _spectrum_bytes(psi, 200)
    assert _spectrum_bytes(psi) == plain
    monkeypatch.setattr(magic, "_workspace", None)
    assert _spectrum_bytes(psi, 200) == binned


def test_all_rows_state_after_a_smaller_call_matches_all_masks():
    """An x-frame state transforms every X-mask, at L = 11 in two batches
    of 1024 masks, each in 16 sub-blocks of 64; after an L = 8 call it still
    equals the all-mask reference, histogram included."""
    pauli_spectrum(constrained_haar_state(8, 0, seed=6), (2,))
    psi = constrained_haar_state(11, 1, frame="x", seed=6)
    got = pauli_spectrum(psi, (2,), histogram_bins=200)
    ref = oracles.pauli_spectrum_all_masks(psi, (2,), histogram_bins=200)
    assert got.purities == ref.purities
    np.testing.assert_array_equal(got.histogram[0], ref.histogram[0])


def test_entropy_hierarchy_and_pe_bound():
    """M_alpha decreasing in alpha; M_2 bounded by twice the collision PE."""
    for seed in (1, 2, 3):
        psi = constrained_haar_state(6, 0, seed=seed)
        m2 = stabilizer_entropy(psi, 2)
        m3 = stabilizer_entropy(psi, 3)
        assert m3 <= m2 + 1e-9
        assert m2 <= 2.0 * participation_entropy(psi, 2) + 1e-9


def test_participation_entropies():
    L = 3
    flat = np.full(2 ** L, 1.0 / math.sqrt(2 ** L), dtype=complex)
    assert participation_entropy(flat, 2) == pytest.approx(L, abs=1e-12)
    assert shannon_pe(flat) == pytest.approx(L, abs=1e-12)
    assert participation_entropy(flat, 0) == pytest.approx(L, abs=1e-12)
    assert participation_entropy(flat, 1) == pytest.approx(L, abs=1e-12)
    e0 = np.zeros(8, dtype=complex)
    e0[5] = 1.0
    assert participation_entropy(e0, 2) == pytest.approx(0.0, abs=1e-12)
    assert shannon_pe(e0) == pytest.approx(0.0, abs=1e-12)
    # a zero entropy is +0.0: -log2(1) would print as -0
    for entropy in (shannon_pe(e0), participation_entropy(e0, 2),
                    participation_entropy(e0, 0.5), stabilizer_entropy(e0)):
        assert math.copysign(1.0, entropy) == 1.0
    with pytest.raises(ValueError):
        participation_entropy(flat, -1)
    # Renyi PEs decrease in k
    psi = haar_state(4, seed=9)
    s1, s2, s3 = (participation_entropy(psi, k) for k in (1, 2, 3))
    assert s3 <= s2 <= s1
