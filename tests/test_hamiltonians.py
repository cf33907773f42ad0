import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from sectormagic import (
    Hamiltonian,
    build_csyk,
    build_mfim,
    build_xxz_nnn,
    diagonalize,
    embed_eigenvector,
    extract_sector_block,
    m2_mean_bound,
    midspectrum_filter,
    sector_dimension,
)
from sectormagic.hamiltonians import (
    NumericalContractError,
    _csyk_index_maps,
    adjacent_gap_ratio,
)
from sectormagic.harness import run_disorder_sweep


def _popcount(x):
    return np.bitwise_count(np.asarray(x)).astype(int)


# ---------------------------------------------------------------------------
# blocks against the dense Kronecker references in tests/oracles.py


def _check_blocks(H, ref, charge):
    """Every sector block of H, and the q=None block, equals the matching
    slice of the dense reference; the sector bases hold exactly the states
    of their charge and together cover the full space."""
    L = H.L
    full, basis = extract_sector_block(H, None)
    np.testing.assert_array_equal(basis.states, np.arange(2 ** L))
    np.testing.assert_allclose(full, ref, atol=1e-12)
    covered = []
    for q in range(-L, L + 1, 2):
        block, basis = extract_sector_block(H, q)
        assert np.all(charge(basis.states) == q)
        assert np.all(np.diff(basis.states) > 0)
        np.testing.assert_allclose(
            block, ref[np.ix_(basis.states, basis.states)], atol=1e-12)
        covered.extend(basis.states)
    assert sorted(covered) == list(range(2 ** L))


def test_csyk_matches_dense_operator_assembly():
    """Rebuild one realization from explicit JW fermion matrices."""
    for L in (4, 5, 6):
        H = build_csyk(L, seed=5)
        _check_blocks(H, oracles.dense_csyk(H),
                      lambda x: 2 * _popcount(x) - L)


def test_xxz_matches_dense_operator_assembly():
    p = dict(J1=0.9, delta=0.4, J2=0.7, h_b=0.3)
    broken = dict(p, h_x=0.2)
    for L in (3, 4, 5):
        _check_blocks(build_xxz_nnn(L, **p), oracles.dense_xxz(L, **p),
                      lambda x: L - 2 * _popcount(x))
        # the transverse field has no sectors, but the full space assembles
        full, _ = extract_sector_block(build_xxz_nnn(L, **broken), None)
        np.testing.assert_allclose(full, oracles.dense_xxz(L, **broken),
                                   atol=1e-12)


def test_mfim_matches_dense_operator_assembly():
    p = dict(g=1.2, h=0.3, h1=0.2, hL=-0.1)
    for L in (3, 4):
        full, basis = extract_sector_block(build_mfim(L, **p), None)
        np.testing.assert_array_equal(basis.states, np.arange(2 ** L))
        np.testing.assert_allclose(full, oracles.dense_mfim(L, **p),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# structural contracts


def test_xxz_two_site_fixture():
    """Hand-checked L = 2 matrix in basis order 00, 01, 10, 11, with
    charges 2, 0, 0, -2."""
    H = build_xxz_nnn(2, J1=1.0, delta=0.5, h_b=0.25)
    want = np.array(
        [
            [0.5, 0.0, 0.0, 0.0],
            [0.0, -1.0, 2.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5],
        ]
    )
    np.testing.assert_allclose(extract_sector_block(H, None)[0], want,
                               atol=1e-14)
    for q, states in ((2, [0]), (0, [1, 2]), (-2, [3])):
        block, basis = extract_sector_block(H, q)
        np.testing.assert_array_equal(basis.states, states)
        np.testing.assert_allclose(block, want[np.ix_(states, states)],
                                   atol=1e-14)


def test_xxz_triple_term_parity():
    """Pure ZZZ at L = 3 is diagonal with sign (-1)^popcount."""
    H = build_xxz_nnn(3, J1=0.0, delta=0.0, J2=1.0)
    x = np.arange(8)
    want = np.where(np.bitwise_count(x) % 2 == 0, 1.0, -1.0)
    np.testing.assert_allclose(extract_sector_block(H, None)[0],
                               np.diag(want), atol=1e-14)


def test_charge_diagonals():
    """csyk counts fermions (2 N_f - L), xxz counts spins (L - 2 N_down),
    mfim has no charge."""
    for H, sign in ((build_csyk(4, seed=0), 1), (build_xxz_nnn(4), -1)):
        charge = np.zeros(16, dtype=int)
        for q in range(-4, 5, 2):
            charge[extract_sector_block(H, q)[1].states] = q
        nf = _popcount(np.arange(16))
        np.testing.assert_array_equal(charge, sign * (2 * nf - 4))
    with pytest.raises(ValueError):
        extract_sector_block(build_mfim(4), 0)


def test_build_argument_validation():
    with pytest.raises(ValueError):
        build_csyk(1)
    with pytest.raises(ValueError):
        build_csyk(15)
    with pytest.raises(ValueError):
        build_xxz_nnn(1)
    with pytest.raises(ValueError):
        build_mfim(1)


@pytest.mark.parametrize("build", [build_csyk, build_xxz_nnn, build_mfim])
def test_every_builder_stops_at_L_14(build):
    """One L range for every model: each kept eigenvector is embedded in
    2^L amplitudes for the O(L 4^L) Pauli kernel."""
    with pytest.raises(ValueError, match="supports 2 <= L <= 14, got 15"):
        build(15)


def test_coupling_tensor_hermiticity_enforced():
    """A hand-made non-Hermitian coupling matrix is refused when its block
    is assembled."""
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0  # no conjugate partner
    with pytest.raises(NumericalContractError, match="non-Hermitian"):
        extract_sector_block(Hamiltonian("csyk", 3, params={"J": bad}), None)


def test_csyk_determinism_and_hermiticity():
    a, _ = extract_sector_block(build_csyk(6, seed=11), None)
    b, _ = extract_sector_block(build_csyk(6, seed=11), None)
    np.testing.assert_array_equal(a, b)
    other, _ = extract_sector_block(build_csyk(6, seed=12), None)
    assert not np.array_equal(a, other)
    assert np.max(np.abs(a - a.conj().T)) == 0.0


def test_csyk_index_maps_match_loop_order():
    """The vectorized maps list the same terms as the explicit loop, in the
    same order, so np.add.at sums duplicates in the same order."""
    for L in (4, 5, 6):
        rows, cols, signs, cidx = oracles.csyk_index_maps_loop(L)
        for q in [None] + list(range(-L, L + 1, 2)):
            _, basis = extract_sector_block(build_csyk(L, seed=0), q)
            keep = np.isin(cols, basis.states)
            got = _csyk_index_maps(L, q)
            np.testing.assert_array_equal(basis.states[got[0]], rows[keep])
            np.testing.assert_array_equal(basis.states[got[1]], cols[keep])
            np.testing.assert_array_equal(got[2], signs[keep])
            np.testing.assert_array_equal(got[3], cidx[keep])


def test_csyk_sector_block_never_builds_the_full_matrix():
    """Index maps and the q = 0 block at L = 12 stay far below the
    256 MiB that one dense 2^12 x 2^12 complex matrix takes."""
    _csyk_index_maps.cache_clear()
    tracemalloc.start()
    try:
        block, _ = extract_sector_block(build_csyk(12, seed=1), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (924, 924)
    assert peak < 128 * 2 ** 20, peak / 2 ** 20


def test_tiled_csyk_assembly_is_bitwise_the_one_shot_form():
    """Blocks of several tiles a side (d = 252, 210 and 256): the index
    maps, filled 64 basis states at a time, equal the one-shot fill, and
    the tiled Hermitian pass gives the bytes of (B + B^H) / 2 taken over
    the whole block."""
    for L, q in ((10, 0), (10, 2), (8, None)):
        for got, want in zip(_csyk_index_maps(L, q),
                             oracles.csyk_index_maps_one_shot(L, q)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        H = build_csyk(L, seed=4)
        block, _ = extract_sector_block(H, q)
        assert block.tobytes() == oracles.csyk_block_one_shot(H, q).tobytes()


def test_tiled_csyk_assembly_catches_a_defect_in_the_last_tile():
    """A non-Hermitian coupling between the pairs (8, 9) and (7, 9) puts
    its entries in rows of the last tile of the L = 10, q = 0 block."""
    H = build_csyk(10, seed=4)
    H.params["J"][-1, -2] += 1e-6
    with pytest.raises(NumericalContractError, match="non-Hermitian"):
        extract_sector_block(H, 0)


def test_csyk_sector_structure():
    """Charge blocks have binomial dimensions; the two-body interaction
    annihilates the empty and single-fermion sectors identically."""
    H = build_csyk(8, seed=3)
    dims = []
    for nf in range(9):
        q = 2 * nf - 8
        block, basis = extract_sector_block(H, q)
        dims.append(block.shape[0])
        assert basis.dimension == sector_dimension(8, -q)  # C is symmetric
    assert dims == [1, 8, 28, 56, 70, 56, 28, 8, 1]
    for nf in (0, 1):
        block, _ = extract_sector_block(H, 2 * nf - 8)
        assert not np.any(block)


def test_extract_sector_block_contracts():
    H = build_xxz_nnn(6)
    block, basis = extract_sector_block(H, 0)
    assert block.shape == (20, 20)
    assert np.all(np.diff(basis.states) > 0)
    x = basis.states
    assert np.all(6 - 2 * np.bitwise_count(x) == 0)
    with pytest.raises(ValueError):
        extract_sector_block(H, 1)  # parity-absent charge


def test_broken_charge_fails_extraction():
    H = build_xxz_nnn(5, h_x=0.5)
    with pytest.raises(NumericalContractError):
        extract_sector_block(H, 1)


def test_embed_eigenvector_roundtrip():
    block, basis = extract_sector_block(build_xxz_nnn(5), 1)
    es = diagonalize(block)
    v = es.vectors[:, 0]
    full = embed_eigenvector(v, basis)
    # still an eigenvector of the full H with the same eigenvalue
    resid = np.max(np.abs(oracles.dense_xxz(5) @ full - es.values[0] * full))
    assert resid < 1e-10


# ---------------------------------------------------------------------------
# eigensolver and spectral utilities


def test_diagonalize_contracts():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    A = (A + A.conj().T) / 2
    es = diagonalize(A)
    assert np.all(np.diff(es.values) >= 0)
    np.testing.assert_allclose(
        A @ es.vectors, es.vectors * es.values[None, :], atol=1e-11
    )
    gram = es.vectors.conj().T @ es.vectors
    np.testing.assert_allclose(gram, np.eye(40), atol=1e-11)
    # deterministic phase: largest component of each vector is real positive
    piv = np.argmax(np.abs(es.vectors), axis=0)
    lead = es.vectors[piv, np.arange(40)]
    assert np.all(np.abs(lead.imag) < 1e-12)
    assert np.all(lead.real > 0)
    es2 = diagonalize(A)
    np.testing.assert_array_equal(es.vectors, es2.vectors)
    with pytest.raises(NumericalContractError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_diagonalize_vector_layout():
    """Vectors are column-major, real for a real symmetric matrix and
    complex for a complex Hermitian one."""
    rng = np.random.default_rng(5)
    S = rng.normal(size=(12, 12))
    H = S + 1j * rng.normal(size=(12, 12))
    for matrix, dtype in (((S + S.T) / 2, np.float64),
                          ((H + H.conj().T) / 2, np.complex128)):
        vectors = diagonalize(matrix).vectors
        assert vectors.dtype == dtype
        assert vectors.flags.f_contiguous


def _hermitian(d, seed, real=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    if not real:
        a = a + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_sliced_phase_fix_is_bitwise_the_one_shot_form():
    """At d = 300 (three column slices, the last one short) the vectors
    have the bytes of dividing the phases out of the whole array at once,
    real and complex."""
    for matrix in (_hermitian(300, 8, real=True), _hermitian(300, 8)):
        es = diagonalize(matrix)
        values, vectors = oracles.diagonalize_one_shot(matrix)
        assert es.values.tobytes() == values.tobytes()
        assert es.vectors.flags.f_contiguous
        assert es.vectors.dtype == vectors.dtype
        assert es.vectors.tobytes() == vectors.tobytes()


def test_vectors_are_the_array_eigh_returned(monkeypatch):
    """The phases are divided out in eigh's own vector array, real and
    complex, with no second d x d array."""
    eigh = scipy.linalg.eigh
    returned = []

    def recording(m, **kwargs):
        w, v = eigh(m, **kwargs)
        returned.append(v)
        return w, v

    monkeypatch.setattr(scipy.linalg, "eigh", recording)
    for matrix in (_hermitian(300, 8, real=True), _hermitian(300, 8)):
        es = diagonalize(matrix)
        assert np.shares_memory(es.vectors, returned[-1])


def test_eigh_does_not_scan_the_block_again(monkeypatch):
    """diagonalize reads every entry for finiteness before eigh, so eigh
    is told to skip its own scan."""
    eigh = scipy.linalg.eigh
    calls = []

    def recording(m, **kwargs):
        calls.append(kwargs)
        return eigh(m, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording)
    diagonalize(_hermitian(10, 3))
    assert calls == [{"check_finite": False}]


def _defect(w, v, kind):
    """Spoil the last eigenpair of eigh's output in place."""
    if kind == "eigenvalue":
        w[-1] += 1e-6
    elif kind == "mixed":
        v[:, -1] += 1e-6 * v[:, 0]
    elif kind == "scaled":
        v[:, -1] *= 1.0 + 1e-6
    elif kind == "duplicate":  # a copy of the pair before it
        w[-1] = w[-2]
        v[:, -1] = v[:, -2]
    else:  # a copy of pair 0: a pair across the first and last slices
        w[-1] = w[0]
        v[:, -1] = v[:, 0]


@pytest.mark.parametrize("kind, message", [
    ("eigenvalue", "residual"), ("mixed", "residual"),
    ("scaled", "not orthonormal"), ("duplicate", "not orthonormal"),
    ("duplicate-of-first", "not orthonormal")])
def test_sliced_checks_catch_a_defect_in_the_last_slice(monkeypatch, kind,
                                                         message):
    matrix = _hermitian(300, 9)
    eigh = scipy.linalg.eigh

    def spoiled(m, **kwargs):
        w, v = eigh(m, **kwargs)
        _defect(w, v, kind)
        return w, v

    monkeypatch.setattr(scipy.linalg, "eigh", spoiled)
    with pytest.raises(NumericalContractError, match=message):
        diagonalize(matrix)


def test_sliced_hermiticity_check_catches_the_last_slice():
    matrix = _hermitian(300, 9)
    matrix[299, 290] += 1e-9
    with pytest.raises(NumericalContractError, match="not Hermitian"):
        diagonalize(matrix)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_diagonalize_refuses_a_non_finite_entry(monkeypatch, entry):
    """A NaN or infinite entry, in the last slice too, is refused before
    eigh, which would raise a bare ValueError."""
    monkeypatch.setattr(scipy.linalg, "eigh", None)
    for n, (i, j) in ((2, (0, 0)), (300, (299, 290))):
        matrix = _hermitian(n, 9)
        matrix[i, j] = matrix[j, i] = entry
        with pytest.raises(NumericalContractError, match="non-finite entry"):
            diagonalize(matrix)


def test_midspectrum_filter_window_and_fraction():
    evals = np.array([-3.0, -1.0, -0.2, 0.1, 2.0])
    np.testing.assert_array_equal(
        midspectrum_filter(evals, 2, window=0.25), [2, 3]
    )
    np.testing.assert_array_equal(
        midspectrum_filter(evals, 2, fraction=0.4), [1, 2]
    )
    np.testing.assert_array_equal(
        midspectrum_filter(evals, 2, fraction=1.0), [0, 1, 2, 3, 4]
    )
    # strict inequality at the window edge
    assert midspectrum_filter(np.array([0.5]), 1, window=0.5).size == 0
    with pytest.raises(ValueError):
        midspectrum_filter(evals, 2)
    with pytest.raises(ValueError):
        midspectrum_filter(evals, 2, window=0.1, fraction=0.1)
    np.testing.assert_array_equal(midspectrum_filter(evals, 2, fraction=0.0),
                                  [])
    for fraction in (-0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"fraction must be in \[0, 1\]"):
            midspectrum_filter(evals, 2, fraction=fraction)


def test_midspectrum_fraction_unsorted_input():
    evals = np.array([2.0, -3.0, 0.1, -1.0, -0.2])
    got = midspectrum_filter(evals, 2, fraction=0.4)
    assert [evals[i] for i in got] == [-1.0, -0.2]


def test_adjacent_gap_ratio_hand_values():
    assert adjacent_gap_ratio(np.array([0.0, 1.0, 3.0])) == pytest.approx(0.5)
    assert adjacent_gap_ratio(np.array([0.0, 1.0, 2.0, 3.0])) == pytest.approx(1.0)
    assert adjacent_gap_ratio(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)
    assert math.isnan(adjacent_gap_ratio(np.array([1.0, 1.0, 1.0])))
    assert math.isnan(adjacent_gap_ratio(np.array([1.0])))


# ---------------------------------------------------------------------------
# physics: level statistics and mid-spectrum stabilizer entropy


def test_csyk_level_statistics_are_unitary_class():
    """Complex SYK without particle-hole structure: <r> at the GUE value
    0.600, well separated from GOE (0.531) and Poisson (0.386)."""
    _, summ = run_disorder_sweep("csyk", 8, q=[0, 2], realizations=40,
                                 seed=7, threads=1, fraction=0.1)
    for q in ("0", "2"):
        r = summ["sectors"][q]["gap_ratio"]["mean"]
        assert 0.57 < r < 0.62, (q, r)


def test_xxz_sector_level_statistics_are_orthogonal_class():
    """Conserving chain with triple-Z and boundary terms: no residual
    discrete symmetry inside a sector, so <r> sits at GOE 0.531."""
    H = build_xxz_nnn(12, J1=1.0, delta=0.5, J2=0.6, h_b=0.25)
    block, _ = extract_sector_block(H, 0)
    es = diagonalize(block)
    keep = midspectrum_filter(es.values, 12, window=0.25)
    r = adjacent_gap_ratio(es.values[keep])
    assert 0.49 < r < 0.58, r


def test_conserving_chain_entropy_deficit_is_large_and_size_stable():
    """Mid-spectrum eigenstates of the charge-conserving chain fall well
    below the sector random-state entropy; the deficit is O(1), far above
    any vanishing trend, and moves < 0.15 between L = 8 and L = 10."""
    cpl = dict(J1=1.0, delta=0.5, J2=0.6, h_b=0.25, h_x=0.0)
    deficits = {}
    for L in (8, 10):
        _, summ = run_disorder_sweep("xxz", L, q=[0], realizations=1, seed=1,
                                     threads=1, window=0.25, **cpl)
        deficits[L] = summ["sectors"]["0"]["m2_deficit"]
    assert 0.7 < deficits[8] < 1.0
    assert 0.7 < deficits[10] < 1.0
    assert abs(deficits[10] - deficits[8]) < 0.15


def test_nonconserving_chain_sits_fixed_offset_above_sector_prediction():
    """Without any conserved charge the mixed-field chain's mid-spectrum
    entropy lands about 0.2 bits above the zero-sector prediction (and so
    below the full-Haar value by roughly the sector gap)."""
    _, summ = run_disorder_sweep(
        "mfim", 8, q=None, realizations=1, seed=1, threads=1, window=0.25,
        g=1.1, h=0.35, h1=0.25, hL=-0.25)
    s = summ["sectors"]["all"]
    gap = s["m2"]["mean"] - m2_mean_bound(8, 0)
    assert 0.1 < gap < 0.3, gap
    assert s["m2_deficit"] > 0.5  # still clearly below full Haar
