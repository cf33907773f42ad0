"""The batched sector-Haar chunk worker against the per-state oracle.

`experiments._haar_chunk` draws a chunk's coefficients as one block and
reduces the z-frame participation observables over its weights; the
oracle draws, embeds and reduces one state at a time.  Rows and
histograms must agree bit for bit (`tobytes()` equality), for every
frame, every experiment's observable tuple, with and without a histogram,
at several sizes and chunk lengths.
"""

import math

import numpy as np
import pytest

import oracles
from sectormagic import Direction, SeedPolicy, enumerate_sector, shannon_pe
from sectormagic.harness import experiments
from sectormagic.sampler import sector_haar_coefficients

#: the observable tuple each experiment passes to the chunk worker
OBSERVABLES = {
    "sample": experiments._SAMPLE_OBS,
    "variance-convergence": ("xi2",),
    "mixed": ("xi2", "m2"),
    "pe-check": experiments._PE_OBS,
}
FRAMES = ("z", "x", "y")


def _keys(n):
    return [SeedPolicy(17).child_key("chunk", i) for i in range(n)]


def _assert_bitwise(L, q, frame, experiment, bins, n):
    args = (_keys(n), L, q, frame, OBSERVABLES[experiment], bins)
    rows, hist = experiments._haar_chunk(args)
    want_rows, want_hist = oracles.haar_chunk_per_state(args)
    assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
    assert rows.tobytes() == want_rows.tobytes()
    if want_hist is None:
        assert hist is None
    else:
        assert hist.tobytes() == want_hist.tobytes()


@pytest.mark.parametrize("experiment", sorted(OBSERVABLES))
@pytest.mark.parametrize("frame", FRAMES)
def test_chunk_matches_per_state_oracle(frame, experiment):
    for bins in (0, 8):
        for n in (1, 63, 64):
            _assert_bitwise(4, 0, frame, experiment, bins, n)


def test_chunk_in_a_tilted_frame_matches_oracle():
    """The mixed experiment's frame is a Direction, not an axis name."""
    _assert_bitwise(4, 2, Direction.from_angles(0.7, 0.2), "mixed", 0, 64)


@pytest.mark.parametrize("L, q, frame, experiment, bins, n", [
    # one-state sectors
    (1, 1, "z", "sample", 4, 64),
    (1, -1, "x", "sample", 4, 64),
    (1, 1, "y", "pe-check", 0, 64),
    (12, 12, "z", "pe-check", 0, 64),
    (12, -12, "x", "pe-check", 0, 64),
    # the kernel on sparse and on rotated states
    (8, 2, "z", "sample", 16, 64),
    (8, 0, "x", "sample", 16, 64),
    (8, -2, "y", "sample", 16, 63),
    (11, 1, "x", "sample", 0, 1),
    (12, 0, "z", "sample", 8, 1),
    # participation observables only
    (8, 0, "z", "pe-check", 0, 64),
    (11, 1, "z", "pe-check", 0, 64),
    (11, -3, "y", "pe-check", 0, 63),
    (12, 0, "z", "pe-check", 0, 64),
    (12, 2, "x", "pe-check", 0, 64),
])
def test_chunk_matches_oracle_across_sizes(L, q, frame, experiment, bins, n):
    _assert_bitwise(L, q, frame, experiment, bins, n)


def test_participation_keeps_exact_zero_weights():
    """Rows with exact zero weights, at the probe state, inside the row and
    everywhere but one state, reduce as the per-state formulas on the
    embedded vector do: zero weights leave the Shannon sum, as in
    p[p > 0]."""
    L, q = 6, 0
    basis = enumerate_sector(L, q)
    d = basis.dimension
    block = sector_haar_coefficients(_keys(4), d)
    block[0, 0] = 0.0
    block[1, 7] = 0.0
    block[2] = 0.0
    block[2, 5] = 1.0
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    got = experiments._participation(np.abs(block) ** 2, basis.states, 0,
                                     basis, experiments._PE_OBS)
    for i, coeffs in enumerate(block):
        psi = basis.embed(coeffs)
        p = np.abs(psi) ** 2
        ipr2 = float(p @ p)
        want = {"ipr2": ipr2, "s2": 0.0 - math.log2(ipr2),
                "shannon_pe": shannon_pe(psi),
                "probe": d * float(p[basis.states[0]])}
        for obs, value in want.items():
            assert math.isfinite(got[obs][i])
            assert np.float64(got[obs][i]).tobytes() == \
                np.float64(value).tobytes(), (i, obs)


def test_a_second_draw_leaves_the_first_block_unchanged():
    """The raw draws and uniforms sit in buffers that later calls reuse and
    grow; each returned block is its own array."""
    keys = _keys(12)
    first = sector_haar_coefficients(keys[:4], 20)
    kept = first.copy()
    later = [sector_haar_coefficients(keys[4:8], 20),   # same size
             sector_haar_coefficients(keys[8:11], 20),  # smaller
             sector_haar_coefficients(keys[4:9], 70)]   # larger
    np.testing.assert_array_equal(first, kept)
    for block in later:
        assert not np.shares_memory(first, block)
    np.testing.assert_array_equal(later[0],
                                  sector_haar_coefficients(keys[4:8], 20))
