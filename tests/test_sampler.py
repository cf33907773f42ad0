import hashlib
import math

import numpy as np
import pytest

import oracles
from sectormagic import (
    GaussianStream,
    SectorError,
    SeedPolicy,
    apply_frame_rotation,
    constrained_haar_state,
    enumerate_sector,
    pauli_spectrum,
)
from sectormagic.sampler import _philox_at, sector_haar_coefficients

from oracles import charge_expectation, haar_state


def test_uniforms_left_open_unit_interval():
    u = GaussianStream(1).uniforms(200000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert abs(u.mean() - 0.5) < 0.004
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_complex_normal_second_moment():
    z = GaussianStream(3).complex_normals(100000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(np.mean(z)) < 0.02
    assert abs(np.mean(z ** 2)) < 0.02  # proper complex: E z^2 = 0


def test_stream_determinism_and_key_separation():
    a = GaussianStream(42).complex_normals(64)
    b = GaussianStream(42).complex_normals(64)
    np.testing.assert_array_equal(a, b)
    c = GaussianStream(43).complex_normals(64)
    assert not np.array_equal(a, c)


def test_complex_normals_pinned():
    """The first Gaussians of one stream, by digest of their bytes."""
    z = GaussianStream(42).complex_normals(8)
    assert hashlib.sha256(z.tobytes()).hexdigest() == (
        "f22204e97cd4832776e3cee8bd688ce361203846e33cac561d9fff5c7b1fa24e")


@pytest.mark.parametrize("key", [0, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1])
def test_rekeyed_philox_equals_a_constructed_one(key):
    rekeyed = _philox_at(np.random.Philox(0), key)
    np.testing.assert_array_equal(rekeyed.random_raw(11),
                                  np.random.Philox(key=key).random_raw(11))


def test_rekeying_leaks_no_state():
    """Re-keying resets the counter, the four-word output buffer and the
    held 32-bit half: what one key drew leaves nothing for the next."""
    bitgen = np.random.Philox(0)
    for key, n in ((3, 7), (2 ** 100 + 5, 3), (3, 10), (9, 4)):
        np.testing.assert_array_equal(
            _philox_at(bitgen, key).random_raw(n),
            np.random.Philox(key=key).random_raw(n))
        # an odd count of 32-bit draws leaves a half word held
        gen = np.random.Generator(_philox_at(bitgen, key))
        ref = np.random.Generator(np.random.Philox(key=key))
        for m in (n, 1):
            np.testing.assert_array_equal(
                gen.integers(0, 2 ** 32, size=m, dtype=np.uint32),
                ref.integers(0, 2 ** 32, size=m, dtype=np.uint32))


def test_sector_coefficients_equal_the_per_state_draws():
    L, q = 6, 2
    basis = enumerate_sector(L, q)
    keys = [SeedPolicy(4).child_key("block", i) for i in range(5)]
    block = sector_haar_coefficients(keys, basis.dimension)
    for key, coeffs in zip(keys, block):
        psi = constrained_haar_state(L, q, seed=GaussianStream(key))
        assert coeffs.tobytes() == psi[basis.states].tobytes()
    with pytest.raises(SectorError):
        sector_haar_coefficients(keys, 0)


def test_seed_policy_child_keys():
    pol = SeedPolicy(7)
    k1 = pol.child_key("expA", 0)
    assert k1 == SeedPolicy(7).child_key("expA", 0)
    assert k1 != pol.child_key("expA", 1)
    assert k1 != pol.child_key("expB", 0)
    assert k1 != SeedPolicy(8).child_key("expA", 0)
    assert 0 <= k1 < 2 ** 128


def test_haar_state_contract():
    psi = haar_state(5, seed=11)
    assert psi.shape == (32,)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    np.testing.assert_array_equal(psi, haar_state(5, seed=11))
    assert not np.array_equal(psi, haar_state(5, seed=12))
    with pytest.raises(ValueError):
        haar_state(0, seed=1)


def test_constrained_state_support_and_charge():
    for L, q in [(4, 0), (5, 3), (6, -2)]:
        psi = constrained_haar_state(L, q, seed=5)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        basis = enumerate_sector(L, q)
        off = np.ones(2 ** L, dtype=bool)
        off[basis.states] = False
        assert np.all(psi[off] == 0)
        assert charge_expectation(psi, "z") == pytest.approx(q, abs=1e-12)


def test_constrained_state_in_rotated_frame():
    L, q = 5, 1
    basis = enumerate_sector(L, q)
    off = np.ones(2 ** L, dtype=bool)
    off[basis.states] = False
    for frame in ("x", "y"):
        psi = constrained_haar_state(L, q, frame=frame, seed=77)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert charge_expectation(psi, frame) == pytest.approx(q, abs=1e-12)
        # already in the frame sector: the dense projection leaves it alone
        np.testing.assert_allclose(oracles.project_to_sector(psi, q, frame),
                                   psi, atol=1e-12)
        back = apply_frame_rotation(psi, frame, inverse=True)
        assert np.max(np.abs(back[off])) < 1e-12


def test_one_dimensional_sector_is_basis_state():
    psi = constrained_haar_state(6, 6, seed=3)
    idx = np.flatnonzero(np.abs(psi) > 1e-12)
    assert list(idx) == [0]  # all spins up
    assert abs(abs(psi[0]) - 1.0) < 1e-12


def test_empty_sector_and_bad_arguments():
    with pytest.raises(SectorError):
        constrained_haar_state(4, 1, seed=0)
    with pytest.raises(SectorError):
        constrained_haar_state(3, 5, seed=0)
    with pytest.raises(ValueError):
        constrained_haar_state(4, 0, frame="w", seed=0)


def test_projection_sampling_agrees_with_direct():
    """Projecting full Gaussian vectors onto the sector (the test oracle)
    gives the same ensemble as the direct sampler; compare mean purity at
    4 combined standard errors."""
    L, q, n = 3, 1, 400
    pol = SeedPolicy(99)
    vd = np.empty(n)
    vp = np.empty(n)
    for i in range(n):
        vd[i] = pauli_spectrum(
            constrained_haar_state(L, q, seed=pol.stream("d", i)))
        full = pol.stream("p", i).complex_normals(2 ** L)
        vp[i] = pauli_spectrum(oracles.project_to_sector(full, q))
    se = math.sqrt(vd.var(ddof=1) / n + vp.var(ddof=1) / n)
    assert abs(vd.mean() - vp.mean()) < 4.0 * se


def test_projection_in_frame_preserves_frame_charge():
    """Projecting onto the y-frame sector (the test oracle) gives a unit
    vector of frame charge q, and the sampler's y-frame state is one."""
    L, q = 4, 2
    full = SeedPolicy(31).stream("p", 0).complex_normals(2 ** L)
    proj = oracles.project_to_sector(full, q, "y")
    psi = constrained_haar_state(L, q, frame="y", seed=31)
    for v in (proj, psi):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert charge_expectation(v, "y") == pytest.approx(float(q), abs=1e-12)
    np.testing.assert_allclose(oracles.project_to_sector(psi, q, "y"), psi,
                               atol=1e-12)
