import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sectormagic import (
    Direction,
    SectorError,
    apply_frame_rotation,
    constrained_haar_state,
    enumerate_sector,
    levy_tail_bound,
    levy_variance_bound,
    mean_sp2,
    mean_sp2_tilted,
    pauli_spectrum,
    sector_dimension,
    variance_sp2,
)
from sectormagic.sectors import frame_rotation_matrix, popcount

from oracles import charge_expectation


def test_popcount_scalar_and_array():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    xs = np.array([0, 1, 2, 3, 255, 2 ** 40 - 1], dtype=np.int64)
    assert list(popcount(xs)) == [0, 1, 1, 2, 8, 40]


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=-45, max_value=45))
def test_sector_dimension_total_function(L, q):
    d = sector_dimension(L, q)
    if abs(q) > L or (L - q) % 2 != 0:
        assert d == 0
    else:
        assert d == math.comb(L, (L - q) // 2)


def test_sector_dimensions_sum_to_full_space():
    for L in range(1, 9):
        assert sum(sector_dimension(L, q) for q in range(-L, L + 1)) == 2 ** L


def test_enumerate_sector_matches_bruteforce():
    for L in range(1, 7):
        for q in range(-L, L + 1):
            basis = enumerate_sector(L, q)
            assert list(basis.states) == oracles.sector_states(L, q)
            assert basis.dimension == sector_dimension(L, q)
            assert np.all(np.diff(basis.states) > 0) or basis.dimension < 2


def test_enumerate_sector_is_shared_and_read_only():
    """One map per (L, q); its basis cannot be corrupted through a caller."""
    basis = enumerate_sector(6, 2)
    assert enumerate_sector(6, 2) is basis
    with pytest.raises(ValueError, match="read-only"):
        basis.states[0] = 0
    assert list(basis.states) == oracles.sector_states(6, 2)
    assert enumerate_sector(6, 1).states.flags.writeable is False  # empty


def test_basis_map_roundtrip():
    basis = enumerate_sector(5, 1)
    coeffs = np.arange(1, basis.dimension + 1, dtype=complex)
    full = basis.embed(coeffs)
    assert full.shape == (32,)
    np.testing.assert_array_equal(full[basis.states], coeffs)
    off = np.ones(32, dtype=bool)
    off[basis.states] = False
    assert np.all(full[off] == 0)


def test_direction_validation_and_angles():
    with pytest.raises(ValueError):
        Direction(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Direction.normalized([0, 0, 0])
    n = Direction.from_angles(0.7, 1.3)
    assert n.norm == pytest.approx(1.0, abs=1e-14)
    assert n.theta == pytest.approx(0.7, abs=1e-12)
    assert n.phi == pytest.approx(1.3, abs=1e-12)
    m = Direction.normalized([3, 0, 4])
    assert (m.nx, m.nz) == pytest.approx((0.6, 0.8))


@pytest.mark.parametrize("frame", ["x", "y", "z"])
def test_frame_rotation_conjugates_z(frame):
    U = frame_rotation_matrix(frame)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(2), atol=1e-14)
    sz = np.diag([1.0, -1.0]).astype(complex)
    got = U @ sz @ U.conj().T
    n = Direction.from_axis(frame)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    np.testing.assert_allclose(got, n.nx * sx + n.ny * sy + n.nz * sz, atol=1e-14)


@given(
    st.floats(min_value=0.05, max_value=3.1),
    st.floats(min_value=-3.1, max_value=3.1),
)
@settings(max_examples=30, deadline=None)
def test_direction_rotation_conjugates_z(theta, phi):
    n = Direction.from_angles(theta, phi)
    U = n.rotation()
    np.testing.assert_allclose(U @ U.conj().T, np.eye(2), atol=1e-13)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    np.testing.assert_allclose(
        U @ sz @ U.conj().T, n.nx * sx + n.ny * sy + n.nz * sz, atol=1e-12
    )


def test_apply_frame_rotation_matches_dense_kron():
    rng = np.random.default_rng(7)
    L = 3
    psi = rng.normal(size=2 ** L) + 1j * rng.normal(size=2 ** L)
    psi /= np.linalg.norm(psi)
    for frame in ("x", "y", Direction.from_angles(0.9, 0.4)):
        U1 = frame_rotation_matrix(frame)
        dense = np.ones((1, 1), dtype=complex)
        for _ in range(L):
            dense = np.kron(dense, U1)
        np.testing.assert_allclose(
            apply_frame_rotation(psi, frame), dense @ psi, atol=1e-13
        )
        back = apply_frame_rotation(apply_frame_rotation(psi, frame), frame, inverse=True)
        np.testing.assert_allclose(back, psi, atol=1e-13)


def test_apply_frame_rotation_rejects_bad_length():
    with pytest.raises(ValueError):
        apply_frame_rotation(np.ones(3, dtype=complex), "x")


@pytest.mark.parametrize("call", [
    lambda: mean_sp2(4, 1),
    lambda: variance_sp2(4, 1),
    lambda: mean_sp2_tilted(4, 1, "x"),
    lambda: levy_tail_bound(4, 1, 0.1),
    lambda: levy_variance_bound(4, 1),
    lambda: constrained_haar_state(4, 1),
], ids=["mean_sp2", "variance_sp2", "mean_sp2_tilted", "levy_tail_bound",
        "levy_variance_bound", "constrained_haar_state"])
def test_empty_sector_message_is_shared(call):
    with pytest.raises(SectorError, match="empty sector: L=4, q=1"):
        call()


@pytest.mark.parametrize("call", [
    lambda psi: pauli_spectrum(psi),
    lambda psi: apply_frame_rotation(psi, "x"),
], ids=["pauli_spectrum", "apply_frame_rotation"])
def test_state_length_message_is_shared(call):
    with pytest.raises(ValueError,
                       match="state length must be a power of two"):
        call(np.full(3, 3 ** -0.5, dtype=complex))


def test_charge_expectation_matches_dense_operator():
    rng = np.random.default_rng(11)
    L = 4
    psi = rng.normal(size=2 ** L) + 1j * rng.normal(size=2 ** L)
    psi /= np.linalg.norm(psi)
    for direction in ("x", "y", "z", Direction.from_angles(1.1, -0.6)):
        n = direction if isinstance(direction, Direction) else Direction.from_axis(direction)
        Q = oracles.charge_operator_dense(L, n.nx, n.ny, n.nz)
        want = float(np.real(np.vdot(psi, Q @ psi)))
        assert charge_expectation(psi, direction) == pytest.approx(want, abs=1e-12)


def test_charge_expectation_sector_eigenstate():
    basis = enumerate_sector(6, 2)
    rng = np.random.default_rng(3)
    c = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    c /= np.linalg.norm(c)
    psi = basis.embed(c)
    assert charge_expectation(psi, "z") == pytest.approx(2.0, abs=1e-12)
    rotated = apply_frame_rotation(psi, "x")
    assert charge_expectation(rotated, "x") == pytest.approx(2.0, abs=1e-12)
