import math

import numpy as np
import pytest

import oracles
from sectormagic import (
    Direction,
    SeedPolicy,
    apply_frame_rotation,
    constrained_haar_state,
    mean_sp2,
    mean_sp2_tilted,
    stabilizer_purity_fast,
    tilted_m2_bound,
)
from sectormagic.asymptotics import tilted_asymptotic_q0
from sectormagic.moments import _tilted_row_sums, tilt_factors


@pytest.mark.parametrize("sizes", [
    [(L, q) for L in range(41) for q in range(-L - 2, L + 3)],
    [(128, 0), (256, 0)],
], ids=["L<=40", "L=128,256"])
def test_tilted_row_sums_equal_their_transcription(sizes):
    """The Pascal-row a_k and b_k sums are the per-term binomial sums,
    empty slices (t = -1 and t = L + 1), q = +-L and odd L + q included."""
    for L, q in sizes:
        assert _tilted_row_sums(L, q) == \
            oracles.tilted_row_sums_transcribed(L, q), (L, q)


def test_tilt_factors_unity_on_axes():
    for axis in ("x", "y", "z"):
        f, g, w = tilt_factors(axis)
        assert (f, g, w) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)


def test_tilt_factors_signed_permutation_invariance():
    a = tilt_factors(Direction.normalized([0.3, -0.5, 0.8]))
    b = tilt_factors(Direction.normalized([0.5, 0.8, 0.3]))
    c = tilt_factors(Direction.normalized([-0.8, 0.3, -0.5]))
    assert a == pytest.approx(b, abs=1e-13)
    assert a == pytest.approx(c, abs=1e-13)


def test_axis_reduction_is_exact():
    """On coordinate axes the tilted mean collapses to the sector mean."""
    for L, q in [(2, 0), (5, 1), (6, 0), (6, 4), (9, 3)]:
        want = float(mean_sp2(L, q))
        for axis in ("x", "y", "z"):
            assert mean_sp2_tilted(L, q, axis) == pytest.approx(want, rel=1e-12)


def test_bound_is_log_of_mean():
    n = Direction.from_angles(1.1, 0.3)
    for L, q in [(4, 0), (8, 2)]:
        v = mean_sp2_tilted(L, q, n)
        assert tilted_m2_bound(L, q, n) == pytest.approx(-math.log2(v), abs=1e-10)


def test_generic_axis_lowers_mean_purity():
    n = Direction.from_angles(0.9, 0.4)
    for L in (6, 10, 12):
        assert mean_sp2_tilted(L, 0, n) < float(mean_sp2(L, 0))


def test_offset_crossover_axis_vs_generic():
    """Typical-entropy offset at zero charge density: -3 on an axis, -2 off it."""
    n = Direction.from_angles(0.9, 0.4)
    assert tilted_m2_bound(40, 0, n) - 40.0 == pytest.approx(-2.0, abs=0.01)
    assert tilted_asymptotic_q0("z") == -3.0
    assert tilted_asymptotic_q0(Direction.from_axis("x")) == -3.0
    assert tilted_asymptotic_q0(n) == -2.0
    assert tilted_asymptotic_q0(Direction.normalized([1, 1, 0])) == -2.0


def test_tilted_mean_against_monte_carlo():
    """Sector states rotated into a tilted frame reproduce the tilted mean."""
    L, q, nsamp = 4, 0, 600
    n = Direction.from_angles(0.7, 1.1)
    policy = SeedPolicy(2024)
    vals = np.empty(nsamp)
    for i in range(nsamp):
        psi = constrained_haar_state(L, q, frame=n, seed=policy.stream("tilt", i))
        vals[i] = stabilizer_purity_fast(psi)
    se = vals.std(ddof=1) / math.sqrt(nsamp)
    assert abs(vals.mean() - mean_sp2_tilted(L, q, n)) < 4.5 * se


def test_frame_rotation_changes_purity_but_not_charge_spectrum():
    """The same sector state has different purity in different frames, yet the
    rotated state is still an eigenvector of the rotated charge."""
    L, q = 4, 2
    psi = constrained_haar_state(L, q, frame="z", seed=9)
    rot = apply_frame_rotation(psi, Direction.from_angles(0.8, 0.2))
    assert abs(np.linalg.norm(rot) - 1.0) < 1e-12
    assert stabilizer_purity_fast(psi) != pytest.approx(
        stabilizer_purity_fast(rot), abs=1e-6
    )
