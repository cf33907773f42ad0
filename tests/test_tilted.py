import math

import numpy as np
import pytest

import oracles
from sectormagic import (
    Direction,
    SeedPolicy,
    apply_frame_rotation,
    constrained_haar_state,
    m2_mean_bound,
    mean_sp2,
    mean_sp2_tilted,
    pauli_spectrum,
    tilted_m2_bound,
)
from sectormagic.asymptotics import tilted_asymptotic_q0
from sectormagic.moments import _tilted_mean_sum, _tilted_row_sums, tilt_factors


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
    """On coordinate axes the tilted mean is the sector mean, as a rational
    and as the double printed from it."""
    for L, q in [(1, 1), (2, 0), (5, 1), (6, 0), (6, 4), (9, 3), (12, -2)]:
        want = mean_sp2(L, q)
        for axis in ("x", "y", "z"):
            assert _tilted_mean_sum(L, q, Direction.of(axis)) == want
            assert mean_sp2_tilted(L, q, axis) == float(want)


#: (L, q, theta, phi) or (L, q, axis vector), then the reprs of
#: mean_sp2_tilted and tilted_m2_bound, recorded from the earlier
#: 60 + 2L-digit floating-point evaluation; the exact rational rounds to
#: the same doubles
PINNED_TILTED = [
    ((1, 1, 0.3, 0), 0.9202947193095842, 0.11983214459082912),
    ((2, 0, 0.7, 0), 0.6001669128958904, 0.7365643093013651),
    ((3, -1, 1.1, 0), 0.4158092360062062, 1.2660062910143965),
    ((4, 2, 0.3, 0), 0.3451109288033947, 1.5348679338325426),
    ((5, 1, 0.7, 0), 0.1209809661646164, 3.0471480075522437),
    ((6, 0, 1.1, 0), 0.06626690161972902, 3.915567723542067),
    ((7, 3, 0.3, 0), 0.05198414854575491, 4.265784418458569),
    ((8, -4, 0.7, 0), 0.020576961718125213, 5.602826212294339),
    ((9, 1, 1.1, 0), 0.00807011256991146, 6.95319548688142),
    ((10, 0, 0.3, 0), 0.004627652300050274, 7.755503813440017),
    ((11, 5, 0.7, 0), 0.0024758752512507483, 8.657845659502437),
    ((12, 2, 1.1, 0), 0.0009932016233731224, 9.975625759969413),
    ((12, 12, 0.3, 0), 0.3690822507706612, 1.4379857350899494),
    ((40, 0, 0.3, 0), 3.6423515248231726e-12, 37.99826697453072),
    ((40, 0, 0.5, 0), 3.63849180366587e-12, 37.999796577859144),
    ((40, 0, 0.7, 0), 3.638303862687496e-12, 37.99987110008843),
    ((40, 0, 0.9, 0), 3.638318405233341e-12, 37.9998653335506),
    ((40, 0, 1.1, 0), 3.638536407920404e-12, 37.99977889197558),
    ((64, 0, 0.3, 0), 2.1686330118338224e-19, 61.99984787009096),
    ((64, 0, 0.5, 0), 2.168520227810508e-19, 61.99992290223401),
    ((64, 0, 0.7, 0), 2.1684778230376063e-19, 61.99995111398549),
    ((64, 0, 0.9, 0), 2.1684811073875317e-19, 61.99994892889892),
    ((64, 0, 1.1, 0), 2.168530202076755e-19, 61.999916266468674),
    ((128, 0, 0.3, 0), 1.1755203102625552e-38, 125.99996814009171),
    ((128, 0, 0.5, 0), 1.1755096787691102e-38, 125.99998118799238),
    ((128, 0, 0.7, 0), 1.175504071943006e-38, 125.99998806922837),
    ((128, 0, 0.9, 0), 1.175504506291581e-38, 125.99998753615286),
    ((128, 0, 1.1, 0), 1.1755109972272886e-38, 125.99997956985851),
    ((256, 0, 0.7, 0), 3.454474479679572e-77, 253.9999970525082),
    ((97, 5, 0.4, 1.3), 2.525657237813294e-29, 94.99925589046249),
    ((10, 2, 0.9, 0.4), 0.00393437532614654, 7.98964969223584),
    ((9, 1, (0.3, -0.5, 0.8)), 0.00783358351954216, 6.996111856687876),
]


@pytest.mark.parametrize("case, mean, bound", PINNED_TILTED,
                         ids=[str(c[0]) for c in PINNED_TILTED])
def test_tilted_reprs_pinned(case, mean, bound):
    """The printed doubles of the tilted mean and its -log2 bound, at small
    L over several charges, at the benchmark's angles up to L = 256, off
    the x-z plane and for an axis given as a vector."""
    if len(case) == 4:
        L, q, theta, phi = case
        axis = Direction.from_angles(theta, phi)
    else:
        L, q, vector = case
        axis = Direction.normalized(vector)
    assert repr(mean_sp2_tilted(L, q, axis)) == repr(mean)
    assert repr(tilted_m2_bound(L, q, axis)) == repr(bound)


def test_bound_is_log_of_mean():
    n = Direction.from_angles(1.1, 0.3)
    for L, q in [(4, 0), (8, 2)]:
        v = mean_sp2_tilted(L, q, n)
        assert tilted_m2_bound(L, q, n) == pytest.approx(-math.log2(v), abs=1e-10)


def test_z_axis_bound_within_3_ulps_of_the_float_formula():
    """On the z axis the 60-digit decimal bound and m2_mean_bound's float
    log2(den) - log2(num) take -log2 of one rational; they may differ in
    the last bits, by at most 3 ulps over L = 2..64 and |q| <= 12."""
    for L in range(2, 65):
        top = min(L, 12 - L % 2)
        for q in range(-top, top + 1, 2):
            want = m2_mean_bound(L, q)
            gap = abs(tilted_m2_bound(L, q, "z") - want)
            assert gap <= 3 * math.ulp(want), (L, q)


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
        vals[i] = pauli_spectrum(psi)
    se = vals.std(ddof=1) / math.sqrt(nsamp)
    assert abs(vals.mean() - mean_sp2_tilted(L, q, n)) < 4.5 * se


def test_frame_rotation_changes_purity_but_not_charge_spectrum():
    """The same sector state has different purity in different frames, yet the
    rotated state is still an eigenvector of the rotated charge."""
    L, q = 4, 2
    psi = constrained_haar_state(L, q, frame="z", seed=9)
    rot = apply_frame_rotation(psi, Direction.from_angles(0.8, 0.2))
    assert abs(np.linalg.norm(rot) - 1.0) < 1e-12
    assert pauli_spectrum(psi) != pytest.approx(
        pauli_spectrum(rot), abs=1e-6
    )
