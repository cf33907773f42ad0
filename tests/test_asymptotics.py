import math

import numpy as np
import pytest

import oracles
from sectormagic import (
    asymptotic_prediction,
    m2_mean_bound,
    nearest_sector_charge,
)
from sectormagic.asymptotics import (
    binary_entropy,
    saddle_exponent,
    xi_factor,
    z_saddle,
)


def test_zero_density_closed_values():
    p = asymptotic_prediction(0.0)
    assert p.z == pytest.approx(1.0, abs=1e-14)
    assert p.F_star == pytest.approx(0.0, abs=1e-14)
    assert p.xi == pytest.approx(1.0, abs=1e-14)
    assert p.m == pytest.approx(1.0, abs=1e-14)
    assert p.g == pytest.approx(-3.0, abs=1e-14)


def test_printed_fluctuation_variant_disagrees_at_zero():
    """The printed fluctuation factor gives xi(0) = 8, hence offset -6;
    the exact finite-size mean converges to -3, so the package does not
    use it."""
    assert oracles.xi_printed(0.0) == pytest.approx(8.0, abs=1e-12)
    assert oracles.g_printed(0.0) == pytest.approx(-6.0, abs=1e-12)


def test_density_domain_checks():
    for s in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            z_saddle(s)
        with pytest.raises(ValueError):
            asymptotic_prediction(s)


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89), abs=1e-14)


def test_saddle_monotone_quantities():
    ss = np.linspace(0.0, 0.9, 50)
    zs = [z_saddle(s) for s in ss]
    fs = [saddle_exponent(s) for s in ss]
    ms = [asymptotic_prediction(s).m for s in ss]
    assert all(np.diff(zs) > 0)          # saddle moves out with density
    assert all(np.diff(fs) < 0) and fs[0] == 0.0  # exponent falls from zero
    # volume coefficient never grows; the onset is quartic, so the first
    # finite differences near s = 0 vanish to double precision
    assert all(np.diff(ms) <= 0)
    assert 0 < ms[-1] < ms[0] - 0.1


def test_finite_size_offset_converges_to_hessian_variant():
    """-log2(mean) - m L approaches g(0) = -3 from the exact formula, and the
    residual shrinks with L; the printed variant (-6) is excluded by 3 bits."""
    offs = [m2_mean_bound(L, 0) - L for L in (16, 32, 64, 128)]
    resid = [abs(o + 3.0) for o in offs]
    assert resid[-1] < 2e-3
    assert all(np.diff(resid) < 0)
    assert min(abs(o + 6.0) for o in offs) > 2.9


def test_finite_size_collapse_at_nonzero_density():
    """L (exact - asymptote) stays bounded at s = 0.5 over an L octave."""
    s = 0.5
    p = asymptotic_prediction(s)
    scaled = []
    for L in (64, 128, 256):
        q = nearest_sector_charge(L, s)
        exact = m2_mean_bound(L, q)
        scaled.append(L * (exact - (p.m * L + p.g)))
    spread = (max(scaled) - min(scaled)) / abs(np.mean(scaled))
    assert spread < 0.10


def test_quartic_onset_of_the_volume_coefficient():
    """Exact sector means at small density fit m2(q) - m2(0) ~ c4 s^4 with
    c4 < 0 and c4 within 5% of -(L+3)/ln 2; no s^2 term survives."""
    L = 64
    qs = np.array([2, 4, 6, 8])
    ss = qs / L
    y = np.array([m2_mean_bound(L, int(q)) - m2_mean_bound(L, 0) for q in qs])
    A = np.stack([ss ** 2, ss ** 4, ss ** 6], axis=1)
    c2, c4, c6 = np.linalg.lstsq(A, y, rcond=None)[0]
    assert c4 < 0
    assert abs(c4 - (-(L + 3) / math.log(2))) / ((L + 3) / math.log(2)) < 0.05
    # quadratic contribution is < 5% of the quartic one even at the largest s
    assert abs(c2) * ss.max() ** 2 < 0.05 * abs(c4) * ss.max() ** 4


def test_nearest_sector_charge():
    assert nearest_sector_charge(8, 0.0) == 0
    assert nearest_sector_charge(8, 0.5) == 4
    assert nearest_sector_charge(8, 0.3) == 2  # 2.4 -> 2
    assert abs(nearest_sector_charge(9, 0.0)) == 1  # odd L: q = 0 is empty
    assert nearest_sector_charge(9, 1 / 3) == 3
    assert nearest_sector_charge(4, 0.99) == 4
    for L in (6, 7, 12):
        for s in np.linspace(0, 0.95, 12):
            q = nearest_sector_charge(L, float(s))
            assert (L - q) % 2 == 0 and abs(q) <= L
            assert abs(q - s * L) <= 1.0 + 1e-12
