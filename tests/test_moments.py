import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import oracles
from sectormagic import (
    SectorError,
    analytic_moments,
    h_sum,
    haar_mean_sp2,
    levy_tail_bound,
    levy_variance_bound,
    m2_mean_bound,
    mean_sp2,
    pe_moment_mean,
    pe_shannon_mean,
    porter_thomas_cdf,
    second_moment_sp2,
    sector_dimension,
    variance_sp2,
)
from sectormagic.moments import LIPSCHITZ_ETA, _k4_numerator


def charges(L):
    return [q for q in range(-L, L + 1) if (L - q) % 2 == 0]


# ---------------------------------------------------------------------------
# closed forms vs the independent permutation-sum engines


def test_mean_matches_s4_engine():
    for L in range(1, 5):
        for q in charges(L):
            got = float(mean_sp2(L, q))
            want = oracles.engine_mean(L, q)
            assert got == pytest.approx(want, rel=1e-11), (L, q)


def test_second_moment_matches_s8_engine():
    for L in range(1, 4):
        for q in charges(L):
            got = float(second_moment_sp2(L, q))
            want = oracles.engine_second_moment(L, q)
            assert got == pytest.approx(want, rel=1e-9), (L, q)


# ---------------------------------------------------------------------------
# frozen exact rationals and structural identities


def test_kernels_equal_their_transcriptions():
    """K1 = h^2/d and K4 as one sum of h equal the index-for-index triple
    sums; the transcribed K1's imaginary part is exactly zero."""
    for L in [*range(1, 21), 24, 31]:
        for q in charges(L):
            re, im = oracles.k1_numerator_transcribed(L, q)
            assert im == 0
            assert h_sum(L, q) ** 2 == sector_dimension(L, q) * re
            assert _k4_numerator(L, q) == oracles.k4_numerator_transcribed(L, q)


@pytest.mark.parametrize("sizes", [
    [(L, q) for L in range(1, 41) for q in charges(L)],
    [(L, q) for L in (64, 96) for q in charges(L)],
    [(256, 2)],
], ids=["L<=40", "L=64,96", "L=256"])
def test_k1_is_h_squared_over_d(sizes):
    """The sliced O(L^3) K1 sum is h^2/d, an exact integer (Krawtchouk
    reciprocity; see the moments docstring)."""
    for L, q in sizes:
        d = sector_dimension(L, q)
        k1, rest = divmod(h_sum(L, q) ** 2, d)
        assert rest == 0, (L, q)
        assert k1 == oracles.k1_numerator_sliced(L, q), (L, q)


def test_frozen_rationals():
    assert mean_sp2(2, 0) == Fraction(4, 5)
    assert second_moment_sp2(2, 0) == Fraction(68, 105)
    assert variance_sp2(2, 0) == Fraction(4, 525)
    assert second_moment_sp2(3, 1) == Fraction(13, 35)
    assert second_moment_sp2(3, -1) == Fraction(13, 35)
    assert m2_mean_bound(2, 0) == pytest.approx(math.log2(5) - 2, abs=1e-14)


def test_one_dimensional_sector_is_deterministic():
    """d = 1 sectors hold a single basis state: purity exactly 1, variance 0."""
    for L in range(1, 9):
        for q in (L, -L):
            assert mean_sp2(L, q) == 1
            assert second_moment_sp2(L, q) == 1
            assert variance_sp2(L, q) == 0


def test_printed_power_coefficient_breaks_determinism():
    """The alternative 2^{5L} reading of the 960-class prefactor fails the
    one-dimensional-sector identity, pinning the package's d_q reading."""
    assert oracles.second_moment_printed_power(3, 3) != 1
    assert oracles.second_moment_printed_power(4, 0) != second_moment_sp2(4, 0)


def test_charge_symmetry():
    for L in range(1, 11):
        for q in charges(L):
            assert mean_sp2(L, q) == mean_sp2(L, -q)
            if L <= 8:
                assert second_moment_sp2(L, q) == second_moment_sp2(L, -q)


def test_moment_inequalities():
    for L in range(1, 9):
        for q in charges(L):
            m = mean_sp2(L, q)
            s = second_moment_sp2(L, q)
            assert 0 < m <= 1
            assert m ** 2 <= s <= m  # Jensen both ways for a [0,1] variable
            assert variance_sp2(L, q) >= 0


def test_sector_mean_exceeds_haar_mean():
    """Charge constraint suppresses magic: larger mean purity than full Haar."""
    for L in range(2, 11):
        assert mean_sp2(L, L % 2) > haar_mean_sp2(L)
    assert haar_mean_sp2(3) == Fraction(4, 11)
    assert haar_mean_sp2(5) == oracles.haar_mean_xi2(5)


def test_empty_sector_raises():
    for fn in (mean_sp2, second_moment_sp2, variance_sp2):
        with pytest.raises(SectorError):
            fn(4, 1)
        with pytest.raises(SectorError):
            fn(3, 5)


def test_analytic_moments_bundle():
    b = analytic_moments(4, 2)
    assert b.mean == mean_sp2(4, 2)
    assert b.variance == b.second_moment - b.mean ** 2


def test_mean_bound_is_exact_log_at_large_L():
    """Rational arithmetic survives far past double range."""
    v = m2_mean_bound(128, 0)
    assert 110.0 < v < 130.0
    assert np.isfinite(v)


# ---------------------------------------------------------------------------
# participation-entropy references


def test_pe_moment_frozen_values():
    assert pe_moment_mean(2, 2) == Fraction(2, 3)
    assert pe_moment_mean(3, 2) == Fraction(1, 2)
    assert pe_moment_mean(2, 3) == Fraction(1, 2)
    for d in (1, 2, 7, 100):
        assert pe_moment_mean(d, 1) == 1
    with pytest.raises(ValueError):
        pe_moment_mean(0, 2)


def test_pe_moment_matches_flat_dirichlet_sampling():
    """Independent check: normalized exponentials are flat-Dirichlet."""
    rng = np.random.default_rng(123)
    d, n = 5, 40000
    e = rng.exponential(size=(n, d))
    p = e / e.sum(axis=1, keepdims=True)
    for k in (2, 3):
        vals = np.sum(p ** k, axis=1)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - float(pe_moment_mean(d, k))) < 5 * se


def test_pe_shannon_mean():
    assert pe_shannon_mean(1) == pytest.approx(0.0, abs=1e-15)
    assert pe_shannon_mean(2) == pytest.approx(0.5 / math.log(2), abs=1e-13)
    rng = np.random.default_rng(5)
    d, n = 6, 40000
    e = rng.exponential(size=(n, d))
    p = e / e.sum(axis=1, keepdims=True)
    sh = -np.sum(p * np.log2(p), axis=1)
    se = sh.std(ddof=1) / math.sqrt(n)
    assert abs(sh.mean() - pe_shannon_mean(d)) < 5 * se
    with pytest.raises(ValueError):
        pe_shannon_mean(0)


def test_porter_thomas_density_properties():
    for d in (2, 3, 10, 50):
        w = np.linspace(0.0, d, 20001)
        pdf = oracles.porter_thomas_pdf(w, d)
        assert abs(np.trapezoid(pdf, w) - 1.0) < 1e-4
        cdf = porter_thomas_cdf(w, d)
        assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= -1e-15)
        mid = 0.5 * (w[1:] + w[:-1])
        deriv = np.diff(cdf) / np.diff(w)
        np.testing.assert_allclose(deriv, oracles.porter_thomas_pdf(mid, d),
                                   atol=5e-3)
    # d = 2 is uniform on [0, 2]
    assert oracles.porter_thomas_pdf(0.3, 2) == pytest.approx(0.5)
    assert oracles.porter_thomas_pdf(1.9, 2) == pytest.approx(0.5)
    assert oracles.porter_thomas_pdf(0.5, 1) == 0.0
    assert oracles.porter_thomas_pdf(2.5, 2) == 0.0


# ---------------------------------------------------------------------------
# concentration bounds


def test_levy_tail_bound_shape():
    assert levy_tail_bound(6, 0, 0.0) == pytest.approx(2.0)
    assert levy_tail_bound(6, 0, 0.1) < levy_tail_bound(6, 0, 0.05)
    assert levy_tail_bound(10, 0, 0.1) < levy_tail_bound(6, 0, 0.1)  # larger d
    with pytest.raises(ValueError):
        levy_tail_bound(6, 0, -0.1)
    with pytest.raises(SectorError):
        levy_tail_bound(6, 1, 0.1)


def test_levy_variance_bound_integrates_tail():
    """Variance bound equals int_0^inf 2 eps * tail(eps) d eps exactly."""
    for (L, q) in [(4, 0), (8, 2)]:
        val, err = integrate.quad(
            lambda e: 2.0 * e * levy_tail_bound(L, q, e), 0.0, np.inf
        )
        assert val == pytest.approx(levy_variance_bound(L, q), rel=1e-8)
        d = sector_dimension(L, q)
        assert levy_variance_bound(L, q) == pytest.approx(
            18 * math.pi ** 3 * LIPSCHITZ_ETA ** 2 / d, rel=1e-12
        )


def test_levy_bounds_past_the_float_range():
    """The q = 0 sector dimension passes the float range at L = 1030.
    Below it the bounds keep their float expressions bit for bit; from it
    on they are the correctly rounded exact values, not an OverflowError."""
    c_var = 18 * math.pi ** 3 * LIPSCHITZ_ETA ** 2
    c_tail = 9 * math.pi ** 3 * LIPSCHITZ_ETA ** 2
    d = sector_dimension(1028, 0)
    assert levy_variance_bound(1028, 0) == c_var / d == 2.2742395741939633e-304
    assert levy_tail_bound(1028, 0, 1e-153) == 2.0 * math.exp(
        -d * 1e-153 ** 2 / c_tail)
    for L, want in ((1030, 5.69112429888188e-305), (1100, 0.0)):
        d = sector_dimension(L, 0)
        with pytest.raises(OverflowError):
            float(d)
        assert levy_variance_bound(L, 0) == float(Fraction(c_var) / d) == want
        assert levy_tail_bound(L, 0, 0.0) == 2.0
        for eps in (0.1, 1.0, math.inf):
            assert levy_tail_bound(L, 0, eps) == 0.0
    # an exponent d eps^2 / c of about 3.5 at L = 1030
    d, eps = sector_dimension(1030, 0), 1e-152
    exponent = math.exp(math.log(d) + 2 * math.log(eps) - math.log(c_tail))
    assert levy_tail_bound(1030, 0, eps) == pytest.approx(
        2.0 * math.exp(-exponent), rel=1e-12)
    # eps^2 past the float range
    assert levy_tail_bound(6, 0, 1e200) == 0.0
