import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sectormagic import binomial, h_sum, kravchuk_int, kravchuk_row


def test_binomial_total_function():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(-2, 0) == 0


def test_fourier_coefficient_matches_quadrature_exhaustive():
    """Every (a, b, q) with a + b <= 16, |q| <= 16 against direct quadrature."""
    for a in range(17):
        for b in range(17 - a):
            for q in range(-16, 17):
                got = complex(oracles.kravchuk_J(a, b, q))
                want = oracles.kernel_quadrature(a, b, q)
                assert abs(got - want) < 1e-12, (a, b, q)


@given(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=-30, max_value=30),
)
def test_charge_reflection_sign(a, b, q):
    assert kravchuk_int(a, b, -q) == (-1) ** b * kravchuk_int(a, b, q)


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=-25, max_value=25),
)
def test_parity_selection_rule(a, b, q):
    if (a + b - q) % 2 != 0:
        assert kravchuk_int(a, b, q) == 0


def test_zero_frequency_values():
    # (1/2pi) int cos^a sin^b dt * 2^(a+b) for small known cases
    assert kravchuk_int(0, 0, 0) == 1
    assert kravchuk_int(2, 0, 0) == 2  # mean cos^2 = 1/2
    assert kravchuk_int(0, 2, 0) == -2  # (-i)^2 * (-2)/4 = 1/2
    assert kravchuk_int(2, 2, 0) == -2  # mean cos^2 sin^2 = 1/8
    assert kravchuk_int(1, 1, 0) == 0


def test_top_frequency_is_one():
    for a in range(8):
        for b in range(8):
            assert kravchuk_int(a, b, a + b) == 1


def test_kravchuk_int_rejects_negative_exponents():
    with pytest.raises(ValueError):
        kravchuk_int(-1, 0, 0)
    with pytest.raises(ValueError):
        kravchuk_row(-1, 0)


def test_kravchuk_row_matches_binomial_sums():
    """The recurrence row equals the per-value binomial sums, |q| > n and
    odd parity (all-zero rows) included."""
    for n in range(41):
        for q in range(-n - 2, n + 3):
            want = [kravchuk_int(n - k, k, q) for k in range(n + 1)]
            assert kravchuk_row(n, q) == want, (n, q)


def test_h_sum_equals_its_transcription():
    for L in range(65):
        for q in range(-L - 2, L + 3):
            assert h_sum(L, q) == oracles.h_sum_transcribed(L, q), (L, q)


def test_h_sum_frozen_values():
    assert h_sum(2, 0) == 32
    assert h_sum(1, 1) == 2
    assert h_sum(3, 1) == 168
    for L in range(1, 9):
        assert h_sum(L, L) == 2 ** L
        assert h_sum(L, L - 1) == 0  # parity
    # boundary terms of K4 = sum_n C(L,n) h(n,q) h(L-n,0)
    assert h_sum(0, 0) == 1
    for q in range(-6, 7):
        for n in range(abs(q)):
            assert h_sum(n, q) == 0


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=-10, max_value=10))
@settings(max_examples=60)
def test_h_sum_symmetric_and_nonnegative(L, q):
    assert h_sum(L, q) == h_sum(L, -q)
    assert h_sum(L, q) >= 0


def test_h_sum_matches_fourth_power_quadrature():
    """h = 2^{4L} sum_k C(L,k) J^4 with J from direct quadrature."""
    for L in range(1, 6):
        for q in range(-L, L + 1, 2):
            total = 0.0
            for k in range(L + 1):
                j = oracles.kernel_quadrature(L - k, k, q)
                total += binomial(L, k) * (j ** 4).real
            assert h_sum(L, q) == pytest.approx(total * 2 ** (4 * L), abs=1e-6)
