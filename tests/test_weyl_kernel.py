"""The FFT Weyl kernel against the loop reference it replaced, and its
round-trip and validation contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quditkit import max_abs, weyl_decompose, weyl_element, weyl_reconstruct
from weyl_reference import reference_decompose, reference_reconstruct

ORDERS = list(range(2, 17)) + [32, 64]


def _complex_gaussian(rng, l):
    return rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))


@pytest.mark.parametrize("l", ORDERS)
def test_decompose_matches_reference(l):
    rng = np.random.default_rng(700 + l)
    for _ in range(3):
        m = _complex_gaussian(rng, l)
        assert max_abs(weyl_decompose(m, l) - reference_decompose(m, l)) <= 1e-12


@pytest.mark.parametrize("l", ORDERS)
def test_reconstruct_matches_reference(l):
    rng = np.random.default_rng(800 + l)
    for _ in range(3):
        table = _complex_gaussian(rng, l)
        assert max_abs(weyl_reconstruct(table) - reference_reconstruct(table)) <= 1e-12


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_every_monomial_has_one_unit_coefficient(l):
    for a in range(l):
        for b in range(l):
            table = weyl_decompose(weyl_element(l, a, b), l)
            table[a, b] -= 1.0
            assert max_abs(table) <= 1e-14, (a, b)


def _site_monomial(l, shifts, clocks):
    out = np.ones((1, 1))
    for a, b in zip(shifts, clocks):
        out = np.kron(out, weyl_element(l, a, b))
    return out


@pytest.mark.parametrize("l,n", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 5), (3, 3)])
def test_multi_site_decompose_matches_trace_products(l, n):
    # entry (A, B) is Tr(W(x)* m) / l^n, A and B the base-l numbers of x's
    # shift and clock powers, site 1 most significant
    d = l**n
    m = _complex_gaussian(np.random.default_rng(900 + d), d)
    table = weyl_decompose(m, l, n)
    digits = np.indices((l,) * n).reshape(n, -1).T
    for big_a, shifts in enumerate(digits):
        for big_b, clocks in enumerate(digits):
            w = _site_monomial(l, shifts, clocks)
            assert abs(table[big_a, big_b] - np.vdot(w, m) / d) <= 1e-13


@pytest.mark.parametrize("l,n", [(2, 3), (3, 2), (5, 2)])
def test_every_multi_site_monomial_has_one_unit_coefficient(l, n):
    digits = np.indices((l,) * n).reshape(n, -1).T
    rng = np.random.default_rng(l * n)
    for big_a, big_b in rng.integers(0, l**n, size=(12, 2)):
        table = weyl_decompose(_site_monomial(l, digits[big_a], digits[big_b]), l, n)
        table[big_a, big_b] -= 1.0
        assert max_abs(table) <= 1e-14


def test_one_site_is_the_default():
    m = _complex_gaussian(np.random.default_rng(5), 6)
    assert np.array_equal(weyl_decompose(m, 6, 1), weyl_decompose(m, 6))


_finite = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_square = st.integers(2, 12).flatmap(lambda l: arrays(complex, (l, l), elements=_finite))
_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_property
@given(_square)
def test_reconstruct_inverts_decompose(m):
    l = m.shape[0]
    assert max_abs(weyl_reconstruct(weyl_decompose(m, l)) - m) <= 1e-13 * max(1.0, max_abs(m))


@_property
@given(_square)
def test_decompose_inverts_reconstruct(table):
    l = table.shape[0]
    bound = 1e-13 * max(1.0, max_abs(table))
    assert max_abs(weyl_decompose(weyl_reconstruct(table), l) - table) <= bound


# The dimension-mismatch error is checked in test_weyl.py.
class TestValidation:
    def test_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            weyl_decompose(np.ones((3, 4)), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            weyl_decompose(m, 3)

    def test_order_below_two(self):
        with pytest.raises(ValueError):
            weyl_decompose(np.eye(1), 1)

    @pytest.mark.parametrize("n", [0, -1, 1.5])
    def test_site_count_below_one(self, n):
        with pytest.raises(ValueError, match="site count"):
            weyl_decompose(np.eye(4), 2, n)

    def test_dimension_is_l_to_the_n(self):
        with pytest.raises(ValueError, match="expected 8"):
            weyl_decompose(np.eye(4), 2, 3)

    def test_non_square_table(self):
        with pytest.raises(ValueError, match="square"):
            weyl_reconstruct(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            weyl_reconstruct(np.ones(4))

    def test_table_below_order_two(self):
        with pytest.raises(ValueError):
            weyl_reconstruct(np.ones((1, 1)))
