"""The dense engine's real-mode sweeps, run in real arithmetic on d^2 real
coordinates, against the same sweeps in complex arithmetic
(``closure_reference.complex_dense_closure``).

Both run the same schedule and the same relative tests, so they must reach
the same dimension in the same rounds and span the same space; each real-mode
basis matrix is decoded from its coordinates and is exactly anti-Hermitian.
Complex mode runs the arithmetic it always ran, so there the two agree bit
for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_reference import complex_dense_closure
from quditkit import (
    COMPLEX_TRACELESS,
    REAL_ANTIHERMITIAN,
    GeneratorSet,
    named_generator_set,
    prepare_generators,
)
from quditkit.universality import _dense_closure
from test_closure_engine import ACCEPTANCE_SETS, _block_pair, _complex_gaussian, _flat, _random_pair
from test_monomial_engine import NAMED_GRID


def assert_same_as_complex_arithmetic(gen, **kwargs):
    new, ref = _dense_closure(gen, **kwargs), complex_dense_closure(gen, **kwargs)
    assert (new.achieved_dim, new.target_dim, new.rounds, new.universal, new.engine) == (
        ref.achieved_dim, ref.target_dim, ref.rounds, ref.universal, ref.engine
    )
    if gen.mode == COMPLEX_TRACELESS:
        assert all(np.array_equal(a, b) for a, b in zip(new.basis, ref.basis))
        return new
    for b in new.basis:
        assert np.array_equal(b, -b.conj().T)
    # An element admitted with a small relative residual can be orthogonal
    # to the others only to far more than eps, in either arithmetic: the
    # complex-arithmetic basis of the d=11 block pair below is orthonormal
    # to 6e-11 only.
    assert _gram_error(new.basis) <= max(1e-14, 2 * _gram_error(ref.basis))
    # Both bases are orthonormal, so they span the same space exactly when
    # every singular value of their overlap is 1.
    singular = np.linalg.svd(_flat(new.basis) @ _flat(ref.basis).conj().T, compute_uv=False)
    assert np.max(np.abs(singular - 1.0)) <= 1e-10
    return new


def _gram_error(basis):
    flat = _flat(basis)
    return np.max(np.abs(flat.conj() @ flat.T - np.eye(len(flat))))


class TestAgainstComplexArithmetic:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_random_pairs(self, d):
        assert_same_as_complex_arithmetic(prepare_generators(_random_pair(100 + d, d), REAL_ANTIHERMITIAN))

    @pytest.mark.parametrize("d", [2, 5, 9, 12])
    def test_random_pairs_complex_mode_unchanged(self, d):
        assert_same_as_complex_arithmetic(prepare_generators(_random_pair(100 + d, d), COMPLEX_TRACELESS))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_block_pairs(self, d):
        # su(a) + su(b) + the relative phase: the rounds reject most commutators
        a = d // 2
        gen = prepare_generators(_block_pair(200 + d, a, d - a), REAL_ANTIHERMITIAN)
        assert_same_as_complex_arithmetic(gen)

    @pytest.mark.parametrize("mode", [REAL_ANTIHERMITIAN, COMPLEX_TRACELESS])
    @pytest.mark.parametrize("name,l,n", NAMED_GRID, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in NAMED_GRID])
    def test_named_sets(self, name, l, n, mode):
        result = assert_same_as_complex_arithmetic(prepare_generators(named_generator_set(name, l, n), mode))
        # the bound ClosureResult documents; 2.1e-14 at most, on generalized l=15
        assert _gram_error(result.basis) <= 1e-13

    @pytest.mark.parametrize("label,make,dim", ACCEPTANCE_SETS, ids=[s[0] for s in ACCEPTANCE_SETS])
    def test_acceptance_sets(self, label, make, dim):
        gen = prepare_generators(make(), REAL_ANTIHERMITIAN, name=label)
        assert _dense_closure(gen).achieved_dim == dim
        assert_same_as_complex_arithmetic(gen)

    def test_orthonormality_of_the_5_6_block_pair(self):
        # The bound ClosureResult documents for a basis that admitted small
        # relative residuals: 3.9e-11 here, pinned with one order of headroom.
        result = _dense_closure(prepare_generators(_block_pair(211, 5, 6), REAL_ANTIHERMITIAN))
        assert _gram_error(result.basis) <= 4e-10

    @pytest.mark.parametrize("tol", [1e-7, 1e-11])
    def test_other_tolerances(self, tol):
        gen = prepare_generators(_block_pair(43, 4, 3), REAL_ANTIHERMITIAN)
        assert_same_as_complex_arithmetic(gen, tol=tol)


@st.composite
def dense_sets(draw):
    """(matrices, tol) of 1 to 3 dense d x d matrices, d in 2..8, of varied structure.

    Gaussian matrices generate all of su(d); real, block-diagonal, sparse
    and banded ones generate subalgebras, whose rounds reject most
    commutators.
    """
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for kind in draw(st.lists(st.sampled_from(["gaussian", "real", "block", "sparse", "band"]),
                              min_size=1, max_size=3)):
        m = _complex_gaussian(rng, d)
        if kind == "real":
            m = m.real.astype(complex)
        elif kind == "block":
            a = d // 2
            m[:a, a:] = m[a:, :a] = 0
        elif kind == "sparse":
            m[rng.random((d, d)) < 0.7] = 0
        elif kind == "band":
            m = np.triu(np.tril(m, 1), -1)
        mats.append(m)
    return mats, draw(st.sampled_from([1e-7, 1e-9, 1e-11]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dense_sets())
def test_random_dense_sets(case):
    mats, tol = case
    assert_same_as_complex_arithmetic(prepare_generators(mats, REAL_ANTIHERMITIAN), tol=tol)


def test_hermitian_part_of_a_seed_is_dropped():
    # A hand-built real-mode set may be Hermitian up to 1e-11 per entry; the
    # coordinates keep the anti-Hermitian part, so the basis is exactly
    # anti-Hermitian and spans what the clean seeds span.
    clean = prepare_generators(_random_pair(7, 3), REAL_ANTIHERMITIAN).matrices
    noisy = tuple(m + 4e-12 * np.eye(3) for m in clean)
    results = [_dense_closure(GeneratorSet("", 3, mats, REAL_ANTIHERMITIAN)) for mats in (clean, noisy)]
    assert [r.achieved_dim for r in results] == [8, 8]
    for b in results[1].basis:
        assert np.array_equal(b, -b.conj().T)
    singular = np.linalg.svd(_flat(results[0].basis) @ _flat(results[1].basis).conj().T, compute_uv=False)
    assert np.max(np.abs(singular - 1.0)) <= 1e-10
