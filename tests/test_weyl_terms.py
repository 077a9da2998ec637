"""Named generator sets as Weyl terms: the group law on (phase, code) arrays,
the terms of every named set against its matrices, and the term path of
``closure`` against the matrix path it stands in for."""

import re
import tracemalloc

import numpy as np
import pytest

from quditkit import (
    COMPLEX_TRACELESS,
    GENERATOR_SET_NAMES,
    MODES,
    REAL_ANTIHERMITIAN,
    canonical_generators,
    clifford_generators,
    clock_matrix,
    closure,
    generalized_generators,
    named_generator_set,
    prepare_generators,
    universal_augmentation,
)
from quditkit.universality import _factorizations, _kept_seeds, _monomial_support, _term_support
from quditkit.weyl import _WeylTerms, _weyl_adjoint, _weyl_product
from test_monomial_fast_paths import NAMED_GRID_81
from weyl_reference import reference_terms

SITES = [(2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (5, 1), (6, 1), (7, 2)]
TOLERANCES = [1e-11, 1e-9, 1e-7, 0.75]
# machine epsilon, where the matrices' rounding dust reaches components
# above tol, and 1/sqrt(2), a real-mode unit seed's component along W(x)
EDGE_TOLERANCES = [2.220446049250313e-16, 1e-13, 0.7071067811865476]


def _random_terms(rng, l, n, k):
    return rng.integers(0, 2 * l, k), rng.integers(0, l ** (2 * n), k)


# ------------------------------------------------------------------ group law


@pytest.mark.parametrize("l,n", SITES)
def test_products_follow_the_matrices(l, n):
    rng = np.random.default_rng(10 * l + n)
    left, right = _random_terms(rng, l, n, 40), _random_terms(rng, l, n, 40)
    want = reference_terms(l, n, *left) @ reference_terms(l, n, *right)
    assert np.abs(reference_terms(l, n, *_weyl_product(l, n, left, right)) - want).max() <= 1e-13


@pytest.mark.parametrize("l,n", SITES)
def test_adjoints_follow_the_matrices(l, n):
    rng = np.random.default_rng(20 * l + n)
    terms = _random_terms(rng, l, n, 40)
    want = reference_terms(l, n, *terms).conj().transpose(0, 2, 1)
    assert np.abs(reference_terms(l, n, *_weyl_adjoint(l, n, terms)) - want).max() <= 1e-13


# ------------------------------------------------------------ named-set terms


@pytest.mark.parametrize("name", GENERATOR_SET_NAMES)
def test_named_matrices_are_their_terms(name):
    # Each entry is one table read of nu^(e + 2 b.j), as the reference reads
    # it; a product of reads would be off by up to 2.7e-15 (qudit-universal l=28).
    for _, l, n in (case for case in NAMED_GRID_81 if case[0] == name):
        named = named_generator_set(name, l, n)
        got, want = np.stack(named), reference_terms(l, n, named.exponents, named.codes)
        error = np.abs(got - want).max()
        assert error == 0 and got.tobytes() == want.tobytes(), (l, n, error)


@pytest.mark.parametrize("name,l,n,build", [
    ("clifford", 2, 3, lambda: clifford_generators(3).matrices),
    ("generalized", 3, 2, lambda: generalized_generators(3, 2).matrices),
    ("canonical", 5, 2, lambda: canonical_generators(5, 2).matrices),
    ("clifford-universal", 2, 4, lambda: universal_augmentation(clifford_generators(4))),
])
def test_named_matrices_keep_the_constructors_bytes(name, l, n, build):
    named = named_generator_set(name, l, n)
    want = build()
    assert len(named) == len(want)
    if name == "clifford-universal":
        # built from the terms, not by the dense products, which leave -0 where the terms give +0
        assert all(np.array_equal(a, b) for a, b in zip(named, want))
    else:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(named, want))


def test_terms_and_matrices_are_read_only():
    named = named_generator_set("qudit-universal", 3, 2)
    for array in (named.exponents, named.codes, named[0]):
        with pytest.raises(ValueError):
            array[0] = 0
    assert all(a is b for a, b in zip(named[1:3], (named[1], named[2]), strict=True))
    # the prepared matrices of a term-backed set too: built once, on first access
    for mode in MODES:
        prepared = prepare_generators(named, mode).matrices
        assert len(prepared) == 4 * (1 + (mode == REAL_ANTIHERMITIAN))
        assert "_matrices" not in vars(prepared)
        assert all(a is b for a, b in zip(prepared, prepared[:], strict=True))
        for array in prepared:
            with pytest.raises(ValueError):
                array[0, 0] = 0


@pytest.mark.parametrize("name,l,n,constructor", [
    ("generalized", 1, 2, lambda: generalized_generators(1, 2)),
    ("generalized", 3, 0, lambda: generalized_generators(3, 0)),
    ("canonical", 1, 1, lambda: canonical_generators(1, 1)),
    ("canonical", 2, 0, lambda: canonical_generators(2, 0)),
    ("clifford", 2, 0, lambda: clifford_generators(0)),
    ("biproducts", 2, 0, lambda: clifford_generators(0)),
    ("clifford-universal", 2, 1, lambda: universal_augmentation(clifford_generators(1))),
    ("clifford-universal", 2, 0, lambda: clifford_generators(0)),
])
def test_errors_are_the_constructors(name, l, n, constructor):
    with pytest.raises(ValueError) as expected:
        constructor()
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        named_generator_set(name, l, n)


# ------------------------------------------------------------------ term path


def _summary(result):
    codes = result.basis.codes.tolist() if result.engine == "monomial" else None
    return result.engine, codes, result.rounds, result.achieved_dim, result.universal


@pytest.mark.parametrize("name", GENERATOR_SET_NAMES)
def test_term_path_decides_as_the_matrix_path(name):
    # every named set with d <= 81, both modes, four tolerances
    for _, l, n in (case for case in NAMED_GRID_81 if case[0] == name):
        named = named_generator_set(name, l, n)
        for mode in MODES:
            gen, matrices = prepare_generators(named, mode), prepare_generators(list(named), mode)
            if _factorizations(l**n)[0][0] != l:
                assert gen._terms is None and isinstance(gen.matrices, tuple), (l, n)
                continue
            assert gen._terms is named
            for tol in TOLERANCES:
                case = (l, n, mode, tol)
                if _term_support(named, mode, tol) is None:
                    # The matrices decide: the same call on the same matrices.
                    # Past d = 9 only the engine choice is compared, since
                    # real mode at 0.75 runs the dense engine there.
                    assert _monomial_support(*_kept_seeds(matrices, tol), l**n, mode, tol) is None, case
                    if l**n > 9:
                        continue
                assert _summary(closure(gen, tol=tol)) == _summary(closure(matrices, tol=tol)), case


@pytest.mark.parametrize("tol", EDGE_TOLERANCES)
@pytest.mark.parametrize("mode", MODES)
def test_term_path_decides_as_the_matrix_path_at_the_edges(mode, tol):
    # Term rows decided with no margin gave the matrices' verdict at every tol
    # from 1e-15 to 0.5, but not at machine epsilon (generalized (3, 2) goes
    # dense on the matrices) nor on two real-mode sets at 1/sqrt(2).  The
    # term path may decline here for reasons the matrices do not share, so
    # the closures are compared, not the declines.
    for name, l, n in (case for case in NAMED_GRID_81 if case[1] ** case[2] <= 9):
        named = named_generator_set(name, l, n)
        got = closure(prepare_generators(named, mode), tol=tol)
        want = closure(prepare_generators(list(named), mode), tol=tol)
        assert _summary(got) == _summary(want), (name, l, n)


@pytest.mark.parametrize("mode", MODES)
def test_term_path_declines_real_mode_at_075_only_past_qubits(mode):
    # A real-mode unit seed at l >= 3 has components 1/sqrt(2) along W(x) and
    # W(-x), so at 0.75 it reaches neither and the dense engine decides.
    for name, l, n in [("qudit-universal", 3, 2), ("canonical", 5, 1), ("biproducts", 2, 3)]:
        found = _term_support(named_generator_set(name, l, n), mode, 0.75)
        assert (found is None) == (mode == REAL_ANTIHERMITIAN and l > 2), (name, mode)


@pytest.mark.parametrize("mode", MODES)
def test_prepared_matrices_keep_their_bytes(mode):
    named = named_generator_set("qudit-universal", 3, 2)
    gen = prepare_generators(named, mode)
    want = prepare_generators(list(named), mode).matrices
    assert len(gen.matrices) == len(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(gen.matrices, want))


@pytest.mark.parametrize("mode", MODES)
def test_perfect_power_orders_stay_on_the_matrix_path(mode):
    # At l=4 the support search tries l=2 first.  The clock pair {V, V^3}
    # decides there, at the codes [2, 3]; its own terms are the l=4 codes [1, 3].
    v = clock_matrix(4)
    pair = _WeylTerms(4, 1, [0, 0], [1, 3], lambda: [v, v @ v @ v])
    gen = prepare_generators(pair, mode)
    assert gen._terms is None
    assert _summary(closure(gen)) == ("monomial", [2, 3], 1, 2, False)
    assert _term_support(pair, mode, 1e-9)[2].tolist() == [1, 3]
    for name in ("generalized", "canonical", "qudit-universal"):
        assert prepare_generators(named_generator_set(name, 4, 2), mode)._terms is None


def test_deciding_a_named_set_builds_no_matrix():
    named = named_generator_set("biproducts", 2, 8)
    gen = prepare_generators(named, REAL_ANTIHERMITIAN)
    result = closure(gen)
    assert (result.engine, result.achieved_dim, result.target_dim) == ("monomial", 120, 65535)
    assert "_matrices" not in vars(named)
    assert "_matrices" not in vars(gen.matrices)
    assert len(gen.matrices) == 240


@pytest.mark.parametrize("mode", MODES)
def test_deciding_a_named_set_takes_memory_by_the_codes_reached(mode):
    # The sweep once built tables of all 65535 codes: a 24.0 MiB peak in real
    # mode and 17.1 MiB in complex mode.  It reaches 120.
    tracemalloc.start()
    try:
        result = closure(prepare_generators(named_generator_set("biproducts", 2, 8), mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.engine, result.achieved_dim) == ("monomial", 120)
    assert peak < 2 * 1024 * 1024


def test_a_term_set_that_fails_a_check_runs_on_its_matrices():
    # seeds along the identity are left to the matrices, which project them out
    named = _WeylTerms(3, 1, [0, 0], [0, 1], lambda: [np.eye(3), clock_matrix(3)])
    gen = prepare_generators(named, COMPLEX_TRACELESS)
    assert _term_support(named, COMPLEX_TRACELESS, 1e-9) is None
    assert _summary(closure(gen)) == _summary(closure(prepare_generators(list(named), COMPLEX_TRACELESS)))
    assert "_matrices" in vars(gen.matrices)
