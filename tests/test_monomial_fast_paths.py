"""The monomial engine's fast paths against the slow references they replace:
the lazy basis against the eager builder, the support search that skips
empty diagonals against the one that transforms every diagonal, the engine
chosen from the raw seeds' Weyl coefficients against the one chosen after
Gram-Schmidt, the sweep over stored digit rows against the one gathering
digits from the code table, and the stacked preprocessing against the
per-matrix one; plus the CLI paths that rely on the lazy basis."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closure_reference
from closure_reference import (
    _reference_with_negations,
    reference_monomial_closure,
    reference_prepare,
    reference_routed_closure,
    reference_validate,
)
from quditkit import (
    COMPLEX_TRACELESS,
    GENERATOR_SET_NAMES,
    MODES,
    REAL_ANTIHERMITIAN,
    GeneratorSet,
    clock_matrix,
    closure,
    max_abs,
    named_generator_set,
    prepare_generators,
    qudit_universal_set,
    shift_matrix,
    weyl_element,
)
from quditkit import cli
from quditkit.serialize import load_matrix
from quditkit.universality import (
    _dense_closure,
    _factorizations,
    _first_reached,
    _kept_seeds,
    _monomial_closure,
    _monomial_support,
    _negated,
    _off_support,
    _seed,
)
from test_closure_engine import ACCEPTANCE_SETS, _block_pair, _random_pair
from test_monomial_engine import NAMED_GRID, _QUBIT_ONLY, _monomial, monomial_sets

_property = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _named_grid_to(limit):
    """(name, l, n) of every named set with l^n <= limit."""
    for name in GENERATOR_SET_NAMES:
        for l in [2] if name in _QUBIT_ONLY else range(2, limit + 1):
            n = 1
            while l**n <= limit:
                if not (name == "clifford-universal" and n < 2):
                    yield name, l, n
                n += 1


NAMED_GRID_32 = list(_named_grid_to(32))
NAMED_GRID_81 = list(_named_grid_to(81))


def _eager(basis):
    return closure_reference._monomial_basis(basis.l, basis.n, basis.codes, basis.mode)


# ------------------------------------------------------------------ lazy basis


class TestLazyBasis:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name,l,n", NAMED_GRID, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in NAMED_GRID])
    def test_elements_equal_the_eager_builder(self, name, l, n, mode):
        result = closure(prepare_generators(named_generator_set(name, l, n), mode))
        assert result.engine == "monomial"
        eager = _eager(result.basis)
        assert len(result.basis) == len(eager) == result.achieved_dim
        for i, ref in enumerate(eager):
            element = result.basis[i]
            assert (element == ref).all()
            assert element.tobytes() == ref.tobytes()  # signed zeros too

    @pytest.fixture
    def result(self):
        return closure(prepare_generators(qudit_universal_set(3, 2), REAL_ANTIHERMITIAN))

    def test_sequence_semantics(self, result):
        basis, eager = result.basis, _eager(result.basis)
        assert isinstance(basis, Sequence)
        assert len(basis) == 80
        assert np.array_equal(np.stack(basis), eager)
        assert all(np.array_equal(a, b) for a, b in zip(basis, eager, strict=True))
        assert np.array_equal(basis[-1], eager[-1]) and np.array_equal(basis[-80], eager[0])
        assert np.array_equal(basis[np.int64(5)], eager[5])
        for index in (80, -81):
            with pytest.raises(IndexError):
                basis[index]
        with pytest.raises(TypeError):
            basis["0"]
        with pytest.raises(TypeError):
            basis[0] = eager[0]

    @pytest.mark.parametrize("part", [slice(3, 9), slice(None, None, -7), slice(-5, None),
                                      slice(70, 200, 3), slice(9, 3)])
    def test_slices_are_lazy_sequences(self, result, part):
        basis, eager = result.basis, _eager(result.basis)
        sliced = basis[part]
        assert type(sliced) is type(basis)
        assert len(sliced) == len(eager[part])
        if len(sliced):
            assert np.array_equal(np.stack(sliced), eager[part])
        assert len(sliced[1:]) == max(0, len(sliced) - 1)

    def test_elements_are_new_arrays_and_codes_read_only(self, result):
        first = result.basis[0]
        first[:] = 0
        assert np.array_equal(result.basis[0], _eager(result.basis)[0])
        with pytest.raises(ValueError):
            result.basis.codes[0] = 0

    def test_dense_results_keep_a_tuple(self):
        result = closure(prepare_generators(_random_pair(11, 3), REAL_ANTIHERMITIAN))
        assert result.engine == "dense"
        assert isinstance(result.basis, tuple) and len(result.basis) == 8


# ---------------------------------------------------------------- support search


def _assert_same_support(gen, tol=1e-9):
    # on the orthonormal seeds of the dense engine, and on the raw seeds
    raw, norms = _kept_seeds(gen, tol)
    orthonormal = _seed(raw, gen, tol).elements()
    for seeds, norms in ((orthonormal, np.ones(len(orthonormal))), (raw, norms)):
        for l, n in _factorizations(gen.dim):
            new = _first_reached(seeds, norms, l, n, tol)
            ref = closure_reference.seed_coefficients(seeds, norms, l, n, tol)
            assert (new is None) == (ref is None), (l, n)
            if ref is not None:
                codes, coefficients, outside = new
                assert np.array_equal(codes, ref[0]), (l, n)
                assert max_abs(coefficients - ref[1]) <= 1e-14
                # summed from the skipped diagonals' entries instead of their
                # coefficients, and from another transform: equal up to its rounding
                assert np.allclose(outside, ref[2], rtol=1e-9, atol=1e-15)


class TestSupportSearch:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name,l,n", NAMED_GRID_32, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in NAMED_GRID_32])
    def test_named_sets(self, name, l, n, mode):
        _assert_same_support(prepare_generators(named_generator_set(name, l, n), mode))

    @pytest.mark.parametrize("label,make,dim", ACCEPTANCE_SETS, ids=[s[0] for s in ACCEPTANCE_SETS])
    def test_acceptance_sets(self, label, make, dim):
        _assert_same_support(prepare_generators(make(), REAL_ANTIHERMITIAN))

    @pytest.mark.parametrize("code", [41, 66, 75])
    @pytest.mark.parametrize("step", range(-4, 5))
    def test_components_at_the_threshold(self, step, code):
        # A component within a few ulps of the threshold is decided as the
        # full transform decides it, so its diagonal is never skipped: at
        # step 0 the FFT rounds the coefficients of W(66) and W(75) up past
        # the threshold, although no entry of their diagonals exceeds it.
        l, n, tol = 3, 2, 1e-9
        floor = tol / np.sqrt(l**n)
        size = floor * (1 + step * np.finfo(float).eps)
        seeds = np.stack([_monomial(l, n, 10) / 3, size * _monomial(l, n, code)])
        for factor in ((3, 2), (9, 1)):
            new = _first_reached(seeds, np.ones(2), *factor, tol)
            ref = closure_reference._first_reached(seeds, *factor, tol)
            assert np.array_equal(None if new is None else new[0], ref)


@_property
@given(monomial_sets(), st.data())
def test_support_of_perturbed_monomial_sets(case, data):
    l, n, codes, mats, mode = case
    other = _monomial(l, n, data.draw(st.integers(1, l ** (2 * n) - 1)))
    size = data.draw(st.sampled_from([1e-13, 1e-11, 3e-10, 3e-9, 1e-7, 1e-4]))
    _assert_same_support(prepare_generators([mats[0] + size * other] + mats[1:], mode))


@_property
@given(st.integers(2, 16), st.integers(0, 2**32 - 1), st.sampled_from(MODES))
def test_support_of_dense_pairs(d, seed, mode):
    _assert_same_support(prepare_generators(_random_pair(seed, d), mode))


@_property
@given(monomial_sets(), st.data())
def test_part_off_the_support(case, data):
    l, n, _, mats, mode = case
    other = _monomial(l, n, data.draw(st.integers(0, l ** (2 * n) - 1)))
    size = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-4, 1.0]))
    # a real-mode part can be exactly zero, as i (M + M*) is for an anti-Hermitian M
    prepared = prepare_generators([mats[0] + size * other], mode).matrices
    seed = data.draw(st.sampled_from([m for m in prepared if np.linalg.norm(m) > 0]))
    codes = np.array(data.draw(st.lists(st.integers(0, l ** (2 * n) - 1), unique=True, max_size=6)), dtype=np.intp)
    norm = np.linalg.norm(seed)
    ref = closure_reference.off_support(seed / norm, codes, l, n)
    assert np.isclose(_off_support(seed, norm, codes, l, n), ref, rtol=1e-9, atol=1e-15)


# ------------------------------------------------------------------ engine choice


def _routing(result):
    codes = result.basis.codes.tolist() if result.engine == "monomial" else None
    return result.engine, codes, result.rounds, result.achieved_dim, result.universal


def assert_same_routing(gen, tol=1e-9):
    assert _routing(closure(gen, tol=tol)) == _routing(reference_routed_closure(gen, tol=tol))


# Two real-mode sets at l=4, n=2 (codes as in quditkit.weyl) on which the dense
# engine counts rounding dust as directions.
DUST_CASE_1 = ([67, 27, 81], [-0.7111114341098158, 3.1411594878060636, -0.252348007011997])
DUST_CASE_2 = ([102, 1], [-0.7827014803846899, 0.75])


def _phased(codes, phases, l=4, n=2):
    return [np.exp(1j * p) * _monomial(l, n, c) for c, p in zip(codes, phases)]


class TestEngineChoice:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name,l,n", NAMED_GRID_32, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in NAMED_GRID_32])
    def test_named_sets(self, name, l, n, mode):
        assert_same_routing(prepare_generators(named_generator_set(name, l, n), mode))

    @pytest.mark.parametrize("tol", [1e-7, 1e-9, 1e-11, 1e-13])
    @pytest.mark.parametrize("mode", MODES)
    def test_dust_case_1(self, mode, tol):
        assert_same_routing(prepare_generators(_phased(*DUST_CASE_1), mode), tol)

    # y = 1 and 102 are seed codes; at 1e-13 the others give every outcome:
    # dense 255, 64 and 12, and monomial 12 (real mode, y = 3 and 238).
    @pytest.mark.parametrize("y", [1, 2, 3, 9, 33, 101, 102, 238])
    @pytest.mark.parametrize("tol", [1e-7, 1e-9, 1e-11, 1e-13])
    @pytest.mark.parametrize("mode", MODES)
    def test_dust_case_2(self, mode, tol, y):
        mats = _phased(*DUST_CASE_2)
        mats[0] = mats[0] + 1e-12 * _monomial(4, 2, y)
        assert_same_routing(prepare_generators(mats, mode), tol)

    # The dense engine stops once its span is closed under brackets with the
    # seeds, before its late sweeps take dust for directions; it then agrees
    # with closure.  DUST_CASE_1 at 1e-11 still reaches 255 on it.
    @pytest.mark.parametrize("tol", [1e-7, 1e-9])
    def test_dense_engine_on_dust_case_1(self, tol):
        result = _dense_closure(prepare_generators(_phased(*DUST_CASE_1), REAL_ANTIHERMITIAN), tol=tol)
        assert (result.achieved_dim, result.rounds) == (60, 3)

    @pytest.mark.parametrize("y", [102, 238])
    def test_dense_engine_on_dust_case_2(self, y):
        mats = _phased(*DUST_CASE_2)
        mats[0] = mats[0] + 1e-12 * _monomial(4, 2, y)
        result = _dense_closure(prepare_generators(mats, REAL_ANTIHERMITIAN), tol=1e-13)
        assert (result.achieved_dim, result.rounds) == (12, 2)

    @pytest.mark.parametrize("mode", MODES)
    def test_all_zero_input(self, mode):
        gen = prepare_generators([np.zeros((4, 4)), np.eye(4)], mode)
        assert _routing(closure(gen)) == ("monomial", [], 0, 0, False)
        assert_same_routing(gen)

    @pytest.mark.parametrize("size", [0.0, 1e-300, 5e-10, 1e-9, 2e-9])
    @pytest.mark.parametrize("mode", MODES)
    def test_seeds_below_the_floor(self, mode, size):
        # Seeds at most tol times the largest norm count as zero.  The
        # perturbed seed sits between two seeds along other monomials, so a
        # seed kept or dropped would change the first-reach order.
        l, n = 3, 2
        mats = [_monomial(l, n, 10), size * (_monomial(l, n, 41) + _monomial(l, n, 66)), _monomial(l, n, 75)]
        assert_same_routing(prepare_generators(mats, mode))

    # an empty set is refused before the tolerance is checked
    @pytest.mark.parametrize("count,tol", [(0, 1e-9), (0, float("nan")), (1, 0.0), (1, -1.0),
                                           (1, float("nan")), (1, float("inf"))])
    def test_error_messages(self, count, tol):
        gen = GeneratorSet("", 2, (np.eye(2, dtype=complex),) * count, COMPLEX_TRACELESS)
        messages = []
        for engine in (closure, reference_routed_closure):
            with pytest.raises(ValueError) as raised:
                engine(gen, tol=tol)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert (messages[0] == "generator set is empty") == (count == 0)

    @pytest.mark.parametrize("mode", MODES)
    def test_seeds_short_of_the_rank_of_their_support(self, mode):
        l, n = 3, 2
        pair = _monomial(l, n, 10) + _monomial(l, n, 41)
        gen = prepare_generators([pair, 2j * pair, _monomial(l, n, 66)], mode)
        assert closure(gen).engine == "dense"
        assert_same_routing(gen)

    # At delta = 1e-7, 1e-8 and 3e-9 the Gram-Schmidt route went dense (see closure).
    @pytest.mark.parametrize("delta", [0.0, 1e-9, 1.5e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("mode", MODES)
    def test_nearly_dependent_seeds(self, mode, delta):
        l, n = 3, 2
        mats = [_monomial(l, n, 10) + _monomial(l, n, 41), _monomial(l, n, 10) + (1 + delta) * _monomial(l, n, 41)]
        assert_same_routing(prepare_generators(mats, mode))

    # A seed's parts below tol along monomials that other seeds reach lie in
    # the span of S0, though the mixed seed lies 1.13 tol off its own
    # monomial.  The dense engine takes that dust for directions: 80 of 80
    # with the mixed seed first.
    @pytest.mark.parametrize("first", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_sub_threshold_parts_along_other_seeds(self, mode, first):
        l, n, tol = 3, 2, 1e-9
        mixed = _monomial(l, n, 66) + 0.8 * tol * (_monomial(l, n, 10) + _monomial(l, n, 41))
        mats = [_monomial(l, n, 10), _monomial(l, n, 41)]
        gen = prepare_generators([mixed] + mats if first else mats + [mixed], mode)
        result = closure(gen, tol=tol)
        assert (result.engine, result.achieved_dim, result.universal) == ("monomial", 24, False)
        assert_same_routing(gen, tol)


@st.composite
def monomial_families(draw):
    """(matrices, mode, tol): a phase-times-monomial set with seeds added
    that repeat, combine or phase-shift the others."""
    *_, mats, mode = draw(monomial_sets())
    factor = st.sampled_from([1.0, -1.0, 2.0, 0.5, 1j, -1j, 1 + 1j, np.exp(0.3j)])
    for kind in draw(st.lists(st.sampled_from(["repeat", "combine", "phase"]), min_size=1, max_size=4)):
        first = draw(st.integers(0, len(mats) - 1))
        if kind == "repeat":
            mats.append(mats[first])
        elif kind == "phase":
            mats.append(draw(factor) * mats[first])
        else:
            second = draw(st.integers(0, len(mats) - 1))
            mats.append(draw(factor) * mats[first] + draw(factor) * mats[second])
    mats = draw(st.permutations(mats))
    return mats, mode, draw(st.sampled_from([1e-7, 1e-9, 1e-11]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(monomial_families())
def test_engine_choice_on_monomial_families(case):
    mats, mode, tol = case
    assert_same_routing(prepare_generators(mats, mode), tol)


class TestDensePathUnchanged:
    """Inputs that are not monomial sets run the dense engine as before, bit for bit."""

    @staticmethod
    def _generic_inputs(seed):
        """The closure-generic benchmark cases of one seed, as the benchmark makes them."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        return workloads.ClosureGeneric().make_inputs(seed, None, {})[1]

    @staticmethod
    def assert_bitwise(gen):
        new, ref = closure(gen), reference_routed_closure(gen)
        assert new.engine == ref.engine == "dense"
        assert (new.rounds, new.achieved_dim) == (ref.rounds, ref.achieved_dim)
        assert len(new.basis) == len(ref.basis)
        assert all(np.array_equal(a, b) for a, b in zip(new.basis, ref.basis))
        return new.achieved_dim

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_closure_generic_inputs(self, seed):
        cases = self._generic_inputs(seed)
        dims = [self.assert_bitwise(prepare_generators(mats, mode)) for _, mats, mode, *_ in cases]
        assert dims == [case[3] for case in cases] == [255, 143, 71]

    @pytest.mark.parametrize("seed,a,b", [(43, 6, 6), (608, 8, 8), (211, 5, 6)])
    def test_block_pairs(self, seed, a, b):
        self.assert_bitwise(prepare_generators(_block_pair(seed, a, b), REAL_ANTIHERMITIAN))


# ------------------------------------------------------------ digit-row sweep


def assert_same_sweep(l, n, seed_codes, mode):
    got = _monomial_closure(l, n, seed_codes, mode, 1e-9)
    ref = reference_monomial_closure(l, n, seed_codes, mode, 1e-9)
    assert np.array_equal(got.basis.codes, ref.basis.codes)
    assert (got.rounds, got.achieved_dim, got.universal) == (ref.rounds, ref.achieved_dim, ref.universal)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", GENERATOR_SET_NAMES)
def test_sweep_matches_the_reference_on_named_sets(name, mode):
    # every named set with l^n <= 81, looped here to keep the case count low
    for _, l, n in (case for case in NAMED_GRID_81 if case[0] == name):
        gen = prepare_generators(named_generator_set(name, l, n), mode)
        found = _monomial_support(*_kept_seeds(gen, 1e-9), gen.dim, mode, 1e-9)
        assert found is not None, (l, n)
        assert_same_sweep(*found, mode)


@st.composite
def seed_code_sets(draw):
    """(l, n, seed codes, mode): distinct nonzero codes, closed under
    negation in real mode, each x followed by -x."""
    l, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (6, 1), (7, 1)]))
    mode = draw(st.sampled_from(MODES))
    codes = np.array(draw(st.lists(st.integers(1, l ** (2 * n) - 1), min_size=1, max_size=6, unique=True)))
    if mode == REAL_ANTIHERMITIAN:
        codes = _reference_with_negations(codes, _negated(l, n))
    return l, n, codes, mode


@_property
@given(seed_code_sets())
def test_sweep_matches_the_reference_on_random_seed_codes(case):
    assert_same_sweep(*case)


# ---------------------------------------------------------- stacked preprocessing


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


_NAN2, _OK2, _OK3 = np.full((2, 2), np.nan), np.eye(2), np.eye(3)
# Malformed prepare_generators inputs, some with two faults in either order.
BAD_INPUTS = [
    [],
    [np.ones((2, 3))],
    [_NAN2],
    [_OK2, _OK3],
    [_OK2, _OK2, _OK3, np.full((3, 3), np.inf)],
    [_NAN2, np.ones((2, 3))],
    [np.ones((2, 3)), _NAN2],
    [_OK2, np.ones(4)],
    [np.zeros((0, 0))],
    [_OK2, _OK2, [[1, np.nan], [0, 1]]],
    [np.ones((2, 2, 2))],
]


def _validation_cases():
    """GeneratorSet inputs at dim 3: faults early and late in the set,
    alone and two of different kinds in either order."""
    rng = np.random.default_rng(7)
    skew = [(lambda m: m - m.conj().T)(rng.standard_normal((3, 3)) + 0j) for _ in range(20)]
    hermitian = np.eye(3, dtype=complex)
    bad = np.full((3, 3), np.nan + 0j)
    opposed = np.zeros((3, 3), dtype=complex)  # m + m* is inf - inf at (0, 1)
    opposed[0, 1], opposed[1, 0] = np.inf, -np.inf
    return [
        skew,
        skew[:2] + [hermitian] + skew[2:],
        skew[:12] + [hermitian],
        skew[:3] + [bad, hermitian],
        skew[:3] + [hermitian, bad],
        skew[:10] + [np.full((3, 3), np.inf + 0j)],
        skew[:2] + [np.eye(2, dtype=complex)] + [hermitian],
        [hermitian, np.eye(2, dtype=complex)],
        [np.eye(2, dtype=complex)] + skew,
        skew[:9] + [skew[0] + 2e-11],
        skew[:9] + [skew[0] + 5e-12],
        skew[:4] + [opposed, hermitian],
    ]


VALIDATION_CASES = _validation_cases()


class TestStackedPreprocessing:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name,l,n", NAMED_GRID, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in NAMED_GRID])
    def test_named_sets_bitwise(self, name, l, n, mode):
        mats = named_generator_set(name, l, n)
        got = prepare_generators(mats, mode).matrices
        ref = reference_prepare(mats, mode)
        assert len(got) == len(ref)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
        GeneratorSet("", len(got[0]), got, mode)  # passes the checks its construction skips

    @_property
    @given(st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from(MODES))
    def test_random_inputs_bitwise(self, d, k, seed, mode):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((d, d)) * 10.0 ** rng.integers(-8, 8)
                + 1j * rng.standard_normal((d, d)) for _ in range(k)]
        mats.append(np.zeros((d, d)))
        mats.append(mats[0].real.tolist())
        got = prepare_generators(mats, mode).matrices
        ref = reference_prepare(mats, mode)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref, strict=True))
        GeneratorSet("", d, got, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mats", BAD_INPUTS, ids=range(len(BAD_INPUTS)))
    def test_error_messages(self, mats, mode):
        message = _outcome(lambda: reference_prepare(mats, mode))
        assert isinstance(message, str)
        assert _outcome(lambda: prepare_generators(mats, mode)) == message

    @pytest.mark.parametrize("entries", [
        [[0, 1e308], [1e308, 0]],  # M + M* overflows
        [[0, 1e308], [-1e308, 0]],  # M - M* overflows
        [[1e308, 0], [0, 1e308]],  # the trace overflows
    ])
    def test_real_mode_overflow_is_refused(self, entries):
        mats = [np.eye(2), np.array(entries)]
        with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
            prepare_generators(mats, REAL_ANTIHERMITIAN)

    @pytest.mark.parametrize("entries", [
        np.diag([1e308, 1e308]),  # the trace overflows
        np.diag([1.5e308, -1.5e308, -1.5e308]),  # the finite trace's removal overflows
    ], ids=["trace", "projection"])
    def test_complex_mode_overflow_is_refused(self, entries):
        mats = [entries, np.eye(len(entries), k=1)]
        with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
            prepare_generators(mats, COMPLEX_TRACELESS)

    def test_hand_built_real_mode_sets_keep_the_check(self):
        skew = np.array([[0, 1], [-1, 0]], dtype=complex)
        with pytest.raises(ValueError, match=(
            r"^matrix 1 is not anti-Hermitian; real mode requires preprocessed input "
            r"\(see prepare_generators\)$"
        )):
            GeneratorSet("", 2, (skew, np.eye(2, dtype=complex)), REAL_ANTIHERMITIAN)

    def test_hand_built_complex_mode_sets_refuse_non_finite_entries(self):
        # closure would drop every seed of such a set (its largest norm is NaN): achieved_dim 0
        w10, w01 = weyl_element(3, 1, 0), weyl_element(3, 0, 1)
        w01[1, 1] = np.nan
        with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
            GeneratorSet("", 3, (w10, w01), COMPLEX_TRACELESS)

    @pytest.mark.parametrize("mode", MODES)
    def test_hand_built_empty_matrices_are_refused(self, mode):
        with pytest.raises(ValueError, match=r"^matrix must be a square matrix, got shape \(0, 0\)$"):
            GeneratorSet("", 0, (np.zeros((0, 0), dtype=complex),), mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_seed_norms_that_overflow_are_refused(self, mode):
        # finite entries of 1e160 whose squares overflow the Frobenius norm
        gen = prepare_generators([1e160 * shift_matrix(3), clock_matrix(3)], mode)
        with pytest.raises(ValueError, match=r"^matrix 0 has a norm that overflows$"):
            closure(gen)

    @pytest.mark.parametrize("mode", MODES)
    def test_overflow_names_the_input_of_a_prepared_set(self, mode):
        # real mode keeps two matrices per input, and the error still names input 1
        gen = prepare_generators([clock_matrix(3), 1e160 * shift_matrix(3)], mode)
        with pytest.raises(ValueError, match=r"^matrix 1 has a norm that overflows$"):
            closure(gen)

    def test_overflow_names_the_matrix_of_a_hand_built_set(self):
        w = weyl_element(3, 1, 0) - weyl_element(3, 2, 0)  # anti-Hermitian
        gen = GeneratorSet("", 3, (w, 1j * clock_matrix(3).real, 1e160 * w), REAL_ANTIHERMITIAN)
        with pytest.raises(ValueError, match=r"^matrix 2 has a norm that overflows$"):
            closure(gen)

    def test_peak_memory_is_one_stack_copy_plus_the_split(self):
        # The inputs, the stack and the (2k, d, d) split are k, k and 2k
        # matrices; a transposed copy of the stack would add another k.
        mats = named_generator_set("biproducts", 2, 6)
        k, d = len(mats), mats[0].shape[0]
        tracemalloc.start()
        try:
            prepare_generators(mats, REAL_ANTIHERMITIAN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * k * d * d * 16

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mats", VALIDATION_CASES, ids=range(len(VALIDATION_CASES)))
    def test_validation_matches_per_matrix_checks(self, mats, mode):
        mats = tuple(mats)
        expected = _outcome(lambda: reference_validate(3, mats, mode))
        got = _outcome(lambda: GeneratorSet("", 3, mats, mode))
        assert (got if isinstance(got, str) else None) == expected


# ------------------------------------------------------------------------ CLI


@pytest.mark.parametrize("mode", MODES)
def test_dumped_basis_equals_the_eager_builder(tmp_path, mode, capsys):
    argv = ["closure", "--set", "qudit-universal", "--dim", "3", "--sites", "2", "--mode", mode]
    assert cli.main(argv + ["--dump-basis", str(tmp_path)]) == 0
    capsys.readouterr()
    files = sorted(tmp_path.glob("basis-*.json"))
    eager = _eager(closure(prepare_generators(qudit_universal_set(3, 2), mode)).basis)
    assert len(files) == len(eager) == 80
    for path, ref in zip(files, eager):
        assert np.array_equal(load_matrix(path), ref)


# Linux charges a child the peak RSS of the process it was forked from, up
# to its exec, so the closure runs under a small launcher rather than
# under the test process.
_LAUNCHER = """
import os, sys
argv = [sys.executable, "-m", "quditkit", *sys.argv[1:]]
pid = os.posix_spawn(sys.executable, argv, os.environ)
_, status, usage = os.wait4(pid, 0)
print(f"exit {os.waitstatus_to_exitcode(status)} peak-rss-kb {usage.ru_maxrss}")
"""


def test_qudit_universal_at_81_stays_small():
    # The eager basis of 6560 81 x 81 matrices took 731 MB peak RSS.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, "closure", "--set", "qudit-universal",
         "--dim", "3", "--sites", "4", "--max-dim", "81"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    *report, last = proc.stdout.splitlines()
    _, code, _, peak_kb = last.split()
    assert int(code) == 0, proc.stderr
    assert "target-dim: 6560\nachieved-dim: 6560\n" in "\n".join(report) + "\n"
    assert int(peak_kb) < 100 * 1024
