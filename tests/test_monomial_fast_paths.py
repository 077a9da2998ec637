"""The monomial engine's fast paths against the slow references they replace:
the lazy basis against the eager builder, the support search that skips
empty diagonals against the one that transforms every diagonal, and the
stacked preprocessing against the per-matrix one; plus the CLI paths that
rely on the lazy basis."""

import os
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closure_reference
from closure_reference import reference_prepare, reference_validate
from quditkit import (
    GENERATOR_SET_NAMES,
    MODES,
    REAL_ANTIHERMITIAN,
    GeneratorSet,
    closure,
    named_generator_set,
    prepare_generators,
    qudit_universal_set,
)
from quditkit import cli
from quditkit.serialize import load_matrix
from quditkit.universality import _factorizations, _first_reached, _seed
from test_closure_engine import ACCEPTANCE_SETS, _random_pair
from test_monomial_engine import NAMED_GRID, _QUBIT_ONLY, _monomial, monomial_sets

_property = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _named_grid_32():
    """(name, l, n) of every named set with l^n <= 32."""
    for name in GENERATOR_SET_NAMES:
        for l in [2] if name in _QUBIT_ONLY else range(2, 33):
            n = 1
            while l**n <= 32:
                if not (name == "clifford-universal" and n < 2):
                    yield name, l, n
                n += 1


NAMED_GRID_32 = list(_named_grid_32())


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
    seeds = _seed(gen, None, tol)[0].elements()
    for l, n in _factorizations(gen.dim):
        new = _first_reached(seeds, l, n, tol)
        ref = closure_reference._first_reached(seeds, l, n, tol)
        assert (new is None) == (ref is None), (l, n)
        if ref is not None:
            assert np.array_equal(new, ref), (l, n)


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
            new = _first_reached(seeds, *factor, tol)
            assert np.array_equal(new, closure_reference._first_reached(seeds, *factor, tol))


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
    """GeneratorSet inputs at dim 3: faults before, inside and
    after the first block of checks, alone and in either order."""
    rng = np.random.default_rng(7)
    skew = [(lambda m: m - m.conj().T)(rng.standard_normal((3, 3)) + 0j) for _ in range(20)]
    hermitian = np.eye(3, dtype=complex)
    bad = np.full((3, 3), np.nan + 0j)
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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mats", BAD_INPUTS, ids=range(len(BAD_INPUTS)))
    def test_error_messages(self, mats, mode):
        message = _outcome(lambda: reference_prepare(mats, mode))
        assert isinstance(message, str)
        assert _outcome(lambda: prepare_generators(mats, mode)) == message

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
