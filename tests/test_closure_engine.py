"""The batched (dense) closure engine against the sequential reference, its
tolerance robustness, and its independence of the BLAS thread count.

The named and acceptance sets are Weyl-monomial sets, on which ``closure``
runs the monomial engine, so the comparisons with the reference call the
dense engine directly through ``_dense_closure``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from closure_reference import reference_closure, reference_extend
from quditkit import (
    COMPLEX_TRACELESS,
    REAL_ANTIHERMITIAN,
    biproducts,
    clifford_generators,
    closure,
    max_abs,
    named_generator_set,
    orthonormal_extend,
    prepare_generators,
    qudit_universal_set,
    universal_augmentation,
)
from quditkit.serialize import save_matrix
from quditkit.universality import _dense_closure

# (label, matrices, achieved dim): the acceptance suite's seven sets.
ACCEPTANCE_SETS = [
    ("biproducts n=2", lambda: biproducts(clifford_generators(2)), 6),
    ("biproducts n=3", lambda: biproducts(clifford_generators(3)), 15),
    ("augmented n=2", lambda: universal_augmentation(clifford_generators(2)), 15),
    ("augmented n=3", lambda: universal_augmentation(clifford_generators(3)), 63),
    ("qudit l=3 n=1", lambda: qudit_universal_set(3, 1), 8),
    ("qudit l=5 n=1", lambda: qudit_universal_set(5, 1), 24),
    ("qudit l=3 n=2", lambda: qudit_universal_set(3, 2), 80),
]

# (set name, l, n, achieved dim): the named sets of the closure-named benchmark.
NAMED_SETS = [
    ("qudit-universal", 3, 2, 80),
    ("clifford-universal", 2, 3, 63),
    ("generalized", 4, 2, 255),
    ("biproducts", 2, 5, 45),
    ("canonical", 4, 2, 30),
]


def _complex_gaussian(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _random_pair(seed, d):
    rng = np.random.default_rng(seed)
    return [_complex_gaussian(rng, d) for _ in range(2)]


def _block_pair(seed, a, b):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        m = np.zeros((a + b, a + b), dtype=complex)
        m[:a, :a] = _complex_gaussian(rng, a)
        m[a:, a:] = _complex_gaussian(rng, b)
        out.append(m)
    return out


def _flat(basis):
    return np.stack(basis).reshape(len(basis), -1)


def assert_same_closure(gen):
    new = _dense_closure(gen)
    ref = reference_closure(gen)
    assert (new.achieved_dim, new.rounds, new.universal) == (
        ref.achieved_dim, ref.rounds, ref.universal
    )
    assert new.target_dim == ref.target_dim
    # Both bases are orthonormal, so they span the same space exactly when
    # every singular value of their overlap is 1.
    overlap = _flat(new.basis) @ _flat(ref.basis).conj().T
    singular = np.linalg.svd(overlap, compute_uv=False)
    assert np.max(np.abs(singular - 1.0)) <= 1e-10
    # The same candidates are accepted in the same order.
    assert max(max_abs(a - b) for a, b in zip(new.basis, ref.basis)) <= 1e-10


class TestAgainstReference:
    @pytest.mark.parametrize(
        "label,make,dim", ACCEPTANCE_SETS, ids=[s[0] for s in ACCEPTANCE_SETS]
    )
    def test_acceptance_sets(self, label, make, dim):
        assert_same_closure(prepare_generators(make(), REAL_ANTIHERMITIAN, name=label))

    @pytest.mark.parametrize("mode", [REAL_ANTIHERMITIAN, COMPLEX_TRACELESS])
    @pytest.mark.parametrize("seed,d", [(11, 3), (12, 4), (13, 5)])
    def test_generic_pairs(self, mode, seed, d):
        assert_same_closure(prepare_generators(_random_pair(seed, d), mode))

    def test_block_diagonal_pair(self):
        # su(3) + su(3) + the relative phase: 8 + 8 + 1 of 35.
        gen = prepare_generators(_block_pair(21, 3, 3), REAL_ANTIHERMITIAN)
        assert closure(gen).achieved_dim == 17
        assert_same_closure(gen)

    def test_partial_set_over_three_rounds(self):
        gen = prepare_generators(named_generator_set("canonical", 4, 2), REAL_ANTIHERMITIAN)
        result = _dense_closure(gen)
        assert (result.achieved_dim, result.rounds) == (30, 3)
        assert_same_closure(gen)

    def test_round_with_every_frontier_pair_in_the_span(self):
        # The 28 seeds already span a Lie algebra: the one round, whose
        # frontier is every seed, rejects every commutator.
        gen = prepare_generators(named_generator_set("biproducts", 2, 4), REAL_ANTIHERMITIAN)
        result = _dense_closure(gen)
        assert (result.achieved_dim, result.rounds) == (28, 1)
        assert_same_closure(gen)

    @pytest.mark.parametrize("mode", [REAL_ANTIHERMITIAN, COMPLEX_TRACELESS])
    def test_near_dependent_commutator_stays_orthogonal(self, mode):
        # [x, y] lies within 1e-7 (relative) of the seed z, so after one
        # screening pass its residual still overlaps the basis by about
        # eps / 1e-7; the survivors' second pass removes that.  The new
        # element itself is only determined to about eps / 1e-7, so it is
        # not compared with the reference's.
        rng = np.random.default_rng(61)
        x, y, w = (_complex_gaussian(rng, 4) for _ in range(3))
        c = x @ y - y @ x
        z = c + 1e-7 * np.linalg.norm(c) * w / np.linalg.norm(w)
        gen = prepare_generators([x, y, z], mode)
        new, ref = _dense_closure(gen), reference_closure(gen)
        assert (new.achieved_dim, new.rounds) == (ref.achieved_dim, ref.rounds)
        basis = _flat(new.basis)
        gram = basis.conj() @ basis.T
        assert max_abs(gram - np.eye(len(basis))) <= 1e-14


class TestScreen:
    @pytest.mark.parametrize("mode", [REAL_ANTIHERMITIAN, COMPLEX_TRACELESS])
    def test_rejections_stay_in_the_screen(self, mode, monkeypatch):
        # The block pair's rounds reject almost every commutator; the sequential
        # engine sends thousands of them to the exact orthonormalization step,
        # which is orthonormal_extend for the seeds and admit for commutators.
        from quditkit import universality

        calls = []
        extend = universality.orthonormal_extend
        admit = universality._BasisBuilder.admit

        def counting_extend(*args, **kwargs):
            calls.append(1)
            return extend(*args, **kwargs)

        def counting_admit(self, *args):
            calls.append(1)
            return admit(self, *args)

        monkeypatch.setattr(universality, "orthonormal_extend", counting_extend)
        monkeypatch.setattr(universality._BasisBuilder, "admit", counting_admit)
        gen = prepare_generators(_block_pair(43, 6, 6), mode)
        result = closure(gen)
        assert result.achieved_dim == 71
        assert len(calls) <= len(gen.matrices) + 2 * result.achieved_dim


class TestExtendAgainstReference:
    @pytest.mark.parametrize("normalizer", [None, 1.0, 2.5])
    def test_random_bases(self, normalizer):
        rng = np.random.default_rng(31)
        d = 4
        nu = d if normalizer is None else normalizer
        basis = []
        for _ in range(9):
            res = reference_extend(basis, _complex_gaussian(rng, d), normalizer=normalizer)
            basis.append(res.new_element)
        for candidate in [_complex_gaussian(rng, d), basis[3] * 2 - basis[5] * 1j]:
            new = orthonormal_extend(basis, candidate, normalizer=normalizer)
            ref = reference_extend(basis, candidate, normalizer=normalizer)
            assert new.accepted == ref.accepted
            assert new.residual_norm == pytest.approx(ref.residual_norm, rel=1e-10, abs=1e-14)
            if ref.accepted:
                assert max_abs(new.new_element - ref.new_element) <= 1e-12
                assert abs(np.vdot(basis[0], new.new_element)) / nu <= 1e-12

    def test_nearly_dependent_candidate_stays_orthogonal(self):
        # one Gram-Schmidt pass leaves an overlap of about eps / 1e-8 here
        rng = np.random.default_rng(33)
        basis = []
        while len(basis) < 5:
            basis.append(orthonormal_extend(basis, _complex_gaussian(rng, 3)).new_element)
        direction = orthonormal_extend(basis, _complex_gaussian(rng, 3)).new_element
        candidate = sum((j + 1) * b for j, b in enumerate(basis)) + 1e-8 * direction
        result = orthonormal_extend(basis, candidate, tol=1e-12)
        assert result.accepted
        assert max(abs(np.vdot(b, result.new_element)) / 3 for b in basis) <= 1e-14

    def test_array_basis_matches_sequence(self):
        rng = np.random.default_rng(32)
        basis = [orthonormal_extend([], _complex_gaussian(rng, 3)).new_element]
        candidate = _complex_gaussian(rng, 3)
        from_list = orthonormal_extend(basis, candidate)
        from_array = orthonormal_extend(np.stack(basis), candidate)
        assert max_abs(from_list.new_element - from_array.new_element) == 0

    def test_empty_array_basis(self):
        result = orthonormal_extend(np.empty((0, 2, 2)), 2 * np.eye(2))
        assert result.accepted
        assert max_abs(result.new_element - np.eye(2)) <= 1e-15

    def test_basis_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            orthonormal_extend([np.eye(3)], np.eye(2))


TOLERANCES = (1e-7, 1e-9, 1e-11)
# closure runs the monomial engine on the named and acceptance sets
ENGINES = (closure, _dense_closure)


class TestToleranceSweep:
    @pytest.mark.parametrize("tol", TOLERANCES)
    @pytest.mark.parametrize(
        "name,l,n,dim", NAMED_SETS, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in NAMED_SETS]
    )
    def test_named_sets(self, name, l, n, dim, tol):
        gen = prepare_generators(named_generator_set(name, l, n), REAL_ANTIHERMITIAN)
        for engine in ENGINES:
            assert engine(gen, tol=tol).achieved_dim == dim, engine.__name__

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_acceptance_sets(self, tol):
        for label, make, dim in ACCEPTANCE_SETS:
            gen = prepare_generators(make(), REAL_ANTIHERMITIAN, name=label)
            for engine in ENGINES:
                assert engine(gen, tol=tol).achieved_dim == dim, (label, engine.__name__)

    @pytest.mark.parametrize("tol", TOLERANCES)
    def test_generic_and_block_pairs(self, tol):
        cases = [
            (_random_pair(41, 16), REAL_ANTIHERMITIAN, 255),
            (_random_pair(42, 12), COMPLEX_TRACELESS, 143),
            (_block_pair(43, 6, 6), REAL_ANTIHERMITIAN, 71),
        ]
        for mats, mode, dim in cases:
            assert closure(prepare_generators(mats, mode), tol=tol).achieved_dim == dim


def _closure_reports_by_blas_threads(*args):
    """``closure`` stdout under OPENBLAS_NUM_THREADS=1 and under the default."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "quditkit", "closure", *args]
    outputs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    return outputs


def test_report_independent_of_blas_threads():
    # a named set, so the monomial engine decides it
    outputs = _closure_reports_by_blas_threads("--set", "generalized", "--dim", "4", "--sites", "2")
    assert outputs[0] == outputs[1]
    assert b"achieved-dim: 255" in outputs[0]


def test_dense_report_independent_of_blas_threads(tmp_path):
    for i, m in enumerate(_random_pair(71, 6)):
        save_matrix(tmp_path / f"m{i}.json", m)
    outputs = _closure_reports_by_blas_threads("--input", str(tmp_path))
    assert outputs[0] == outputs[1]
    assert b"achieved-dim: 35" in outputs[0]


def test_seeds_past_the_matrix_space_do_not_overflow():
    # At tol=1e-300 rounding dust passes for a new direction, so the six
    # seeds of three real-mode 2x2 matrices would outgrow all 4 dimensions.
    rng = np.random.default_rng(51)
    mats = [_complex_gaussian(rng, 2) for _ in range(3)]
    result = closure(prepare_generators(mats, REAL_ANTIHERMITIAN), tol=1e-300)
    assert result.achieved_dim <= 4
