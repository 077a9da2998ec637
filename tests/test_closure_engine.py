"""The batched (dense) closure engine against the sequential reference, its
early stop, its tolerance robustness, and its independence of the BLAS
thread count.

The named and acceptance sets are Weyl-monomial sets, on which ``closure``
runs the monomial engine, so the comparisons with the reference call the
dense engine directly through ``_dense_closure``."""

import os
import subprocess
import sys
import tracemalloc
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
from quditkit.universality import (
    _SCREEN_ROWS,
    _BasisBuilder,
    _dense_closure,
    _dense_sweep,
    _kept_seeds,
    _run_rounds,
    _seed,
)

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
    ref = reference_closure(gen)
    new = _dense_closure(gen)
    assert (new.achieved_dim, new.rounds, new.universal) == (
        ref.achieved_dim, ref.rounds, ref.universal
    )
    assert new.target_dim == ref.target_dim
    # every round but the last adds an element
    assert new.rounds <= new.achieved_dim
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


def _random_triple(seed, d):
    rng = np.random.default_rng(seed)
    return [_complex_gaussian(rng, d) for _ in range(3)]


class TestEarlyStop:
    """The dense engine stops once its span is closed under brackets with the seeds."""

    @pytest.mark.parametrize("mode", [REAL_ANTIHERMITIAN, COMPLEX_TRACELESS])
    @pytest.mark.parametrize("seed,a,b", [(71, 2, 2), (72, 3, 3), (73, 2, 5), (74, 4, 4)])
    def test_block_pairs_against_reference(self, seed, a, b, mode):
        assert_same_closure(prepare_generators(_block_pair(seed, a, b), mode))

    @pytest.mark.parametrize("mode", [REAL_ANTIHERMITIAN, COMPLEX_TRACELESS])
    @pytest.mark.parametrize("seed,d", [(81, 2), (82, 3), (83, 4)])
    def test_random_triples_against_reference(self, seed, d, mode):
        assert_same_closure(prepare_generators(_random_triple(seed, d), mode))

    @pytest.mark.parametrize("a,b", [(2, 3), (4, 4), (3, 7), (6, 6), (8, 8), (12, 12)])
    def test_block_pair_dimension(self, a, b):
        # su(a) + su(b) + the relative phase
        result = _dense_closure(prepare_generators(_block_pair(300 + a + b, a, b), REAL_ANTIHERMITIAN))
        assert (result.achieved_dim, result.universal) == (a * a + b * b - 1, False)

    @pytest.mark.parametrize(
        "make",
        [lambda: _random_pair(91, 3), lambda: _random_pair(92, 5), lambda: _random_pair(93, 8),
         lambda: _random_triple(94, 4), lambda: _block_pair(95, 2, 2), lambda: _block_pair(96, 3, 5),
         lambda: _block_pair(97, 4, 4), lambda: _block_pair(98, 6, 6)],
        ids=["pair-3", "pair-5", "pair-8", "triple-4", "block-2-2", "block-3-5", "block-4-4", "block-6-6"],
    )
    def test_real_dimension_is_complex_dimension_of_the_split(self, make):
        # The real algebra g of anti-Hermitian matrices has g + ig as its
        # complexification, a direct sum since ig is Hermitian, so the
        # complex algebra of the same matrices has dim_C = dim_R g.
        split = prepare_generators(make(), REAL_ANTIHERMITIAN)
        real = _dense_closure(split)
        complex_ = _dense_closure(prepare_generators(split.matrices, COMPLEX_TRACELESS))
        assert real.achieved_dim == complex_.achieved_dim

    @pytest.mark.parametrize("mode,rounds", [(REAL_ANTIHERMITIAN, 3), (COMPLEX_TRACELESS, 4)])
    def test_closed_block_pair_skips_its_idle_sweeps(self, mode, rounds, monkeypatch):
        # The 6+6 pair reaches 71 within a few sweeps; the full schedule then
        # sweeps nearly all of the 71 elements without admitting anything.
        from quditkit import universality

        sweeps = []
        sweep = universality._BasisBuilder.sweep

        def counting_sweep(self, *args):
            sweeps.append(args)
            return sweep(self, *args)

        monkeypatch.setattr(universality._BasisBuilder, "sweep", counting_sweep)
        result = _dense_closure(prepare_generators(_block_pair(43, 6, 6), mode))
        assert (result.achieved_dim, result.rounds) == (71, rounds)
        assert len(sweeps) < 20


class _Script:
    """A scripted round schedule: element i's sweep adds ``growth[i]`` elements
    the first time it runs, and ``closed()`` gives the ``answers`` in turn."""

    def __init__(self, size, growth, answers=()):
        self.size = size
        self.growth = dict(growth)
        self.answers = list(answers)
        self.log = []

    def sweep(self, i, frontier_start):
        self.log.append(("sweep", i))
        self.size += self.growth.pop(i, 0)
        return self.size

    def closed(self):
        self.log.append(("closed", self.size))
        return self.answers.pop(0)


def _scripted_rounds(size, growth, answers, target=100):
    """``_run_rounds`` with ``closed``, and the full schedule, on the same script."""
    early, full = _Script(size, growth, answers), _Script(size, growth)
    outcomes = [_run_rounds(script.size, script.sweep, target, closed)
                for script, closed in ((early, early.closed), (full, None))]
    return outcomes, early.log


class TestRunRounds:
    def test_round_that_grew_counts_the_next_round(self):
        # round 1 grows to 5 at element 0; the check after element 1 succeeds
        (early, full), log = _scripted_rounds(2, {0: 3}, [True])
        assert early == full == 2
        assert log == [("sweep", 0), ("sweep", 1), ("closed", 5)]

    def test_round_that_did_not_grow_counts_itself(self):
        # round 1 grows at its last element; round 2 adds nothing
        (early, full), log = _scripted_rounds(2, {1: 2}, [True])
        assert early == full == 2
        assert log == [("sweep", 0), ("sweep", 1), ("sweep", 2), ("closed", 4)]

    def test_checks_only_after_growth(self):
        # A failed check is not repeated until the basis grows again, and a
        # sweep that grows is never followed by a check.
        (early, full), log = _scripted_rounds(3, {0: 1, 3: 1}, [False, True])
        assert early == full == 3
        assert log == [("sweep", 0), ("sweep", 1), ("closed", 4), ("sweep", 2),
                       ("sweep", 3), ("sweep", 4), ("closed", 5)]

    def test_growth_at_every_sweep_never_checks(self):
        (early, full), log = _scripted_rounds(2, {i: 1 for i in range(97)}, [], target=99)
        assert early == full
        assert all(entry[0] == "sweep" for entry in log)

    def test_one_element_per_sweep_stops_at_target(self):
        # The slowest growth that keeps a run going: each round's frontier is
        # the one element the round before added, and its sweep adds one more.
        # Element 19 would grow too, but the run stops at the target first.
        (early, full), log = _scripted_rounds(1, {i: 1 for i in range(20)}, [], target=20)
        assert early == full == 19
        assert log == [("sweep", i) for i in range(19)]


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
        # every element past the seeds came through admit, in real mode too
        assert len(calls) >= result.achieved_dim


# (matrices, achieved dim) of real-mode pairs whose basis memory is pinned
MEMORY_CASES = {
    "random-pair-16": (lambda: _random_pair(41, 16), 255),
    "block-pair-6-6": (lambda: _block_pair(43, 6, 6), 71),
}


def _block_bytes(gen):
    """Bytes of ``_SCREEN_ROWS`` commutators as complex d x d matrices."""
    return _SCREEN_ROWS * gen.dim**2 * 16


def _builder_calls(monkeypatch, name):
    """Wrap ``_BasisBuilder.<name>``; each call appends ``(builder, rows before,
    traced bytes before, traced peak during)`` to the returned list.  The
    wrapper resets tracemalloc's peak at each call."""
    from quditkit import universality

    calls = []
    method = getattr(universality._BasisBuilder, name)

    def traced(self, *args):
        rows = len(self.rows)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = method(self, *args)
        calls.append((self, rows, before, tracemalloc.get_traced_memory()[1]))
        return out

    monkeypatch.setattr(universality._BasisBuilder, name, traced)
    return calls


@pytest.fixture
def traced_memory():
    tracemalloc.start()
    yield
    tracemalloc.stop()


class TestBasisMemory:
    """The dense engine holds one copy of its basis: the result is the rows
    it grew, and real mode regrows its complex rows from the coordinates.

    Decoding one block of ``_SCREEN_ROWS`` coordinates allocates up to 1.1
    blocks of complex matrices: the scaled coordinates and numpy's buffers
    for the strided writes.  Each bound allows two blocks for it."""

    @pytest.mark.parametrize("case", sorted(MEMORY_CASES))
    def test_peak_is_the_final_capacity_plus_screen_blocks(self, case, traced_memory):
        make, dim = MEMORY_CASES[case]
        gen = prepare_generators(make(), REAL_ANTIHERMITIAN)
        seeds = _kept_seeds(gen, 1e-9)[0]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        # _dense_closure, holding on to the builder
        builder = _seed(seeds, gen, 1e-9)
        result = _dense_sweep(builder)
        peak = tracemalloc.get_traced_memory()[1] - start
        d2 = gen.dim**2
        capacity = len(builder.rows) * d2 * 16 + len(builder.coords) * d2 * 8
        assert result.achieved_dim == dim
        # 2.6 blocks on both cases; the end-of-run copy of the 255 elements
        # of the random pair alone would add eight
        assert peak <= capacity + 3 * _block_bytes(gen)

    @pytest.mark.parametrize("case", sorted(MEMORY_CASES))
    def test_result_is_the_rows_the_builder_grew(self, case, monkeypatch, traced_memory):
        make, dim = MEMORY_CASES[case]
        gen = prepare_generators(make(), REAL_ANTIHERMITIAN)
        calls = _builder_calls(monkeypatch, "basis")
        result = _dense_closure(gen)
        [(builder, _, before, peak)] = calls
        assert result.achieved_dim == dim
        # the last elements' decode, where a copy would take a block per _SCREEN_ROWS elements
        assert peak - before <= 2 * _block_bytes(gen)
        assert all(b.base is builder.rows for b in result.basis)

    @pytest.mark.parametrize("case", sorted(MEMORY_CASES))
    def test_rows_regrow_without_a_copy(self, case, monkeypatch, traced_memory):
        make, _ = MEMORY_CASES[case]
        gen = prepare_generators(make(), REAL_ANTIHERMITIAN)
        calls = _builder_calls(monkeypatch, "_sync")
        _dense_closure(gen)
        d2 = gen.dim**2
        assert any(len(builder.rows) > rows for builder, rows, _, _ in calls)
        for builder, rows, before, peak in calls:
            # the old rows are gone before the new ones are allocated
            assert peak - before <= (len(builder.rows) - rows) * d2 * 16 + 2 * _block_bytes(gen)

    @pytest.mark.parametrize("mode", [REAL_ANTIHERMITIAN, COMPLEX_TRACELESS])
    def test_elements_are_independent(self, mode):
        basis = _dense_closure(prepare_generators(_random_pair(17, 4), mode)).basis
        assert len(basis) == 15
        for i, a in enumerate(basis):
            for b in basis[i + 1:]:
                assert not np.shares_memory(a, b)
        before = [b.copy() for b in basis]
        basis[3][...] = 7.0
        assert np.all(basis[3] == 7.0)
        assert all(np.array_equal(b, old) for k, (b, old) in enumerate(zip(basis, before)) if k != 3)


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


class TestAdmitIsExtend:
    """In complex mode, ``admit`` against an empty screened range (k = 0) appends, bit
    for bit, the element ``orthonormal_extend(..., normalizer=1.0)`` returns, and
    rejects what it rejects: seeding the dense engine through ``admit`` keeps its bytes."""

    @staticmethod
    def _admit_as_extend(builder, candidate):
        expected = orthonormal_extend(builder.elements(), candidate, tol=builder.tol, normalizer=1.0)
        size = builder.size
        builder.admit(candidate.reshape(-1).copy(), float(np.linalg.norm(candidate.ravel())), 0)
        assert builder.size == size + expected.accepted
        if expected.accepted:
            assert builder.elements()[-1].tobytes() == expected.new_element.tobytes()
        return expected

    def test_random_near_dependent_and_rejected_candidates(self):
        rng = np.random.default_rng(34)
        d = 4
        builder = _BasisBuilder(d, 1e-10, False)
        for _ in range(6):
            assert self._admit_as_extend(builder, _complex_gaussian(rng, d)).accepted
        basis = builder.elements().copy()
        direction = orthonormal_extend(basis, _complex_gaussian(rng, d), normalizer=1.0).new_element
        # relative residual about 1e-8 / 9.5, above the builder's 1e-10
        near = sum((j + 1) * b for j, b in enumerate(basis)) + 1e-8 * direction
        assert self._admit_as_extend(builder, near).accepted
        dependent = sum((1 - 2j) ** j * b for j, b in enumerate(builder.elements()))
        assert not self._admit_as_extend(builder, dependent).accepted
        for _ in range(3):
            assert self._admit_as_extend(builder, _complex_gaussian(rng, d)).accepted
        assert builder.size == 10


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


def test_screen_heavy_dense_report_independent_of_blas_threads(tmp_path):
    # the real-mode 6+6 block pair: the screen rejects nearly every commutator
    for i, m in enumerate(_block_pair(43, 6, 6)):
        save_matrix(tmp_path / f"m{i}.json", m)
    outputs = _closure_reports_by_blas_threads("--input", str(tmp_path))
    assert outputs[0] == outputs[1]
    assert b"achieved-dim: 71" in outputs[0]


def test_seeds_past_the_matrix_space_do_not_overflow():
    # At tol=1e-300 rounding dust passes for a new direction, so the six
    # seeds of three real-mode 2x2 matrices would outgrow all 4 dimensions.
    # closure refuses such a tol; the builder's guard is checked directly.
    rng = np.random.default_rng(51)
    mats = [_complex_gaussian(rng, 2) for _ in range(3)]
    gen = prepare_generators(mats, REAL_ANTIHERMITIAN)
    assert _seed(_kept_seeds(gen, 1e-300)[0], gen, 1e-300).size == 4
