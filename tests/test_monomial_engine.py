"""The monomial closure engine: when it runs, its agreement with the dense
engine and the sequential reference, its basis, and the CLI reports it
must leave unchanged."""

import contextlib
import io
import json
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from closure_reference import reference_closure
from quditkit import (
    COMPLEX_TRACELESS,
    GENERATOR_SET_NAMES,
    MODES,
    GeneratorSet,
    REAL_ANTIHERMITIAN,
    closure,
    max_abs,
    named_generator_set,
    prepare_generators,
    qudit_universal_set,
    weyl_decompose,
    weyl_element,
)
from quditkit import cli
from quditkit.universality import _dense_closure
from test_closure_engine import ACCEPTANCE_SETS, _block_pair, _flat, _random_pair

_QUBIT_ONLY = ("clifford", "biproducts", "clifford-universal")


def _named_grid():
    """(name, l, n) of every named set with l^n <= 16."""
    for name in GENERATOR_SET_NAMES:
        for l in [2] if name in _QUBIT_ONLY else range(2, 17):
            n = 1
            while l**n <= 16:
                if not (name == "clifford-universal" and n < 2):
                    yield name, l, n
                n += 1


NAMED_GRID = list(_named_grid())


def assert_same_span(a, b):
    # Both bases are orthonormal, so they span the same space exactly when
    # every singular value of their overlap is 1.
    assert a.achieved_dim == b.achieved_dim
    if a.achieved_dim:
        singular = np.linalg.svd(_flat(a.basis) @ _flat(b.basis).conj().T, compute_uv=False)
        assert np.max(np.abs(singular - 1.0)) <= 1e-10


def assert_matches(result, ref):
    assert result.engine == "monomial"
    assert (result.achieved_dim, result.target_dim, result.rounds, result.universal) == (
        ref.achieved_dim, ref.target_dim, ref.rounds, ref.universal
    )
    assert_same_span(result, ref)


def assert_monomial_basis(result, mode):
    basis = np.stack(result.basis)
    flat = _flat(result.basis)
    assert max_abs(flat.conj() @ flat.T - np.eye(len(flat))) <= 1e-12
    assert np.max(np.abs(np.trace(basis, axis1=1, axis2=2))) <= 1e-12
    if mode == REAL_ANTIHERMITIAN:
        assert max_abs(basis + basis.conj().transpose(0, 2, 1)) <= 1e-15


class TestAgainstReference:
    @pytest.mark.parametrize(
        "label,make,dim", ACCEPTANCE_SETS, ids=[s[0] for s in ACCEPTANCE_SETS]
    )
    def test_acceptance_sets(self, label, make, dim):
        gen = prepare_generators(make(), REAL_ANTIHERMITIAN, name=label)
        result = closure(gen)
        assert result.achieved_dim == dim
        assert_matches(result, reference_closure(gen))
        assert_monomial_basis(result, gen.mode)

    # The dense engine stands in for the sequential reference here, which
    # takes about a minute at d=16; test_closure_engine.py checks the two
    # against each other.
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name,l,n", NAMED_GRID, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in NAMED_GRID])
    def test_named_sets(self, name, l, n, mode):
        gen = prepare_generators(named_generator_set(name, l, n), mode)
        result = closure(gen)
        assert_matches(result, _dense_closure(gen))
        assert_monomial_basis(result, mode)

    @pytest.mark.parametrize("tol", [1e-7, 1e-11])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name,l,n", NAMED_GRID, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in NAMED_GRID])
    def test_named_set_verdicts_hold_across_tolerances(self, name, l, n, mode, tol):
        gen = prepare_generators(named_generator_set(name, l, n), mode)
        moved, default = (
            (r.achieved_dim, r.rounds, r.universal, r.engine)
            for r in (closure(gen, tol=tol), closure(gen, tol=1e-9))
        )
        assert moved == default

    @pytest.mark.parametrize("l,n,dim", [(5, 2, 624), (3, 3, 728)])
    def test_qudit_universal_past_the_default_cap(self, l, n, dim):
        result = closure(prepare_generators(qudit_universal_set(l, n), REAL_ANTIHERMITIAN))
        assert (result.engine, result.achieved_dim, result.universal) == ("monomial", dim, True)


class TestSelection:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed,d", [(11, 3), (12, 4), (13, 5)])
    def test_random_pairs_run_dense(self, mode, seed, d):
        assert closure(prepare_generators(_random_pair(seed, d), mode)).engine == "dense"

    def test_block_pair_runs_dense(self):
        result = closure(prepare_generators(_block_pair(43, 6, 6), REAL_ANTIHERMITIAN))
        assert (result.engine, result.achieved_dim) == ("dense", 71)

    @pytest.mark.parametrize("size,engine", [(3e-9, "dense"), (3e-10, "monomial")])
    def test_support_is_the_components_of_norm_above_tol(self, size, engine):
        # At d=16 a threshold on the coefficient instead of the component's
        # norm (|c| sqrt(d)) would miss the first perturbation.
        first = np.kron(weyl_element(4, 1, 0), weyl_element(4, 0, 1))
        other = np.kron(weyl_element(4, 3, 3), weyl_element(4, 1, 1))
        second = np.kron(weyl_element(4, 2, 1), weyl_element(4, 0, 3))
        gen = prepare_generators([first + size * other, second], COMPLEX_TRACELESS)
        assert closure(gen).engine == engine

    def test_real_support_without_negations_runs_dense(self):
        # Real mode accepts matrices anti-Hermitian to 1e-11, so a hand-built
        # seed along W(0, 1) alone passes; its partner W(0, 2) is missing.
        w = weyl_element(3, 1, 0)
        mats = (1j * (w + w.conj().T), w - w.conj().T, 5e-12 * weyl_element(3, 0, 1))
        result = closure(GeneratorSet("", 3, mats, REAL_ANTIHERMITIAN), tol=1e-12)
        assert result.engine == "dense"

    @pytest.mark.parametrize("size,real,complex_", [
        (5e-10, ("monomial", 2), ("monomial", 1)),
        (8e-10, ("dense", 8), ("dense", 8)),
        (2e-9, ("dense", 8), ("dense", 8)),
    ])
    def test_outside_norm_of_a_seed(self, size, real, complex_):
        # The second seed's part off W(1) is spread over W(5) and W(7), each
        # component below tol, but its norm sqrt(2) * size exceeds tol at
        # 8e-10: the seed is not a combination of the monomials it reaches.
        l, n = 3, 1
        mats = [_monomial(l, n, 1), _monomial(l, n, 1) + size * (_monomial(l, n, 5) + _monomial(l, n, 7))]
        for mode, expected in ((REAL_ANTIHERMITIAN, real), (COMPLEX_TRACELESS, complex_)):
            result = closure(prepare_generators(mats, mode))
            assert (result.engine, result.achieved_dim) == expected, mode

    @pytest.mark.parametrize("mode", MODES)
    def test_nearly_dependent_seeds_keep_the_monomial_engine(self, mode):
        # The seeds span W(10) and W(41) exactly; the second differs from the
        # first by 1e-8 relative.  Orthonormalizing them first magnified the
        # rounding of that difference by about 1e8, into components above
        # tol, and sent the set to the dense engine, which reported 80
        # (universal).  Their Weyl coefficients have rank 2 on {10, 41}.
        l, n = 3, 2
        mats = [_monomial(l, n, 10) + _monomial(l, n, 41),
                _monomial(l, n, 10) + (1 + 1e-8) * _monomial(l, n, 41)]
        result = closure(prepare_generators(mats, mode))
        assert (result.engine, result.achieved_dim) == ("monomial", 8)
        assert result.achieved_dim == closure(prepare_generators(mats[:1] + [_monomial(l, n, 41)], mode)).achieved_dim

    def test_identity_direction_runs_dense(self):
        # A hand-built set may carry the identity, which the monomial engine leaves out.
        gen = GeneratorSet("", 2, (np.eye(2, dtype=complex), weyl_element(2, 1, 0)), COMPLEX_TRACELESS)
        result = closure(gen)
        assert (result.engine, result.achieved_dim) == ("dense", 2)


def _monomial(l, n, code):
    """W(x) for the code of x (see quditkit.weyl), built from single-site monomials."""
    shifts, clocks = (np.unravel_index(part, (l,) * n) for part in divmod(code, l**n))
    return reduce(np.kron, [weyl_element(l, int(a), int(b)) for a, b in zip(shifts, clocks)])


def _negated(l, n, code):
    table = weyl_decompose(_monomial(l, n, code).conj().T, l, n)
    return int(np.argmax(np.abs(table)))


@st.composite
def monomial_sets(draw):
    """(l, n, codes, phase-times-monomial matrices, mode) with l in 2..5, n in 1..2.

    Phases are multiples of pi / 2l, which hold the named sets' phases, or
    lie well inside (0, 2 pi).  A phase within about tol of a multiple of
    pi / 2 would leave a split part of about tol in norm, whose verdict
    turns on how each engine compares it with tol.
    """
    l = draw(st.integers(2, 5))
    n = draw(st.integers(1, 2))
    codes = draw(st.lists(st.integers(1, l ** (2 * n) - 1), min_size=1, max_size=3))
    phase = st.one_of(st.integers(0, 4 * l - 1).map(lambda k: np.pi * k / (2 * l)),
                      st.floats(0.01, 2 * np.pi - 0.01))
    phases = draw(st.lists(phase, min_size=len(codes), max_size=len(codes)))
    mats = [np.exp(1j * p) * _monomial(l, n, c) for p, c in zip(phases, codes)]
    return l, n, codes, mats, draw(st.sampled_from(MODES))


_property = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@_property
@given(monomial_sets())
def test_random_monomial_sets_agree_with_dense(case):
    *_, mats, mode = case
    gen = prepare_generators(mats, mode)
    result, dense = closure(gen), _dense_closure(gen)
    assert result.engine == "monomial"
    assert (result.achieved_dim, result.target_dim, result.universal) == (
        dense.achieved_dim, dense.target_dim, dense.universal
    )
    # Complex-mode seeds of these sets are single monomials, so the dense
    # engine accepts the same monomials in the same order.  Real-mode dense
    # elements mix the monomials of several pairs {x, -x}, and a cancellation
    # among them can delay a direction by a round: l=4, n=1, codes 12 and 2
    # at phase 0 take 3 dense rounds and 2 monomial ones.
    if mode == COMPLEX_TRACELESS:
        assert result.rounds == dense.rounds
    assert_same_span(result, dense)
    assert_monomial_basis(result, mode)


SINGLE_MONOMIAL_SETS = [
    ("qudit-universal", 3, 1), ("qudit-universal", 2, 2), ("qudit-universal", 4, 1),
    ("clifford-universal", 2, 2), ("generalized", 3, 1), ("canonical", 2, 2),
    ("canonical", 3, 1), ("biproducts", 2, 3),
]


@pytest.mark.parametrize("name,l,n", SINGLE_MONOMIAL_SETS)
def test_engines_agree_on_the_round_count(name, l, n):
    # Both engines run one round schedule, and complex-mode seeds of these
    # sets are single monomials: the engines stop at the same round with the
    # same dimension.
    gen = prepare_generators(named_generator_set(name, l, n), COMPLEX_TRACELESS)
    result, dense = closure(gen), _dense_closure(gen)
    assert result.engine == "monomial"
    assert (result.achieved_dim, result.rounds) == (dense.achieved_dim, dense.rounds)


@_property
@given(monomial_sets(), st.integers(0, 2**32 - 1))
def test_a_dense_matrix_selects_the_dense_engine(case, seed):
    l, n, _, mats, mode = case
    rng = np.random.default_rng(seed)
    mats = mats + [rng.standard_normal((l**n, l**n)) + 1j * rng.standard_normal((l**n, l**n))]
    gen = prepare_generators(mats, mode)
    # Seeds that span every traceless matrix are trivially monomial.
    assume(len(gen.matrices) < l ** (2 * n) - 1)
    assert closure(gen).engine == "dense"


@_property
@given(monomial_sets(), st.data())
def test_perturbed_seed_falls_back_above_tol(case, data):
    l, n, codes, mats, mode = case
    # Another matrix along the perturbed one's monomial pair would leave the
    # perturbation alone in a seed of its own.
    assume(not {codes[0], _negated(l, n, codes[0])} & set(codes[1:]))
    support = set(codes) | {_negated(l, n, c) for c in codes}
    # In real mode a perturbation along y with W(y)* = +-W(y) can split off
    # as a seed of its own, leaving every seed a monomial combination.
    outside = [c for c in range(1, l ** (2 * n)) if c not in support and _negated(l, n, c) != c]
    assume(outside)
    other = _monomial(l, n, data.draw(st.sampled_from(outside)))
    for size, engine in ((1e-6, "dense"), (1e-12, "monomial")):
        result = closure(prepare_generators([mats[0] + size * other] + mats[1:], mode))
        assert result.engine == engine
    # Below tol the perturbation counts as zero, as a seed or commutator of
    # norm at most tol does.  The dense engine can amplify such a component
    # through commutators whose leading parts cancel, so the verdict is
    # compared with the dense engine's on the unperturbed set.
    dense = _dense_closure(prepare_generators(mats, mode))
    assert (result.achieved_dim, result.universal) == (dense.achieved_dim, dense.universal)


# ------------------------------------------------------------- CLI reports

REPORTS = json.loads((Path(__file__).parent / "data" / "closure_reports.json").read_text())


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


@pytest.mark.parametrize("name", GENERATOR_SET_NAMES)
def test_cli_reports_match_the_recorded_ones(name):
    # Recorded from the dense engine for every named set with l^n <= 16,
    # both modes and both formats.  The one exception is generalized at l=2
    # in real mode, whose recorded 15/63/255 came from rounding dust counted
    # as seed directions; it now holds the corrected reports.
    cases = [key for key in REPORTS if key.startswith(f"--set {name} --")]
    assert len(cases) == 4 * sum(1 for s in NAMED_GRID if s[0] == name)
    for key in cases:
        assert _run_cli(["closure"] + key.split()) == REPORTS[key], key


TEXT_REPORTS = [key for key in REPORTS if key.endswith("structured-text")]


@pytest.mark.parametrize("key", TEXT_REPORTS)
def test_recorded_reports_take_at_most_one_round_per_element(key):
    # Every round but the last adds an element, so no run counts more rounds
    # than its achieved dimension; the reports are pinned to the live ones above.
    assert len(TEXT_REPORTS) == len(REPORTS) // 2
    text = REPORTS[key]["stdout"]
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    assert int(fields["rounds"]) <= int(fields["achieved-dim"]), text


def test_generalized_qubit_reports_match_clifford():
    # At l=2 the generalized family is the Clifford family.
    for key, report in REPORTS.items():
        if key.startswith("--set generalized --dim 2 "):
            twin = REPORTS[key.replace("generalized", "clifford")]
            assert report["stdout"] == twin["stdout"].replace("set: clifford", "set: generalized").replace(
                "\tclifford\t", "\tgeneralized\t"), key
