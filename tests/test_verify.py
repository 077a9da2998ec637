"""The aggregated verification suites behind the verify command."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quditkit.weyl
from quditkit import run_verification, weyl_commutator_coefficient
from quditkit.verify import (
    _CLOSED_FORM_BLOCK,
    DEFAULT_DIMS,
    DEFAULT_SITES,
    VerifyCheck,
    _closed_form_residual,
    _closed_form_table,
)
from weyl_reference import blocked_closed_form_residual, reference_closed_form_residual


def test_default_grid_passes():
    report = run_verification()
    assert report.passed
    assert all(c.residual <= c.tolerance for c in report.checks)


@pytest.mark.parametrize("l", range(2, 17))
def test_single_site_passes_up_to_16(l):
    # scalar-factorization's (2, 1) sample has a^l + b^l = 2^l + 1, and an
    # absolute residual failed from l=11 on (3.9e-11 on 65537 at l=16)
    report = run_verification(dims=(l,), sites=(1,))
    assert [c.name for c in report.checks if not c.passed] == []


def test_covers_expected_suites():
    report = run_verification(dims=(2, 3), sites=(1, 2))
    names = {c.name for c in report.checks}
    assert {
        "weyl-commutation",
        "weyl-order",
        "weyl-gram",
        "weyl-roundtrip",
        "operator-fermat",
        "scalar-factorization",
        "tau-relations",
        "commutator-closed-form",
        "circuit-eigenrelations",
        "qft-unitarity",
        "clifford-anticommutation",
        "zeta-commutation",
        "generator-order",
        "multiterm-fermat",
        "commutation-matrix-forms",
        "kgate-contraction",
    } <= names


def test_every_check_carries_identity_string():
    report = run_verification(dims=(2,), sites=(1,))
    for check in report.checks:
        assert check.identity.strip()
        assert check.params.strip()


def test_unattainable_tolerance_fails_honestly():
    report = run_verification(dims=(2,), sites=(1,), tolerance=1e-20)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing
    # residuals are still reported, not clamped
    assert all(c.residual > 0 or c.tolerance == 1e-20 for c in failing)


def test_single_size_runs_pass():
    report = run_verification(dims=(7,), sites=(1,))
    assert report.passed


def test_reports_are_reproducible():
    first = run_verification(dims=(3,), sites=(2,))
    second = run_verification(dims=(3,), sites=(2,))
    assert first == second


def test_default_grid_constants():
    assert DEFAULT_DIMS == (2, 3, 4, 5)
    assert DEFAULT_SITES == (1, 2)


def test_report_independent_of_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "quditkit", "verify"]
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
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"check: commutator-closed-form") == len(DEFAULT_DIMS)
    assert outputs[0].endswith(b"overall: pass\n")


def _checked_closed_form(l):
    report = run_verification(dims=(l,), sites=(1,))
    (check,) = [c for c in report.checks if c.name == "commutator-closed-form"]
    return check


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16])
def test_closed_form_residual_matches_per_commutator_reference_exactly(l):
    assert _checked_closed_form(l).residual == reference_closed_form_residual(l)


@pytest.mark.parametrize("l", [2, 3, 10, 12, 14, 15, 18])
def test_closed_form_residual_matches_blocked_reference_exactly(l):
    assert _checked_closed_form(l).residual == blocked_closed_form_residual(l)


@pytest.mark.parametrize("l", [17, 19])
def test_closed_form_residual_within_one_rounding_of_blas_products(l):
    # The dense references take each product W(p) W(q) from the BLAS, whose
    # kernels fuse some of the complex multiplications that numpy rounds
    # step by step.  At these orders that moves the max residual in its last
    # digits (1.4697e-15 against 1.4603e-15 at l=17), less than one rounding
    # of a unit product.
    assert abs(_checked_closed_form(l).residual - blocked_closed_form_residual(l)) <= 2.0**-52


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 8, 9])
def test_closed_form_table_matches_scalar_closed_form(l):
    coefficients, targets = _closed_form_table(l)
    assert coefficients.shape == targets.shape == (l * l, l * l)
    for p in range(l * l):
        for q in range(l * l):
            coeff, target = weyl_commutator_coefficient(l, divmod(p, l), divmod(q, l))
            assert coefficients[p, q] == coeff
            assert divmod(int(targets[p, q]), l) == target


def test_closed_form_workspace_is_bounded_by_the_block():
    l = 24
    monomials = np.stack(
        [quditkit.weyl.weyl_element(l, a, b) for a in range(l) for b in range(l)]
    )
    tracemalloc.start()
    try:
        assert _closed_form_residual(monomials, l) <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The closed-form table (16-byte coefficients, 8-byte targets) and the
    # stack's 8-byte magnitudes take l^4 entries each, 10 MB here.  The arrays
    # of one block stay under sixteen of _CLOSED_FORM_BLOCK complex entries
    # (4 MB); one whole shift class at once would take 5.3 MB per array.
    assert peak <= 32 * l**4 + 16 * 16 * _CLOSED_FORM_BLOCK


def _phase_off(m):
    row = 1
    col = int(np.flatnonzero(m[row])[0])
    m[row, col] *= np.exp(1e-9j)
    return 1e-12


def _stray_entry(m):
    col = int(np.flatnonzero(m[0] == 0)[0])
    m[0, col] = 1e-9
    return 1e-9


def _columns_swapped(m):
    m[:, [0, 1]] = m[:, [1, 0]]
    return 1.0


@pytest.mark.parametrize("mutate", [_phase_off, _stray_entry, _columns_swapped])
@pytest.mark.parametrize("l", [3, 5])
def test_closed_form_check_reads_the_matrices(monkeypatch, mutate, l):
    # one monomial, W(2, 1), is built wrong; the check and the dense
    # reference must both see it.  For an entry off the one-per-row pattern
    # the check's residual is at least that entry's size.
    build = quditkit.weyl.weyl_element
    bound = []

    def mutated(l, a, b):
        m = build(l, a, b)
        if (a, b) == (2, 1):
            bound.append(mutate(m))
        return m

    monkeypatch.setattr(quditkit.weyl, "weyl_element", mutated)
    check = _checked_closed_form(l)
    assert not check.passed
    assert check.residual >= bound[0]
    assert reference_closed_form_residual(l) > check.tolerance


@pytest.mark.parametrize("l", [24, 32])
def test_single_site_passes_at_large_order(l):
    report = run_verification(dims=(l,), sites=(1,))
    assert [c.name for c in report.checks if not c.passed] == []


def test_headroom_is_residual_over_tolerance_and_not_a_field():
    report = run_verification(dims=(3,), sites=(1,))
    assert report.passed
    for check in report.checks:
        assert check.headroom == check.residual / check.tolerance
        assert 0 <= check.headroom < 1
    # a property, not a dataclass field, so reports and their equality are unchanged
    assert "headroom" not in VerifyCheck.__dataclass_fields__


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-9])
def test_override_tolerance_must_be_finite_and_positive(tolerance):
    with pytest.raises(ValueError, match="finite and positive"):
        run_verification(dims=(2,), sites=(1,), tolerance=tolerance)
