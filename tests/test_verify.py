"""The aggregated verification suites behind the verify command."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditkit.weyl
from quditkit import run_verification, weyl_commutator_coefficient
from quditkit.verify import DEFAULT_DIMS, DEFAULT_SITES, VerifyCheck, _closed_form_table
from weyl_reference import reference_closed_form_residual


def test_default_grid_passes():
    report = run_verification()
    assert report.passed
    assert all(c.residual <= c.tolerance for c in report.checks)


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


def _closed_form_residual(l):
    report = run_verification(dims=(l,), sites=(1,))
    (check,) = [c for c in report.checks if c.name == "commutator-closed-form"]
    return check.residual


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_closed_form_residual_matches_per_commutator_reference_exactly(l):
    assert _closed_form_residual(l) == reference_closed_form_residual(l)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 8, 9])
def test_closed_form_table_matches_scalar_closed_form(l):
    coefficients, targets = _closed_form_table(l)
    assert coefficients.shape == targets.shape == (l * l, l * l)
    for p in range(l * l):
        for q in range(l * l):
            coeff, target = weyl_commutator_coefficient(l, divmod(p, l), divmod(q, l))
            assert coefficients[p, q] == coeff
            assert divmod(int(targets[p, q]), l) == target


def test_closed_form_check_decomposes_one_block_per_left_monomial(monkeypatch):
    l = 5
    kernel = quditkit.weyl._decompose
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(quditkit.weyl, "_decompose", counting)
    report = run_verification(dims=(l,), sites=(1,))
    assert report.passed
    # one (l^2, l, l) block per left monomial, plus the three roundtrip matrices
    assert len(calls) <= l * l + 3


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
