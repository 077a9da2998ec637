"""The aggregated verification suites behind the verify command."""

import os
import subprocess
import sys
from pathlib import Path

from quditkit import run_verification
from quditkit.verify import DEFAULT_DIMS, DEFAULT_SITES


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
