"""Command-line behavior: exit codes, file outputs, and report stability."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from quditkit import basis_state, clock_matrix, max_abs, pauli, shift_matrix
from quditkit.cli import main
from quditkit.serialize import load_matrix, load_state, load_weyl_coefficients, save_matrix, save_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_weyl_pair_files(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "generate", "--set", "weyl-pair", "--dim", "2",
            "--output", str(tmp_path),
        )
        assert code == 0
        assert "wrote:" in out
        assert max_abs(load_matrix(tmp_path / "shift.json") - pauli(1)) == 0
        assert max_abs(load_matrix(tmp_path / "clock.json") - pauli(3)) <= 1e-15

    def test_qft_set(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "generate", "--set", "qft", "--dim", "2", "--output", str(tmp_path)
        )
        assert code == 0
        got = load_matrix(tmp_path / "qft.json")
        assert max_abs(got - np.array([[1, 1], [1, -1]])) <= 1e-15

    def test_generalized_family_count_and_dim(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "generate", "--set", "generalized", "--dim", "3",
            "--sites", "2", "--output", str(tmp_path),
        )
        assert code == 0
        files = sorted(tmp_path.glob("generalized-*.json"))
        assert len(files) == 4
        for f in files:
            assert load_matrix(f).shape == (9, 9)

    def test_tau_triple(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "generate", "--set", "tau", "--dim", "3", "--output", str(tmp_path)
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == ["tau1.json", "tau2.json", "tau3.json"]

    @pytest.mark.parametrize("name, count", [("weyl-pair", 2), ("tau", 3), ("qft", 1)])
    def test_single_site_sets_report_one_site(self, tmp_path, capsys, name, count):
        # their matrices are l x l whatever --sites says
        code, out, _ = run(
            capsys, "generate", "--set", name, "--dim", "3", "--sites", "2",
            "--output", str(tmp_path),
        )
        assert code == 0
        assert f"\ndim: 3\nsites: 1\ncount: {count}\n" in out
        assert out.count(" dim=3\n") == count

    def test_unknown_set(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--set", "bogus", "--output", str(tmp_path)
        )
        assert code == 2
        assert "unknown generator set" in err

    def test_qubit_only_set_wrong_order(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--set", "biproducts", "--dim", "3",
            "--sites", "2", "--output", str(tmp_path),
        )
        assert code == 2
        assert "l=2 only" in err


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "2", "--sites", "1")
        assert code == 0
        assert "overall: pass" in out
        assert "identity: U V = zeta V U" in out

    def test_larger_order_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "7", "--sites", "1")
        assert code == 0

    def test_unattainable_tolerance_reports_failure(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--dim", "2", "--sites", "1", "--tolerance", "1e-20"
        )
        assert code == 1
        assert "overall: FAIL" in out
        assert "residual:" in out

    def test_tabular_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--dim", "2", "--sites", "1", "--format", "tabular"
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.split("\t") == [
            "name", "params", "identity", "residual", "tolerance", "status"
        ]

    def test_byte_stable_reports(self, capsys):
        _, first, _ = run(capsys, "verify", "--dim", "3", "--sites", "1")
        _, second, _ = run(capsys, "verify", "--dim", "3", "--sites", "1")
        assert first == second

    def test_report_written_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "verify", "--dim", "2", "--sites", "1", "--output", str(target)
        )
        assert code == 0
        assert target.read_text() == out

    def test_env_var_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("QUDITKIT_TOLERANCE", "1e-20")
        code, out, _ = run(capsys, "verify", "--dim", "2", "--sites", "1")
        assert code == 1
        assert "overall: FAIL" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_env_var_tolerance_must_be_finite_and_positive(self, capsys, monkeypatch, value):
        # inf used to pass every check
        monkeypatch.setenv("QUDITKIT_TOLERANCE", value)
        code, out, err = run(capsys, "verify", "--dim", "2", "--sites", "1")
        assert code == 2
        assert out == ""
        assert "finite and positive" in err


class TestClosure:
    def test_biproducts_fall_short(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--set", "biproducts", "--dim", "2", "--sites", "2"
        )
        assert code == 0
        assert "achieved-dim: 6" in out
        assert "target-dim: 15" in out
        assert "universal: false" in out

    def test_expectation_failure_exit(self, capsys):
        code, _, err = run(
            capsys, "closure", "--set", "biproducts", "--dim", "2", "--sites", "2",
            "--expect-universal",
        )
        assert code == 1
        assert "expectation failed" in err

    def test_augmented_clifford_universal(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--set", "clifford-universal", "--dim", "2",
            "--sites", "2", "--expect-universal",
        )
        assert code == 0
        assert "achieved-dim: 15" in out
        assert "universal: true" in out

    def test_qudit_universal_single_site(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--set", "qudit-universal", "--dim", "3",
            "--sites", "1", "--expect-universal",
        )
        assert code == 0
        assert "achieved-dim: 8" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_tolerance_flag_must_be_finite_and_positive(self, capsys, value):
        # nan used to report achieved-dim: 4 of 8 and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["closure", "--set", "qudit-universal", "--dim", "3", f"--tolerance={value}"])
        assert exc.value.code == 2
        assert "finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-17", "1e-300"])
    def test_tolerance_below_machine_epsilon_exits_2(self, capsys, value):
        code, out, err = run(
            capsys, "closure", "--set", "qudit-universal", "--dim", "3", f"--tolerance={value}"
        )
        assert code == 2
        assert out == ""
        assert "machine epsilon" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_env_var_tolerance_must_be_finite(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QUDITKIT_TOLERANCE", value)
        code, out, err = run(capsys, "closure", "--set", "qudit-universal", "--dim", "3")
        assert code == 2
        assert out == ""
        assert "finite and positive" in err

    def test_dimension_cap(self, capsys):
        code, _, err = run(
            capsys, "closure", "--set", "qudit-universal", "--dim", "3",
            "--sites", "2", "--max-dim", "5",
        )
        assert code == 2
        assert "exceeds the cap" in err

    def test_dimension_cap_message(self, capsys):
        code, _, err = run(
            capsys, "closure", "--set", "qudit-universal", "--dim", "3",
            "--sites", "4", "--max-dim", "80",
        )
        assert code == 2
        assert err == "error: l^n = 81 exceeds the cap 80; pass --max-dim to run larger closures\n"

    def test_single_site_sets_report_and_cap_their_matrices_dimension(self, capsys):
        # weyl-pair and tau are l x l whatever --sites says
        code, out, _ = run(capsys, "closure", "--set", "weyl-pair", "--dim", "3", "--sites", "2")
        assert code == 0
        assert "\ndim: 3\ntarget-dim: 8\nachieved-dim: 8\n" in out
        code, out, _ = run(capsys, "closure", "--set", "tau", "--dim", "7", "--sites", "2")
        assert code == 0
        assert "\ndim: 7\ntarget-dim: 48\nachieved-dim: 48\n" in out
        code, out, err = run(capsys, "closure", "--set", "tau", "--dim", "7", "--max-dim", "6")
        assert (code, out) == (2, "")
        assert err == "error: l^n = 7 exceeds the cap 6; pass --max-dim to run larger closures\n"

    def test_unknown_set_is_a_usage_error(self, capsys, monkeypatch):
        # as in a fresh process, where no command has bound the named-set builder yet
        monkeypatch.delitem(main.__globals__, "named_generator_set", raising=False)
        code, out, err = run(capsys, "closure", "--set", "no-such-set")
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown generator set 'no-such-set'")

    def test_dimension_cap_without_forming_the_power(self):
        # 3^100000000 would take far longer than the bound to form
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "quditkit", "closure", "--set", "clifford",
                "--dim", "3", "--sites", "100000000"]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: l^n = 3^100000000 exceeds the cap 32; pass --max-dim to run larger closures\n"
        )

    def test_codes_past_intp_are_a_usage_error(self, capsys):
        # d = 2^32 passes the cap, but the Weyl codes reach d^2 = 2^64
        code, out, err = run(
            capsys, "closure", "--set", "qudit-universal", "--dim", "2", "--sites", "32",
            "--max-dim", "4294967296",
        )
        assert (code, out) == (2, "")
        assert err.endswith("error: Weyl codes need l^(2n) <= 2^63, got l=2, n=32\n")

    def test_a_refused_allocation_is_a_usage_error(self, capsys):
        # d = 2^31 passes the cap and the code check; the monomial engine's
        # d^2 member table would be 4 EiB, which numpy refuses at once
        code, out, err = run(
            capsys, "closure", "--set", "qudit-universal", "--dim", "2", "--sites", "31",
            "--max-dim", "2147483648",
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: Unable to allocate 4.00 EiB")

    def test_two_site_qudit_set(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--set", "qudit-universal", "--dim", "3",
            "--sites", "2", "--expect-universal",
        )
        assert code == 0
        assert "achieved-dim: 80" in out
        assert "universal: true" in out

    def test_qubit_qudit_set_notes_orthogonal_algebra(self, capsys):
        argv = ["closure", "--set", "qudit-universal", "--dim", "2", "--sites", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert "achieved-dim: 10" in out
        assert "target-dim: 15" in out
        assert "universal: false" in out
        assert "note" not in out
        assert err.count("\n") == 1
        assert "so(5)" in err and "su(2^n)" in err
        _, _, err3 = run(capsys, "closure", "--set", "qudit-universal", "--dim", "3")
        assert err3 == ""

    def test_generator_set_from_files(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "generate", "--set", "qudit-universal", "--dim", "3",
            "--sites", "1", "--output", str(tmp_path),
        )
        assert code == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "closure", "--input", str(tmp_path))
        assert code == 0
        assert "achieved-dim: 8" in out
        assert "universal: true" in out

    def test_input_whose_norm_overflows_is_a_usage_error(self, tmp_path, capsys):
        save_matrix(tmp_path / "a.json", 1e160 * shift_matrix(3))
        save_matrix(tmp_path / "b.json", clock_matrix(3))
        code, _, err = run(capsys, "closure", "--input", str(tmp_path))
        assert code == 2
        assert err == "error: matrix 0 has a norm that overflows\n"

    @pytest.mark.parametrize("mode", ["real-antihermitian", "complex-traceless"])
    def test_overflow_error_names_the_input_file_in_both_modes(self, tmp_path, capsys, mode):
        # real mode splits each input in two; the error still names input 1
        save_matrix(tmp_path / "a.json", clock_matrix(3))
        save_matrix(tmp_path / "b.json", 1e160 * shift_matrix(3))
        code, _, err = run(capsys, "closure", "--input", str(tmp_path), "--mode", mode)
        assert code == 2
        assert err == "error: matrix 1 has a norm that overflows\n"

    def test_set_and_input_are_exclusive(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "closure", "--set", "biproducts", "--input", str(tmp_path)
        )
        assert code == 2
        assert "exactly one" in err

    def test_basis_dump(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "closure", "--set", "qudit-universal", "--dim", "3",
            "--sites", "1", "--dump-basis", str(tmp_path),
        )
        assert code == 0
        files = sorted(tmp_path.glob("basis-*.json"))
        assert len(files) == 8
        assert load_matrix(files[0]).shape == (3, 3)


class TestDecompose:
    def test_sigma2_single_coefficient(self, tmp_path, capsys):
        source = tmp_path / "m.json"
        save_matrix(source, pauli(2))
        target = tmp_path / "c.json"
        code, out, _ = run(
            capsys, "decompose", "--input", str(source), "--dim", "2",
            "--output", str(target),
        )
        assert code == 0
        assert "reconstruction-residual:" in out
        assert "coefficient: a=1 b=1" in out
        table = load_weyl_coefficients(target)
        assert abs(table[1, 1] - 1j) <= 1e-14
        assert abs(table[0, 0]) <= 1e-14

    def test_identity_decomposition(self, tmp_path, capsys):
        source = tmp_path / "m.json"
        save_matrix(source, np.eye(3))
        code, out, _ = run(capsys, "decompose", "--input", str(source))
        assert code == 0
        assert "coefficient: a=0 b=0 re=1" in out

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            (1000 * clock_matrix(8), ["a=0 b=1 re=1000 "]),
            (50 * (clock_matrix(7) + shift_matrix(7)), ["a=0 b=1 re=50 ", "a=1 b=0 re=50 "]),
        ],
    )
    def test_large_norm_input_prints_no_rounding_dust(self, tmp_path, capsys, matrix, expected):
        source = tmp_path / "m.json"
        save_matrix(source, matrix)
        code, out, _ = run(capsys, "decompose", "--input", str(source))
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("coefficient:")]
        assert len(lines) == len(expected)
        for line, prefix in zip(lines, expected):
            assert line.startswith("coefficient: " + prefix)

    def test_tolerance_is_accepted_and_ignored(self, tmp_path, capsys):
        source = tmp_path / "m.json"
        # the 1e-6 coefficient is printed, although it is below --tolerance 1e-3
        save_matrix(source, 1000 * clock_matrix(8) + 1e-6 * shift_matrix(8))
        target = tmp_path / "c.json"
        runs = []
        for extra in ([], ["--tolerance", "1e-3"]):
            code, out, _ = run(capsys, "decompose", "--input", str(source),
                               "--output", str(target), *extra)
            assert code == 0
            runs.append((out, target.read_bytes()))
        assert runs[0] == runs[1]
        assert "coefficient: a=1 b=0 re=9.9999999999999995e-07 " in runs[0][0]

    def test_overflowing_coefficients_exit_2_and_write_nothing(self, tmp_path, capsys):
        # finite entries whose sum, the (0, 0) coefficient's FFT, overflows
        source = tmp_path / "m.json"
        source.write_text('{"dim": 2, "entries": [[1.7e308, 0], [0, 0], [0, 0], [1.7e308, 0]]}')
        target = tmp_path / "c.json"
        code, out, err = run(capsys, "decompose", "--input", str(source), "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "overflow" in err
        assert not target.exists()

    def test_dim_mismatch(self, tmp_path, capsys):
        source = tmp_path / "m.json"
        save_matrix(source, np.eye(3))
        code, _, err = run(capsys, "decompose", "--input", str(source), "--dim", "4")
        assert code == 2
        assert "does not match" in err


class TestQft:
    def test_written_file_is_unitary(self, tmp_path, capsys):
        target = tmp_path / "f.json"
        code, _, _ = run(
            capsys, "qft", "--dim", "3", "--normalized", "--output", str(target)
        )
        assert code == 0
        f = load_matrix(target)
        assert max_abs(f @ f.conj().T - np.eye(3)) <= 1e-13

    def test_printed_matrix(self, capsys):
        code, out, _ = run(capsys, "qft", "--dim", "2")
        assert code == 0
        assert "dim: 2" in out
        assert "row 0:" in out


class TestApply:
    def test_single_site_not(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        gate_path = tmp_path / "gate.json"
        out_path = tmp_path / "out.json"
        save_state(state_path, basis_state(2, 2, [0, 0]))
        save_matrix(gate_path, pauli(1))
        code, out, _ = run(
            capsys, "apply", "--input", str(state_path), "--gate", str(gate_path),
            "--sites", "2", "--output", str(out_path),
        )
        assert code == 0
        assert "norm-before: 1" in out
        assert "norm-after: 1" in out
        result = load_state(out_path)
        assert max_abs(result.amplitudes - basis_state(2, 2, [0, 1]).amplitudes) == 0

    def test_named_qft_gate(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        save_state(state_path, basis_state(3, 1, [0]))
        code, out, _ = run(
            capsys, "apply", "--input", str(state_path), "--set", "qft"
        )
        assert code == 0
        assert "amplitude 0: (1, 0)" in out
        assert "amplitude 2: (1, 0)" in out

    def test_normalized_qft_gate(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        out_path = tmp_path / "out.json"
        save_state(state_path, basis_state(3, 1, [0]))
        code, _, _ = run(
            capsys, "apply", "--input", str(state_path), "--set", "qft",
            "--normalized", "--output", str(out_path),
        )
        assert code == 0
        result = load_state(out_path)
        assert max_abs(result.amplitudes - np.ones(3) / np.sqrt(3)) <= 1e-14

    def test_malformed_matrix_file(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        save_state(state_path, basis_state(2, 1, [0]))
        gate_path = tmp_path / "gate.json"
        gate_path.write_text('{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0]]}')
        code, _, err = run(
            capsys, "apply", "--input", str(state_path), "--gate", str(gate_path)
        )
        assert code == 2
        assert "entries" in err

    def test_site_out_of_range(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        gate_path = tmp_path / "gate.json"
        save_state(state_path, basis_state(2, 2, [0, 0]))
        save_matrix(gate_path, pauli(1))
        code, _, err = run(
            capsys, "apply", "--input", str(state_path), "--gate", str(gate_path),
            "--sites", "3",
        )
        assert code == 2
        assert "out of range" in err

    def test_gate_required(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        save_state(state_path, basis_state(2, 1, [0]))
        code, _, err = run(capsys, "apply", "--input", str(state_path))
        assert code == 2
        assert "--gate" in err


_SCIPY_PROBES = {
    "import": "import quditkit",
    "version": (
        "import runpy\n"
        "sys.argv = ['quditkit', '--version']\n"
        "try:\n"
        "    runpy.run_module('quditkit', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n"
    ),
    # both exponentials: eigh for the anti-Hermitian exponents, the series for the rest
    "exponentials": (
        "import numpy as np\n"
        "from quditkit import gate_from_generator, matrix_exp\n"
        "gate_from_generator(np.arange(9.).reshape(3, 3) + 1j, 0.3)\n"
        "matrix_exp([[0, 2], [0, 0]])\n"
    ),
}


@pytest.mark.parametrize("probe", sorted(_SCIPY_PROBES))
def test_startup_leaves_scipy_unimported(probe):
    # quditkit needs only numpy: neither startup nor matrix_exp loads scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        + _SCIPY_PROBES[probe]
        + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_public_names_are_pinned_and_resolve():
    import quditkit

    assert sorted(quditkit.__all__) == [
        "COMPLEX_TRACELESS", "ClosureResult", "ExtendResult", "GENERATOR_SET_NAMES",
        "GateSpec", "GeneratorFamily", "GeneratorSet", "MODES", "NoMatchingPowerError",
        "QuditState", "REAL_ANTIHERMITIAN", "RootOfUnity",
        "VerifyCheck", "VerifyReport", "__version__", "apply_full", "apply_kgate", "as_matrix",
        "basis_state", "biproducts", "canonical_generators", "clifford_generators",
        "clock_matrix", "closure", "commutation_matrix", "cyclic_shift_gate", "dagger",
        "embed_kgate", "fermat_power_residual", "gate_from_generator",
        "generalized_generators", "hermitian_split", "hs_inner", "hs_norm", "is_universal",
        "matrix_exp", "max_abs", "momentum_basis", "named_generator_set", "orthonormal_extend",
        "pauli", "perm_from_function", "prepare_generators", "qft_matrix",
        "qudit_universal_set", "reflection_matrix", "reversible_embedding",
        "rotated_basis_element", "run_verification", "scalar_factorization_residuals",
        "shift_matrix", "tau_matrices", "traceless_project", "universal_augmentation",
        "weyl_commutation_residual", "weyl_commutator_coefficient", "weyl_decompose",
        "weyl_element", "weyl_reconstruct",
    ]
    assert len(set(quditkit.__all__)) == len(quditkit.__all__)
    assert all(hasattr(quditkit, name) for name in quditkit.__all__)
