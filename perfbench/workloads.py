"""The four workloads: seeded inputs, one pass over them, and the check of each output.

A workload pass is the unit ``solve_s`` times: a list of operations, each
timed on its own so the harness can run its set-up probes between them.
The operations return raw outputs without judging them; ``check`` compares
them afterwards, outside the timed region, against references that do not
come from the code under test (closed-form dimensions, an FFT
decomposition, an einsum contraction).

Package functions are always looked up as module attributes at call time
(``universality.closure``, not a name imported once), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import functools
import io
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Tolerance the library promises for a decompose/reconstruct round trip.
ROUND_TRIP_TOL = 1e-12


@dataclass
class Outcome:
    """Check result of one pass: operations attempted and the labels of failed ones."""

    attempted: int
    failed: List[str]


def _guard(fn, *args):
    """Run one operation; an exception becomes its output so the pass goes on."""
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation by check()
        return exc


class Workload:
    name = ""
    # Python run in a fresh interpreter (after ``import quditkit``) to time set-up.
    setup_code = ""

    def make_inputs(self, seed: int, workdir: Path, env: Dict[str, str]):
        return None

    def warm_up(self, inputs) -> None:
        raise NotImplementedError

    def trace_warm_up(self, inputs) -> None:
        """Untimed warm-up before the traced run's passes."""
        self.warm_up(inputs)

    def start_pass(self, inputs) -> None:
        """Untimed preparation before each pass."""

    def operations(self, inputs) -> List[Callable[[], object]]:
        """One pass as a list of operations; each returns its raw output."""
        raise NotImplementedError

    def run_pass(self, inputs) -> list:
        self.start_pass(inputs)
        return [op() for op in self.operations(inputs)]

    def trace_pass(self, inputs):
        """The pass the traced run times; the same as :meth:`run_pass` unless overridden."""
        return self.run_pass(inputs)

    def check(self, inputs, outputs) -> Outcome:
        raise NotImplementedError

    def peak_rss_mb(self, outputs) -> Optional[float]:
        """Peak RSS of one pass when it is not the measuring process's own (None: ours)."""
        return None

    def extra_layer_metrics(self, inputs) -> Tuple[Dict[str, float], Outcome]:
        """Per-layer metrics measured outside the traced passes, and their checks."""
        return {}, Outcome(0, [])


def _closure_outcome(results, expected) -> Outcome:
    failed = []
    for (label, dim, target, universal), result in zip(expected, results):
        if isinstance(result, Exception) or (
            result.achieved_dim, result.target_dim, result.universal) != (dim, target, universal):
            failed.append(label)
    return Outcome(len(expected), failed)


# ---------------------------------------------------------------- closure-named


class ClosureNamed(Workload):
    """Five named generator sets, every element a phase times a Weyl monomial."""

    name = "closure-named"
    # (set name, l, n, achieved dim, target dim, universal)
    CASES = (
        ("qudit-universal", 3, 2, 80, 80, True),
        ("clifford-universal", 2, 3, 63, 63, True),
        ("generalized", 4, 2, 255, 255, True),
        ("biproducts", 2, 5, 45, 1023, False),
        ("canonical", 4, 2, 30, 255, False),
    )
    setup_code = (
        "from quditkit import clifford, universality as u\n"
        "g = u.prepare_generators(clifford.named_generator_set('qudit-universal', 3, 1),"
        " u.REAL_ANTIHERMITIAN)\n"
        "assert u.closure(g).achieved_dim == 8\n"
    )

    @staticmethod
    def _decide(name, l, n):
        from quditkit import clifford, universality
        gen = universality.prepare_generators(
            clifford.named_generator_set(name, l, n), universality.REAL_ANTIHERMITIAN)
        return universality.closure(gen)

    def warm_up(self, inputs) -> None:
        self._decide("qudit-universal", 3, 1)

    def operations(self, inputs):
        return [functools.partial(_guard, self._decide, name, l, n)
                for name, l, n, *_ in self.CASES]

    def check(self, inputs, outputs) -> Outcome:
        expected = [(f"{c[0]} l={c[1]} n={c[2]}",) + c[3:] for c in self.CASES]
        return _closure_outcome(outputs, expected)


# -------------------------------------------------------------- closure-generic


def _complex_gaussian(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _block_pair(rng, a, b):
    out = []
    for _ in range(2):
        m = np.zeros((a + b, a + b), dtype=complex)
        m[:a, :a] = _complex_gaussian(rng, a)
        m[a:, a:] = _complex_gaussian(rng, b)
        out.append(m)
    return out


class ClosureGeneric(Workload):
    """Dense seeded matrices that are not Weyl monomials."""

    name = "closure-generic"
    setup_code = (
        "import numpy as np\n"
        "from quditkit import universality as u\n"
        "rng = np.random.default_rng({seed})\n"
        "pair = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]\n"
        "assert u.closure(u.prepare_generators(pair, u.REAL_ANTIHERMITIAN)).achieved_dim == 15\n"
    )

    def make_inputs(self, seed: int, workdir: Path, env: Dict[str, str]):
        from quditkit.universality import COMPLEX_TRACELESS, REAL_ANTIHERMITIAN
        rng = np.random.default_rng(seed)
        warm = [_complex_gaussian(rng, 4) for _ in range(2)]
        cases = [
            # (label, matrices, mode, achieved dim, target dim, universal)
            ("random pair d=16 real", [_complex_gaussian(rng, 16) for _ in range(2)],
             REAL_ANTIHERMITIAN, 255, 255, True),
            ("random pair d=12 complex", [_complex_gaussian(rng, 12) for _ in range(2)],
             COMPLEX_TRACELESS, 143, 143, True),
            # su(6) + su(6) + the relative phase: (36-1) + (36-1) + 1.
            ("block pair 6+6 real", _block_pair(rng, 6, 6), REAL_ANTIHERMITIAN, 71, 143, False),
        ]
        return warm, cases

    @staticmethod
    def _decide(matrices, mode):
        from quditkit import universality
        return universality.closure(universality.prepare_generators(matrices, mode))

    def warm_up(self, inputs) -> None:
        from quditkit.universality import REAL_ANTIHERMITIAN
        self._decide(inputs[0], REAL_ANTIHERMITIAN)

    def operations(self, inputs):
        return [functools.partial(_guard, self._decide, mats, mode)
                for _, mats, mode, *_ in inputs[1]]

    def check(self, inputs, outputs) -> Outcome:
        expected = [(c[0],) + tuple(c[3:]) for c in inputs[1]]
        return _closure_outcome(outputs, expected)


# ------------------------------------------------------------------ verify-grid

_SINGLE_CHECKS = (
    "weyl-commutation", "weyl-order", "weyl-gram", "weyl-roundtrip", "operator-fermat",
    "scalar-factorization", "tau-relations", "commutator-closed-form",
    "circuit-eigenrelations", "qft-unitarity",
)
_FAMILY_CHECKS = ("zeta-commutation", "generator-order", "multiterm-fermat",
                  "commutation-matrix-forms")


def expected_checks(dims: Sequence[int], sites: Sequence[int]) -> Counter:
    """(name, params) of every check ``run_verification`` documents for the grid."""
    out = Counter((name, f"l={l}") for l in dims for name in _SINGLE_CHECKS)
    for n in sites:
        out[("clifford-anticommutation", f"n={n}")] += 1
        for l in dims:
            out.update((name, f"l={l} n={n}") for name in _FAMILY_CHECKS)
            if n >= 2:
                out[("kgate-contraction", f"l={l} n={n}")] += 1
    return out


class VerifyGrid(Workload):
    """The identity suites on the default grid and at l=7; no closure."""

    name = "verify-grid"
    # (dims, sites); None keeps run_verification's default grid.
    RUNS = ((None, None), ((7,), (1,)))
    DEFAULT_GRID = ((2, 3, 4, 5), (1, 2))
    setup_code = (
        "from quditkit import verify\n"
        "assert verify.run_verification(dims=(2,), sites=(1,)).passed\n"
    )

    @staticmethod
    def _run(dims, sites):
        from quditkit import verify
        if dims is None:
            return verify.run_verification()
        return verify.run_verification(dims=dims, sites=sites)

    def warm_up(self, inputs) -> None:
        self._run((2,), (1,))

    def operations(self, inputs):
        return [functools.partial(_guard, self._run, dims, sites) for dims, sites in self.RUNS]

    def check(self, inputs, outputs) -> Outcome:
        failed = []
        for (dims, sites), report in zip(self.RUNS, outputs):
            grid = self.DEFAULT_GRID if dims is None else (dims, sites)
            label = f"run_verification dims={grid[0]} sites={grid[1]}"
            if isinstance(report, Exception) or not report.passed or (
                    Counter((c.name, c.params) for c in report.checks) != expected_checks(*grid)):
                failed.append(label)
        return Outcome(len(self.RUNS), failed)


# ------------------------------------------------------------------ cli-session


def _pairs_json(values: np.ndarray) -> str:
    return ", ".join(f"[{format(z.real, '.17g')}, {format(z.imag, '.17g')}]" for z in values)


def _write_matrix(path: Path, m: np.ndarray) -> None:
    path.write_text('{\n  "dim": %d,\n  "entries": [%s]\n}\n' % (m.shape[0], _pairs_json(m.ravel())))


def _write_state(path: Path, l: int, n: int, amplitudes: np.ndarray) -> None:
    path.write_text('{\n  "l": %d,\n  "n": %d,\n  "amplitudes": [%s]\n}\n'
                    % (l, n, _pairs_json(amplitudes)))


def _read_pairs(path: Path, key: str) -> np.ndarray:
    pairs = np.array(json.loads(path.read_text())[key], dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1]


def weyl_coefficients(m: np.ndarray) -> np.ndarray:
    """Reference table c[a, b] = Tr(m W(a,b)^dagger) / l by one FFT per shift power.

    ``W(a,b) = shift^a clock^b`` has ``zeta^(b j)`` at row ``j - a``, column
    ``j``; the sum over ``j`` against ``zeta^(-b j)`` is a forward DFT.
    """
    l = m.shape[0]
    j = np.arange(l)
    wrapped = np.stack([m[(j - a) % l, j] for a in range(l)])
    return np.fft.fft(wrapped, axis=1) / l


def apply_on_sites(psi: np.ndarray, l: int, n: int, gate: np.ndarray, sites) -> np.ndarray:
    """Reference contraction by einsum; the gate's leading digit acts on ``sites[0]``."""
    k = len(sites)
    letters = "abcdefghijklmnopqrstuvwxyz"
    axes = list(letters[:n])
    new = list(letters[n:n + k])
    old = [axes[s - 1] for s in sites]
    out_axes = list(axes)
    for s, letter in zip(sites, new):
        out_axes[s - 1] = letter
    spec = f"{''.join(new + old)},{''.join(axes)}->{''.join(out_axes)}"
    t = np.einsum(spec, gate.reshape((l,) * (2 * k)), psi.reshape((l,) * n))
    return t.reshape(-1)


@dataclass
class Command:
    label: str
    argv: List[str]
    returncode: int = -1
    stdout: str = ""
    stderr: str = ""
    wall_s: float = 0.0
    maxrss_kb: int = 0


def child_env(root: Path) -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: List[str], env: Dict[str, str], workdir: Path) -> Command:
    """Run one child to completion; its output goes to files under ``workdir``."""
    cmd = Command(label=argv[0], argv=argv)
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        cmd.wall_s = time.perf_counter() - t0
    proc.returncode = cmd.returncode = os.waitstatus_to_exitcode(status)
    cmd.maxrss_kb = usage.ru_maxrss
    cmd.stdout = out_path.read_text()
    cmd.stderr = err_path.read_text()
    return cmd


def _field(text: str, key: str) -> Optional[str]:
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


@dataclass
class SessionInputs:
    workdir: Path
    env: Dict[str, str]
    commands: List[Tuple[str, List[str]]]
    coefficients: np.ndarray
    final_state: np.ndarray


class CliSession(Workload):
    """A scripted session of ``python -m quditkit`` commands, one process each."""

    name = "cli-session"
    L, N = 3, 10
    setup_code = (
        "import contextlib, io\n"
        "from quditkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['qft', '--dim', '3', '--normalized']) == 0\n"
    )

    def make_inputs(self, seed: int, workdir: Path, env: Dict[str, str]) -> SessionInputs:
        rng = np.random.default_rng(seed)
        l, n = self.L, self.N
        psi = rng.standard_normal(l**n) + 1j * rng.standard_normal(l**n)
        psi /= np.linalg.norm(psi)
        m16 = _complex_gaussian(rng, 16)
        q, r = np.linalg.qr(_complex_gaussian(rng, l * l))
        u9 = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        _write_state(workdir / "state.json", l, n, psi)
        _write_matrix(workdir / "m16.json", m16)
        _write_matrix(workdir / "u9.json", u9)

        k = np.arange(l)
        qft = np.exp(2j * np.pi * np.outer(k, k) / l) / np.sqrt(l)
        final = apply_on_sites(apply_on_sites(psi, l, n, u9, (2, 7)), l, n, qft, (4,))

        w = str(workdir)
        commands = [
            ("version", ["--version"]),
            ("generate", ["generate", "--set", "generalized", "--dim", "3", "--sites", "2",
                          "--output", f"{w}/gen"]),
            ("closure-input", ["closure", "--input", f"{w}/gen"]),
            ("closure-set", ["closure", "--set", "qudit-universal", "--dim", "3", "--sites", "1",
                             "--expect-universal"]),
            ("decompose", ["decompose", "--input", f"{w}/m16.json", "--output", f"{w}/coef.json"]),
            ("qft", ["qft", "--dim", "3", "--normalized", "--output", f"{w}/qft3.json"]),
            ("apply-u9", ["apply", "--input", f"{w}/state.json", "--gate", f"{w}/u9.json",
                          "--sites", "2,7", "--output", f"{w}/s1.json"]),
            ("apply-qft", ["apply", "--input", f"{w}/s1.json", "--gate", f"{w}/qft3.json",
                           "--sites", "4", "--output", f"{w}/s2.json"]),
            ("verify", ["verify", "--dim", "3", "--sites", "1"]),
        ]
        return SessionInputs(workdir, env, commands, weyl_coefficients(m16), final)

    def _clear_outputs(self, inputs: SessionInputs) -> None:
        shutil.rmtree(inputs.workdir / "gen", ignore_errors=True)
        for name in ("coef.json", "qft3.json", "s1.json", "s2.json"):
            (inputs.workdir / name).unlink(missing_ok=True)

    def warm_up(self, inputs) -> None:
        run_child([sys.executable, "-m", "quditkit", "--version"], inputs.env, inputs.workdir)

    def trace_warm_up(self, inputs) -> None:
        """Import the CLI into this process and run one cheap command through it."""
        self._in_process("qft", ["qft", "--dim", "3"])

    def start_pass(self, inputs: SessionInputs) -> None:
        self._clear_outputs(inputs)

    @staticmethod
    def _subprocess(label: str, args: List[str], inputs: SessionInputs) -> Command:
        cmd = run_child([sys.executable, "-m", "quditkit"] + args, inputs.env, inputs.workdir)
        cmd.label = label
        return cmd

    def operations(self, inputs: SessionInputs):
        return [functools.partial(self._subprocess, label, args, inputs)
                for label, args in inputs.commands]

    @staticmethod
    def _in_process(label: str, args: List[str]) -> Command:
        from quditkit import cli
        cmd = Command(label=label, argv=args)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cmd.returncode = cli.main(args)
            except SystemExit as exc:  # argparse exits after --version
                cmd.returncode = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:
                cmd.returncode, cmd.stderr = -1, repr(exc)
        cmd.wall_s = time.perf_counter() - t0
        cmd.stdout, cmd.stderr = out.getvalue(), cmd.stderr + err.getvalue()
        return cmd

    def trace_pass(self, inputs: SessionInputs) -> List[Command]:
        """The same argv lists through ``quditkit.cli.main`` in this process."""
        self.start_pass(inputs)
        return [self._in_process(label, args) for label, args in inputs.commands]

    def check(self, inputs: SessionInputs, outputs: List[Command]) -> Outcome:
        w = inputs.workdir
        failed = []
        for cmd in outputs:
            if cmd.returncode != 0 or not self._command_ok(cmd, w, inputs):
                failed.append(cmd.label)
        return Outcome(len(inputs.commands), failed)

    def _command_ok(self, cmd: Command, w: Path, inputs: SessionInputs) -> bool:
        out = cmd.stdout
        try:
            if cmd.label == "version":
                return out.startswith("quditkit ")
            if cmd.label == "generate":
                return _field(out, "count") == "4" and len(list((w / "gen").glob("*.json"))) == 4
            if cmd.label in ("closure-input", "closure-set"):
                want = ("80", "true") if cmd.label == "closure-input" else ("8", "true")
                return (_field(out, "achieved-dim"), _field(out, "universal")) == want
            if cmd.label == "decompose":
                table = _read_pairs(w / "coef.json", "coefficients").reshape(16, 16)
                return (float(_field(out, "reconstruction-residual")) <= ROUND_TRIP_TOL
                        and np.max(np.abs(table - inputs.coefficients)) <= ROUND_TRIP_TOL)
            if cmd.label == "qft":
                return (w / "qft3.json").is_file()
            if cmd.label in ("apply-u9", "apply-qft"):
                before = float(_field(out, "norm-before"))
                after = float(_field(out, "norm-after"))
                if abs(after - before) > 1e-12 * before:
                    return False
                if cmd.label == "apply-qft":
                    state = _read_pairs(w / "s2.json", "amplitudes")
                    return np.max(np.abs(state - inputs.final_state)) <= 1e-12
                return True
            if cmd.label == "verify":
                return _field(out, "overall") == "pass"
        except (OSError, ValueError, TypeError, KeyError, IndexError):
            return False
        return False

    def peak_rss_mb(self, outputs: List[Command]) -> Optional[float]:
        return max(cmd.maxrss_kb for cmd in outputs) / 1024.0

    def extra_layer_metrics(self, inputs: SessionInputs) -> Tuple[Dict[str, float], Outcome]:
        """Interpreter floor, package import, and per-command wall times of one session.

        A command's time is summed over its invocations in the session
        (``closure`` and ``apply`` run twice).
        """
        def median_wall(code):
            return float(np.median([run_child([sys.executable, "-c", code], inputs.env,
                                              inputs.workdir).wall_s for _ in range(5)]))

        floor = median_wall("pass")
        imported = median_wall("import quditkit")
        session = self.run_pass(inputs)
        per_command: Dict[str, float] = Counter()
        for cmd in session:
            per_command[cmd.argv[3]] += cmd.wall_s
        m = {"cli.interpreter_s": floor, "cli.import_s": imported - floor}
        for command in ("generate", "closure", "decompose", "qft", "apply", "verify"):
            m[f"cli.{command}_s"] = per_command[command]
        return m, self.check(inputs, session)


WORKLOADS = {w.name: w for w in (ClosureNamed(), ClosureGeneric(), VerifyGrid(), CliSession())}
