"""Each ``python -m quditkit`` process imports only the modules its command runs.

Every case runs in a fresh interpreter, so the modules it loads are its own
and a name a handler reads but never bound shows as a traceback (exit 1),
not as a pass: in-process tests import the whole library first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]

# the quditkit modules, and numpy, in sys.modules: the last line on stderr
_PRINT_LOADED = """
loaded = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "quditkit")
print("modules:", *loaded, file=sys.stderr)
"""

# ``python -m quditkit ARGS``, then the modules it loaded
_RUNNER = """
import runpy, sys
sys.argv = ["quditkit", *sys.argv[1:]]
try:
    runpy.run_module("quditkit", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
""" + _PRINT_LOADED + "sys.exit(code)\n"

# parser only; serialize imports circuit, linalg and weyl, so every command loads them
_PARSER = ("quditkit", "quditkit.cli", "quditkit.vocabulary")
_BASE = _PARSER + ("numpy", "quditkit.circuit", "quditkit.linalg", "quditkit.serialize",
                   "quditkit.weyl")
_CLOSURE = _BASE + ("quditkit.universality",)
_VERIFY = _BASE + ("quditkit.clifford", "quditkit.verify")


def _env(extra=None):
    env = {k: v for k, v in os.environ.items() if k != "QUDITKIT_TOLERANCE"}
    env.update(extra or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _matrix_doc(rows):
    entries = [[float(z.real), float(z.imag)] for row in rows for z in map(complex, row)]
    return json.dumps({"dim": len(rows), "entries": entries})


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "pair").mkdir()
    (tmp_path / "pair" / "x.json").write_text(_matrix_doc([[0, 1], [1, 0]]))
    (tmp_path / "pair" / "z.json").write_text(_matrix_doc([[1, 0], [0, -1]]))
    (tmp_path / "x.json").write_text(_matrix_doc([[0, 1], [1, 0]]))
    state = {"l": 2, "n": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    (tmp_path / "state.json").write_text(json.dumps(state))
    (tmp_path / "bad.json").write_text("{not json")
    return tmp_path


# (argv, extra environment, exit status, modules loaded at exit, text on stdout)
CASES = {
    "version": (["--version"], {}, 0, _PARSER, "quditkit 0.1.0"),
    "help": (["--help"], {}, 0, _PARSER, "usage: quditkit"),
    "usage-error": (["qft"], {}, 2, _PARSER, ""),
    "generate": (["generate", "--set", "generalized", "--dim", "3", "--sites", "2",
                  "--output", "gen"], {}, 0, _BASE + ("quditkit.clifford",), "count: 4"),
    "verify": (["verify", "--dim", "2", "--sites", "1"], {}, 0, _VERIFY, "overall: pass"),
    "verify-env-tolerance": (["verify", "--dim", "2", "--sites", "1"],
                             {"QUDITKIT_TOLERANCE": "abc"}, 2, _VERIFY, ""),
    "closure-set": (["closure", "--set", "qudit-universal", "--dim", "3"], {}, 0,
                    _CLOSURE + ("quditkit.clifford",), "achieved-dim: 8"),
    "closure-set-unnamed": (["closure", "--set", "weyl-pair", "--dim", "3"], {}, 0, _CLOSURE,
                            "achieved-dim: 8"),
    "closure-input": (["closure", "--input", "pair"], {}, 0, _CLOSURE, "achieved-dim: 3"),
    "closure-env-tolerance": (["closure", "--input", "pair"], {"QUDITKIT_TOLERANCE": "abc"},
                              2, _CLOSURE, ""),
    "closure-malformed": (["closure", "--input", "bad.json"], {}, 2, _CLOSURE, ""),
    "decompose": (["decompose", "--input", "x.json", "--output", "c.json"], {}, 0, _BASE,
                  "wrote: c.json"),
    "decompose-malformed": (["decompose", "--input", "bad.json"], {}, 2, _BASE, ""),
    "qft": (["qft", "--dim", "3", "--normalized"], {}, 0, _BASE, "dim: 3"),
    "apply": (["apply", "--input", "state.json", "--gate", "x.json", "--sites", "2"], {}, 0,
              _BASE, "amplitude 1: (1, 0)"),
    "apply-malformed": (["apply", "--input", "bad.json", "--gate", "x.json"], {}, 2, _BASE,
                        ""),
}


@pytest.mark.parametrize("case", list(CASES))
def test_command_loads_only_its_modules(case, workdir):
    argv, extra_env, status, modules, stdout = CASES[case]
    proc = subprocess.run([sys.executable, "-c", _RUNNER, *argv], cwd=workdir, env=_env(extra_env),
                          capture_output=True, text=True, timeout=120)
    *err, last = proc.stderr.splitlines()
    assert proc.returncode == status, proc.stderr
    if status == 2 and case != "usage-error":
        assert err and err[-1].startswith("error: "), proc.stderr
    assert stdout in proc.stdout
    assert last.split()[1:] == sorted(modules)


_LIBRARY = ("numpy", "quditkit", "quditkit.circuit", "quditkit.clifford", "quditkit.linalg",
            "quditkit.universality", "quditkit.verify", "quditkit.vocabulary", "quditkit.weyl")
IMPORTS = {
    "import quditkit": ("quditkit",),
    "from quditkit import cli": _PARSER,
    "from quditkit import universality as u": (
        "numpy", "quditkit", "quditkit.linalg", "quditkit.universality", "quditkit.vocabulary",
        "quditkit.weyl"),
    "import quditkit; quditkit.closure": _LIBRARY,
    "import quditkit; quditkit.__all__": _LIBRARY,
    "from quditkit import *": _LIBRARY,
}


@pytest.mark.parametrize("code", list(IMPORTS))
def test_import_loads_only_what_it_names(code):
    # a submodule name imports that module alone; a public name imports the library
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{_PRINT_LOADED}"],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split()[1:] == sorted(IMPORTS[code])


# ----------------------------------------------------------- traced benchmark

# The traced benchmark's own tracer, installed before any command has run:
# the defining modules' bindings are wrapped first and ``quditkit.cli``'s
# after them, so each cli name is first read after its defining module's
# function already carries a wrapper.
_BINDINGS_PROBE = """
import importlib.util, json, sys
from pathlib import Path

perfbench = Path(sys.argv[1])
sys.path.insert(0, str(perfbench))
spec = importlib.util.spec_from_file_location("perfbench_layers", perfbench / "layers.py")
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)

from quditkit import cli

tracer = layers.Tracer()
tracer.instrument(layers.BINDINGS)
tracer.current_pass = 1

state = {"l": 3, "n": 2, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 8}
Path("state.json").write_text(json.dumps(state))
session = [
    ["generate", "--set", "generalized", "--dim", "3", "--sites", "2", "--output", "gen"],
    ["closure", "--input", "gen"],
    ["closure", "--set", "qudit-universal", "--dim", "3"],
    ["decompose", "--input", "gen/generalized-0.json", "--output", "coef.json"],
    ["qft", "--dim", "3", "--normalized", "--output", "qft3.json"],
    ["apply", "--input", "state.json", "--gate", "qft3.json", "--sites", "2",
     "--output", "s1.json"],
    ["verify", "--dim", "3", "--sites", "1"],
]
for argv in session:
    assert cli.main(argv) == 0, argv
called = {tracer.names[i] for i in tracer.columns()["name_id"].tolist()}
metrics = layers.pass_layer_metrics(tracer)[1]
tracer.restore()
cli_spans = [span for module, _, span, _ in layers.BINDINGS if module == "quditkit.cli"]
print(json.dumps({"cli_spans": cli_spans, "called": sorted(called),
                  "calls": {k: v for k, v in metrics.items() if k.endswith(".calls")}}))
"""

# one count per call, the same whether the names were bound before the
# tracer or after it: two closures, the generate and closure --set named
# sets, weyl_decompose once in decompose and three times in verify, four
# generator files read back
SESSION_CALLS = {
    "cli.main.calls": 7,
    "universality.closure.calls": 2,
    "clifford.named_generator_set.calls": 2,
    "weyl.weyl_decompose.calls": 4,
    "circuit.apply_kgate.calls": 1,
    "verify.run_verification.calls": 1,
    "serialize.load.calls": 7,
    "serialize.save.calls": 7,
}


def test_traced_cli_bindings_resolve_and_count_each_call_once(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _BINDINGS_PROBE, str(_ROOT / "perfbench")],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # every wrapped cli binding is the function its command called
    assert set(seen["cli_spans"]) <= set(seen["called"])
    assert {k: seen["calls"][k] for k in SESSION_CALLS} == SESSION_CALLS
