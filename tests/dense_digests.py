"""Record SHA-256 digests of the dense closure engine's bases.

Run from the repository root to rewrite ``tests/data/dense_digests.json``:

    PYTHONPATH=src python tests/dense_digests.py

The cases are the dense engine's test inputs, each in both modes: the
seeded random and block pairs of ``tests/test_real_arithmetic.py``
(d = 2..16), the early-stop pairs and triples and the tolerance-sweep pairs
of ``tests/test_closure_engine.py``, the acceptance sets, and every named
set with l^n <= 16.  Each case records the achieved dimension, the rounds,
the verdict and the digest of the basis bytes, so a change that must keep
every dense basis byte for byte is checked by ``tests/test_dense_digests.py``.
Each recorded case whose record changed is printed as ``changed: <case>``,
so a rewrite lists what it moved.

The bytes depend on how BLAS splits its sums: one OpenBLAS thread against
two moves 39 of the cases, and the Haswell kernels against the SkylakeX
ones move 179.  So the records are always computed in a child process
with one thread and the Haswell kernels, which any x86-64 CPU with AVX2
runs; ``--records`` prints them from the current process instead.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from quditkit import COMPLEX_TRACELESS, REAL_ANTIHERMITIAN, named_generator_set, prepare_generators
from quditkit.universality import _dense_closure
from test_closure_engine import ACCEPTANCE_SETS, _block_pair, _random_pair, _random_triple
from test_monomial_engine import NAMED_GRID

DIGESTS_PATH = Path(__file__).parent / "data" / "dense_digests.json"
COMMAND = "PYTHONPATH=src python tests/dense_digests.py"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}
MODES = (REAL_ANTIHERMITIAN, COMPLEX_TRACELESS)


def _inputs():
    """(label, matrices factory, tol) of each case before the mode is chosen."""
    for d in range(2, 17):
        yield f"random-pair {100 + d} d={d}", lambda d=d: _random_pair(100 + d, d), 1e-9
        a = d // 2
        yield f"block-pair {200 + d} {a}+{d - a}", lambda d=d, a=a: _block_pair(200 + d, a, d - a), 1e-9
    for seed, a, b in ((71, 2, 2), (72, 3, 3), (73, 2, 5), (74, 4, 4), (43, 6, 6)):
        yield f"block-pair {seed} {a}+{b}", lambda s=seed, a=a, b=b: _block_pair(s, a, b), 1e-9
    for seed, d in ((81, 2), (82, 3), (83, 4), (94, 4)):
        yield f"random-triple {seed} d={d}", lambda s=seed, d=d: _random_triple(s, d), 1e-9
    for seed, d in ((41, 16), (42, 12)):
        yield f"random-pair {seed} d={d}", lambda s=seed, d=d: _random_pair(s, d), 1e-9
    for tol in (1e-7, 1e-11):
        yield f"block-pair 43 4+3 tol={tol:g}", lambda: _block_pair(43, 4, 3), tol
    for label, make, _ in ACCEPTANCE_SETS:
        yield f"acceptance {label}", make, 1e-9
    for name, l, n in NAMED_GRID:
        yield f"named {name} l={l} n={n}", lambda name=name, l=l, n=n: named_generator_set(name, l, n), 1e-9


def dense_cases():
    """Map each case's key to ``(matrices factory, mode, tol)``."""
    return {
        f"{label} {mode}": (make, mode, tol) for label, make, tol in _inputs() for mode in MODES
    }


def record(result):
    """The recorded facts of one dense closure: its counts and its basis digest."""
    return {
        "achieved_dim": result.achieved_dim,
        "rounds": result.rounds,
        "universal": result.universal,
        "sha256": hashlib.sha256(np.stack(result.basis).tobytes()).hexdigest(),
    }


def child_records():
    """Every case's record, computed by ``--records`` in a child under ``BLAS_ENV``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--records"], env=env, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return json.loads(proc.stdout)


def main():
    if sys.argv[1:] == ["--records"]:
        print(json.dumps({
            key: record(_dense_closure(prepare_generators(make(), mode), tol=tol))
            for key, (make, mode, tol) in dense_cases().items()
        }))
        return
    cases = child_records()
    recorded = json.loads(DIGESTS_PATH.read_text())["cases"] if DIGESTS_PATH.exists() else {}
    DIGESTS_PATH.write_text(json.dumps({"command": COMMAND, "cases": cases}, indent=1, sort_keys=True) + "\n")
    for key in sorted(key for key, facts in recorded.items() if cases.get(key) != facts):
        print(f"changed: {key}")
    print(f"wrote {len(cases)} cases to {DIGESTS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
