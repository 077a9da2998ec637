"""Record SHA-256 digests of every file ``quditkit generate`` writes.

Run from the repository root to rewrite ``tests/data/generate_digests.json``:

    PYTHONPATH=src python tests/generate_digests.py

The grid covers each named set on small (l, n), ``qft`` with and without
``--normalized``, and ``weyl-pair`` and ``tau`` at l = 2, 3, 4, 5, 7;
``tests/test_clifford.py`` checks the files still match.  Each recorded
case whose files changed is printed as ``changed: <argv>``, so a rewrite
lists what it moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from quditkit.cli import main

DIGESTS_PATH = Path(__file__).parent / "data" / "generate_digests.json"
COMMAND = "PYTHONPATH=src python tests/generate_digests.py"


def generate_cases():
    """Each case is the argv after ``generate``, without ``--output``."""
    for n in (1, 2, 3, 4):
        yield ["--set", "clifford", "--dim", "2", "--sites", str(n)]
        yield ["--set", "biproducts", "--dim", "2", "--sites", str(n)]
        if n >= 2:
            yield ["--set", "clifford-universal", "--dim", "2", "--sites", str(n)]
    for name in ("generalized", "canonical", "qudit-universal"):
        for l, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (7, 1)):
            yield ["--set", name, "--dim", str(l), "--sites", str(n)]
    for l in (2, 3, 5, 7):
        yield ["--set", "qft", "--dim", str(l)]
        yield ["--set", "qft", "--dim", str(l), "--normalized"]
    for name in ("weyl-pair", "tau"):
        for l in (2, 3, 4, 5, 7):
            yield ["--set", name, "--dim", str(l)]


def digest_case(argv):
    """Map each written file's name to the SHA-256 of its bytes."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["generate", *argv, "--output", out])
        if code != 0:
            raise RuntimeError(f"generate {' '.join(argv)} exited {code}")
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(out).iterdir())
        }


def changed_cases(old, new):
    """The cases of ``old`` whose files or digests differ in ``new``, sorted."""
    return sorted(case for case, files in old.items() if new.get(case) != files)


def main_digests():
    cases = {" ".join(argv): digest_case(argv) for argv in generate_cases()}
    recorded = json.loads(DIGESTS_PATH.read_text())["cases"] if DIGESTS_PATH.exists() else {}
    DIGESTS_PATH.write_text(json.dumps({"command": COMMAND, "cases": cases}, indent=1, sort_keys=True) + "\n")
    for case in changed_cases(recorded, cases):
        print(f"changed: {case}")
    print(f"wrote {len(cases)} cases to {DIGESTS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main_digests()
