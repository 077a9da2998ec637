"""Peak memory and time of a closure: the dense engine on a seeded random pair, or a named set.

Run from the repository root:

    PYTHONPATH=src python tests/dense_peaks.py [real|complex] [d ...]
    PYTHONPATH=src python tests/dense_peaks.py set NAME l n

The first form runs each size in its own child process, which decides two
seeded complex Gaussian d x d matrices with ``closure`` and prints the
achieved dimension, the closure's wall time and its own ``ru_maxrss``.  The
defaults are real mode at d = 32, 48 and 64.  The second form runs one
``python -m quditkit closure --set NAME --dim l --sites n --max-dim l^n``
process and prints its report's dimensions, the process's wall time and its
``ru_maxrss``.  This launcher imports nothing heavy, so it stays far below
every child's peak, which Linux starts at the peak of the process it forks
from.  Each line ends with the glibc ``MALLOC_*`` settings of the
environment the children inherit, since the allocator's mmap threshold and
top pad move both ``ru_maxrss`` and the wall time.
"""

import os
import subprocess
import sys
import time

CHILD = """
import resource, sys, time
import numpy as np
from quditkit import COMPLEX_TRACELESS, REAL_ANTIHERMITIAN, closure, prepare_generators
d, mode = int(sys.argv[1]), {"real": REAL_ANTIHERMITIAN, "complex": COMPLEX_TRACELESS}[sys.argv[2]]
rng = np.random.default_rng(1)
pair = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
start = time.perf_counter()
result = closure(prepare_generators(pair, mode))
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"{sys.argv[2]} d={d}: {result.achieved_dim} of {result.target_dim} in {seconds:.2f} s, peak {peak:.0f} MB")
"""


def malloc_settings() -> str:
    """The ``MALLOC_*`` variables of the environment, or a note that none is set."""
    found = [f"{key}={value}" for key, value in sorted(os.environ.items()) if key.startswith("MALLOC_")]
    return " ".join(found) or "no MALLOC_* set"


def named_set(name: str, l: int, n: int) -> None:
    d = l**n
    argv = [sys.executable, "-m", "quditkit", "closure", "--set", name,
            "--dim", str(l), "--sites", str(n), "--max-dim", str(d)]
    read_end, write_end = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, write_end, 1), (os.POSIX_SPAWN_CLOSE, read_end)])
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        lines = pipe.read().splitlines()
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"closure exited with status {os.waitstatus_to_exitcode(status)}")
    report = dict(line.split(": ", 1) for line in lines)
    print(f"{name} d={d} (l={l}, n={n}): {report['achieved-dim']} of {report['target-dim']} "
          f"in {seconds:.2f} s, peak {usage.ru_maxrss / 1024:.0f} MB, {malloc_settings()}")


def main(argv):
    if argv[:1] == ["set"]:
        _, name, l, n = argv
        named_set(name, int(l), int(n))
        return
    mode = argv.pop(0) if argv and argv[0] in ("real", "complex") else "real"
    for d in argv or ["32", "48", "64"]:
        child = subprocess.run([sys.executable, "-c", CHILD, d, mode], check=True, stdout=subprocess.PIPE, text=True)
        print(f"{child.stdout.strip()}, {malloc_settings()}")


if __name__ == "__main__":
    main(sys.argv[1:])
