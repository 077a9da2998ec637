"""Peak memory and time of the dense closure engine on a seeded random pair.

Run from the repository root:

    PYTHONPATH=src python tests/dense_peaks.py [real|complex] [d ...]

Each size runs in its own child process, which decides two seeded complex
Gaussian d x d matrices with ``closure`` and prints the achieved dimension,
the closure's wall time and its own ``ru_maxrss``.  This launcher imports
nothing heavy, so it stays far below every child's peak, which Linux starts
at the peak of the process it forks from.  The defaults are real mode at
d = 32, 48 and 64.
"""

import subprocess
import sys

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


def main(argv):
    mode = argv.pop(0) if argv and argv[0] in ("real", "complex") else "real"
    for d in argv or ["32", "48", "64"]:
        subprocess.run([sys.executable, "-c", CHILD, d, mode], check=True)


if __name__ == "__main__":
    main(sys.argv[1:])
