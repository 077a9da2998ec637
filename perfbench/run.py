"""Benchmark entry point: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload closure-named --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the package is imported from
``./src``).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details (seed, environment, every sample).  Both, and
the traced run's spans, are also written under ``.perfbench_out/``.

``--trace 0`` reports the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` is a separate run that alternates untraced and
traced passes and reports the per-layer metrics, the tracing overhead and
how much of the traced pass the spans account for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 10
STARTUP_SAMPLES = 10
# An end-to-end median never rests on a single pass.
MIN_PASSES = 2

END_TO_END = {"solve_s": "s", "startup_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cap_threads(nproc: int) -> dict:
    """Keep any thread count set in the environment at or below ``nproc``.

    Must run before numpy is imported.  Returns the values as found.
    """
    found = {var: os.environ.get(var) for var in THREAD_VARS}
    for var, value in found.items():
        if value is not None and value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)
    return found


def environment(root: Path, found_threads: dict) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (root / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                     text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            git_sha = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env_found": found_threads,
        "thread_env_used": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


def tail_percentile(samples):
    """Highest of the usual percentiles with at least ten samples above it, or None."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if round(n * (100 - p) / 100, 6) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return {"p": p, "value": cuts[int(round(p * 10)) - 1]}
    return None


def another_pass(elapsed: float, passes, reserved: float, seconds: float, at_least: int) -> bool:
    """Whether one more pass, as long as the slowest so far, still ends within ``seconds``.

    ``reserved`` is time still owed to other work of the run.
    """
    if len(passes) < at_least:
        return True
    return elapsed + max(passes) + reserved <= seconds


def probe_schedule(setup: int, startup: int):
    """The fresh-interpreter probes in run order, the two kinds evenly interleaved."""
    return [kind for _, kind in sorted(
        [(i / setup, "setup") for i in range(setup)]
        + [((i + 0.5) / startup, "startup") for i in range(startup)])]


def end_to_end(workload, inputs, seed, seconds, python, env, workdir):
    from workloads import run_child

    code = "import quditkit\n" + workload.setup_code.replace("{seed}", str(seed))
    argv = {"setup": [python, "-c", code], "startup": [python, "-m", "quditkit", "--version"]}
    # The probes run between operations, one falling due every
    # seconds / len(probes), so their medians sample the whole run.
    probes = probe_schedule(SETUP_SAMPLES, STARTUP_SAMPLES)
    samples = {"setup": [], "startup": []}
    failed, attempted = [], 0

    def probe_until(elapsed):
        nonlocal attempted
        while len(samples["setup"]) + len(samples["startup"]) < len(probes):
            k = len(samples["setup"]) + len(samples["startup"])
            if k * seconds / len(probes) > elapsed:
                return
            child = run_child(argv[probes[k]], env, workdir)
            samples[probes[k]].append(child.wall_s)
            attempted += 1
            if child.returncode != 0:
                failed.append(probes[k])

    def probes_left_s():
        done = samples["setup"] + samples["startup"]
        return (len(probes) - len(done)) * (max(done) if done else 0.0)

    workload.warm_up(inputs)
    gc.collect()
    passes, child_peak = [], None
    began = time.perf_counter()
    while True:
        workload.start_pass(inputs)
        outputs, pass_s = [], 0.0
        for op in workload.operations(inputs):
            probe_until(time.perf_counter() - began)
            t0 = time.perf_counter()
            outputs.append(op())
            pass_s += time.perf_counter() - t0
        passes.append(pass_s)
        outcome = workload.check(inputs, outputs)
        attempted += outcome.attempted
        failed += outcome.failed
        peak = workload.peak_rss_mb(outputs)
        if peak is not None:
            child_peak = peak if child_peak is None else max(child_peak, peak)
        # A checked pass is dropped, and its reference cycles collected, so the
        # process's peak RSS does not grow with the number of passes that fit
        # in the run, nor carry one pass's garbage into the next.
        del outputs
        gc.collect()
        if not another_pass(time.perf_counter() - began, passes, probes_left_s(), seconds,
                            MIN_PASSES):
            break
    probe_until(float("inf"))
    setup, startup = samples["setup"], samples["startup"]

    if child_peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = child_peak
    metrics = {
        "solve_s": statistics.median(passes),
        "startup_s": statistics.median(startup),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
    }
    detail = {"pass_s": passes, "samples": len(passes), "tail": tail_percentile(passes),
              "setup_samples_s": setup, "startup_samples_s": startup}
    return metrics, {k: END_TO_END[k] for k in metrics}, attempted, failed, detail


def traced(workload, inputs, seconds, out_dir: Path):
    from layers import BINDINGS, PER_LAYER, derive, pass_layer_metrics
    from spans import Tracer

    failed, attempted = [], 0
    extra, outcome = workload.extra_layer_metrics(inputs)
    attempted += outcome.attempted
    failed += outcome.failed

    workload.trace_warm_up(inputs)
    tracer = Tracer()
    untraced, traced_s = [], {}
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs = workload.trace_pass(inputs)
        untraced.append(time.perf_counter() - t0)
        outcome = workload.check(inputs, outputs)
        attempted += outcome.attempted
        failed += outcome.failed

        tracer.current_pass = len(untraced)
        tracer.instrument(BINDINGS)
        try:
            t0 = time.perf_counter()
            outputs = workload.trace_pass(inputs)
            traced_s[tracer.current_pass] = time.perf_counter() - t0
        finally:
            tracer.restore()
        outcome = workload.check(inputs, outputs)
        attempted += outcome.attempted
        failed += outcome.failed
        if not another_pass(time.perf_counter() - began,
                            [u + t for u, t in zip(untraced, traced_s.values())], 0.0, seconds, 1):
            break

    per_pass = {p: derive(m) for p, m in pass_layer_metrics(tracer).items()}
    for p, m in per_pass.items():
        m["trace.solve_traced_s"] = traced_s[p]
        m["trace.remainder_s"] = traced_s[p] - m["trace.span_self_sum_s"]
    metrics = {}
    for name in PER_LAYER:
        values = [m.get(name, 0) for m in per_pass.values()]
        metrics[name] = statistics.median(values) if values else 0
    metrics.update(extra)
    metrics["trace.solve_untraced_s"] = statistics.median(untraced)
    # Each traced pass against the untraced pass just before it, so a drift in
    # machine speed over the run does not enter the difference.
    metrics["trace.overhead_s"] = statistics.median(
        traced_s[p] - u for p, u in enumerate(untraced, start=1))
    # One spans file per workload (the latest traced run), as they reach ~20 MB.
    spans_file = out_dir / f"{workload.name}-spans.npz"
    tracer.write(spans_file)
    detail = {"untraced_pass_s": untraced, "traced_pass_s": list(traced_s.values()),
              "spans": len(tracer.start), "spans_file": spans_file.name}
    return metrics, PER_LAYER, attempted, failed, detail


def run_all(names, args) -> int:
    """Run each workload in its own process, one after another, and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(result)}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "quditkit" / "__init__.py").is_file():
        print(f"error: {root} has no src/quditkit; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    found_threads = cap_threads(os.cpu_count() or 1)
    sys.path.insert(0, str(root / "src"))

    from workloads import WORKLOADS, child_env

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(root)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        inputs = workload.make_inputs(args.seed, workdir, env)
        if args.trace:
            result = traced(workload, inputs, args.seconds, out_dir)
        else:
            result = end_to_end(workload, inputs, args.seed, args.seconds, sys.executable,
                                env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, units, attempted, failed, detail = result

    detail.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "failed_operations": failed,
                   "environment": environment(root, found_threads)})
    final = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": final},
                                                     indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
