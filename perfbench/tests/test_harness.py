"""Self-check of the benchmark harness.

    python3 -m pytest -q perfbench/tests

The smoke tests run every workload once in each mode (about three minutes
on a 2-core machine); the rest are quick unit checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NO_PARENT, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ------------------------------------------------------------------ spans


def test_tracer_records_parents_and_self_times_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    mod = types.ModuleType("fake_layer")
    mod.leaf = lambda dt: clock.advance(dt)

    def middle():
        clock.advance(1.0)
        mod.leaf(2.0)
        mod.leaf(3.0)
        clock.advance(0.5)

    def top():
        mod.middle()
        clock.advance(4.0)
        mod.leaf(1.0)

    mod.middle, mod.top = middle, top
    sys.modules["fake_layer"] = mod
    try:
        tracer.instrument([("fake_layer", "top", "t.top", None),
                           ("fake_layer", "middle", "t.middle", None),
                           ("fake_layer", "leaf", "t.leaf",
                            lambda a, k, r: [("t.leaf_seconds", a[0])])])
        tracer.current_pass = 7
        mod.top()
    finally:
        tracer.restore()
        del sys.modules["fake_layer"]
    assert mod.leaf is not None and mod.top is top  # bindings restored

    cols = tracer.columns()
    names = [tracer.names[i] for i in cols["name_id"]]
    assert names == ["t.top", "t.middle", "t.leaf", "t.leaf", "t.leaf"]
    assert cols["parent"].tolist() == [NO_PARENT, 0, 1, 1, 0]
    assert cols["pass_id"].tolist() == [7] * 5
    assert (cols["end"] - cols["start"]).tolist() == [11.5, 6.5, 2.0, 3.0, 1.0]
    st = self_times(cols["start"], cols["end"], cols["parent"])
    assert st.tolist() == [4.0, 1.5, 2.0, 3.0, 1.0]
    assert st.sum() == 11.5  # self times add up to the top-level span
    assert tracer.counts[(7, "t.leaf_seconds")] == 6.0


def test_a_span_nested_in_its_own_group_is_refused():
    tracer = Tracer(clock=FakeClock())
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda: None
    mod.outer = lambda: mod.inner()
    sys.modules["fake_layer"] = mod
    try:
        tracer.instrument([("fake_layer", "outer", "universality.closure", None),
                           ("fake_layer", "inner", "universality.closure", None)])
        mod.outer()
    finally:
        tracer.restore()
        del sys.modules["fake_layer"]
    with pytest.raises(ValueError, match="nests inside its own group"):
        layers.pass_layer_metrics(tracer)


def test_every_binding_has_a_group_and_a_module():
    grouped = {name for members in layers.GROUPS.values() for name in members}
    for module, attribute, span, _ in layers.BINDINGS:
        assert span in grouped, span
        assert span.split(".")[0] in layers.MODULES
        assert hasattr(__import__(module, fromlist=["_"]), attribute), (module, attribute)


# ---------------------------------------------------------------- metric names


def test_printed_metric_names_and_units_are_declared():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.END_TO_END == declared
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers.PER_LAYER == declared
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------- references


def test_weyl_reference_matches_the_trace_formula():
    rng = np.random.default_rng(0)
    for l in (2, 3, 5):
        m = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        shift = np.roll(np.eye(l), 1, axis=1)
        clock = np.diag(np.exp(2j * np.pi * np.arange(l) / l))
        direct = np.array([[np.trace(m @ (np.linalg.matrix_power(shift, a)
                                          @ np.linalg.matrix_power(clock, b)).conj().T) / l
                            for b in range(l)] for a in range(l)])
        assert np.max(np.abs(workloads.weyl_coefficients(m) - direct)) < 1e-12


def test_site_contraction_reference_matches_kron_embedding():
    rng = np.random.default_rng(1)
    l, n = 2, 4
    psi = rng.standard_normal(l**n) + 1j * rng.standard_normal(l**n)
    gate = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # sites (3, 1): gate digit 0 on site 3, digit 1 on site 1 -> permute to (3, 1, 2, 4).
    order = [2, 0, 1, 3]
    t = psi.reshape((l,) * n).transpose(order).reshape(-1)
    t = (np.kron(gate, np.eye(l**2)) @ t).reshape((l,) * n)
    expected = t.transpose(np.argsort(order)).reshape(-1)
    got = workloads.apply_on_sites(psi, l, n, gate, (3, 1))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_expected_verify_grid_sizes():
    assert sum(workloads.expected_checks((2, 3, 4, 5), (1, 2)).values()) == 78
    assert sum(workloads.expected_checks((7,), (1,)).values()) == 15


def test_closure_check_flags_a_wrong_dimension():
    from quditkit.universality import ClosureResult

    good = ClosureResult(80, 80, (), 2, 1e-9, True)
    bad = ClosureResult(79, 80, (), 2, 1e-9, False)
    expected = [("a", 80, 80, True), ("b", 80, 80, True), ("c", 80, 80, True)]
    outcome = workloads._closure_outcome([good, bad, RuntimeError("boom")], expected)
    assert outcome.attempted == 3 and outcome.failed == ["b", "c"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile(list(range(20)))["p"] == 50
    assert run.tail_percentile(list(range(200)))["p"] == 95


# ---------------------------------------------------------------- end to end


def _run(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "verify-grid", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


_PEAK_SCRIPT = """
import sys
from pathlib import Path
sys.path[:0] = [{bench!r}, {src!r}]
import numpy as np
import run, workloads

class Big(workloads.Workload):
    setup_code = "pass"
    def warm_up(self, inputs):
        pass
    def operations(self, inputs):
        return [lambda: np.ones(5_000_000)]  # 40 MB kept as the pass's output
    def check(self, inputs, outputs):
        return workloads.Outcome(len(outputs), [])

run.SETUP_SAMPLES = run.STARTUP_SAMPLES = 1
run.MIN_PASSES = int(sys.argv[1])
env = workloads.child_env(Path({root!r}))
metrics = run.end_to_end(Big(), None, 1, 0.0, sys.executable, env, Path(sys.argv[2]))[0]
print(metrics["peak_rss_mb"])
"""


def test_peak_rss_does_not_grow_with_the_number_of_passes(tmp_path):
    script = _PEAK_SCRIPT.format(bench=str(BENCH_DIR), src=str(ROOT / "src"), root=str(ROOT))
    peaks = []
    for passes in (1, 6):
        proc = subprocess.run([sys.executable, "-c", script, str(passes), str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peaks.append(float(proc.stdout.split()[-1]))
    assert abs(peaks[1] - peaks[0]) < 20, peaks


def test_probes_of_both_kinds_are_interleaved():
    order = run.probe_schedule(10, 10)
    assert order == ["setup", "startup"] * 10


# Layers each workload must reach (nonzero) and must leave alone (zero).
EXERCISED = {
    "closure-named": (["universality.closure.busy_s", "linalg.orthonormal_extend.calls",
                       "linalg.hs_inner.calls", "clifford.named_generator_set.busy_s",
                       "clifford.families.busy_s", "universality.commutator_gflop"],
                      ["weyl.weyl_decompose.calls", "circuit.apply_kgate.calls",
                       "serialize.load.calls"]),
    "closure-generic": (["universality.closure.busy_s", "universality.accept_ratio",
                         "linalg.orthonormal_extend.gflop"],
                        ["clifford.named_generator_set.busy_s", "weyl.weyl_decompose.calls"]),
    "verify-grid": (["weyl.weyl_decompose.calls", "weyl.weyl_element.busy_s",
                     "clifford.commutation_matrix.calls", "circuit.apply_kgate.bytes",
                     "circuit.embed_kgate.busy_s", "verify.checks"],
                    ["universality.closure.busy_s", "linalg.orthonormal_extend.calls"]),
    "cli-session": (["cli.import_s", "cli.apply_s", "cli.main.self_s", "serialize.load.bytes",
                     "serialize.save.bytes", "universality.closure.rounds",
                     "weyl.weyl_decompose.calls", "circuit.apply_kgate.calls"],
                    ["circuit.embed_kgate.busy_s"]),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_pass_is_correct_and_complete(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    must, must_not = EXERCISED[name]
    assert all(values[k] > 0 for k in must), {k: values[k] for k in must}
    assert all(values[k] == 0 for k in must_not), {k: values[k] for k in must_not}
    # The spans account for the traced pass up to the untraced remainder.
    assert values["trace.span_self_sum_s"] <= values["trace.solve_traced_s"]
    assert 0 <= values["trace.remainder_s"] < 0.05 * values["trace.solve_traced_s"]
    module_sum = sum(values[f"{m}.self_s"] for m in layers.MODULES if m != "cli")
    assert module_sum + values["cli.main.self_s"] == pytest.approx(
        values["trace.span_self_sum_s"], rel=1e-9, abs=1e-9)
