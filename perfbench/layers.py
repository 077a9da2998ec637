"""Which package bindings the traced run wraps, and the per-layer metrics they give.

Each binding is a public function as it is bound in the module that calls
it: ``quditkit.weyl.hs_inner`` is the name ``weyl_decompose`` looks up,
``quditkit.cli.closure`` the one the ``closure`` command looks up.  Both
bindings of one function share a span name, so its count covers every
caller.  Computed quantities (flops, bytes) come from argument shapes and
file sizes, not from measurement.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from spans import NO_PARENT, Tracer, self_times

MODULES = ("universality", "linalg", "weyl", "clifford", "circuit", "serialize", "verify", "cli")


def _rounds(args, kwargs, result):
    return [("universality.closure.rounds", result.rounds)]


def _candidate(args, kwargs, result):
    d = args[0].shape[0]
    return [("universality.commutator_flop", 16 * d**3)]


def _extend(args, kwargs, result):
    basis, candidate = args[0], args[1]
    d = candidate.shape[0]
    return [("universality.accepted", int(result.accepted)),
            ("linalg.orthonormal_extend.flop", 32 * d * d * len(basis))]


def _kgate_bytes(args, kwargs, result):
    gate, state = args[0], args[1]
    return [("circuit.apply_kgate.bytes",
             2 * state.amplitudes.nbytes + gate.matrix.nbytes)]


def _checks(args, kwargs, result):
    return [("verify.checks", len(result.checks))]


def _file_bytes(key):
    def count(args, kwargs, result):
        return [(key, os.path.getsize(args[0]))]
    return count


_load, _save = _file_bytes("serialize.load.bytes"), _file_bytes("serialize.save.bytes")

# (module, attribute, span name, count hook)
BINDINGS = [
    ("quditkit.universality", "closure", "universality.closure", _rounds),
    ("quditkit.universality", "prepare_generators", "universality.prepare_generators", None),
    ("quditkit.universality", "hs_norm", "linalg.hs_norm", _candidate),
    ("quditkit.universality", "orthonormal_extend", "linalg.orthonormal_extend", _extend),
    ("quditkit.linalg", "hs_inner", "linalg.hs_inner", None),
    ("quditkit.weyl", "hs_inner", "linalg.hs_inner", None),
    ("quditkit.weyl", "weyl_decompose", "weyl.weyl_decompose", None),
    ("quditkit.weyl", "weyl_reconstruct", "weyl.weyl_reconstruct", None),
    ("quditkit.weyl", "weyl_element", "weyl.weyl_element", None),
    ("quditkit.clifford", "named_generator_set", "clifford.named_generator_set", None),
    ("quditkit.clifford", "clifford_generators", "clifford.clifford_generators", None),
    ("quditkit.clifford", "generalized_generators", "clifford.generalized_generators", None),
    ("quditkit.clifford", "canonical_generators", "clifford.canonical_generators", None),
    ("quditkit.clifford", "commutation_matrix", "clifford.commutation_matrix", None),
    ("quditkit.circuit", "apply_kgate", "circuit.apply_kgate", _kgate_bytes),
    ("quditkit.circuit", "embed_kgate", "circuit.embed_kgate", None),
    ("quditkit.verify", "run_verification", "verify.run_verification", _checks),
    ("quditkit.cli", "main", "cli.main", None),
    ("quditkit.cli", "closure", "universality.closure", _rounds),
    ("quditkit.cli", "prepare_generators", "universality.prepare_generators", None),
    ("quditkit.cli", "named_generator_set", "clifford.named_generator_set", None),
    ("quditkit.cli", "weyl_decompose", "weyl.weyl_decompose", None),
    ("quditkit.cli", "weyl_reconstruct", "weyl.weyl_reconstruct", None),
    ("quditkit.cli", "apply_kgate", "circuit.apply_kgate", _kgate_bytes),
    ("quditkit.cli", "run_verification", "verify.run_verification", _checks),
    ("quditkit.cli", "load_matrix", "serialize.load_matrix", _load),
    ("quditkit.cli", "load_state", "serialize.load_state", _load),
    ("quditkit.cli", "save_matrix", "serialize.save_matrix", _save),
    ("quditkit.cli", "save_state", "serialize.save_state", _save),
    ("quditkit.cli", "save_weyl_coefficients", "serialize.save_weyl_coefficients", _save),
]

# Metric group -> span names it sums over.
GROUPS = {
    "universality.closure": ["universality.closure"],
    "universality.prepare_generators": ["universality.prepare_generators"],
    "linalg.hs_norm": ["linalg.hs_norm"],
    "linalg.orthonormal_extend": ["linalg.orthonormal_extend"],
    "linalg.hs_inner": ["linalg.hs_inner"],
    "weyl.weyl_decompose": ["weyl.weyl_decompose"],
    "weyl.weyl_element": ["weyl.weyl_element"],
    "weyl.weyl_reconstruct": ["weyl.weyl_reconstruct"],
    "clifford.named_generator_set": ["clifford.named_generator_set"],
    "clifford.families": ["clifford.clifford_generators", "clifford.generalized_generators",
                          "clifford.canonical_generators"],
    "clifford.commutation_matrix": ["clifford.commutation_matrix"],
    "circuit.apply_kgate": ["circuit.apply_kgate"],
    "circuit.embed_kgate": ["circuit.embed_kgate"],
    "serialize.load": ["serialize.load_matrix", "serialize.load_state"],
    "serialize.save": ["serialize.save_matrix", "serialize.save_state",
                       "serialize.save_weyl_coefficients"],
    "verify.run_verification": ["verify.run_verification"],
    "cli.main": ["cli.main"],
}


def pass_layer_metrics(tracer: Tracer) -> Dict[int, Dict[str, float]]:
    """Per-layer metrics of each traced pass recorded by ``tracer``, keyed by pass id."""
    cols = tracer.columns()
    names = tracer.names
    group_names = list(GROUPS)
    group_of = np.full(len(names), -1, dtype=np.int64)
    for g, members in enumerate(GROUPS.values()):
        for member in members:
            if member in names:
                group_of[names.index(member)] = g
    nid, parent, pass_id = cols["name_id"], cols["parent"], cols["pass_id"]
    # Busy time sums a group's spans, which counts each moment once only if
    # no binding calls another binding of its own group.
    kids = np.flatnonzero(parent != NO_PARENT)
    nested = kids[group_of[nid[kids]] == group_of[nid[parent[kids]]]]
    if nested.size:
        raise ValueError(f"span {names[nid[nested[0]]]} nests inside its own group")
    dur = cols["end"] - cols["start"]
    self_t = self_times(cols["start"], cols["end"], parent)
    module_of = np.array([MODULES.index(n.split(".")[0]) for n in names], dtype=np.int64)

    results = {}
    for p in sorted(set(pass_id.tolist())):
        in_pass = pass_id == p
        g = group_of[nid[in_pass]]
        calls = np.bincount(g, minlength=len(group_names))
        busy = np.bincount(g, weights=dur[in_pass], minlength=len(group_names))
        self_m = np.bincount(module_of[nid[in_pass]], weights=self_t[in_pass],
                             minlength=len(MODULES))
        m: Dict[str, float] = {}
        for i, group in enumerate(group_names):
            m[f"{group}.calls"] = int(calls[i])
            m[f"{group}.busy_s"] = float(busy[i])
        for i, module in enumerate(MODULES):
            m[f"{module}.self_s"] = float(self_m[i])
        # cli.main is the only span of the cli module.
        m["cli.main.self_s"] = m.pop("cli.self_s")
        m["trace.span_self_sum_s"] = float(self_t[in_pass].sum())
        for (cp, key), value in tracer.counts.items():
            if cp == p:
                m[key] = value
        results[p] = m
    return results


def derive(m: Dict[str, float]) -> Dict[str, float]:
    """Add the metrics computed from other metrics of the same pass."""
    m = dict(m)
    attempts = m.get("linalg.orthonormal_extend.calls", 0)
    accepted = m.get("universality.accepted", 0)
    m["universality.candidates"] = m.get("linalg.hs_norm.calls", 0)
    m["universality.extend_attempts"] = attempts
    m["universality.accept_ratio"] = accepted / attempts if attempts else 0.0
    m["universality.commutator_gflop"] = m.get("universality.commutator_flop", 0) / 1e9
    m["linalg.orthonormal_extend.gflop"] = m.get("linalg.orthonormal_extend.flop", 0) / 1e9
    return m


# Every per-layer metric the traced run reports, with its unit.  A layer the
# workload never calls reads 0.
PER_LAYER = {
    "universality.closure.busy_s": "s",
    "universality.closure.rounds": "count",
    "universality.prepare_generators.busy_s": "s",
    "universality.candidates": "count",
    "universality.extend_attempts": "count",
    "universality.accepted": "count",
    "universality.accept_ratio": "ratio",
    "universality.commutator_gflop": "GFLOP",
    "linalg.orthonormal_extend.calls": "count",
    "linalg.orthonormal_extend.busy_s": "s",
    "linalg.orthonormal_extend.gflop": "GFLOP",
    "linalg.hs_inner.calls": "count",
    "linalg.hs_inner.busy_s": "s",
    "weyl.weyl_decompose.calls": "count",
    "weyl.weyl_decompose.busy_s": "s",
    "weyl.weyl_element.calls": "count",
    "weyl.weyl_element.busy_s": "s",
    "weyl.weyl_reconstruct.busy_s": "s",
    "clifford.named_generator_set.busy_s": "s",
    "clifford.families.busy_s": "s",
    "clifford.commutation_matrix.calls": "count",
    "clifford.commutation_matrix.busy_s": "s",
    "circuit.apply_kgate.calls": "count",
    "circuit.apply_kgate.busy_s": "s",
    "circuit.apply_kgate.bytes": "bytes",
    "circuit.embed_kgate.busy_s": "s",
    "serialize.load.calls": "count",
    "serialize.load.busy_s": "s",
    "serialize.load.bytes": "bytes",
    "serialize.save.calls": "count",
    "serialize.save.busy_s": "s",
    "serialize.save.bytes": "bytes",
    "verify.run_verification.busy_s": "s",
    "verify.checks": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.generate_s": "s",
    "cli.closure_s": "s",
    "cli.decompose_s": "s",
    "cli.qft_s": "s",
    "cli.apply_s": "s",
    "cli.verify_s": "s",
    "cli.main.self_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES if module != "cli"},
    "trace.solve_untraced_s": "s",
    "trace.solve_traced_s": "s",
    "trace.overhead_s": "s",
    "trace.span_self_sum_s": "s",
    "trace.remainder_s": "s",
}
