"""Span recording around the package's public functions, from outside the package.

A :class:`Tracer` replaces a function as it is bound in a calling module
(``setattr(module, name, wrapper)``) with a wrapper that records one span
per call: span name, start, end, parent span and pass id.  Spans are kept
in memory in columnar arrays, so a pass with about a million calls costs
about 24 bytes per span, and written out once when the benchmark ends.

A binding may also carry a ``count`` hook that turns the call's arguments
and return value into named counts (accepted extensions, bytes written),
so ratios are measured at the same boundary as the time.

Self time is a span's duration minus the durations of its direct
children.  Summed over every span of a pass, self time equals the time
covered by the top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

NO_PARENT = -1


class Tracer:
    """In-memory span recorder; install wrappers with :meth:`instrument`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("H")
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.current_pass = 0
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, func: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """Return ``func`` wrapped so that each call records a span called ``name``."""
        nid = self._intern(name)
        clock, stack = self.clock, self._stack
        name_id, start, end, parent, pass_id = (
            self.name_id, self.start, self.end, self.parent, self.pass_id)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else NO_PARENT)
            pass_id.append(self.current_pass)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result):
                    self.counts[(self.current_pass, key)] += value
            return result

        return wrapper

    def instrument(self, bindings: Sequence[Tuple[str, str, str, Optional[Callable]]]) -> None:
        """Replace each ``module.attribute`` with a recording wrapper."""
        for module_name, attribute, span_name, count in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._restore.append((module, attribute, original))
            setattr(module, attribute, self.wrap(original, span_name, count))

    def restore(self) -> None:
        """Put every replaced binding back, newest first."""
        while self._restore:
            module, attribute, original = self._restore.pop()
            setattr(module, attribute, original)

    def columns(self) -> Dict[str, np.ndarray]:
        """Recorded spans as numpy columns (one row per span, in start order)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.uint16).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span and the name table to an ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), **self.columns())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    The tracer is single-threaded and stack-based, so a span's children run
    one after another inside it and never overlap.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    kids = np.flatnonzero(parent != NO_PARENT)
    return dur - np.bincount(parent[kids], weights=dur[kids], minlength=dur.size)
