"""Flat-file formats shared by the CLI.

Every document is one JSON object: its integer header fields, one per
line, then one list, with every float written as a 17-significant-digit
decimal, which round-trips IEEE doubles exactly and keeps files diffable
across implementations.  One writer produces all four layouts and raises
``ValueError`` on a non-finite value, before it creates the file.

    matrix:        {"dim": d, "entries": [[re, im], ...]}      length d*d, row-major
    state:         {"l": l, "n": n, "amplitudes": [[re, im], ...]}  length l^n
    function:      {"l": l, "values": [v0, ..., v_{l-1}]}
    coefficients:  {"l": l, "coefficients": [[re, im], ...]}   length l*l,
                   row-major over (shift power, clock power)

Loaders raise :class:`FormatError` on any structural problem.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from .circuit import QuditState

__all__ = [
    "FormatError",
    "format_float",
    "save_matrix",
    "load_matrix",
    "save_state",
    "load_state",
    "save_function_table",
    "load_function_table",
    "save_weyl_coefficients",
    "load_weyl_coefficients",
]

PathLike = Union[str, Path]


class FormatError(ValueError):
    """A document does not match its declared schema."""


def format_float(x: float) -> str:
    """17-significant-digit decimal; exact round-trip for float64."""
    return format(float(x), ".17g")


def _pair_list(values: Sequence[complex]) -> str:
    # "%.17g" % x is format(x, ".17g") for a float, so this is format_float per part
    flat = np.ascontiguousarray(values, dtype=complex).view(np.float64).tolist()
    return ", ".join(["[%.17g, %.17g]"] * (len(flat) // 2)) % tuple(flat)


def _read_json(path: PathLike) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


def _get_int(data: dict, key: str, path: PathLike, minimum: int) -> int:
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise FormatError(f"{path}: field {key!r} must be an integer >= {minimum}")
    return value


def _get_pairs(data: dict, key: str, path: PathLike, expected: int) -> np.ndarray:
    raw = data.get(key)
    if not isinstance(raw, list) or len(raw) != expected:
        raise FormatError(f"{path}: field {key!r} must be a list of {expected} [re, im] pairs")
    # Exact type checks: bool is an int subclass and is refused like a string.
    if not (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, chain.from_iterable(raw))) <= {int, float}
    ):
        for idx, pair in enumerate(raw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(type(v) in (int, float) for v in pair)
            ):
                raise FormatError(f"{path}: {key}[{idx}] is not a [re, im] pair")
    try:
        out = np.array(raw, dtype=np.float64)
        finite = np.all(np.isfinite(out))
    except OverflowError:  # an integer literal past the double range, like 1e999
        finite = False
    if not finite:
        raise FormatError(f"{path}: field {key!r} contains non-finite values")
    return out.view(complex).reshape(expected)


def _write(path: PathLike, header: Dict[str, int], key: str, body: str) -> None:
    """Write one document: the integer header fields in order, then the list ``key``."""
    # "%.17g" writes a non-finite double as inf, -inf or nan, which no JSON reader
    # accepts, and a finite one or an integer with no "n"; one memchr scans for it
    if "n" in body:
        raise ValueError(f"{path}: field {key!r} contains non-finite values")
    fields = "".join(f'  "{name}": {value},\n' for name, value in header.items())
    Path(path).write_text(f'{{\n{fields}  "{key}": [{body}]\n}}\n')


def _square(table: np.ndarray, what: str) -> np.ndarray:
    t = np.asarray(table, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"{what} must be square, got shape {t.shape}")
    return t


def _load_square(path: PathLike, size_key: str, minimum: int, key: str) -> np.ndarray:
    data = _read_json(path)
    size = _get_int(data, size_key, path, minimum)
    return _get_pairs(data, key, path, size * size).reshape(size, size)


def save_matrix(path: PathLike, matrix: np.ndarray) -> None:
    m = _square(matrix, "matrix")
    _write(path, {"dim": m.shape[0]}, "entries", _pair_list(m.ravel()))


def load_matrix(path: PathLike) -> np.ndarray:
    return _load_square(path, "dim", 1, "entries")


def save_state(path: PathLike, state: QuditState) -> None:
    _write(path, {"l": state.l, "n": state.n}, "amplitudes", _pair_list(state.amplitudes))


def load_state(path: PathLike) -> QuditState:
    data = _read_json(path)
    l = _get_int(data, "l", path, 2)
    n = _get_int(data, "n", path, 1)
    # l**n >= 2**(n * (bits(l) - 1)).  Past 2**64 no list is that long, and
    # the power itself could take any time and memory to form.
    if n * (l.bit_length() - 1) > 64:
        raise FormatError(
            f"{path}: field 'amplitudes' must be a list of {l}^{n} [re, im] pairs"
        )
    amplitudes = _get_pairs(data, "amplitudes", path, l**n)
    return QuditState(l, n, amplitudes)


def save_function_table(path: PathLike, values: Sequence[int], l: int) -> None:
    _write(path, {"l": int(l)}, "values", ", ".join(str(int(v)) for v in values))


def load_function_table(path: PathLike) -> tuple[List[int], int]:
    data = _read_json(path)
    l = _get_int(data, "l", path, 2)
    raw = data.get("values")
    if not isinstance(raw, list) or len(raw) != l:
        raise FormatError(f"{path}: field 'values' must be a list of {l} integers")
    values = []
    for idx, v in enumerate(raw):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < l:
            raise FormatError(f"{path}: values[{idx}] must be an integer in [0, {l})")
        values.append(v)
    return values, l


def save_weyl_coefficients(path: PathLike, table: np.ndarray) -> None:
    t = _square(table, "coefficient table")
    _write(path, {"l": t.shape[0]}, "coefficients", _pair_list(t.ravel()))


def load_weyl_coefficients(path: PathLike) -> np.ndarray:
    return _load_square(path, "l", 2, "coefficients")
