"""File formats: exact roundtrips, digit discipline, and schema rejection."""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditkit import QuditState, basis_state, max_abs, qft_matrix
from quditkit.cli import main
from quditkit.serialize import (
    FormatError,
    format_float,
    load_function_table,
    load_matrix,
    load_state,
    load_weyl_coefficients,
    save_function_table,
    save_matrix,
    save_state,
    save_weyl_coefficients,
)


def test_format_float_round_trips_doubles():
    values = [1 / 3, np.pi, 1e-300, -7.25, 0.1, 2.0]
    for v in values:
        assert float(format_float(v)) == v


def test_matrix_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(12)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)


def test_matrix_file_is_json_with_declared_fields(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, qft_matrix(3))
    data = json.loads(path.read_text())
    assert data["dim"] == 3
    assert len(data["entries"]) == 9
    assert all(len(pair) == 2 for pair in data["entries"])


def test_matrix_file_carries_full_precision(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, np.array([[1 / 3]], dtype=complex))
    assert "0.33333333333333331" in path.read_text()


def test_state_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    state = QuditState(3, 2, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    path = tmp_path / "s.json"
    save_state(path, state)
    loaded = load_state(path)
    assert loaded.l == 3 and loaded.n == 2
    assert np.array_equal(loaded.amplitudes, state.amplitudes)


def test_function_table_roundtrip(tmp_path):
    path = tmp_path / "f.json"
    save_function_table(path, [2, 0, 1], 3)
    values, l = load_function_table(path)
    assert values == [2, 0, 1] and l == 3


def test_coefficient_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    table = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "c.json"
    save_weyl_coefficients(path, table)
    assert np.array_equal(load_weyl_coefficients(path), table)


@pytest.mark.parametrize(
    "text,message",
    [
        ("not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"dim": 0, "entries": []}', "dim"),
        ('{"dim": 2, "entries": [[1, 0]]}', "entries"),
        ('{"dim": 1, "entries": [[1, 0, 0]]}', "pair"),
        ('{"dim": 1, "entries": [["x", 0]]}', "pair"),
        ('{"dim": 1, "entries": [[1e999, 0]]}', "non-finite"),
        ('{"dim": 1, "entries": [[1' + "0" * 400 + ", 0]]}", "non-finite"),
    ],
)
def test_matrix_schema_rejection(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        load_matrix(path)


def test_state_schema_rejection(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"l": 2, "n": 2, "amplitudes": [[1, 0]]}')
    with pytest.raises(FormatError, match="amplitudes"):
        load_state(path)


def test_function_table_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"l": 2, "values": [0, 2]}')
    with pytest.raises(FormatError, match="values"):
        load_function_table(path)


@pytest.mark.parametrize(
    "save, value",
    [
        (save_matrix, np.nan),
        (save_matrix, complex(0, -np.inf)),
        (save_weyl_coefficients, np.inf),
    ],
)
def test_writers_refuse_non_finite_values_and_create_no_file(tmp_path, save, value):
    # "%.17g" would write inf or nan, which the loaders refuse as invalid JSON
    table = np.eye(2, dtype=complex)
    table[1, 0] = value
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="non-finite"):
        save(path, table)
    assert not path.exists()


def test_basis_state_file_example(tmp_path):
    path = tmp_path / "s.json"
    save_state(path, basis_state(2, 2, [0, 1]))
    loaded = load_state(path)
    assert max_abs(loaded.amplitudes - basis_state(2, 2, [0, 1]).amplitudes) == 0


def _loop_pair_list(values):
    """The element-by-element writer the vectorized one replaced."""
    return ", ".join(f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in values)


def test_writer_matches_element_by_element_formatting(tmp_path):
    rng = np.random.default_rng(15)
    special = [-0.0, 5e-324, -5e-324, 1e16, 1 / 3, 2.0**-1074 * 3, 1.7976931348623157e308,
               0.1, 123456789.0, -2.5e-300]
    m = np.array(special + list(rng.standard_normal(6)), dtype=float).reshape(4, 4)
    m = m + 1j * rng.standard_normal((4, 4)) * np.logspace(-300, 300, 16).reshape(4, 4)
    path = tmp_path / "m.json"
    save_matrix(path, m)
    assert path.read_text() == (
        '{\n  "dim": 4,\n  "entries": [' + _loop_pair_list(m.ravel()) + "]\n}\n"
    )
    state = QuditState(2, 3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    save_state(path, state)
    assert path.read_text() == (
        '{\n  "l": 2,\n  "n": 3,\n  "amplitudes": ['
        + _loop_pair_list(state.amplitudes) + "]\n}\n"
    )
    save_weyl_coefficients(path, m)
    assert path.read_text() == (
        '{\n  "l": 4,\n  "coefficients": [' + _loop_pair_list(m.ravel()) + "]\n}\n"
    )
    save_function_table(path, np.array([3, 0, 2, 1]), 4)
    assert path.read_text() == '{\n  "l": 4,\n  "values": [3, 0, 2, 1]\n}\n'


def _loop_reader_message(path, key, raw):
    """The FormatError message of the element-by-element reader, or None."""
    for idx, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            return f"{path}: {key}[{idx}] is not a [re, im] pair"
    if not all(np.isfinite(complex(*pair)) for pair in raw):
        return f"{path}: field {key!r} contains non-finite values"
    return None


_number = st.one_of(
    st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False)
)
_bad_value = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(), st.just(float("nan")),
    st.lists(_number, max_size=2),
)
_pair = st.one_of(
    st.lists(_number, min_size=2, max_size=2),
    st.lists(st.one_of(_number, _bad_value), min_size=2, max_size=2),
    st.lists(_number, max_size=3),
    _number,
    st.text(max_size=2),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_reader_matches_element_by_element_reader(dim, data):
    raw = data.draw(st.lists(_pair, min_size=dim * dim, max_size=dim * dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps({"dim": dim, "entries": raw}))
        message = _loop_reader_message(path, "entries", raw)
        if message is None:
            expected = np.array([complex(*pair) for pair in raw]).reshape(dim, dim)
            assert np.array_equal(load_matrix(path), expected)
            return
        with pytest.raises(FormatError) as exc:
            load_matrix(path)
        assert str(exc.value) == message
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["closure", "--input", str(path)])
        assert (code, err.getvalue()) == (2, f"error: {message}\n")


def test_integer_past_the_double_range_exits_2(tmp_path, capsys):
    state = tmp_path / "s.json"
    state.write_text('{"l": 2, "n": 1, "amplitudes": [[1, 0], [0, -1' + "0" * 400 + "]]}")
    assert main(["apply", "--input", str(state), "--set", "qft"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_state_with_huge_site_count_fails_fast(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"l": 10, "n": 1000000000000, "amplitudes": [[1, 0]]}')
    start = time.perf_counter()
    with pytest.raises(FormatError, match=r"list of 10\^1000000000000 "):
        load_state(path)
    assert time.perf_counter() - start < 1.0


def test_state_length_message_names_the_count(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"l": 2, "n": 3, "amplitudes": [[1, 0]]}')
    with pytest.raises(FormatError, match="list of 8 "):
        load_state(path)
