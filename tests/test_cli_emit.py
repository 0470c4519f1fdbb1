"""The emitter's whole-table paths give the bytes of its per-cell path.

A float64 table (a sweep) is written by ``floattext.format_table``; a CSV
row of floats with one ``%.16e`` format, and a JSON list of finite floats
with one ``", "``-joined format; every other row goes through ``_fmt`` and
``_json_dump`` cell by cell.  Each is checked here against the per-cell
path over tables holding the edges of double range, numpy scalars and
mixed rows.
"""

import contextlib
import csv
import gc
import io
import math
import struct
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravclock import cli
from gravclock.detectability import OUTPUTS

EDGES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)

python_floats = st.one_of(st.sampled_from(EDGES), st.floats())
floats = st.one_of(python_floats, python_floats.map(np.float64))
others = st.one_of(
    st.text(max_size=5), st.booleans(), st.integers(), st.booleans().map(np.bool_), st.integers(-9, 9).map(np.int64)
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 6))
    float_row = st.lists(floats, min_size=width, max_size=width)
    mixed_row = st.lists(st.one_of(floats, others), min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(float_row, mixed_row).map(tuple), max_size=6))
    return [f"c{i}" for i in range(width)], rows


def _json_cell(value):
    parts = []
    cli._json_dump(value, parts)
    return "".join(parts)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(tables())
def test_csv_rows_match_the_per_cell_path(table):
    columns, rows = table
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(SimpleNamespace(format="csv", output=None), {}, columns, rows, None)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(cli._fmt, row) for row in rows)
    assert out.getvalue() == expected.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(tables())
def test_json_rows_match_the_per_cell_path(table):
    _, rows = table
    parts = []
    cli._json_dump([list(row) for row in rows], parts)
    expected = "[" + ", ".join("[" + ", ".join(map(_json_cell, row)) + "]" for row in rows) + "]"
    assert "".join(parts) == expected


# --- float64 tables: floattext.format_table --------------------------------

bit_patterns = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
table_cells = st.one_of(st.floats(), bit_patterns)


@st.composite
def float_tables(draw):
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(table_cells, min_size=width, max_size=width), max_size=8))
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def _emit_csv(table):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(SimpleNamespace(format="csv", output=None), {}, [f"c{i}" for i in range(table.shape[1])], table, None)
    return out.getvalue()


def _assert_same_text(got, expected, sep):
    # name the first differing piece; a diff of the whole text takes minutes
    for number, (have, want) in enumerate(zip(got.split(sep), expected.split(sep))):
        assert have == want, f"piece {number}"
    assert got == expected


def _assert_table_bytes(table):
    """CSV and JSON text of a float64 table equal the per-cell ``_fmt`` and ``_json_dump`` text."""
    columns = [f"c{i}" for i in range(table.shape[1])]
    expected = "".join(",".join(map(cli._fmt, row)) + "\n" for row in [columns] + table.tolist())
    _assert_same_text(_emit_csv(table), expected, "\n")
    parts = []
    cli._json_dump(table, parts)
    expected = "[" + ", ".join("[" + ", ".join(map(_json_cell, row)) + "]" for row in table.tolist()) + "]"
    _assert_same_text("".join(parts), expected, "], [")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(float_tables())
def test_float_tables_match_the_per_cell_path(table):
    _assert_table_bytes(table)


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


# every power of ten a double can hold, 1e-323 to 1e308 (10.0 ** k rounds, so go through the decimal text)
POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
SUBNORMALS = np.concatenate([np.arange(1, 2001) * 5e-324, np.linspace(0.0, 2.2250738585072014e-308, 2003)[1:]])


def _ties(e):
    """x = j / 2^(17 - e) with j odd, in [10^e, 10^(e + 1)): x 10^(16 - e) is an odd number of halves."""
    low = 2 ** (17 - e) * 10**e if e >= 0 else -(-(2 ** (17 - e)) // 10**-e)
    return ((low | 1) + 2 * np.arange(500)) / 2.0 ** (17 - e)


# exact ties of the 17th digit, which '%' rounds to even: 1e15 + k/8 at k = 2 mod 4 and _ties;
# and integers from 2^53 to 2^57 and around 1e17, whose 17 digits are exact
TIES = np.concatenate([
    1e15 + np.arange(4000) / 8.0,
    *[_ties(e) for e in (-3, 0, 2, 8)],
    *[2.0**p + np.arange(-64, 64) * 2.0 ** (p - 52) for p in range(53, 58)],
    np.arange(10**17 - 200, 10**17 + 200, 8, dtype=np.float64),
])
SPECIALS = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.7976931348623157e308, -1.7976931348623157e308])


def test_float_table_edges_match_the_per_cell_path():
    cells = np.concatenate([
        _neighbours(POWERS), _neighbours(SUBNORMALS), _neighbours(TIES), SPECIALS,
        np.random.default_rng(5).integers(0, 2**64, 5000, dtype=np.uint64).view(np.float64),
    ])
    cells = np.concatenate([cells, -cells])
    _assert_table_bytes(cells.reshape(-1, 4))  # many blocks of format_table
    for width in range(1, 7):
        _assert_table_bytes(cells[: 60 * width].reshape(-1, width))


def test_float_tables_without_rows_match_the_per_cell_path():
    for width in range(1, 7):
        table = np.empty((0, width))
        _assert_table_bytes(table)
        assert _emit_csv(table) == ",".join(f"c{i}" for i in range(width)) + "\n"


def _sweep_calls(argv):
    """Python-level function calls that one ``run_command(argv)`` makes.

    The garbage collector is off meanwhile: its callbacks, which other
    tests in the session may register, are not the request's calls.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_command(argv) == 0  # imports, caches and the parser out of the count
        gc.disable()
        sys.setprofile(profile)
        try:
            cli.run_command(argv)
        finally:
            sys.setprofile(None)
            gc.enable()
    return count


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_request_makes_no_python_call_per_cell(fmt):
    # the table is parsed, computed and formatted whole, so the row count
    # changes no Python-level call
    counts = [
        _sweep_calls([
            "sweep", "--axis", "ell_log10", "--values", ",".join(map(repr, np.linspace(40.0, 68.0, n).tolist())),
            "--outputs", ",".join(OUTPUTS), "--format", fmt,
        ])
        for n in (10, 1000)
    ]
    assert counts[0] == counts[1], counts
