"""The emitter's one-format-per-row paths give the bytes of its per-cell path.

A CSV row of floats is written with one ``%.16e`` format, and a JSON list of
finite floats with one ``", "``-joined format; every other row goes through
``_fmt`` and ``_json_dump`` cell by cell.  Both are checked here against the
per-cell path over tables holding the edges of double range, numpy scalars
and mixed rows.
"""

import contextlib
import csv
import io
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gravclock import cli

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
