"""The CLI's input contract, checked over generated argv.

Every flag of ``delta-tau`` (both routes), ``interfere``, ``gme``, ``qep``
and ``detect`` is drawn from typical values and from values at the edges of
double range.  Whatever the draw, ``run_command`` returns a documented exit
code without raising, no message is a bare ``math domain error``, a
successful run prints only finite numbers (a ``_log10`` column may read
-inf where its linear column is exactly 0), and a non-finite input is a
validation error.
"""

import contextlib
import csv
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gravclock.cli import run_command

EDGES = ("0", "-1", "1e-300", "1e300", "nan", "inf", "-inf")
NON_FINITE = {"nan", "inf", "-inf"}

GEOMETRY = {
    "M": ("0", "1e3"),
    "J": ("1", "-2.5", "1e40"),
    "w": ("1e-3", "0.2"),
    "v0": ("0", "1", "3e4"),
    "L-ratio": ("1e3", "50"),
}
CLOCK = {
    "gap-rate": ("1e15", "3e14"),
    "mean-rate": ("5e14", "0"),
    "delta-tau": ("1e-15", "0", "-3e-16"),
    "E-g": ("0", "1e-20"),
    "E-e": ("1.05e-19", "3e-19"),
}
QEP = {
    "theta": ("0", "0.5"),
    "varphi": ("0", "1"),
    "prime-gap-rate": ("1e15", "2e15"),
    "prime-mean-rate": ("5e14", "1e14"),
}
DETECT = {
    "clock-rate": ("1e15", "3e15"),
    "w": ("1e-3", "1e-2"),
    "v0": ("0", "1e8"),
    "ell-log10": ("58", "60", "0"),
    "target-phase": ("1", "1e-3"),
}
COMMANDS = {
    ("delta-tau",): GEOMETRY,
    ("delta-tau", "--mode=quadrature"): {**GEOMETRY, "v0": ("1", "3e4")},
    ("interfere",): {**GEOMETRY, **CLOCK},
    ("gme",): {**GEOMETRY, **CLOCK},
    ("qep",): {**GEOMETRY, **CLOCK, **QEP},
    ("detect",): DETECT,
}
EXIT_CODES = {0, 2, 3, 64}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4))
    values = {flag: draw(st.sampled_from(flags[flag] + EDGES)) for flag in chosen}
    # "--flag=value" keeps "-1" and "-inf" from reading as options
    return [*command, *(f"--{flag}={value}" for flag, value in values.items())], values


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(invocations())
def test_every_argv_keeps_the_input_contract(invocation):
    argv, values = invocation
    code, out, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "math domain error" not in err, (argv, err)
    if NON_FINITE & set(values.values()):
        assert code == 2, (argv, code, out, err)
    if code != 0:
        assert out == "", (argv, out)
        return
    header, row = list(csv.reader(io.StringIO(out)))
    cells = dict(zip(header, map(float, row)))
    for name, value in cells.items():
        if math.isfinite(value):
            continue
        linear = name[: -len("_log10")] if name.endswith("_log10") else None
        assert value == -math.inf and cells.get(linear) == 0.0, (argv, name, value, out)
