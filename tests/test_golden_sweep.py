"""`sweep` output pinned byte for byte to a checked-in corpus.

Each file under ``golden/`` is the stdout of one ``sweep`` along one axis
with every output except ``witness``.  The rows pass gap and mean phases
of 1e-8 rad, where 1 - p rounds in double precision, and of 1e-4 rad,
where 1 - cos(phase) would lose half its digits, as regression points for
the forms that do not cancel; they also reach theta = 0 and pi/2.
Regenerate a file only for a deliberate change of that column's numbers:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden_sweep as g; g.write_corpus()"
"""

import math
from pathlib import Path

import numpy as np
import pytest

from gravclock.cli import run_command
from gravclock.detectability import AXES, OUTPUTS

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS_OUTPUTS = tuple(name for name in OUTPUTS if name != "witness")

# phase_gap = 1e-8 rad at ell_log10 ~ 50.86 and 1e-4 rad at ~ 54.86 (clock
# rate 1e15 rad/s, w = 1 mm); the mean phase is half the gap phase
_ELL = (
    0, 10, 20, 30, 40, 45, 50, 50.8, 50.85, 50.86, 50.9, 51, 51.1, 51.2, 52,
    53, 54, 54.8, 54.85, 54.86, 54.9, 55, 55.1, 55.2, 56, 57, 58, 58.5,
    58.856, 59, 59.5, 60, 61, 62, 65, 68, 68.5, 69, 75, 300,
)
_MEAN_RATE = (0.0,) + tuple(s * 10.0**k for k in range(10, 29, 2) for s in (1.0, -1.0)) + tuple(
    3.0 * 10.0**k for k in range(10, 29)
)


def _axis_values(axis):
    if axis == "ell_log10":
        return [float(v) for v in _ELL], ()
    if axis == "theta":
        return np.linspace(0.0, 0.5 * math.pi, 40).tolist(), ("--ell-log10", "58")
    if axis == "clock_rate":
        return np.logspace(5.0, 24.0, 40).tolist(), ("--ell-log10", "55")
    if axis == "mean_rate":
        return list(_MEAN_RATE), ("--ell-log10", "50")
    if axis == "w":
        return np.logspace(-9.0, 3.0, 40).tolist(), ("--ell-log10", "55")
    if axis == "v0":
        return np.linspace(0.0, 2.9e8, 40).tolist(), ("--ell-log10", "54.85")
    raise AssertionError(axis)


def corpus_argv(axis):
    values, fixed = _axis_values(axis)
    return [
        "sweep", "--axis", axis, "--values", ",".join(repr(v) for v in values),
        "--outputs", ",".join(CORPUS_OUTPUTS), *fixed,
    ]


def write_corpus():
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for axis in AXES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_command(corpus_argv(axis)) == 0
        (GOLDEN / f"sweep_{axis}.csv").write_text(out.getvalue(), encoding="utf-8")


@pytest.mark.parametrize("axis", AXES)
def test_sweep_output_matches_the_golden_corpus(capsys, axis):
    assert run_command(corpus_argv(axis)) == 0
    got = capsys.readouterr().out
    expected = (GOLDEN / f"sweep_{axis}.csv").read_text(encoding="utf-8")
    assert got.splitlines()[0] == expected.splitlines()[0]
    for number, (line, want) in enumerate(zip(got.splitlines(), expected.splitlines())):
        assert line == want, f"row {number} of the {axis} sweep"
    assert got == expected


def test_golden_corpus_crosses_the_thresholds():
    rows = {}
    for axis in AXES:
        lines = (GOLDEN / f"sweep_{axis}.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows[axis] = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        assert len(rows[axis]) >= 30, axis
    ell = rows["ell_log10"]
    for column in ("phase_gap", "phase_mean"):
        phases = [abs(r[column]) for r in ell]
        for threshold in (1e-8, 1e-4):
            assert any(p < threshold for p in phases) and any(p > threshold for p in phases)
    thetas = [r["theta"] for r in rows["theta"]]
    assert thetas[0] == 0.0 and thetas[-1] == 0.5 * math.pi
