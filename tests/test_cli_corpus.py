"""Every command's output pinned to the corpus under ``golden/cli/``.

Each file holds one invocation's argv, exit code, stdout and stderr; this
runs it in-process and asks for the same bytes.  ``selftest`` prints
rounding-level errors that can change with the BLAS library, so its checks
are compared by name, bound and verdict, and each value against its bound.
Rewrite the corpus with ``python tests/golden/cli/regenerate.py``.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from gravclock.cli import run_command

CORPUS = sorted((Path(__file__).resolve().parent / "golden" / "cli").glob("*.json"))


def _selftest_checks(text, is_json):
    """(name, bound, passed) of each check, and whether each value lies within its bound."""
    if is_json:
        doc = json.loads(text)
        rows = [(name, c["value"], c["bound"], c["passed"]) for name, c in doc["outputs"].items()]
    else:
        rows = [
            (name, float(value), float(bound), passed == "true")
            for name, value, bound, passed in list(csv.reader(io.StringIO(text)))[1:]
        ]
    return [(name, bound, passed) for name, _, bound, passed in rows], [v <= b for _, v, b, _ in rows]


def test_the_corpus_covers_every_command():
    commands = {json.loads(path.read_text())["argv"][0] for path in CORPUS}
    assert commands >= {"delta-tau", "interfere", "gme", "qep", "detect", "sweep", "verify", "selftest"}


@pytest.mark.parametrize("path", CORPUS, ids=[path.stem for path in CORPUS])
def test_cli_output_matches_the_corpus(capsys, path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    argv = golden["argv"]
    try:
        code = run_command(argv)
    except SystemExit as exc:  # --version
        code = exc.code
    out, err = capsys.readouterr()
    stdout = "\n".join(golden["stdout"])
    assert (code, err) == (golden["exit"], "\n".join(golden["stderr"]))
    if argv[0] != "selftest" or code == 2:
        assert out == stdout
        return
    checks, within = _selftest_checks(out, "json" in argv)
    assert (checks, within) == _selftest_checks(stdout, "json" in argv)
    assert all(within)
