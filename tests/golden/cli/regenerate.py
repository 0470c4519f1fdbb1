"""Rewrite the CLI byte-identity corpus beside this file.

Each ``*.json`` file here holds one invocation of ``gravclock.cli.run_command``:
its argv, exit code, stdout and stderr (as lists of lines, so that a changed
golden shows as a line diff).  ``tests/test_cli_corpus.py`` runs every file
in-process and compares the output byte for byte; ``selftest`` files are
compared by check name, bound and verdict instead, because its rounding-level
values can change with the BLAS library.  So a ``selftest`` file is rewritten
only when one of the fields compared changes.

Rewrite the corpus only for a deliberate change of output, and list each
changed file in CHANGES.md:

    python tests/golden/cli/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# every verify case whose numbers or error order the solver work moved
_VERIFY = [
    "verify",
    "verify --format json",
    "verify --n-segments 2",
    "verify --n-segments 3",
    "verify --n-segments 4 --scales 1,2",
    "verify --n-segments 5 --scales 0.5,1,2",
    "verify --n-segments 64",
    "verify --n-segments 129 --format json",
    "verify --n-segments 2048",
    "verify --scales 0.5,1,2,4",
    "verify --scales 8,0.08,2",
    "verify --scales 10,13",
    "verify --scales 14,13",
    "verify --scales 1e-3,2e-3",
    "verify --scales 14.5,1",
    "verify --scales 15,30",
    "verify --scales 1,15",
    "verify --scales 20,1",
    "verify --scales 30,1",
    "verify --scales 15,300",
    "verify --scales 1,300",
    "verify --scales 300,1",
    "verify --scales 4500,1",
    "verify --n-segments 2 --scales 100,200",
]

_COMMANDS = [
    "delta-tau",
    "delta-tau --J 2.5 --w 3e-3 --v0 1e3 --format json",
    "delta-tau --w 1e300",
    # a negative value in exponent form is a value, not an option
    "delta-tau --J -1e30",
    "delta-tau --mode quadrature --v0 1",
    "delta-tau --mode both --v0 1 --L-ratio 1e4",
    # arms whose quadrature takes two levels (L/w < 10) and three at a long arm
    "delta-tau --mode both --v0 1 --L-ratio 1.5",
    "delta-tau --mode quadrature --v0 1 --L-ratio 1e8",
    "delta-tau --mode both --v0 30 --M 1e3 --J 5.86e33 --w 1e-3 --format json",
    "interfere",
    "interfere --delta-tau 1e-15",
    # a gap phase of exactly 14 rad, printed as formed rather than through log10
    "interfere --delta-tau 7e-15 --gap-rate 2e15",
    "interfere --E-g 0 --E-e 1e-19 --delta-tau 3e-15 --format json",
    "gme",
    "gme --delta-tau 1e-15 --format json",
    "gme --J 1e40 --gap-rate 2e15 --mean-rate 7e14",
    "qep --delta-tau 3e-16 --theta 0.5 --varphi 0.2",
    "qep --delta-tau 1e-5 --theta 0.3 --format json",
    "qep --J 1e45 --theta 0.785 --prime-gap-rate 3e15 --prime-mean-rate 1e15",
    # commutator_ratio at energies where a general eigensolver rescales
    "qep --delta-tau 1e-300 --E-g 1e200 --E-e 1e201 --prime-gap-rate 1e300 --prime-mean-rate 1e300 "
    + "--theta 0.5 --format json",
    "detect",
    "detect --ell-log10 60 --target-phase 1",
    "detect --clock-rate 4e14 --w 1e-2 --v0 300 --ell-log10 58.5 --format json",
    "sweep --axis ell_log10 --values 0,50.86,54.86,58.856,60,69,400 --outputs "
    + "delta_tau,phase_mean,phase_gap,visibility_deficit,pr_left,pr_right,ee_spc,ef_sp,witness,"
    + "qep_visibility,qep_xi_phase,qep_pr_left,qep_pr_right,qep_ee_spc,qep_ef_sp",
    "sweep --axis theta --values 0,0.3,0.785,1.5707963267948966 --ell-log10 59 "
    + "--outputs qep_visibility,qep_xi_phase,qep_pr_left,qep_ee_spc,qep_ef_sp --format json",
    "sweep --axis w --values 1e-3,1e-2,1e-1 --outputs delta_tau,visibility_deficit",
    "sweep --axis mean_rate --values=-1e20,0,3e14 --clock-rate 2e15 --ell-log10 50 --outputs pr_left,witness",
    "sweep --axis v0 --values 0,1e3",
    # clock energies that overflow, with no clock output asked for
    "sweep --axis mean_rate --values 1.7e308 --clock-rate 1.7e308 --outputs delta_tau",
    # -0.0, 0, inf and nan cells; the one-row dict shape; the header-only table
    "sweep --axis ell_log10 --values=-0.0,0,58.856,69,400 --outputs delta_tau,pr_left,ee_spc,qep_xi_phase",
    "sweep --axis ell_log10 --values=-0.0,0,58.856,69,400 --outputs delta_tau,pr_left,ee_spc,qep_xi_phase "
    + "--format json",
    "sweep --axis ell_log10 --values 58.856 --outputs delta_tau,pr_left,ee_spc,qep_xi_phase --format json",
    "sweep --axis ell_log10 --values= --outputs delta_tau,pr_left,ee_spc,qep_xi_phase --format json",
    "selftest --samples 50 --seed 3",
    "selftest --samples 20 --format json",
    "--version",
]

# one input per exit-2 (and usage) message
_ERRORS = [
    "verify --n-segments 64 --scales 1e300,2e300",
    "verify --scales nan",
    "verify --scales 1",
    "verify --scales=-1,2",
    "verify --n-segments 1",
    "verify --scales 1,abc",
    "delta-tau --w nan",
    "delta-tau --J -inf",
    "delta-tau --w -1",
    "delta-tau --M -1",
    "delta-tau --L-ratio 0.5",
    "delta-tau --L-ratio inf",
    "delta-tau --L-ratio 1e300 --w 1e10",
    "delta-tau --v0 3e9",
    "delta-tau --v0 -1",
    "delta-tau --J 1e308 --w 1e-300",
    "delta-tau --mode quadrature --v0 0",
    "delta-tau --mode quadrature --v0 1e-300",
    "delta-tau --mode quadrature --J 1e300 --w 1e-300 --v0 1",
    "delta-tau --mode quadrature --M 1e30 --v0 1",
    "delta-tau --mode quadrature --v0 299792457.99999994",
    "delta-tau --mode quadrature --v0 1 --L-ratio 1e17",
    "delta-tau --mode quadrature --v0 1 --w 1e300",
    "interfere --L-ratio nan",
    "interfere --L-ratio 1e300 --w 1e10",
    "interfere --delta-tau nan",
    "interfere --delta-tau 1e300",
    "interfere --E-g 1e-19",
    "interfere --E-g 1e-19 --E-e 0",
    "interfere --gap-rate -1",
    "interfere --mean-rate 1.7e308 --gap-rate 1.7e308",
    "gme --gap-rate inf",
    "qep --theta 2",
    "qep --delta-tau 1e-15 --prime-gap-rate inf",
    "qep --prime-mean-rate 1.7e308 --prime-gap-rate 1.7e308",
    "qep --delta-tau 1e-300 --E-g 1e200 --E-e 1e201 --prime-gap-rate 1e300 "
    + "--prime-mean-rate 1e300 --theta 0.5",
    "detect --clock-rate 0",
    "detect --ell-log10 inf",
    "detect --target-phase -1",
    "sweep --values 1,2",
    "sweep --axis J --values 1",
    "sweep --axis w --values 1 --outputs nothing",
    "sweep --axis w --values 1,nan --outputs delta_tau",
    "sweep --axis w --values 1,abc",
    "sweep --axis v0 --values -1,2 --outputs delta_tau",
    "sweep --axis mean_rate --values 1.7e308 --clock-rate 1.7e308 --outputs qep_visibility",
    "sweep --axis mean_rate --values 1.7e308 --clock-rate 1.7e308 --outputs pr_left",
    "sweep --axis clock_rate --values 1e15,0 --outputs delta_tau",
    "selftest --samples 0",
    "no-such-command",
    "delta-tau --mode bogus",
]

INVOCATIONS = _VERIFY + _COMMANDS + _ERRORS


def file_name(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9.,+=-]+", "_", "_".join(argv) or "none")[:120] + ".json"


def run(argv: list[str]) -> dict:
    """Run one invocation in-process; its exit code, stdout and stderr as lists of lines."""
    from gravclock.cli import run_command

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_command(argv)
        except SystemExit as exc:  # --version
            code = exc.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def _compared(doc: dict):
    """The fields of one corpus file that ``tests/test_cli_corpus.py`` compares."""
    from test_cli_corpus import _selftest_checks

    if doc["argv"][0] != "selftest" or doc["exit"] == 2:
        return doc
    checks, _ = _selftest_checks("\n".join(doc["stdout"]), "json" in doc["argv"])
    return doc["argv"], doc["exit"], doc["stderr"], checks


def main() -> None:
    sys.path[:0] = [str(HERE.parents[2] / "src"), str(HERE.parents[1])]
    kept = {path.name: json.loads(path.read_text(encoding="utf-8")) for path in HERE.glob("*.json")}
    for old in HERE.glob("*.json"):
        old.unlink()
    for line in INVOCATIONS:
        argv = line.split()
        path = HERE / file_name(argv)
        if path.exists():
            raise SystemExit(f"two invocations map to {path.name}")
        doc = run(argv)
        if path.name in kept and _compared(kept[path.name]) == _compared(doc):
            doc = kept[path.name]  # a selftest whose checks moved only in rounding
        path.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(INVOCATIONS)} files to {HERE}")


if __name__ == "__main__":
    main()
