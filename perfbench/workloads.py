"""Request generators and output checkers for the gravclock CLI workloads.

A request is one argv list for ``gravclock.cli.run_command``.  Each workload
produces its requests in cycles; a cycle holds one request of every shape
(requests of one shape do the same kind of work on different data), so a run
made of whole cycles keeps the shapes in fixed proportion and its median
latency does not jump between shapes from run to run.  Inputs depend only on
the seed: the same seed gives the same argv lists.

A checker returns ``None`` for a good output and a one-line reason otherwise.
The checks recompute the expected values from the physical constants written
out below, not from the program's own constants.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# CODATA 2018 values, in SI units
C = 299792458.0
G = 6.67430e-11
HBAR = 1.054571817e-34

SWEEP_ROWS = 1000
SWEEP_RANGE = (40.0, 68.0)
# [0, 80] crosses ell_log10 >~ 68.6, where the program's per-call oracle check
# raises at the seed; used only with known defects on
SWEEP_WIDE_RANGE = (0.0, 80.0)
SWEEP_WIDE_EVERY = 4

# converged, then capped by MAX_QUADRATURE_SAMPLES but still accurate
QUADRATURE_L_RATIOS = (1e3, 1e4, 2e4, 3e4)
# the seed returns wrong values at 1e5 (-6.6e-4) and 1e6 (+37%)
QUADRATURE_DEFECT_L_RATIOS = (1e3, 1e4, 1e5, 1e6)
QUADRATURE_REL_TOL = 1e-9
QUADRATURE_W = 1e-3  # the CLI default arm separation, m
QUADRATURE_V0 = 1.0

SWEEP_OUTPUTS = (
    "delta_tau", "phase_mean", "phase_gap", "visibility_deficit", "pr_left",
    "pr_right", "ee_spc", "ef_sp", "witness", "qep_visibility", "qep_xi_phase",
    "qep_pr_left", "qep_pr_right", "qep_ee_spc", "qep_ef_sp",
)
SWEEP_ALL_COLUMNS = (
    "ell_log10", "delta_tau", "delta_tau_log10", "phase_mean", "phase_mean_log10",
    "phase_gap", "phase_gap_log10", "visibility_deficit", "visibility_deficit_log10",
    "pr_left", "pr_right", "ee_spc", "ee_spc_log10", "ef_sp", "ef_sp_log10",
    "witness", "qep_visibility", "qep_xi_phase", "qep_pr_left", "qep_pr_right",
    "qep_ee_spc", "qep_ef_sp",
)
SWEEP_NARROW_COLUMNS = ("ell_log10", "delta_tau", "delta_tau_log10")
SWEEP_LOG10_TOL = 1e-12
# delta_tau = 16 G hbar ell K / (c^4 w) at the sweep defaults w = 1e-3 m, v0 = 0
SWEEP_DELTA_TAU_LOG10_OFFSET = math.log10(16.0 * G * HBAR / (C**4 * 1e-3))


@dataclass(frozen=True)
class Request:
    shape: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: Callable[[random.Random, int, bool], list[Request]]
    check: Callable[[Request, int, str], "str | None"]


def cycles(workload: Workload, seed: int, known_defects: bool = False):
    """Endless stream of request cycles, fixed by `seed`."""
    rng = random.Random(seed)
    index = 0
    while True:
        yield workload.cycle(rng, index, known_defects)
        index += 1


def _floats(cells) -> list[float]:
    return [float(cell) for cell in cells]


def _parse_table(stdout: str, fmt: str) -> tuple[list[str], list[list[float]]]:
    if fmt == "json":
        outputs = json.loads(stdout)["outputs"]
        return list(outputs["columns"]), [_floats(row) for row in outputs["rows"]]
    rows = list(csv.reader(io.StringIO(stdout)))
    return rows[0], [_floats(row) for row in rows[1:]]


# --- verify ----------------------------------------------------------------


def _verify_cycle(rng, index, known_defects):
    return [Request("verify", ("verify", "--format", "json"))]


def check_verify(request: Request, code: int, stdout: str):
    if code != 0:
        return f"exit code {code}"
    out = json.loads(stdout)["outputs"]
    slope = float(out["residual_slope"])
    drift = float(out["energy_ratio_drift"])
    if out["all_converged"] is not True:
        return "all_converged is not true"
    if not 1.8 <= slope < 2.3:
        return f"residual_slope {slope!r} outside [1.8, 2.3)"
    if not drift < 1e-9:
        return f"energy_ratio_drift {drift!r} not below 1e-9"
    return None


# --- quadrature ------------------------------------------------------------


def _quadrature_cycle(rng, index, known_defects):
    ratios = list(QUADRATURE_DEFECT_L_RATIOS if known_defects else QUADRATURE_L_RATIOS)
    rng.shuffle(ratios)
    return [
        Request(
            f"L/w={ratio:g}",
            ("delta-tau", "--mode", "both", "--v0", f"{QUADRATURE_V0:g}", "--L-ratio", f"{ratio:g}"),
            {"L_ratio": ratio},
        )
        for ratio in ratios
    ]


def quadrature_expected(l_ratio: float) -> tuple[float, float]:
    """Closed form 16 G J K / (c^4 w) at J = 1, and its finite-arm value."""
    k = 1.0 + 0.5 * QUADRATURE_V0**2 / C**2
    closed = 16.0 * G * k / (C**4 * QUADRATURE_W)
    return closed, closed * math.sin(math.atan(2.0 * l_ratio))


def check_quadrature(request: Request, code: int, stdout: str):
    if code != 0:
        return f"exit code {code}"
    columns, rows = _parse_table(stdout, "csv")
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    row = dict(zip(columns, rows[0]))
    closed, finite_arm = quadrature_expected(request.expect["L_ratio"])
    got_closed = row.get("delta_tau_closed_form", math.nan)
    got_quad = row.get("delta_tau_quadrature", math.nan)
    if not abs(got_closed - closed) <= 1e-12 * abs(closed):
        return f"closed form {got_closed!r}, expected {closed!r}"
    if not abs(got_quad - finite_arm) <= QUADRATURE_REL_TOL * abs(finite_arm):
        return (
            f"quadrature {got_quad!r} is off by {got_quad / finite_arm - 1.0:.3e} "
            f"relative at L/w={request.expect['L_ratio']:g}"
        )
    return None


# --- sweep -----------------------------------------------------------------

_SWEEP_SHAPES = (
    ("csv_all", SWEEP_OUTPUTS, "csv"),
    ("csv_delta_tau", ("delta_tau",), "csv"),
    ("json_all", SWEEP_OUTPUTS, "json"),
)


def _sweep_requests(rng, index, known_defects):
    requests = []
    for offset, (shape, outputs, fmt) in enumerate(_SWEEP_SHAPES):
        number = index * len(_SWEEP_SHAPES) + offset
        wide = known_defects and number % SWEEP_WIDE_EVERY == SWEEP_WIDE_EVERY - 1
        low, high = SWEEP_WIDE_RANGE if wide else SWEEP_RANGE
        values = [rng.uniform(low, high) for _ in range(SWEEP_ROWS)]
        argv = [
            "sweep", "--axis", "ell_log10",
            "--values", ",".join(repr(v) for v in values),
            "--outputs", ",".join(outputs),
        ]
        if fmt == "json":
            argv += ["--format", "json"]
        requests.append(Request(shape, tuple(argv), {"values": values, "format": fmt}))
    return requests


def check_sweep(request: Request, code: int, stdout: str):
    if code != 0:
        return f"exit code {code}"
    columns, rows = _parse_table(stdout, request.expect["format"])
    narrow = request.shape == "csv_delta_tau"
    expected_columns = SWEEP_NARROW_COLUMNS if narrow else SWEEP_ALL_COLUMNS
    if tuple(columns) != expected_columns:
        return f"{len(columns)} columns {columns[:3]}..., expected {len(expected_columns)}"
    values = request.expect["values"]
    if len(rows) != len(values):
        return f"{len(rows)} rows, expected {len(values)}"
    log10_col = columns.index("delta_tau_log10")
    for value, row in zip(values, rows):
        if len(row) != len(columns) or row[0] != value:
            return f"row for ell_log10={value!r} is {row[:2]}..."
        expected = SWEEP_DELTA_TAU_LOG10_OFFSET + value
        if not abs(row[log10_col] - expected) <= SWEEP_LOG10_TOL:
            return f"delta_tau_log10 {row[log10_col]!r} at ell_log10={value!r}, expected {expected!r}"
    return None


# --- selftest --------------------------------------------------------------


def _selftest_request(rng):
    seed = rng.randrange(2**31)
    return Request("selftest", ("selftest", "--format", "json", "--seed", str(seed)))


def check_selftest(request: Request, code: int, stdout: str):
    if code != 0:
        return f"exit code {code}"
    checks = json.loads(stdout)["outputs"]
    if not checks:
        return "no checks reported"
    failed = sorted(name for name, result in checks.items() if result.get("passed") is not True)
    return f"checks not passed: {failed}" if failed else None


# --- states: sweeps and a selftest --------------------------------------------


def _states_cycle(rng, index, known_defects):
    # one workload for both keeps three workloads, so each run can be long
    # enough on a noisy shared host; three sweeps to one shorter selftest
    # keep the median latency a sweep's
    return _sweep_requests(rng, index, known_defects) + [_selftest_request(rng)]


def check_states(request: Request, code: int, stdout: str):
    check = check_selftest if request.shape == "selftest" else check_sweep
    return check(request, code, stdout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "the only path through the extremal-path Newton loop: path functional, Hessian assembly, block-tridiagonal solve",
            _verify_cycle,
            check_verify,
        ),
        Workload(
            "quadrature",
            "the only path that refines the adaptive quadrature, from a converged L/w to ones capped at 2^20 samples",
            _quadrature_cycle,
            check_quadrature,
        ),
        Workload(
            "states",
            "1000-row ell_log10 sweeps (all vs one column, CSV vs JSON) with per-row state oracles, plus a selftest of the state toolbox",
            _states_cycle,
            check_states,
        ),
    )
}
