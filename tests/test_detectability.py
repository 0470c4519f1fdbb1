import gc
import math
import sys

import numpy as np
import pytest

from gravclock import detectability
from gravclock.constants import CODATA
from gravclock.detectability import (
    AXES,
    OUTPUTS,
    SweepConfig,
    delta_tau_log,
    evaluate_point,
    phase_per_unit_ell_log10,
    required_ell,
    run_sweep,
)
from gravclock.errors import ConfigError, DomainError
from gravclock.interferometry import clock_phases
from gravclock.logdomain import SignedLog, log10_sum
from gravclock.propertime import closed_form_log


def test_phase_estimate_matches_direct_arithmetic():
    got = phase_per_unit_ell_log10(1e15, 1e-3)
    expected = math.log10(
        1e15 * 16.0 * 6.67430e-11 * 1.054571817e-34 / ((2.99792458e8) ** 4 * 1e-3)
    )
    assert abs(got - expected) < 1e-12
    assert -60.5 < got < -58.5
    assert abs(10.0**got / 1.394e-59 - 1.0) < 1e-3


def test_doubling_ell_adds_log10_two():
    base = delta_tau_log({"ell_log10": 0.0}).log10
    doubled = delta_tau_log({"ell_log10": math.log10(2.0)}).log10
    assert abs(doubled - base - math.log10(2.0)) < 1e-14


def test_k_factor_negligible_at_laboratory_speeds():
    # K - 1 = 5.6e-13 corresponds to v0 ~ 3.2e2 m/s; below that the speed
    # factor is invisible at the 1e-12 level in log10
    slow = phase_per_unit_ell_log10(1e15, 1e-3)
    fast = phase_per_unit_ell_log10(1e15, 1e-3, 3.17e2)
    assert abs(fast - slow) < 1e-12


def test_required_ell_and_round_trip():
    log_ell = required_ell(1.0, 1e15, 1e-3)
    assert 58.0 < log_ell < 61.0
    assert abs(log_ell - 58.8557) < 1e-3
    back = phase_per_unit_ell_log10(1e15, 1e-3) + log_ell
    assert abs(back - 0.0) < 1e-12
    assert abs(required_ell(10.0, 1e15, 1e-3) - log_ell - 1.0) < 1e-12


def test_required_ell_validates_target():
    with pytest.raises(DomainError):
        required_ell(0.0, 1e15, 1e-3)


def test_query_validation():
    with pytest.raises(DomainError):
        phase_per_unit_ell_log10(1e15, -1.0)
    with pytest.raises(DomainError):
        phase_per_unit_ell_log10(0.0, 1e-3)


def test_log_and_linear_phase_agree_when_representable():
    for ell_log10 in (-20.0, 0.0, 33.0):
        params = {"ell_log10": ell_log10, "clock_rate": 1e15, "w": 1e-3}
        point = evaluate_point(params)
        dt_lin = 16.0 * 6.67430e-11 * 1.054571817e-34 * 10.0**ell_log10 / (
            (2.99792458e8) ** 4 * 1e-3
        )
        assert abs(point["delta_tau"] / dt_lin - 1.0) < 1e-12
        assert abs(point["phase_gap"] / (1e15 * dt_lin) - 1.0) < 1e-12
        assert abs(point["phase_gap_log10"] - math.log10(1e15 * dt_lin)) < 1e-12


def test_sweep_single_value_reproduces_direct_call():
    cfg = SweepConfig(axis="w", values=(2e-3,), outputs=("delta_tau", "ee_spc"), fixed={})
    table = run_sweep(cfg)
    point = evaluate_point({"w": 2e-3})
    row = dict(zip(table.columns, table.rows[0]))
    assert row["delta_tau"] == point["delta_tau"]
    assert row["delta_tau_log10"] == point["delta_tau_log10"]
    assert row["ee_spc_log10"] == point["ee_spc_log10"]


def test_sweep_width_scaling_slope():
    widths = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
    table = run_sweep(SweepConfig(axis="w", values=widths, outputs=("delta_tau",), fixed={}))
    idx = table.columns.index("delta_tau_log10")
    slope = np.polyfit(np.log10(widths), [r[idx] for r in table.rows], 1)[0]
    assert abs(slope + 1.0) < 1e-9


def test_sweep_row_order_and_permutation_independence():
    values = (1e-3, 5e-3, 2e-3)
    table = run_sweep(SweepConfig(axis="w", values=values, outputs=("phase_gap",), fixed={}))
    assert tuple(r[0] for r in table.rows) == values
    shuffled = run_sweep(
        SweepConfig(axis="w", values=values[::-1], outputs=("phase_gap",), fixed={})
    )
    by_value = {r[0]: r for r in shuffled.rows}
    for row in table.rows:
        assert by_value[row[0]].tolist() == row.tolist()


def test_sweep_empty_outputs_gives_axis_only():
    table = run_sweep(SweepConfig(axis="w", values=(1e-3, 2e-3), outputs=(), fixed={}))
    assert table.columns == ("w",)
    assert table.rows.tolist() == [[1e-3], [2e-3]]


def test_sweep_rejects_unknown_names():
    with pytest.raises(ConfigError):
        SweepConfig(axis="width", values=(1.0,), outputs=(), fixed={})
    with pytest.raises(ConfigError):
        SweepConfig(axis="w", values=(1.0,), outputs=("nonsense",), fixed={})
    with pytest.raises(ConfigError):
        SweepConfig(axis="w", values=(1.0,), outputs=(), fixed={"bogus": 1.0})
    assert "w" in AXES and "delta_tau" in OUTPUTS


def test_ell_sign_propagates():
    log = closed_form_log(SignedLog.from_log10(10.0, -1), 1e-3, 0.0, CODATA, CODATA.hbar)
    assert log.sign == -1
    assert log.linear < 0.0


def test_entanglement_log_columns_at_laboratory_scale():
    point = evaluate_point({"ell_log10": 0.0, "clock_rate": 1e15, "w": 1e-3})
    # the port probability rounds to 1, while the entanglement (~1e-116)
    # and its log10 come from forms that do not subtract
    assert point["ee_spc"] == pytest.approx(10.0 ** point["ee_spc_log10"], rel=1e-12)
    assert point["ef_sp"] == pytest.approx(10.0 ** point["ef_sp_log10"], rel=1e-12)
    assert -130.0 < point["ee_spc_log10"] < -100.0
    assert -130.0 < point["ef_sp_log10"] < -100.0
    assert point["pr_left"] == 1.0
    assert abs(point["visibility_deficit_log10"] - (-118.01)) < 0.1


def test_log_sum_helper():
    assert abs(log10_sum(-10.0, -10.0) - (math.log10(2.0) - 10.0)) < 1e-14
    assert log10_sum(-math.inf, -5.0) == -5.0


@pytest.mark.parametrize(
    "axis, values, fixed",
    [
        ("ell_log10", (0.0, 50.5, 51.0, 54.9, 58.9, 65.0, 69.0), {}),
        ("theta", (0.0, 0.4, 1.1, 0.5 * math.pi), {"ell_log10": 58.0}),
        ("mean_rate", (0.0, -3e14, 1e18), {"ell_log10": 52.0}),
        ("v0", (0.0, 1e8), {"ell_log10": 54.85, "clock_rate": 3e15}),
    ],
)
def test_sweep_rows_are_evaluate_point_bit_for_bit(axis, values, fixed):
    table = run_sweep(SweepConfig(axis=axis, values=values, outputs=OUTPUTS, fixed=fixed))
    assert table.rows.dtype == np.float64
    for value, row in zip(values, table.rows.tolist()):
        point = evaluate_point({**fixed, axis: value})
        for column, cell in zip(table.columns[1:], row[1:]):
            assert cell == point[column] or (math.isnan(cell) and math.isnan(point[column])), column


def test_sweep_validation_names_the_parameter():
    with pytest.raises(ConfigError, match="w must be finite, got nan"):
        SweepConfig(axis="ell_log10", values=(60.0,), outputs=("delta_tau",), fixed={"w": math.nan})
    with pytest.raises(DomainError, match=r"^w must be finite, got inf$"):
        SweepConfig(axis="w", values=(1.0, math.inf), outputs=(), fixed={})
    with pytest.raises(DomainError, match=r"^w must be positive, got -0\.001$"):
        run_sweep(SweepConfig(axis="w", values=(1e-3, -1e-3), outputs=("delta_tau",), fixed={}))
    with pytest.raises(DomainError, match=r"theta must lie in \[0, pi/2\]"):
        run_sweep(SweepConfig(axis="theta", values=(0.1, 1.6), outputs=("qep_visibility",), fixed={}))


def _python_calls(cfg):
    """Python-level function calls that one ``run_sweep(cfg)`` makes.

    The garbage collector is off meanwhile: its callbacks, which other
    tests in the session may register, are not the sweep's calls.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    run_sweep(cfg)  # imports and caches out of the count
    gc.disable()
    sys.setprofile(profile)
    try:
        run_sweep(cfg)
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


def test_sweep_makes_no_python_call_per_row():
    # every closed form is whole-array numpy arithmetic, so the row count
    # changes no Python-level call
    counts = [
        _python_calls(SweepConfig("ell_log10", tuple(np.linspace(-400.0, 75.0, n).tolist()), OUTPUTS, {}))
        for n in (10, 1000)
    ]
    assert counts[0] == counts[1], counts


def test_a_full_output_sweep_calls_no_linear_algebra(monkeypatch):
    # every column is a closed form of the clock's energies: no eigensolver,
    # inverse or norm runs on the sweep's path
    def forbid(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the sweep called np.linalg.{name}")

        return call

    for name in dir(np.linalg):
        value = getattr(np.linalg, name)
        if not name.startswith("_") and callable(value) and not isinstance(value, type):
            monkeypatch.setattr(np.linalg, name, forbid(name))
    cfg = SweepConfig("theta", (0.0, 0.3, 0.785, 0.5 * math.pi), OUTPUTS, {"ell_log10": 59.0})
    assert np.isfinite(run_sweep(cfg).rows).all()


@pytest.mark.parametrize("outputs, calls", [(OUTPUTS, 1), (("delta_tau",), 0), (("phase_gap", "visibility_deficit"), 0)])
def test_a_sweep_forms_its_clock_phases_at_most_once(monkeypatch, outputs, calls):
    # every clock column reads the one (gap, mean) pair; the log-domain phase
    # columns need no clock
    made = []

    def counted(*args):
        made.append(args)
        return clock_phases(*args)

    monkeypatch.setattr(detectability, "clock_phases", counted)
    run_sweep(SweepConfig("ell_log10", tuple(np.linspace(0.0, 70.0, 1000).tolist()), outputs, {}))
    assert len(made) == calls
