import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gravclock
from gravclock import cli, propertime
from gravclock.cli import run_command
from gravclock.constants import CODATA
from gravclock.detectability import OUTPUTS
from gravclock.interferometry import clock_phases

EXPECTED_DELTA_TAU = 16.0 * 6.67430e-11 / ((2.99792458e8) ** 4 * 1e-3)


def run_cli(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, values = rows[0], rows[1:]
    return header, values


def test_delta_tau_example(capsys):
    code, out, _ = run_cli(capsys, "delta-tau", "--J", "1", "--w", "1e-3", "--v0", "0")
    assert code == 0
    header, values = parse_csv(out)
    row = dict(zip(header, values[0]))
    assert abs(float(row["delta_tau"]) / EXPECTED_DELTA_TAU - 1.0) < 1e-12
    assert abs(float(row["delta_tau"]) / 1.3220e-40 - 1.0) < 1e-4


def test_interfere_zero_shift(capsys):
    code, out, _ = run_cli(capsys, "interfere", "--delta-tau", "0")
    assert code == 0
    header, values = parse_csv(out)
    row = dict(zip(header, values[0]))
    assert float(row["pr_left"]) == 1.0
    assert float(row["visibility"]) == 1.0


def test_detect_required_ell(capsys):
    code, out, _ = run_cli(
        capsys, "detect", "--clock-rate", "1e15", "--w", "1e-3", "--target-phase", "1"
    )
    assert code == 0
    header, values = parse_csv(out)
    row = dict(zip(header, values[0]))
    assert abs(float(row["log10_ell"]) - 58.8557) < 1e-3


def test_json_output_schema(capsys):
    code, out, _ = run_cli(
        capsys, "gme", "--delta-tau", "1e-15", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"inputs", "outputs", "meta"}
    assert set(doc["meta"]) == {"version", "constants"}
    assert set(doc["meta"]["constants"]) == {"c", "G", "hbar"}
    assert 0.0 <= doc["outputs"]["ee_spc"] <= 1.0
    # 17 significant digits in scientific notation
    assert "e" in out.split('"pr_left"')[0]


def test_byte_identical_reruns(capsys):
    args = ("qep", "--delta-tau", "3e-16", "--theta", "0.5", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, third, _ = run_cli(capsys, "selftest", "--samples", "50", "--seed", "5")
    _, fourth, _ = run_cli(capsys, "selftest", "--samples", "50", "--seed", "5")
    assert third == fourth


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("J = 2.0\nw = 1e-3  # comment\nv0 = 0\n")
    code, out, _ = run_cli(capsys, "delta-tau", "--config", str(cfg))
    assert code == 0
    _, values = parse_csv(out)
    assert abs(float(values[0][0]) / (2.0 * EXPECTED_DELTA_TAU) - 1.0) < 1e-12
    # explicit flag wins over the file value
    code, out, _ = run_cli(capsys, "delta-tau", "--config", str(cfg), "--J", "4.0")
    _, values = parse_csv(out)
    assert abs(float(values[0][0]) / (4.0 * EXPECTED_DELTA_TAU) - 1.0) < 1e-12


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run_cli(capsys, "delta-tau", "--config", str(cfg))
    assert code == 2
    assert "nonsense" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 64
    code, _, _ = run_cli(capsys, "delta-tau", "--mode", "bogus")
    assert code == 64


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "delta-tau", "--w", "-1")
    assert code == 2
    assert "validation" in err


def test_verify_rejects_scales_whose_solve_finds_no_maximum(capsys):
    # past ~14 the maximum is gone (a fold) and the scale-15 solve heads for
    # r = 0, where the perturbed functional is unbounded above: its Hessian
    # stops being negative definite, and the solve says so at that sweep
    code, out, err = run_cli(capsys, "verify", "--scales", "15,30")
    assert code == 2
    assert out == ""
    assert "scale 15: sweep 3 found no maximum" in err


_NO_MAXIMUM = (
    "scale {}: sweep {} found no maximum of the proper time near the path: "
    "its Hessian is not negative definite"
)


_FIRST_FAILING_SCALE = [
    # the scales are solved together, but the error is the one that
    # solving them in order gives: the first failing scale in the list, at
    # its own sweep, although scale 30 fails first, at sweep 1
    ("15,30", _NO_MAXIMUM.format(15, 3)),
    ("1,15", _NO_MAXIMUM.format(15, 3)),
    ("30,1", _NO_MAXIMUM.format(30, 1)),
    ("15,300", _NO_MAXIMUM.format(15, 3)),
    ("20,1", _NO_MAXIMUM.format(20, 2)),
    # the step that a negative definite Hessian gives overshoots
    ("14.5,1", "scale 14.5: sweep 3: the Newton step did not raise the proper time"),
    # from ~300 the predictor start itself is not timelike
    ("300,1", "scale 300: the predictor start is not timelike"),
]


@pytest.mark.parametrize(
    "scales, error", _FIRST_FAILING_SCALE, ids=[scales for scales, _ in _FIRST_FAILING_SCALE]
)
def test_verify_names_the_first_scale_whose_solve_fails(capsys, scales, error):
    assert run_cli(capsys, "verify", "--scales", scales) == (2, "", f"validation error: {error}\n")


@pytest.mark.parametrize(
    "scales, reason",
    [
        ("inf", "finite"), ("nan", "finite"), ("1", "two distinct"),
        # the 1e-6 and 1e-5 shifts sit at the rounding floor of tau ~ 30
        ("1e-6,1e-5,1e-2", "rounding floor"),
    ],
)
def test_verify_rejects_unusable_scales(capsys, scales, reason):
    code, out, err = run_cli(capsys, "verify", "--scales", scales)
    assert code == 2
    assert out == ""
    assert "scales" in err and reason in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--scales", "1,abc"), "scales"),
        (("verify", "--scales", " 2 , x1"), "scales"),
        (("sweep", "--axis", "w", "--values", "1,abc"), "values"),
        (("sweep", "--axis", "w", "--values", "1e-3,,0x10", "--outputs", "delta_tau"), "values"),
    ],
)
def test_comma_lists_name_their_flag(capsys, argv, flag):
    bad = argv[argv.index(f"--{flag}") + 1].split(",")[-1].strip()
    expected = f"validation error: {flag} must be comma-separated numbers, got {bad!r}\n"
    assert run_cli(capsys, *argv) == (2, "", expected)


def test_verify_rejects_scales_outside_the_perturbative_regime(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-segments", "64", "--scales", "1e300,2e300")
    assert code == 2
    assert out == ""
    assert "scales" in err and "perturbative" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (("delta-tau", "--w", "nan"), "w"),
        (("delta-tau", "--J", "inf"), "J"),
        (("delta-tau", "--M", "nan"), "M"),
        (("delta-tau", "--mode", "both", "--v0", "inf"), "v0"),
        (("delta-tau", "--mode", "quadrature", "--v0", "1", "--L-ratio", "nan"), "L_ratio"),
        (("interfere", "--w", "inf"), "w"),
        (("interfere", "--delta-tau", "nan"), "delta_tau"),
        (("interfere", "--gap-rate", "nan"), "gap_rate"),
        (("gme", "--delta-tau", "nan"), "delta_tau"),
        (("qep", "--delta-tau", "inf"), "delta_tau"),
        (("interfere", "--E-g", "nan", "--E-e", "1e-19"), "E_g"),
        (("qep", "--delta-tau", "1e-15", "--prime-gap-rate", "inf"), "prime_gap_rate"),
        (("sweep", "--axis", "ell_log10", "--values", "60", "--outputs", "ee_spc", "--w", "nan"), "w"),
        (("sweep", "--axis", "ell_log10", "--values", "60", "--outputs", "delta_tau", "--mean-rate", "nan"), "mean_rate"),
        (("detect", "--w", "nan"), "w"),
        (("detect", "--ell-log10", "inf"), "ell_log10"),
        (("detect", "--target-phase", "nan"), "target_phase"),
        (("interfere", "--delta-tau", "1e-15", "--w", "nan"), "w"),
        (("gme", "--E-g", "0", "--E-e", "1e-19", "--gap-rate", "inf"), "gap_rate"),
        # the flag is named, not the arm half-length L = L_ratio * w it gives
        (("delta-tau", "--L-ratio", "inf"), "L_ratio"),
        (("interfere", "--L-ratio", "nan"), "L_ratio"),
        (("gme", "--L-ratio", "inf"), "L_ratio"),
        (("qep", "--delta-tau", "1e-15", "--L-ratio=-inf"), "L_ratio"),
        # finite flags whose product L = L_ratio * w overflows
        (("delta-tau", "--L-ratio", "1e300", "--w", "1e10"), "L_ratio * w"),
        (("interfere", "--L-ratio", "1e300", "--w", "1e10"), "L_ratio * w"),
    ],
)
def test_non_finite_inputs_are_validation_errors(capsys, argv, field):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{field} must be finite" in err


@pytest.mark.parametrize(
    "head, flag, value",
    [
        (("delta-tau",), "--J", "-1e30"),
        (("delta-tau",), "--J", "-1E+30"),
        (("delta-tau",), "--J", "-.5"),
        (("delta-tau",), "--J", "-inf"),
        (("delta-tau",), "--J", "-NaN"),
        (("interfere",), "--mean-rate", "-5e14"),
        (("sweep", "--axis", "v0", "--outputs", "delta_tau"), "--values", "-1,2"),
    ],
)
def test_negative_values_in_every_float_form_are_values_not_options(capsys, head, flag, value):
    # "--flag=value" can never read as an option, so "--flag value" must match it
    spaced = run_cli(capsys, *head, flag, value)
    assert spaced == run_cli(capsys, *head, f"{flag}={value}")
    assert spaced[0] != cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("delta-tau", "--v0", "1e300"),
        ("delta-tau", "--v0", "3e9"),
        ("delta-tau", "--mode", "quadrature", "--v0", "3e9"),
        ("delta-tau", "--v0", "299792458"),
        ("detect", "--v0", "3e9"),
        ("sweep", "--axis", "v0", "--values", "3e9", "--ell-log10", "55", "--outputs", "delta_tau"),
    ],
)
def test_speeds_not_below_c_are_validation_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "v0 must be below c" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("detect", "--w", "-1"), "w must be positive, got -1.0"),
        (("detect", "--clock-rate", "0"), "clock_rate must be positive, got 0.0"),
        (("detect", "--target-phase", "-1"), "target_phase must be positive"),
        (("sweep", "--axis", "clock_rate", "--values", "1e15,0", "--outputs", "delta_tau"),
         "clock_rate must be positive, got 0.0"),
        (("delta-tau", "--J", "1e308", "--w", "1e-300"), "J = 1e+308 and w = 1e-300"),
        (("delta-tau", "--mode", "quadrature", "--v0", "1e-300"), "v0 = 1e-300"),
        (("delta-tau", "--mode", "quadrature", "--v0", "1e-310"), "v0 = 1e-310"),
        (("delta-tau", "--mode", "both", "--v0", "1e-270"), "v0 = 1e-270"),
        (("delta-tau", "--mode", "both", "--v0", "1e-280"), "v0 = 1e-280"),
        (("delta-tau", "--mode", "quadrature", "--v0", "1", "--J", "1e-265"), "J = 1e-265"),
        (("selftest", "--samples", "0"), "samples must be positive, got 0"),
        (("selftest", "--samples", "-3"), "samples must be positive, got -3"),
    ],
)
def test_out_of_domain_inputs_are_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Warning" not in err


def test_delta_tau_log10_survives_linear_underflow(capsys):
    # 16 G K / (c^4 w) at w = 1e300 m is ~1e-343 s: below the smallest double
    code, out, _ = run_cli(capsys, "delta-tau", "--w", "1e300")
    assert code == 0
    header, values = parse_csv(out)
    row = dict(zip(header, map(float, values[0])))
    assert row["delta_tau"] == 0.0
    assert row["delta_tau_log10"] == pytest.approx(math.log10(EXPECTED_DELTA_TAU) - 303.0, abs=1e-12)


def test_huge_c_gives_finite_values(tmp_path, capsys):
    override = tmp_path / "constants.cfg"
    override.write_text("c = 1e300\n")
    code, out, err = run_cli(capsys, "delta-tau", "--constants", str(override), "--v0", "1e200")
    assert code == 0, err
    _, values = parse_csv(out)
    assert all(math.isfinite(float(v)) for v in values[0])


@pytest.mark.parametrize(
    "command, line, key",
    [
        ("delta-tau", "format = xml", "format"),
        ("delta-tau", "mode = bogus", "mode"),
        ("verify", "n_segments = 2.7", "n_segments"),
        ("interfere", "gap-rate = fast", "gap_rate"),
        ("delta-tau", "n_segments = 64", "n_segments"),
        ("gme", "gap = 1e15", "gap"),  # a prefix of --gap-rate is still unknown
    ],
)
def test_bad_config_entries_name_the_key_and_line(tmp_path, capsys, command, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# header\n{line}\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"{cfg}:2: config key {key!r}" in err


def test_config_values_are_not_read_as_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scales = -1,2\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "perturbation scales must be positive" in err
    cfg.write_text("format = json\nn_segments = 16\nscales = 0.5,1\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert out.startswith("epsilon,")


@pytest.mark.parametrize("line, name", [("c = nan", "c"), ("G = inf", "G"), ("hbar = nan", "hbar")])
def test_non_finite_constants_are_validation_errors(tmp_path, capsys, line, name):
    override = tmp_path / "constants.cfg"
    override.write_text(line + "\n")
    code, out, err = run_cli(capsys, "delta-tau", "--constants", str(override))
    assert code == 2
    assert out == ""
    assert f"physical constant {name} must be finite" in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("c 1.0", "expected 'key = value'"),
        ("speed = 1.0", "unknown constant 'speed'"),
        ("c = fast", "bad float 'fast'"),
    ],
)
def test_bad_constants_entries_name_the_file_and_line(tmp_path, capsys, line, message):
    override = tmp_path / "constants.cfg"
    override.write_text(f"# header\n{line}\n")
    code, out, err = run_cli(capsys, "delta-tau", "--constants", str(override))
    assert (code, out) == (2, "")
    assert err == f"validation error: {override}:2: {message}\n"


def _fresh_interpreter(code):
    """Run `code` in a new Python process that imports gravclock from these sources."""
    src = str(Path(gravclock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_verify_does_not_import_scipy():
    # importing scipy.linalg alone doubles the peak resident memory of a run
    code = (
        "import sys; from gravclock.cli import run_command; "
        "assert run_command(['verify', '--n-segments', '16']) == 0; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_builds_no_parser():
    # a one-shot `gravclock --version` pays for the import; the parser waits for the first request
    code = (
        "import gravclock.cli as cli; "
        "assert cli._build_parser.cache_info().misses == 0, 'built at import'; "
        "assert cli.run_command(['delta-tau']) == 0; "
        "assert cli._build_parser.cache_info().misses == 1, 'not built by the request'"
    )
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr


def test_one_parser_serves_every_request(tmp_path, capsys):
    # the parser is built once per process, so no request may leave state for the next
    cfg = tmp_path / "run.cfg"
    cfg.write_text("J = 2.0\nmode = both\nv0 = 1\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("w = 1e-3\ngap_rate = fast\n")
    target = tmp_path / "out.csv"
    sequence = [
        ("delta-tau", "--config", str(cfg)),
        ("delta-tau", "--mode", "bogus"),
        ("gme", "--delta-tau", "1e-15", "--format", "json"),
        ("interfere", "--delta-tau", "3e-16", "--output", str(target)),
        ("delta-tau", "--w", "-1"),
        ("interfere", "--config", str(bad)),
        ("delta-tau", "--config", str(cfg)),
    ]

    def run(argv):
        target.unlink(missing_ok=True)
        return (*run_cli(capsys, *argv), target.read_text() if target.exists() else None)

    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in sequence]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [result[0] for result in shared] == [0, 64, 0, 0, 2, 2, 0]
    assert shared[0] == shared[-1]


@pytest.mark.parametrize("ratio", ["1e1", "1e4", "1e8"])
def test_quadrature_matches_the_finite_arm_closed_form(capsys, ratio):
    code, out, _ = run_cli(
        capsys, "delta-tau", "--mode", "both", "--v0", "1", "--L-ratio", ratio
    )
    assert code == 0
    header, values = parse_csv(out)
    row = dict(zip(header, map(float, values[0])))
    finite_arm = row["delta_tau_closed_form"] * math.sin(math.atan(2.0 * float(ratio)))
    assert abs(row["delta_tau_quadrature"] / finite_arm - 1.0) < 1e-9


def test_quadrature_at_tiny_v0_is_exact_or_names_v0(capsys):
    # each sample carries h_tphi dphi/dt ~ v0; subnormal samples lose digits
    # that the division by dphi/dt magnifies toward the arm's ends
    def run(v0):
        code, out, err = run_cli(capsys, "delta-tau", "--mode", "both", "--v0", v0)
        if code != 0:
            return code, err
        header, values = parse_csv(out)
        return code, float(values[0][header.index("delta_tau_quadrature")])

    code, reference = run("1e-200")
    assert code == 0
    for v0 in ("1e-250", "1e-261", "1e-262", "1e-270", "1e-280", "1e-300"):
        code, result = run(v0)
        if code == 0:
            assert abs(result / reference - 1.0) <= 1e-12, v0
        else:
            assert code == 2 and f"v0 = {v0}" in result, (v0, code, result)


def test_quadrature_at_the_sample_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(propertime, "MAX_QUADRATURE_SAMPLES", 512)
    code, out, err = run_cli(capsys, "delta-tau", "--mode", "quadrature", "--v0", "1")
    assert code == 3
    assert out == ""
    assert "no convergence" in err and "L/w = 1000" in err


def test_quadrature_with_a_nan_radicand_exits_2_before_refining(capsys, monkeypatch):
    # r^2 underflows at w = 1e-300; without the check the NaN samples refine to the cap
    monkeypatch.setattr(propertime, "MAX_QUADRATURE_SAMPLES", 1024)
    code, out, err = run_cli(
        capsys, "delta-tau", "--mode", "quadrature", "--J", "1e300", "--w", "1e-300", "--v0", "1"
    )
    assert code == 2
    assert out == ""
    assert err == "validation error: the arm quadrature at J = 1e+300, w = 1e-300, v0 = 1.0 leaves double range\n"


def test_an_arm_whose_r_squared_overflows_names_the_inputs(capsys):
    # L = 1e304 at w = 1e300: r * r overflows at the arm's ends, so dphi/dt rounds to 0
    code, out, err = run_cli(capsys, "delta-tau", "--mode", "quadrature", "--v0", "1", "--w", "1e300")
    assert (code, out) == (2, "")
    assert err == "validation error: the arm quadrature at J = 1.0, w = 1e+300, v0 = 1.0 leaves double range\n"


@pytest.mark.parametrize(
    "flags, named",
    [
        # 2GM/(c^2 r) > 1 at the arm's closest point
        (("--M", "1e30", "--v0", "1"), "M = 1e+30, w = 0.001, v0 = 1.0"),
        # v^2/c^2 rounds to 1 at some sample
        (("--v0", "299792457.99999994"), "M = 0.0, w = 0.001, v0 = 299792457.99999994"),
    ],
)
def test_quadrature_samples_that_are_not_timelike_name_the_inputs(capsys, flags, named):
    code, out, err = run_cli(capsys, "delta-tau", "--mode", "quadrature", *flags)
    assert (code, out) == (2, "")
    assert err == f"validation error: the arm quadrature at {named} has samples that are not timelike in the background\n"


def test_constants_override_via_env(tmp_path, capsys, monkeypatch):
    override = tmp_path / "constants.cfg"
    override.write_text("c = 1.0\nG = 1.0\nhbar = 1.0\n")
    monkeypatch.setenv("GRAVCLOCK_CONSTANTS", str(override))
    code, out, _ = run_cli(capsys, "delta-tau", "--J", "1", "--w", "2.0", "--v0", "0")
    assert code == 0
    _, values = parse_csv(out)
    assert abs(float(values[0][0]) - 8.0) < 1e-12  # 16 * 1 * 1 / (1 * 2)
    monkeypatch.delenv("GRAVCLOCK_CONSTANTS")


def test_sweep_csv_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--axis", "w", "--values", "1e-3,1e-2,1e-1",
        "--outputs", "delta_tau,visibility_deficit",
    )
    assert code == 0
    header, values = parse_csv(out)
    assert header[0] == "w"
    assert "delta_tau_log10" in header
    assert len(values) == 3
    idx = header.index("delta_tau_log10")
    drops = [float(values[i][idx]) - float(values[i + 1][idx]) for i in range(2)]
    assert all(abs(d - 1.0) < 1e-9 for d in drops)


@pytest.mark.parametrize(
    "outputs", ["delta_tau,visibility_deficit,pr_left", "delta_tau", ",".join(OUTPUTS)]
)
def test_sweep_rows_overflow_one_by_one(capsys, outputs):
    # ell = 1e400 overflows delta_tau and every phase; that row holds inf or
    # NaN in its linear columns and keeps its log10 magnitudes
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "ell_log10", "--values", "60,400", "--outputs", outputs
    )
    assert code == 0, err
    header, values = parse_csv(out)
    finite, overflowed = (dict(zip(header, map(float, row))) for row in values)
    assert all(math.isfinite(v) for v in finite.values())
    assert overflowed["delta_tau"] == math.inf
    for name in ("delta_tau_log10", "phase_gap_log10", "phase_mean_log10"):
        if name in header:
            assert overflowed[name] == pytest.approx(finite[name] + 340.0, abs=1e-9)
    for name in ("visibility_deficit", "pr_left", "ee_spc", "qep_visibility"):
        if name in header:
            assert math.isnan(overflowed[name])


@pytest.mark.parametrize("command", ["interfere", "gme", "qep"])
def test_clock_phases_that_overflow_are_validation_errors(capsys, command):
    code, out, err = run_cli(capsys, command, "--delta-tau", "1e300")
    assert code == 2
    assert out == ""
    assert "delta_tau 1e+300 makes the gap phase overflow" in err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("--delta-tau", "7e-15", "--gap-rate", "2e15"),
        ("--delta-tau", "-2e-15", "--gap-rate", "0", "--mean-rate", "1e300"),
        ("--E-g", "0", "--E-e", "1e-19", "--delta-tau", "3e-15"),
    ],
)
def test_interfere_and_gme_print_the_clock_phases_bit_for_bit(capsys, argv):
    # the printed phases are clock_phases' doubles, not a log10 round trip
    outputs = {}
    for command in ("interfere", "gme"):
        code, out, err = run_cli(capsys, command, *argv, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        outputs[command] = doc["outputs"]
    inputs = doc["inputs"]
    gap, mean = clock_phases(inputs["E_g"], inputs["E_e"], inputs["delta_tau"], CODATA.hbar)
    assert (outputs["interfere"]["phase_gap"], outputs["interfere"]["phase_mean"]) == (gap, mean)
    assert math.copysign(1.0, outputs["interfere"]["phase_gap"]) == math.copysign(1.0, gap)
    assert outputs["gme"]["visibility"] == np.cos(gap)


CLOCK_OUTPUTS = [name for name in OUTPUTS if name.startswith(("pr_", "ee_", "ef_", "witness", "qep_"))]


@pytest.mark.parametrize("output", CLOCK_OUTPUTS)
def test_sweep_clock_energies_that_overflow_name_the_rates(capsys, output):
    # the second row's E_e = (1.7e308 + 0.85e308) hbar overflows
    argv = ("sweep", "--axis", "mean_rate", "--values", "1,1.7e308", "--clock-rate", "1.7e308")
    code, out, err = run_cli(capsys, *argv, "--outputs", output)
    assert (code, out) == (2, "")
    assert err == "validation error: mean_rate 1.7e+308 and clock_rate 1.7e+308 make a clock energy overflow\n"
    # the outputs that need no clock build none, so they give no error
    code, out, err = run_cli(capsys, *argv, "--outputs", "delta_tau,phase_mean,phase_gap,visibility_deficit")
    assert (code, err) == (0, "")


def test_qep_commutator_ratio_is_finite_at_huge_energies(capsys):
    # (|dE| / max|E|) (|dE'| / max|E'|) sin(2 theta) / 2 = 0.9 (2/3) sin(1) / 2
    code, out, err = run_cli(
        capsys, "qep", "--delta-tau", "1e-300", "--E-g", "1e200", "--E-e", "1e201",
        "--prime-gap-rate", "1e300", "--prime-mean-rate", "1e300", "--theta", "0.5", "--format", "json",
    )
    assert (code, err) == (0, "")
    ratio = json.loads(out)["inputs"]["commutator_ratio"]
    assert ratio == pytest.approx(0.3 * math.sin(1.0), rel=1e-15)


def test_sweep_requires_axis(capsys):
    code, _, err = run_cli(capsys, "sweep", "--values", "1,2")
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "interfere", "--delta-tau", "0", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    header, values = parse_csv(target.read_text())
    assert dict(zip(header, values[0]))["pr_left"] == "1.0000000000000000e+00"


@pytest.mark.parametrize("flag", ["--output", "--config", "--constants"])
def test_a_directory_for_a_file_flag_is_a_validation_error(tmp_path, capsys, flag):
    code, out, err = run_cli(capsys, "delta-tau", flag, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: ") and str(tmp_path) in err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--samples", "200")
    assert code == 0
    assert "witness_on_product_states" in out
    for name in ("qep_entropy_vs_oracle", "qep_formation_vs_oracle", "qep_probabilities_vs_state"):
        assert f"\n{name}," in out


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--axis", "ell_log10", "--values", "69,70,75,80",
         "--outputs", "ee_spc,ef_sp,qep_ee_spc,qep_ef_sp"),
        ("qep", "--delta-tau", "1e-5", "--theta", "0.3"),
    ],
)
def test_entanglement_stays_bounded_at_large_phases(capsys, argv):
    # phases of ~1e10 rad and beyond, where two double-precision routes to the
    # same entanglement differ by roundoff far above 1e-12
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "Traceback" not in err
    header, values = parse_csv(out)
    names = [n for n in header if n in ("ee_spc", "ef_sp", "qep_ee_spc", "qep_ef_sp")]
    assert names
    for row in values:
        for name in names:
            value = float(row[header.index(name)])
            assert math.isfinite(value) and 0.0 <= value <= 1.0
