"""Tests of the benchmark itself: inputs, checkers, tracing and its counts.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import WORKLOADS, Request, cycles

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def first_cycles(name, seed, known_defects=False, n=3):
    stream = cycles(WORKLOADS[name], seed, known_defects)
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("known_defects", [False, True])
def test_generator_is_deterministic_for_a_seed(name, known_defects):
    assert first_cycles(name, 7, known_defects) == first_cycles(name, 7, known_defects)


def test_generator_inputs_depend_on_the_seed():
    assert first_cycles("states", 1) != first_cycles("states", 2)


def test_every_cycle_holds_each_shape_once():
    for name in WORKLOADS:
        shapes = [[req.shape for req in cycle] for cycle in first_cycles(name, 3)]
        assert all(sorted(s) == sorted(set(s)) == sorted(shapes[0]) for s in shapes), name


def test_known_defect_inputs_are_only_used_on_request():
    ratios = {r.expect["L_ratio"] for c in first_cycles("quadrature", 1) for r in c}
    assert ratios == set(workloads.QUADRATURE_L_RATIOS)
    ratios = {r.expect["L_ratio"] for c in first_cycles("quadrature", 1, True) for r in c}
    assert {1e5, 1e6} <= ratios
    plain = [max(r.expect["values"]) for c in first_cycles("states", 1, n=4) for r in c if r.expect]
    assert max(plain) <= workloads.SWEEP_RANGE[1]
    wide = [max(r.expect["values"]) for c in first_cycles("states", 1, True, n=4) for r in c if r.expect]
    assert sum(v > 69 for v in wide) == len(wide) // workloads.SWEEP_WIDE_EVERY


# --- checkers ----------------------------------------------------------------

QUAD_HEADER = "delta_tau_closed_form,delta_tau_closed_form_log10,delta_tau_quadrature,delta_tau_quadrature_log10\n"
# outputs of `delta-tau --mode both --v0 1 --L-ratio X` at the seed
QUAD_SEED_1E3 = QUAD_HEADER + (
    "1.3220348223516857e-40,-3.9878757105398023e+01,1.3220346570973642e-40,-3.9878757159684831e+01\n"
)
QUAD_SEED_1E6 = QUAD_HEADER + (
    "1.3220348223516857e-40,-3.9878757105398023e+01,1.8058144473434502e-40,-3.9743326876743915e+01\n"
)


def quad_request(ratio):
    return Request(f"L/w={ratio:g}", (), {"L_ratio": ratio})


def test_quadrature_checker():
    check = workloads.check_quadrature
    assert check(quad_request(1e3), 0, QUAD_SEED_1E3) is None
    assert "off by" in check(quad_request(1e6), 0, QUAD_SEED_1E6)
    assert check(quad_request(1e3), 3, QUAD_SEED_1E3) == "exit code 3"
    # the right value for another L/w is wrong here
    assert check(quad_request(1e4), 0, QUAD_SEED_1E3) is not None


def verify_json(**outputs):
    base = {"residual_slope": 2.01, "energy_ratio_drift": 3e-13, "all_converged": True}
    return json.dumps({"inputs": {}, "outputs": {**base, **outputs}})


def test_verify_checker():
    req = Request("verify", ())
    assert workloads.check_verify(req, 0, verify_json()) is None
    assert workloads.check_verify(req, 0, verify_json(all_converged=False)) is not None
    assert workloads.check_verify(req, 0, verify_json(residual_slope=2.3)) is not None
    assert workloads.check_verify(req, 0, verify_json(residual_slope="nan")) is not None
    assert workloads.check_verify(req, 0, verify_json(energy_ratio_drift=1e-9)) is not None
    assert workloads.check_verify(req, 3, verify_json()) == "exit code 3"


def test_selftest_checker():
    req = Request("selftest", ())
    good = {"a": {"value": 0.0, "bound": 1.0, "passed": True}}
    bad = {**good, "b": {"value": 2.0, "bound": 1.0, "passed": False}}
    assert workloads.check_selftest(req, 0, json.dumps({"outputs": good})) is None
    assert "['b']" in workloads.check_selftest(req, 0, json.dumps({"outputs": bad}))
    assert workloads.check_selftest(req, 0, json.dumps({"outputs": {}})) is not None
    assert workloads.check_selftest(req, 1, json.dumps({"outputs": good})) == "exit code 1"
    # the states workload checks its selftest requests with this checker
    assert "['b']" in workloads.check_states(req, 0, json.dumps({"outputs": bad}))


def sweep_output(cli, capsys, req):
    assert cli.run_command(list(req.argv)) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def small_sweeps():
    return [
        Request(r.shape, r.argv[:4] + (",".join(repr(v) for v in r.expect["values"][:5]),) + r.argv[5:],
                {**r.expect, "values": r.expect["values"][:5]})
        for r in first_cycles("states", 5, n=1)[0]
        if r.shape != "selftest"
    ]


def test_sweep_checker_accepts_program_output(cli, capsys):
    for req in small_sweeps():
        assert workloads.check_states(req, 0, sweep_output(cli, capsys, req)) is None, req.shape


def test_sweep_checker_rejects_a_perturbed_delta_tau_log10(cli, capsys):
    req = next(r for r in small_sweeps() if r.shape == "csv_all")
    lines = sweep_output(cli, capsys, req).splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[3] = ",".join(cells)
    assert "delta_tau_log10" in workloads.check_sweep(req, 0, "\n".join(lines) + "\n")


def test_sweep_checker_rejects_wrong_columns_and_rows(cli, capsys):
    reqs = {r.shape: r for r in small_sweeps()}
    narrow = sweep_output(cli, capsys, reqs["csv_delta_tau"])
    assert "columns" in workloads.check_sweep(reqs["csv_all"], 0, narrow)
    short = "\n".join(narrow.splitlines()[:-1]) + "\n"
    assert "rows" in workloads.check_sweep(reqs["csv_delta_tau"], 0, short)


def test_sweep_delta_tau_offset_matches_the_closed_form():
    ell_log10 = 60.0
    expected = 16.0 * workloads.G * workloads.HBAR * 10**ell_log10 / (workloads.C**4 * 1e-3)
    assert math.isclose(workloads.SWEEP_DELTA_TAU_LOG10_OFFSET + ell_log10, math.log10(expected), abs_tol=1e-12)


# --- tracing -------------------------------------------------------------------


def test_every_layer_function_is_wrapped_at_every_binding_site(cli):
    import gravclock
    from gravclock import clockstate, detectability, interferometry

    t = tracer.Tracer()
    original = interferometry.gme_entanglement
    patches, originals = tracer.install(t)
    try:
        assert tracer.unwrapped_sites(originals) == []
        assert set(originals) == {layer.name for layer in tracer.LAYERS}
        # names imported with `from ... import` share the one wrapper
        assert detectability.gme_entanglement is interferometry.gme_entanglement is not original
        assert cli.reduced_density is clockstate.reduced_density is gravclock.reduced_density
        assert cli.reduced_density.__wrapped__ is originals["clockstate.reduced_density"]
    finally:
        tracer.uninstall(patches)
    assert interferometry.gme_entanglement is original
    assert tracer.unwrapped_sites(originals) != []


def test_each_call_is_recorded_once_with_self_time(cli):
    from gravclock import interferometry

    t = tracer.Tracer()
    patches, _ = tracer.install(t)
    try:
        clock = interferometry.ClockModel(E_g=0.0, E_e=1e-19)
        interferometry.gme_entanglement(clock, 1e-15)
    finally:
        tracer.uninstall(patches)
    names = [span[0] for span in t.spans]
    assert names.count("interferometry.gme_entanglement") == 1
    metrics = tracer.layer_metrics(t.spans, 0.0)
    assert metrics["interferometry.gme_entanglement.calls"] == 1
    assert metrics["clockstate.reduced_density.calls"] == 2
    root = t.spans[0]
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-9)


def test_a_renamed_function_reports_zero_calls(cli, monkeypatch):
    gone = tracer.Layer("kernels", "renamed_away", "nothing", "elements", tracer._elements)
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (gone,))
    t = tracer.Tracer()
    patches, originals = tracer.install(t)
    tracer.uninstall(patches)
    assert "kernels.renamed_away" not in originals
    metrics = tracer.layer_metrics(t.spans, 0.0)
    assert metrics["kernels.renamed_away.calls"] == 0
    assert metrics["kernels.renamed_away.elements"] == 0
    assert metrics["kernels.renamed_away.self_s"] == 0.0


def traced_counts(capsys, name, seed):
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, capsys):
    first = traced_counts(capsys, name, 11)
    assert first == traced_counts(capsys, name, 11)
    assert any(first.values())


# --- BENCHMARK.json --------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.metric_specs()
    ]
