"""``selftest`` builds each suite as stacks of states; the per-sample loops it
replaced are kept here as the oracle."""

import functools
import json
import math

import numpy as np
import pytest

from gravclock import cli
from gravclock import interferometry as itf
from gravclock import qep as qep_mod
from gravclock.clockstate import (
    density_from_state,
    entanglement_of_formation,
    reduced_density,
    state_vector,
    tensor_state,
    von_neumann_entropy,
    witness_value,
)
from gravclock.constants import CODATA

BOUNDS = {
    "gme_entropy_vs_oracle": 1e-10,
    "gme_formation_vs_oracle": 1e-10,
    "gme_witness_vs_oracle": 1e-10,
    "probabilities_vs_state": 1e-12,
    "qep_visibility_vs_overlap": 1e-10,
    "qep_entropy_vs_oracle": 1e-10,
    "qep_formation_vs_oracle": 1e-6,
    "qep_probabilities_vs_state": 1e-12,
    "witness_on_product_states": 1.0 + 1e-9,
}


@functools.lru_cache(maxsize=None)
def per_point_gme_grid(constants=CODATA):
    """Worst errors of the 10x10 GME grid, which draws no random numbers."""
    hbar = constants.hbar
    worst = {}
    worst_ee = worst_ef = worst_w = worst_pr = 0.0
    for gap_phase in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
        for mean_phase in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
            clock = itf.ClockModel(
                E_g=(mean_phase - 0.5 * gap_phase) * hbar,
                E_e=(mean_phase + 0.5 * gap_phase) * hbar,
            )
            res = itf.gme_entanglement(clock, 1.0, constants)
            state = itf.gme_final_state(clock, 1.0, constants)
            pair = reduced_density(state, ["S", "P"])
            worst_ee = max(worst_ee, abs(res.ee_spc - von_neumann_entropy(reduced_density(state, ["S"]))))
            worst_ef = max(worst_ef, abs(res.ef_sp - entanglement_of_formation(pair)))
            worst_w = max(worst_w, abs(res.witness - witness_value(pair)))
            state = itf.interferometer_state(clock, 1.0, constants)
            pl = float(np.real(reduced_density(state, ["P"]).matrix[0, 0]))
            worst_pr = max(worst_pr, abs(itf.detection_probabilities(clock, 1.0, constants).pr_left - pl))
    worst["gme_entropy_vs_oracle"] = worst_ee
    worst["gme_formation_vs_oracle"] = worst_ef
    worst["gme_witness_vs_oracle"] = worst_w
    worst["probabilities_vs_state"] = worst_pr
    return worst


def per_sample_selftest(seed, samples, constants=CODATA):
    """Worst error of each check, one state per sample, as selftest computed it before stacks."""
    rng = np.random.default_rng(seed)
    hbar = constants.hbar
    worst = dict(per_point_gme_grid(constants))

    worst_q = worst_qee = worst_qef = worst_qpr = 0.0
    for _ in range(100):
        theta = rng.uniform(0.0, 0.5 * math.pi)
        gap = rng.uniform(0.0, 2.0 * math.pi)
        mean = rng.uniform(0.0, 2.0 * math.pi)
        varphi = rng.uniform(0.0, 2.0 * math.pi)
        tt = qep_mod.QepTestTheory(
            clock=itf.ClockModel(0.0, hbar),
            E_g_prime=(mean - 0.5 * gap) * hbar,
            E_e_prime=(mean + 0.5 * gap) * hbar,
            theta=theta,
            varphi=varphi,
        )
        res = qep_mod.qep_gme_entanglement(tt, 1.0, constants)
        chi1, chi2 = qep_mod.qep_arm_states(tt, 1.0, constants)
        worst_q = max(worst_q, abs(abs(np.vdot(chi1, chi2)) - res.visibility))
        state = qep_mod.qep_final_state(tt, 1.0, constants)
        worst_qee = max(worst_qee, abs(res.ee_spc - von_neumann_entropy(reduced_density(state, ["S"]))))
        worst_qef = max(
            worst_qef, abs(res.ef_sp - entanglement_of_formation(reduced_density(state, ["S", "P"])))
        )
        pl = float(np.real(reduced_density(state, ["P"]).matrix[0, 0]))
        worst_qpr = max(worst_qpr, abs(qep_mod.qep_probabilities(tt, 1.0, constants).pr_left - pl))
    worst["qep_visibility_vs_overlap"] = worst_q
    worst["qep_entropy_vs_oracle"] = worst_qee
    worst["qep_formation_vs_oracle"] = worst_qef
    worst["qep_probabilities_vs_state"] = worst_qpr

    worst_w = 0.0
    for _ in range(samples):
        amps_s = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps_p = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = tensor_state([state_vector(amps_s, [("S", 2)]), state_vector(amps_p, [("P", 2)])])
        worst_w = max(worst_w, witness_value(density_from_state(state)))
    worst["witness_on_product_states"] = worst_w
    return worst


def selftest_json(capsys, seed, samples):
    code = cli.run_command(["selftest", "--format", "json", "--seed", str(seed), "--samples", str(samples)])
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("samples", [50, 200])
@pytest.mark.parametrize("seed", range(5))
def test_stacked_selftest_matches_the_per_sample_loops(capsys, seed, samples):
    code, out = selftest_json(capsys, seed, samples)
    assert code == 0
    checks = json.loads(out)["outputs"]
    oracle = per_sample_selftest(seed, samples)
    assert list(checks) == list(BOUNDS)
    for name, result in checks.items():
        assert result["bound"] == BOUNDS[name]
        assert result["passed"] is bool(oracle[name] <= BOUNDS[name])
        assert abs(result["value"] - oracle[name]) <= 1e-15, name


@pytest.mark.parametrize("samples", [50, 200])
def test_blocks_do_not_reorder_the_draws(capsys, monkeypatch, samples):
    _, one_block = selftest_json(capsys, 3, samples)
    monkeypatch.setattr(cli, "SELFTEST_BLOCK", 7)
    _, blocks_of_seven = selftest_json(capsys, 3, samples)
    assert blocks_of_seven == one_block


def test_the_arm_states_and_selftest_call_no_eigensolver(capsys, monkeypatch):
    # the arm kets are built in bases whose eigenvectors are known, so no
    # np.linalg.eigh runs to find them again
    def forbid(*args, **kwargs):
        raise AssertionError("np.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", forbid)
    hbar = CODATA.hbar
    theta, gap, mean, varphi = np.random.default_rng(42).uniform(0.0, [[1.5], [6.0], [6.0], [6.0]], size=(4, 5))
    clock = itf.ClockModel(0.0, hbar)
    tt = qep_mod.QepTestTheory(clock, (mean - 0.5 * gap) * hbar, (mean + 0.5 * gap) * hbar, theta, varphi)
    chi1, chi2 = qep_mod.qep_arm_states(tt, 1.0)
    assert chi1.shape == chi2.shape == (5, 2)
    assert cli.run_command(["selftest", "--samples", "20"]) == 0
    assert "false" not in capsys.readouterr().out
