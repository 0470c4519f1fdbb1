"""Order-of-magnitude detectability analysis in the log10 domain.

The frame-dragging phase picked up by a clock with transition rate
dE/hbar across an interferometer of width w scales as

    phase = (dE/hbar) * 16 G (ell hbar) K / (c^4 w),   ell = J / hbar.

Laboratory clocks sit near dE/hbar ~ 1e15 rad/s and w ~ 1 mm, which makes
the phase per unit ell about 1e-59 rad; a detectable shift needs ell near
1e60.  Numbers of both magnitudes appear in the same products, so every
ell-bearing computation here stays in (sign, log10) form and linear values
are only materialized when they are representable.  The proper-time
difference is :func:`gravclock.propertime.closed_form_log` with ell in units
of hbar.  Evaluations raise :class:`DomainError` naming the parameter unless
clock_rate and w are finite and positive and 0 <= v0 < c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import propertime as pt
from . import qep as qep_mod
from .constants import CODATA, PhysicalConstants
from .errors import ConfigError, require_finite, require_positive
from .interferometry import (
    ClockModel,
    detection_probabilities,
    gme_entanglement,
    visibility_deficit_from_phase,
)
from .logdomain import SignedLog, log10_sum, per_element

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)
_LOG10_2 = math.log10(2.0)
_LOG10_4 = math.log10(4.0)
_ASYMPTOTIC_PHASE = 1e-8


def phase_per_unit_ell_log10(
    clock_rate: float, w: float, v0: float = 0.0, constants: PhysicalConstants = CODATA
) -> float:
    """log10 of the gap phase (rad) at ell = 1."""
    require_positive("clock_rate", clock_rate)
    unit_ell = SignedLog.from_log10(0.0)
    return math.log10(clock_rate) + pt.closed_form_log(unit_ell, w, v0, constants, constants.hbar).log10


def required_ell(
    target_phase: float,
    clock_rate: float,
    w: float,
    v0: float = 0.0,
    constants: PhysicalConstants = CODATA,
) -> float:
    """log10 of the dimensionless angular momentum giving `target_phase` rad."""
    require_positive("target_phase", target_phase)
    return math.log10(target_phase) - phase_per_unit_ell_log10(clock_rate, w, v0, constants)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

_PARAMETER_DEFAULTS = {
    "clock_rate": 1e15,  # dE/hbar, rad/s
    "mean_rate": None,  # Ebar/hbar, rad/s; None -> clock_rate/2 (ground level at 0)
    "w": 1e-3,
    "v0": 0.0,
    "ell_log10": 0.0,
    "theta": 0.0,
}

AXES = ("clock_rate", "mean_rate", "w", "v0", "ell_log10", "theta")

_OUTPUT_COLUMNS = {
    "delta_tau": ("delta_tau", "delta_tau_log10"),
    "phase_mean": ("phase_mean", "phase_mean_log10"),
    "phase_gap": ("phase_gap", "phase_gap_log10"),
    "visibility_deficit": ("visibility_deficit", "visibility_deficit_log10"),
    "pr_left": ("pr_left",),
    "pr_right": ("pr_right",),
    "ee_spc": ("ee_spc", "ee_spc_log10"),
    "ef_sp": ("ef_sp", "ef_sp_log10"),
    "witness": ("witness",),
    "qep_visibility": ("qep_visibility",),
    "qep_xi_phase": ("qep_xi_phase",),
    "qep_pr_left": ("qep_pr_left",),
    "qep_pr_right": ("qep_pr_right",),
    "qep_ee_spc": ("qep_ee_spc",),
    "qep_ef_sp": ("qep_ef_sp",),
}

OUTPUTS = tuple(_OUTPUT_COLUMNS)


@dataclass(frozen=True)
class SweepConfig:
    axis: str
    values: tuple[float, ...]
    outputs: tuple[str, ...]
    fixed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; choose from {AXES}")
        for name in self.outputs:
            if name not in _OUTPUT_COLUMNS:
                raise ConfigError(f"unknown output {name!r}; choose from {OUTPUTS}")
        for key, value in self.fixed.items():
            if key not in _PARAMETER_DEFAULTS:
                raise ConfigError(f"unknown fixed parameter {key!r}")
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {float(value)!r}")
        for v in self.values:
            if not math.isfinite(v):
                raise ConfigError("axis values must be finite")


@dataclass(frozen=True)
class SweepTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


def _resolve(params: dict) -> dict:
    merged = dict(_PARAMETER_DEFAULTS)
    merged.update(params)
    if merged["mean_rate"] is None:
        merged["mean_rate"] = 0.5 * merged["clock_rate"]
    for key, value in merged.items():
        require_finite(key, value)
    require_positive("clock_rate", merged["clock_rate"])  # w and v0 are checked by the closed form
    return merged


def delta_tau_log(params: dict, constants: PhysicalConstants = CODATA) -> SignedLog:
    """Arm proper-time difference 16 G (ell hbar) K / (c^4 w) as sign+log10."""
    p = _resolve(params)
    ell = SignedLog.from_log10(p["ell_log10"])
    return pt.closed_form_log(ell, p["w"], p["v0"], constants, constants.hbar)


def _tiny_entropy_log10(y_log10: float) -> float:
    # h(y) ~ y (1 - ln y) / ln 2 for y -> 0, and h(0) = 0
    if y_log10 == -math.inf:
        return -math.inf
    ln_y = _LN10 * y_log10
    if ln_y >= 1.0:
        return math.nan  # far outside the asymptotic regime; never selected
    return y_log10 + math.log10((1.0 - ln_y) / _LN2)


def _log10_of_nonnegative(x: float) -> float:
    if x > 0.0:
        return math.log10(x)
    return -math.inf if x == 0.0 else math.nan


_PHASE_OUTPUTS = {"phase_mean", "phase_gap", "visibility_deficit", "ee_spc", "ef_sp"}
_GME_OUTPUTS = {"ee_spc", "ef_sp", "witness"}
_QEP_OUTPUTS = {name for name in OUTPUTS if name.startswith("qep_")}


def _columns(p: dict, outputs, constants: PhysicalConstants) -> dict:
    """The columns of `outputs`, elementwise over the resolved parameters `p`.

    Each closed form runs once, over whole arrays, and only when an output
    needs it.  A linear column overflows to inf or NaN in its own row; the
    log10 columns stay meaningful where the linear effect underflows to 0 or
    rounds to 1.
    """
    need = set(outputs)
    hbar = constants.hbar
    dt_log = delta_tau_log(p, constants)
    delta_tau = dt_log.linear
    out = {"delta_tau": delta_tau, "delta_tau_log10": dt_log.log10}

    if need & _PHASE_OUTPUTS:
        gap_log = dt_log.scaled(p["clock_rate"])
        mean_log = dt_log.scaled(p["mean_rate"])
        phase_gap = gap_log.linear
        phase_mean = mean_log.linear
        deficit = visibility_deficit_from_phase(phase_gap)
        deficit_log10 = np.where(
            np.abs(phase_gap) < _ASYMPTOTIC_PHASE,
            2.0 * gap_log.log10 - _LOG10_2,
            per_element(_log10_of_nonnegative, deficit),
        )
        out.update(
            phase_gap=phase_gap,
            phase_gap_log10=gap_log.log10,
            phase_mean=phase_mean,
            phase_mean_log10=mean_log.log10,
            visibility_deficit=deficit,
            visibility_deficit_log10=deficit_log10,
        )

    e_g = (p["mean_rate"] - 0.5 * p["clock_rate"]) * hbar
    e_e = (p["mean_rate"] + 0.5 * p["clock_rate"]) * hbar
    if need & {"pr_left", "pr_right"}:
        probs = detection_probabilities(ClockModel(E_g=e_g, E_e=e_e), delta_tau, constants)
        out.update(pr_left=probs.pr_left, pr_right=probs.pr_right)

    if need & _GME_OUTPUTS:
        gme = gme_entanglement(ClockModel(E_g=e_g, E_e=e_e), delta_tau, constants)
        out.update(ee_spc=gme.ee_spc, ef_sp=gme.ef_sp, witness=gme.witness)
    if need & {"ee_spc", "ef_sp"}:
        tiny = (np.abs(phase_gap) < _ASYMPTOTIC_PHASE) & (np.abs(phase_mean) < _ASYMPTOTIC_PHASE)
        mean_sq_log10 = 2.0 * mean_log.log10
        # 1 - V cos(phase_mean) ~ deficit + phase_mean^2 / 2
        x_log10 = log10_sum(deficit_log10, mean_sq_log10 - _LOG10_2)
        out["ee_spc_log10"] = np.where(
            tiny,
            per_element(_tiny_entropy_log10, x_log10 - _LOG10_2),
            per_element(_log10_of_nonnegative, gme.ee_spc),
        )
        # V^2 sin^2(phase_mean) / 4 ~ phase_mean^2 / 4
        out["ef_sp_log10"] = np.where(
            tiny,
            per_element(_tiny_entropy_log10, mean_sq_log10 - _LOG10_4),
            per_element(_log10_of_nonnegative, gme.ef_sp),
        )

    if need & _QEP_OUTPUTS:
        h_n = np.zeros(np.shape(e_g) + (2, 2))
        h_n[..., 0, 0] = e_g
        h_n[..., 1, 1] = e_e
        # the frame-dragging sector has the clock's own energies, mixed by theta
        tt = qep_mod.QepTestTheory(H_N=h_n, E_g_prime=e_g, E_e_prime=e_e, theta=p["theta"])
        qres = qep_mod.qep_gme_entanglement(tt, delta_tau, constants)
        out.update(
            qep_visibility=qres.visibility,
            qep_xi_phase=qres.xi_delta_tau,
            qep_pr_left=qres.pr_left,
            qep_pr_right=qres.pr_right,
            qep_ee_spc=qres.ee_spc,
            qep_ef_sp=qres.ef_sp,
        )
    return out


def evaluate_point(params: dict, constants: PhysicalConstants = CODATA) -> dict:
    """All sweep outputs at one parameter point.

    This is the one-row view of the array code behind :func:`run_sweep`; the
    parameters are floats, and so is every value returned.
    """
    with np.errstate(all="ignore"):
        columns = _columns(_resolve(params), OUTPUTS, constants)
    return {name: float(value) for name, value in columns.items()}


def run_sweep(cfg: SweepConfig, constants: PhysicalConstants = CODATA) -> SweepTable:
    """Evaluate the requested outputs along one axis; row order follows input.

    The axis becomes one numpy array, and each closed form behind the
    requested outputs runs once over it (see :func:`_columns`).  A row whose
    linear values overflow holds inf or NaN there without stopping the
    table.  The rows are tuples of floats.
    """
    columns = [cfg.axis]
    for name in cfg.outputs:
        columns.extend(_OUTPUT_COLUMNS[name])
    if not cfg.outputs or not cfg.values:
        return SweepTable(columns=tuple(columns), rows=tuple((value,) for value in cfg.values))
    params = dict(cfg.fixed)
    params[cfg.axis] = np.asarray(cfg.values, dtype=float)
    with np.errstate(all="ignore"):
        computed = _columns(_resolve(params), cfg.outputs, constants)
    shape = (len(cfg.values),)
    data = [np.broadcast_to(computed[name], shape).tolist() for name in columns[1:]]
    return SweepTable(columns=tuple(columns), rows=tuple(zip(cfg.values, *data)))
