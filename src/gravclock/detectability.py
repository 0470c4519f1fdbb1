"""Order-of-magnitude detectability analysis in the log10 domain.

The frame-dragging phase picked up by a clock with transition rate
dE/hbar across an interferometer of width w scales as

    phase = (dE/hbar) * 16 G (ell hbar) K / (c^4 w),   ell = J / hbar.

Laboratory clocks sit near dE/hbar ~ 1e15 rad/s and w ~ 1 mm, which makes
the phase per unit ell about 1e-59 rad; a detectable shift needs ell near
1e60.  Numbers of both magnitudes appear in the same products, so every
ell-bearing computation here stays in (sign, log10) form and linear values
are only materialized when they are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import qep as qep_mod
from .constants import CODATA, PhysicalConstants
from .errors import ConfigError, DomainError
from .interferometry import (
    ClockModel,
    detection_probabilities,
    gme_entanglement,
    visibility_deficit_from_phase,
)
from .logdomain import SignedLog, log10_sum

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)
_ASYMPTOTIC_PHASE = 1e-8


@dataclass(frozen=True)
class DetectabilityQuery:
    """Clock rate dE/hbar (rad/s), width w (m), speed v0 (m/s), and ell = J/hbar."""

    clock_rate: float
    w: float
    v0: float
    ell: SignedLog

    def __post_init__(self) -> None:
        if self.clock_rate <= 0 or self.w <= 0:
            raise DomainError("clock_rate and w must be positive")
        if self.v0 < 0:
            raise DomainError("v0 must be non-negative")


def _k_factor(v0: float, constants: PhysicalConstants) -> float:
    return 1.0 + 0.5 * v0 * v0 / (constants.c * constants.c)


def phase_per_unit_ell_log10(
    clock_rate: float, w: float, v0: float = 0.0, constants: PhysicalConstants = CODATA
) -> float:
    """log10 of the gap phase (rad) at ell = 1."""
    return (
        math.log10(clock_rate)
        + math.log10(16.0 * constants.G * constants.hbar * _k_factor(v0, constants))
        - 4.0 * math.log10(constants.c)
        - math.log10(w)
    )


def phase_shift_estimate(q: DetectabilityQuery, constants: PhysicalConstants = CODATA) -> float:
    """log10 of the accumulated gap phase (rad), entirely in the log domain."""
    return phase_per_unit_ell_log10(q.clock_rate, q.w, q.v0, constants) + q.ell.log10


def required_ell(
    target_phase: float,
    clock_rate: float,
    w: float,
    v0: float = 0.0,
    constants: PhysicalConstants = CODATA,
) -> float:
    """log10 of the dimensionless angular momentum giving `target_phase` rad."""
    if target_phase <= 0:
        raise DomainError("target phase must be positive")
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
    "ell_sign": 1.0,
    "theta": 0.0,
    "varphi": 0.0,
    "prime_rate": None,  # dE'/hbar; None -> clock_rate
    "prime_mean_rate": None,  # Ebar'/hbar; None -> mean_rate
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
        for key in self.fixed:
            if key not in _PARAMETER_DEFAULTS:
                raise ConfigError(f"unknown fixed parameter {key!r}")
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
    if merged["prime_rate"] is None:
        merged["prime_rate"] = merged["clock_rate"]
    if merged["prime_mean_rate"] is None:
        merged["prime_mean_rate"] = merged["mean_rate"]
    if merged["w"] <= 0 or merged["clock_rate"] <= 0 or merged["v0"] < 0:
        raise ConfigError("w and clock_rate must be positive, v0 non-negative")
    return merged


def delta_tau_log(params: dict, constants: PhysicalConstants = CODATA) -> SignedLog:
    """Arm proper-time difference 16 G (ell hbar) K / (c^4 w) as sign+log10."""
    p = _resolve(params)
    magnitude = (
        math.log10(16.0 * constants.G * constants.hbar * _k_factor(p["v0"], constants))
        - 4.0 * math.log10(constants.c)
        - math.log10(p["w"])
        + p["ell_log10"]
    )
    return SignedLog.from_log10(magnitude, int(math.copysign(1.0, p["ell_sign"])))


def _tiny_entropy_log10(y_log10: float) -> float:
    # h(y) ~ y (1 - ln y) / ln 2 for y -> 0
    ln_y = _LN10 * y_log10
    return y_log10 + math.log10((1.0 - ln_y) / _LN2)


def evaluate_point(params: dict, constants: PhysicalConstants = CODATA) -> dict:
    """All sweep outputs at one parameter point; log10 columns stay meaningful
    even where the linear effect underflows to 0 or rounds to 1."""
    p = _resolve(params)
    hbar = constants.hbar
    dt_log = delta_tau_log(p, constants)
    delta_tau = dt_log.linear
    gap_log = dt_log.scaled(p["clock_rate"])
    mean_log = dt_log.scaled(p["mean_rate"])
    phase_gap = gap_log.linear
    phase_mean = mean_log.linear

    out = {
        "delta_tau": delta_tau,
        "delta_tau_log10": dt_log.log10,
        "phase_gap": phase_gap,
        "phase_gap_log10": gap_log.log10,
        "phase_mean": phase_mean,
        "phase_mean_log10": mean_log.log10,
    }

    deficit = visibility_deficit_from_phase(phase_gap)
    out["visibility_deficit"] = deficit
    if abs(phase_gap) < _ASYMPTOTIC_PHASE:
        out["visibility_deficit_log10"] = 2.0 * gap_log.log10 - math.log10(2.0)
    else:
        out["visibility_deficit_log10"] = math.log10(deficit) if deficit > 0 else -math.inf

    clock = ClockModel(
        E_g=(p["mean_rate"] - 0.5 * p["clock_rate"]) * hbar,
        E_e=(p["mean_rate"] + 0.5 * p["clock_rate"]) * hbar,
    )
    probs = detection_probabilities(clock, delta_tau, constants)
    out["pr_left"] = probs.pr_left
    out["pr_right"] = probs.pr_right

    gme = gme_entanglement(clock, delta_tau, constants)
    out["ee_spc"] = gme.ee_spc
    out["ef_sp"] = gme.ef_sp
    out["witness"] = gme.witness
    tiny = abs(phase_gap) < _ASYMPTOTIC_PHASE and abs(phase_mean) < _ASYMPTOTIC_PHASE
    if tiny:
        # 1 - V cos(phase_mean) ~ deficit + phase_mean^2 / 2
        x_log10 = log10_sum(
            out["visibility_deficit_log10"], 2.0 * mean_log.log10 - math.log10(2.0)
        )
        out["ee_spc_log10"] = _tiny_entropy_log10(x_log10 - math.log10(2.0))
        # V^2 sin^2(phase_mean) / 4 ~ phase_mean^2 / 4
        out["ef_sp_log10"] = _tiny_entropy_log10(2.0 * mean_log.log10 - math.log10(4.0))
    else:
        out["ee_spc_log10"] = math.log10(gme.ee_spc) if gme.ee_spc > 0 else -math.inf
        out["ef_sp_log10"] = math.log10(gme.ef_sp) if gme.ef_sp > 0 else -math.inf

    tt = qep_mod.QepTestTheory(
        H_N=[[clock.E_g, 0.0], [0.0, clock.E_e]],
        E_g_prime=(p["prime_mean_rate"] - 0.5 * p["prime_rate"]) * hbar,
        E_e_prime=(p["prime_mean_rate"] + 0.5 * p["prime_rate"]) * hbar,
        theta=p["theta"],
        varphi=p["varphi"],
    )
    qres = qep_mod.qep_gme_entanglement(tt, None, delta_tau, constants)
    out["qep_visibility"] = qres.visibility
    out["qep_xi_phase"] = qres.xi_delta_tau
    out["qep_pr_left"] = qres.pr_left
    out["qep_pr_right"] = qres.pr_right
    out["qep_ee_spc"] = qres.ee_spc
    out["qep_ef_sp"] = qres.ef_sp
    return out


def run_sweep(cfg: SweepConfig, constants: PhysicalConstants = CODATA) -> SweepTable:
    """Evaluate the requested outputs along one axis; row order follows input."""
    columns: list[str] = [cfg.axis]
    for name in cfg.outputs:
        columns.extend(_OUTPUT_COLUMNS[name])
    rows = []
    for value in cfg.values:
        params = dict(cfg.fixed)
        params[cfg.axis] = value
        point = evaluate_point(params, constants) if cfg.outputs else {}
        row = [value]
        for name in cfg.outputs:
            row.extend(point[col] for col in _OUTPUT_COLUMNS[name])
        rows.append(tuple(row))
    return SweepTable(columns=tuple(columns), rows=tuple(rows))
