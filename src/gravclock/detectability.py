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
    clock_energies,
    detection_probabilities,
    gap_phase,
    gme_entanglement,
    mean_phase,
    visibility_deficit_from_phase,
)
from .logdomain import SignedLog, log10_sum

_LN2 = math.log(2.0)
_LOG2_10 = math.log2(10.0)
_LOG10_2 = math.log10(2.0)


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
        require_finite(self.axis, self.values)


@dataclass(frozen=True)
class SweepTable:
    columns: tuple[str, ...]
    rows: np.ndarray  # (len(values), len(columns)) float64, one row per axis value


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


def _log10_sin(log10_x: float, x: float) -> float:
    """log10|sin x| from log10|x| and the double x, as log10|sin x| + (log10|x| - log10|double x|).

    The bracket is ~0 where x is a normal double; where x is tiny, sin x = x
    cancels it exactly, and where x underflows to 0 the result is log10|x|.
    """
    return np.where(x == 0.0, log10_x, np.log10(np.abs(np.sin(x))) + (log10_x - np.log10(np.abs(x))))


def _entropy_log10(log10_q: float) -> float:
    """log10 h(q) for 0 <= q <= 1/2 from log10 q, also where q underflows.

    h(q) = q [-log2 q + (1 - q) g(q) / ln 2] with g(q) = -log1p(-q) / q and
    g(0) = 1; both terms in the bracket are non-negative.  h(0) = 0.
    """
    q = np.power(10.0, log10_q)
    g = np.where(q == 0.0, 1.0, -np.log1p(-q) / q)
    bracket = -log10_q * _LOG2_10 + (1.0 - q) * g / _LN2
    return np.where(log10_q == -np.inf, -np.inf, log10_q + np.log10(bracket))


_PHASE_OUTPUTS = {"phase_mean", "phase_gap", "visibility_deficit", "ee_spc", "ef_sp"}
_GME_OUTPUTS = {"ee_spc", "ef_sp", "witness"}
_QEP_OUTPUTS = {name for name in OUTPUTS if name.startswith("qep_")}
# the outputs that need the clock's energies
_CLOCK_OUTPUTS = {"pr_left", "pr_right"} | _GME_OUTPUTS | _QEP_OUTPUTS


def _columns(p: dict, outputs, constants: PhysicalConstants) -> dict:
    """The columns of `outputs`, elementwise over the resolved parameters `p`.

    Each closed form runs once, over whole arrays, and only when an output
    needs it, in the one form of :mod:`gravclock.interferometry` that does
    not cancel.  A linear column overflows to inf or NaN in its own row.
    Each log10 column has one formula at every phase: it takes the phase
    magnitudes from the log domain and the double phases only for factors
    near 1, such as sin(x) / x, so it stays meaningful where the linear
    effect underflows to 0.
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
        out.update(
            phase_gap=phase_gap,
            phase_gap_log10=gap_log.log10,
            phase_mean=mean_log.linear,
            phase_mean_log10=mean_log.log10,
            visibility_deficit=visibility_deficit_from_phase(phase_gap),
            # D = 2 sin^2(phase / 2)
            visibility_deficit_log10=_LOG10_2 + 2.0 * _log10_sin(gap_log.log10 - _LOG10_2, 0.5 * phase_gap),
        )

    if need & _CLOCK_OUTPUTS:
        clock = ClockModel(*clock_energies(p["mean_rate"], p["clock_rate"], hbar, gap_name="clock_rate"))
    if need & {"pr_left", "pr_right"}:
        probs = detection_probabilities(clock, delta_tau, constants)
        out.update(pr_left=probs.pr_left, pr_right=probs.pr_right)

    if need & _GME_OUTPUTS:
        gme = gme_entanglement(clock, delta_tau, constants)
        out.update(ee_spc=gme.ee_spc, ef_sp=gme.ef_sp, witness=gme.witness)
    if need & {"ee_spc", "ef_sp"}:
        # the smaller port [(1 - |V|) + |V| (1 - |cos(mean)|)] / 2, V = cos(gap), with
        # 1 - |cos x| = sin^2(x) / (1 + |cos x|)
        gap = gap_phase(clock, delta_tau, constants)
        mean = mean_phase(clock, delta_tau, constants)
        abs_vis = np.abs(np.cos(gap))
        vis_term = 2.0 * _log10_sin(gap_log.log10, gap) - np.log10(1.0 + abs_vis)
        sin_mean_log10 = _log10_sin(mean_log.log10, mean)
        mean_term = np.log10(abs_vis) + 2.0 * sin_mean_log10 - np.log10(1.0 + np.abs(np.cos(mean)))
        out["ee_spc_log10"] = _entropy_log10(log10_sum(vis_term, mean_term) - _LOG10_2)
        # E_F's argument s / (2 (1 + sqrt(1 - s))), s = V^2 sin^2(mean)
        s_log10 = 2.0 * (np.log10(abs_vis) + sin_mean_log10)
        root = np.sqrt(np.maximum(0.0, 1.0 - np.power(10.0, s_log10)))
        out["ef_sp_log10"] = _entropy_log10(s_log10 - _LOG10_2 - np.log10(1.0 + root))

    if need & _QEP_OUTPUTS:
        # the frame-dragging sector has the clock's own energies, mixed by theta
        tt = qep_mod.QepTestTheory(clock, E_g_prime=clock.E_g, E_e_prime=clock.E_e, theta=p["theta"])
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
    table.  The rows are one float64 array, a column per output column.
    """
    columns = [cfg.axis]
    for name in cfg.outputs:
        columns.extend(_OUTPUT_COLUMNS[name])
    rows = np.empty((len(cfg.values), len(columns)))
    rows[:, 0] = cfg.values
    if cfg.outputs and cfg.values:
        params = dict(cfg.fixed)
        params[cfg.axis] = np.asarray(cfg.values, dtype=float)
        with np.errstate(all="ignore"):
            computed = _columns(_resolve(params), cfg.outputs, constants)
        for j, name in enumerate(columns[1:], 1):
            rows[:, j] = computed[name]
    return SweepTable(columns=tuple(columns), rows=rows)
