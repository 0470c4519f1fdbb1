"""Command-line interface.

Subcommands map onto the analysis modules: ``delta-tau`` (arm proper-time
difference), ``interfere`` (visibility and port probabilities), ``gme``
(entanglement measures), ``qep`` (equivalence-principle test theory),
``detect`` (log-domain order-of-magnitude estimates), ``sweep`` (parameter
tables), ``verify`` (extremal-path residual study) and ``selftest``
(closed-form versus oracle suites).

Outputs are CSV (default) or JSON, numbers in scientific notation with 17
significant digits; log10 columns carry the ``_log10`` suffix.  A flat
``key = value`` config file supplies defaults that explicit flags override;
unknown keys are rejected.  Exit codes: 0 success, 2 validation error,
3 numerical non-convergence, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import re
import sys

import numpy as np

from . import __version__
from . import detectability as det
from . import geodesic as geo
from . import interferometry as itf
from . import propertime as pt
from . import qep as qep_mod
from . import spacetime as st
from .clockstate import (
    density_from_state,
    entanglement_of_formation,
    reduced_density,
    state_vector,
    tensor_state,
    von_neumann_entropy,
    witness_value,
)
from .constants import PhysicalConstants, read_key_values, resolve_constants
from .errors import ConfigError, DomainError, GravclockError, NoConvergence, require_finite
from .floattext import format_table
from .logdomain import SignedLog

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64

# samples per stacked call in selftest, so its memory does not grow with --samples
SELFTEST_BLOCK = 512


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # so -1e30, -.5, -inf or -1,2 reads as a value; argparse's takes -1 and -1.5 only
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 too
        return f"{value:.16e}"  # also "nan", "inf" and "-inf"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(float(value))


def _json_dump(obj, out: list[str]) -> None:
    if isinstance(obj, float):
        out.append(_fmt(obj) if math.isfinite(obj) else f'"{_fmt(obj)}"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(f'"{key}": ')
            _json_dump(val, out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and not obj.size:
        out.append("[]")
    elif isinstance(obj, np.ndarray):  # float64: a list, or a table as a list of rows
        out.append("[" * obj.ndim)
        out.extend(format_table(obj.reshape(-1, obj.shape[-1]), ", ", "], [", '"%.16e"'))
        out.append("]" * obj.ndim)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _json_dump(val, out)
        out.append("]")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif obj is None:
        out.append("null")
    else:
        _json_dump(float(obj), out)


def _emit(args, inputs: dict, columns, rows, constants: PhysicalConstants, outputs=None) -> None:
    """Write one result table as CSV or a single JSON object.

    ``outputs``, when given, is the JSON ``outputs`` object in place of the table.
    ``rows`` is a sequence of rows, or a 2-D float64 array, which
    :func:`~gravclock.floattext.format_table` writes whole.
    """
    if args.format == "json":
        meta = {"version": __version__, "constants": {"c": constants.c, "G": constants.G, "hbar": constants.hbar}}
        if outputs is None and len(rows) == 1:
            outputs = dict(zip(columns, rows[0]))
        elif outputs is None:
            table = rows if isinstance(rows, np.ndarray) else [list(r) for r in rows]
            outputs = {"columns": list(columns), "rows": table}
        parts: list[str] = []
        _json_dump({"inputs": inputs, "outputs": outputs, "meta": meta}, parts)
        text = "".join(parts) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        if isinstance(rows, np.ndarray):
            buf.writelines(format_table(rows, ",", "\n"))
            buf.write("\n" if len(rows) else "")
        else:
            writer.writerows(map(_fmt, row) for row in rows)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--config", help="flat key = value config file; flags override")
    parser.add_argument("--constants", help="constants override file (or $GRAVCLOCK_CONSTANTS)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")
    parser.add_argument("--output", help="output file (default stdout)")


def _with_config(parser: _Parser, argv: list[str], args: argparse.Namespace) -> argparse.Namespace:
    """Parse `argv` again with each ``key = value`` of ``args.config`` as ``--key=value``.

    The ``=`` keeps a value such as ``-1,2`` from reading as an option.  The
    tokens go right after the command, so flags given later on the command
    line win.  Each token is first parsed alone, so that an unknown key or a
    value the flag refuses raises :class:`ConfigError` naming the key and line.
    """
    tokens = []
    for lineno, key, value in read_key_values(args.config):
        key = key.replace("-", "_")
        where = f"{args.config}:{lineno}: config key {key!r}"
        if key not in vars(args):  # exact, where argparse would take a prefix
            raise ConfigError(f"{where} is unknown")
        token = f"--{key.replace('_', '-')}={value}"
        try:
            parser.parse_args([args.command, token])
        except _UsageError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        tokens.append(token)
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _float_list(name: str, text) -> list[float]:
    """The numbers of a comma-separated flag, skipping empty items, naming the flag if one is not a number."""
    values = []
    for item in filter(str.strip, str(text).split(",")):
        try:
            values.append(float(item))
        except ValueError:
            raise ConfigError(f"{name} must be comma-separated numbers, got {item.strip()!r}") from None
    return values


def _clock_from(ns, constants: PhysicalConstants) -> itf.ClockModel:
    if ns.E_g is None and ns.E_e is None:
        energies = itf.clock_energies(ns.mean_rate, ns.gap_rate, constants.hbar)
        if ns.gap_rate < 0.0:
            raise DomainError(f"gap_rate must not be negative, got {ns.gap_rate!r}")
        return itf.ClockModel(*energies)
    require_finite("gap_rate", ns.gap_rate)
    require_finite("mean_rate", ns.mean_rate)
    if ns.E_g is None or ns.E_e is None:
        raise ConfigError("provide both --E-g and --E-e, or neither")
    return itf.ClockModel(E_g=ns.E_g, E_e=ns.E_e)


def _geometry_from(ns) -> pt.InterferometerGeometry:
    # L_ratio is the flag; the geometry would name only the product L
    require_finite("L_ratio", ns.L_ratio)
    L = ns.L_ratio * ns.w
    if math.isfinite(ns.w) and not math.isfinite(L):  # a non-finite w is named by the geometry
        raise DomainError(f"L_ratio * w must be finite, got {ns.L_ratio!r} * {ns.w!r}")
    return pt.InterferometerGeometry(w=ns.w, L=L, v0=ns.v0)


def _delta_tau_from(ns, constants: PhysicalConstants) -> float:
    """--delta-tau if given, else the geometry's closed form; the geometry is checked either way."""
    model = st.RotatingMassModel(M=ns.M, J=ns.J)
    geom = _geometry_from(ns)
    if ns.delta_tau is None:
        return pt.delta_tau_interferometer(model, geom, "closed_form", constants).delta_tau
    require_finite("delta_tau", ns.delta_tau)
    return ns.delta_tau


def _clock_phases(e_g: float, e_e: float, delta_tau: float, constants: PhysicalConstants) -> tuple[float, float]:
    """The (gap, mean) phases of :func:`~gravclock.interferometry.clock_phases`, rejecting one that overflows."""
    phases = itf.clock_phases(e_g, e_e, delta_tau, constants.hbar)
    for name, phase in zip(("gap", "mean"), phases):
        if not math.isfinite(phase):
            raise DomainError(f"delta_tau {delta_tau!r} makes the {name} phase overflow")
    return phases


def _add_geometry(parser: _Parser) -> None:
    parser.add_argument("--M", type=float, default=0.0, help="source mass, kg (default 0)")
    parser.add_argument("--J", type=float, default=1.0, help="source angular momentum, kg m^2/s (default 1)")
    parser.add_argument("--w", type=float, default=1e-3, help="arm separation, m (default 1e-3)")
    parser.add_argument("--v0", type=float, default=0.0, help="asymptotic speed, m/s (default 0)")
    parser.add_argument("--L-ratio", dest="L_ratio", type=float, default=1e3, help="arm half-length / w (default 1e3)")


def _add_clock(parser: _Parser) -> None:
    parser.add_argument("--E-g", dest="E_g", type=float, help="ground energy, J")
    parser.add_argument("--E-e", dest="E_e", type=float, help="excited energy, J")
    parser.add_argument("--gap-rate", dest="gap_rate", type=float, default=1e15, help="dE/hbar, rad/s (default 1e15)")
    parser.add_argument("--mean-rate", dest="mean_rate", type=float, default=5e14, help="Ebar/hbar, rad/s (default 5e14)")
    parser.add_argument("--delta-tau", dest="delta_tau", type=float, help="arm proper-time difference, s (overrides geometry)")


@functools.cache  # built by the first request, not at import; nothing mutates it after
def _build_parser() -> _Parser:
    parser = _Parser(prog="gravclock", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gravclock {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("delta-tau", help="arm proper-time difference of the interferometer")
    _add_common(p)
    _add_geometry(p)
    p.add_argument("--mode", choices=("closed_form", "quadrature", "both"), default="closed_form",
                   help="evaluation route (default closed_form)")

    p = sub.add_parser("interfere", help="visibility and detection probabilities")
    _add_common(p)
    _add_geometry(p)
    _add_clock(p)

    p = sub.add_parser("gme", help="gravity-mediated entanglement measures")
    _add_common(p)
    _add_geometry(p)
    _add_clock(p)

    p = sub.add_parser("qep", help="equivalence-principle test-theory observables")
    _add_common(p)
    _add_geometry(p)
    _add_clock(p)
    p.add_argument("--theta", type=float, default=0.0, help="eigenbasis mixing angle, rad (default 0)")
    p.add_argument("--varphi", type=float, default=0.0, help="relative phase of the mixed eigenstate (default 0)")
    p.add_argument("--prime-gap-rate", dest="prime_gap_rate", type=float, help="dE'/hbar, rad/s (default --gap-rate)")
    p.add_argument("--prime-mean-rate", dest="prime_mean_rate", type=float, help="Ebar'/hbar, rad/s (default --mean-rate)")

    p = sub.add_parser("detect", help="log-domain phase estimates and required angular momentum")
    _add_common(p)
    p.add_argument("--clock-rate", dest="clock_rate", type=float, default=1e15, help="dE/hbar, rad/s (default 1e15)")
    p.add_argument("--w", type=float, default=1e-3, help="arm separation, m (default 1e-3)")
    p.add_argument("--v0", type=float, default=0.0, help="asymptotic speed, m/s (default 0)")
    p.add_argument("--ell-log10", dest="ell_log10", type=float, help="log10 of J/hbar")
    p.add_argument("--target-phase", dest="target_phase", type=float, help="phase (rad) to solve the required ell for")

    p = sub.add_parser("sweep", help="tabulate quantities along one parameter axis")
    _add_common(p)
    p.add_argument("--axis", help=f"one of {', '.join(det.AXES)}")
    p.add_argument("--values", help="comma-separated axis values")
    p.add_argument("--outputs", help=f"comma-separated subset of {', '.join(det.OUTPUTS)}")
    p.add_argument("--clock-rate", dest="clock_rate", type=float, help="dE/hbar, rad/s")
    p.add_argument("--mean-rate", dest="mean_rate", type=float, help="Ebar/hbar, rad/s")
    p.add_argument("--w", type=float, help="arm separation, m")
    p.add_argument("--v0", type=float, help="asymptotic speed, m/s")
    p.add_argument("--ell-log10", dest="ell_log10", type=float, help="log10 of J/hbar")
    p.add_argument("--theta", type=float, help="test-theory mixing angle, rad")

    p = sub.add_parser("verify", help="extremal-path residual study in exaggerated units")
    _add_common(p)
    p.add_argument("--n-segments", dest="n_segments", type=int, default=512, help="trajectory segments (default 512)")
    p.add_argument("--scales", default="0.08,0.16,0.32,0.64,1.28,2.56,5.12,8.0",
                   help="comma-separated perturbation scales (default 0.08..8)")

    p = sub.add_parser("selftest", help="closed-form versus oracle equivalence suites")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="random seed for sampled suites (default 0)")
    p.add_argument("--samples", type=int, default=2000, help="random samples per suite (default 2000)")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_delta_tau(ns) -> int:
    constants = resolve_constants(ns.constants)
    model = st.RotatingMassModel(M=ns.M, J=ns.J)
    geom = _geometry_from(ns)
    inputs = {"M": ns.M, "J": ns.J, "w": ns.w, "v0": ns.v0, "L_ratio": ns.L_ratio, "mode": ns.mode}
    columns: list[str] = []
    row: list[float] = []
    for mode in ("closed_form", "quadrature"):
        if ns.mode in (mode, "both"):
            bundle = pt.delta_tau_interferometer(model, geom, mode, constants)
            suffix = f"_{mode}" if ns.mode == "both" else ""
            columns += [f"delta_tau{suffix}", f"delta_tau{suffix}_log10"]
            row += [bundle.delta_tau, bundle.log10_delta_tau]
    _emit(ns, inputs, columns, [row], constants)
    return EXIT_OK


def _cmd_interfere(ns) -> int:
    constants = resolve_constants(ns.constants)
    clock = _clock_from(ns, constants)
    delta_tau = _delta_tau_from(ns, constants)
    gap, mean = _clock_phases(clock.E_g, clock.E_e, delta_tau, constants)
    res = itf.detection_probabilities(clock, delta_tau, constants)
    inputs = {"delta_tau": delta_tau, "E_g": clock.E_g, "E_e": clock.E_e}
    columns = (
        "visibility", "visibility_deficit", "pr_left", "pr_right",
        "phase_mean", "phase_mean_log10", "phase_gap", "phase_gap_log10",
        "delta_tau",
    )
    row = (
        res.visibility, itf.visibility_deficit_from_phase(gap), res.pr_left, res.pr_right,
        mean, SignedLog.from_linear(mean).log10, gap, SignedLog.from_linear(gap).log10,
        delta_tau,
    )
    _emit(ns, inputs, columns, [row], constants)
    return EXIT_OK


def _cmd_gme(ns) -> int:
    constants = resolve_constants(ns.constants)
    clock = _clock_from(ns, constants)
    delta_tau = _delta_tau_from(ns, constants)
    gap, _ = _clock_phases(clock.E_g, clock.E_e, delta_tau, constants)
    res = itf.gme_entanglement(clock, delta_tau, constants)
    inputs = {"delta_tau": delta_tau, "E_g": clock.E_g, "E_e": clock.E_e}
    columns = ("visibility", "ee_spc", "ef_sp", "witness", "delta_tau")
    row = (np.cos(gap), res.ee_spc, res.ef_sp, res.witness, delta_tau)
    _emit(ns, inputs, columns, [row], constants)
    return EXIT_OK


def _cmd_qep(ns) -> int:
    constants = resolve_constants(ns.constants)
    clock = _clock_from(ns, constants)
    delta_tau = _delta_tau_from(ns, constants)
    prime_gap = ns.prime_gap_rate if ns.prime_gap_rate is not None else ns.gap_rate
    prime_mean = ns.prime_mean_rate if ns.prime_mean_rate is not None else ns.mean_rate
    e_g_prime, e_e_prime = itf.clock_energies(
        prime_mean, prime_gap, constants.hbar, "prime_mean_rate", "prime_gap_rate"
    )
    tt = qep_mod.QepTestTheory(
        clock=clock, E_g_prime=e_g_prime, E_e_prime=e_e_prime, theta=ns.theta, varphi=ns.varphi
    )
    _clock_phases(e_g_prime, e_e_prime, delta_tau, constants)
    res = qep_mod.qep_gme_entanglement(tt, delta_tau, constants)
    inputs = {
        "delta_tau": delta_tau, "theta": ns.theta, "varphi": ns.varphi,
        "E_g_prime": tt.E_g_prime, "E_e_prime": tt.E_e_prime,
        "commutator_ratio": tt.commutator_ratio,
    }
    columns = ("visibility", "xi_phase", "pr_left", "pr_right", "ee_spc", "ef_sp")
    row = (res.visibility, res.xi_delta_tau, res.pr_left, res.pr_right, res.ee_spc, res.ef_sp)
    _emit(ns, inputs, columns, [row], constants)
    return EXIT_OK


def _cmd_detect(ns) -> int:
    constants = resolve_constants(ns.constants)
    per_unit = det.phase_per_unit_ell_log10(ns.clock_rate, ns.w, ns.v0, constants)
    inputs = {"clock_rate": ns.clock_rate, "w": ns.w, "v0": ns.v0}
    columns = ["phase_per_unit_ell_log10"]
    row = [per_unit]
    if ns.ell_log10 is not None:
        require_finite("ell_log10", ns.ell_log10)
        inputs["ell_log10"] = ns.ell_log10
        columns.append("phase_log10")
        row.append(per_unit + ns.ell_log10)
    if ns.target_phase is not None:
        inputs["target_phase"] = ns.target_phase
        columns.append("log10_ell")
        row.append(det.required_ell(ns.target_phase, ns.clock_rate, ns.w, ns.v0, constants))
    _emit(ns, inputs, columns, [row], constants)
    return EXIT_OK


def _cmd_sweep(ns) -> int:
    constants = resolve_constants(ns.constants)
    if not ns.axis or ns.values is None:
        raise ConfigError("sweep requires --axis and --values")
    values = tuple(_float_list("values", ns.values))
    outputs = tuple(o.strip() for o in str(ns.outputs).split(",") if o.strip()) if ns.outputs else ()
    fixed = {key: getattr(ns, key) for key in det.AXES if key != ns.axis and getattr(ns, key) is not None}
    cfg = det.SweepConfig(axis=ns.axis, values=values, outputs=outputs, fixed=fixed)
    table = det.run_sweep(cfg, constants)
    inputs = {"axis": ns.axis, "values": np.array(values, dtype=float), "outputs": list(outputs), **fixed}
    _emit(ns, inputs, table.columns, table.rows, constants)
    return EXIT_OK


def _cmd_verify(ns) -> int:
    constants = PhysicalConstants(c=1.0, G=1.0, hbar=1.0)
    scales = _float_list("scales", ns.scales)
    model = st.RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = geo.BoundaryConditions(
        st.SpacetimePoint(0.0, 1.0, 0.5 * math.pi, 0.0),
        st.SpacetimePoint(30.0, 1.0, 0.5 * math.pi, 0.3),
    )
    report = geo.verify_first_order(model, bc, scales, constants=constants, n_segments=ns.n_segments)

    radial = geo.solve_extremal_path(
        st.RotatingMassModel(M=1e-6, J=0.0),
        geo.BoundaryConditions(
            st.SpacetimePoint(0.0, 1.0, 0.5 * math.pi, 0.0),
            st.SpacetimePoint(100.0, 1.3, 0.5 * math.pi, 0.0),
        ),
        constants=constants,
        n_segments=ns.n_segments,
    )
    ratios = geo.energy_ratio_samples(st.RotatingMassModel(M=1e-6, J=0.0), radial.path, constants)
    drift = float((ratios.max() - ratios.min()) / abs(ratios.mean()))

    inputs = {"scales": scales, "n_segments": ns.n_segments}
    columns = ("epsilon", "exact_shift", "predicted_shift", "residual")
    rows = list(zip(report.epsilons, report.exact_shifts, report.predicted_shifts, report.residuals))
    outputs = {
        "residual_slope": report.slope,
        "energy_ratio_drift": drift,
        "all_converged": report.all_converged,
        "table": {"columns": list(columns), "rows": [list(r) for r in rows]},
    }
    summary_rows = rows + [
        ("slope", report.slope, math.nan, math.nan),
        ("drift", drift, math.nan, math.nan),
    ]
    _emit(ns, inputs, columns, summary_rows, constants, outputs)
    return EXIT_OK if report.all_converged and radial.converged else EXIT_NO_CONVERGENCE


def _gme_errors(gap_phase: np.ndarray, mean_phase: np.ndarray, constants: PhysicalConstants):
    """|closed form - state| of E_E, E_F, the witness and Pr(L') at each GME grid point."""
    hbar = constants.hbar
    clock = itf.ClockModel(
        E_g=(mean_phase - 0.5 * gap_phase) * hbar,
        E_e=(mean_phase + 0.5 * gap_phase) * hbar,
    )
    res = itf.gme_entanglement(clock, 1.0, constants)
    state = itf.gme_final_state(clock, 1.0, constants)
    pair = reduced_density(state, ["S", "P"])
    pl = np.real(reduced_density(itf.interferometer_state(clock, 1.0, constants), ["P"]).matrix[..., 0, 0])
    return (
        np.abs(res.ee_spc - von_neumann_entropy(reduced_density(state, ["S"]))),
        np.abs(res.ef_sp - entanglement_of_formation(pair)),
        np.abs(res.witness - witness_value(pair)),
        np.abs(itf.detection_probabilities(clock, 1.0, constants).pr_left - pl),
    )


def _qep_errors(draws: np.ndarray, constants: PhysicalConstants):
    """|closed form - state| of V, E_E, E_F and Pr(L') for each (theta, gap, mean, varphi) row."""
    hbar = constants.hbar
    theta, gap, mean, varphi = draws.T
    tt = qep_mod.QepTestTheory(
        clock=itf.ClockModel(E_g=0.0, E_e=hbar),
        E_g_prime=(mean - 0.5 * gap) * hbar,
        E_e_prime=(mean + 0.5 * gap) * hbar,
        theta=theta,
        varphi=varphi,
    )
    res = qep_mod.qep_gme_entanglement(tt, 1.0, constants)
    chi1, chi2 = qep_mod.qep_arm_states(tt, 1.0, constants)
    # <chi1|chi2> by the BLAS dot np.vdot uses
    overlap = np.abs((chi1.conj()[:, None, :] @ chi2[:, :, None])[:, 0, 0])
    state = qep_mod.qep_final_state(tt, 1.0, constants)
    pl = np.real(reduced_density(state, ["P"]).matrix[..., 0, 0])
    return (
        np.abs(overlap - res.visibility),
        np.abs(res.ee_spc - von_neumann_entropy(reduced_density(state, ["S"]))),
        np.abs(res.ef_sp - entanglement_of_formation(reduced_density(state, ["S", "P"]))),
        np.abs(res.pr_left - pl),
    )


def _product_witness(normals: np.ndarray):
    """Witness of the product state drawn from each (4, 2) block of normals.

    Rows 0 and 1 are the real and imaginary source amplitudes, rows 2 and 3
    the path's.
    """
    source = state_vector(normals[:, 0] + 1j * normals[:, 1], [("S", 2)])
    path = state_vector(normals[:, 2] + 1j * normals[:, 3], [("P", 2)])
    return (witness_value(density_from_state(tensor_state([source, path]))),)


def _worst(n: int, errors) -> list[float]:
    """Largest of each error over n samples, never below 0, taken SELFTEST_BLOCK samples at a time.

    ``errors(start, stop)`` returns one array per check for samples start..stop-1.
    """
    blocks = [
        [np.max(e) for e in errors(start, min(n, start + SELFTEST_BLOCK))]
        for start in range(0, n, SELFTEST_BLOCK)
    ]
    return [max(0.0, *column) for column in zip(*blocks)]


def _cmd_selftest(ns) -> int:
    if ns.samples < 1:
        raise DomainError(f"samples must be positive, got {ns.samples}")
    constants = resolve_constants(ns.constants)
    rng = np.random.default_rng(ns.seed)
    checks: list[tuple[str, float, float]] = []  # name, worst error, tolerance

    phases = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    gap_phase, mean_phase = (p.ravel() for p in np.meshgrid(phases, phases, indexing="ij"))
    worst = _worst(gap_phase.size, lambda a, b: _gme_errors(gap_phase[a:b], mean_phase[a:b], constants))
    checks.append(("gme_entropy_vs_oracle", worst[0], 1e-10))
    checks.append(("gme_formation_vs_oracle", worst[1], 1e-10))
    checks.append(("gme_witness_vs_oracle", worst[2], 1e-10))
    checks.append(("probabilities_vs_state", worst[3], 1e-12))

    # theta, gap, mean and varphi of each sample, drawn in that order
    highs = [0.5 * math.pi, 2.0 * math.pi, 2.0 * math.pi, 2.0 * math.pi]
    worst = _worst(100, lambda a, b: _qep_errors(rng.uniform(0.0, highs, size=(b - a, 4)), constants))
    checks.append(("qep_visibility_vs_overlap", worst[0], 1e-10))
    checks.append(("qep_entropy_vs_oracle", worst[1], 1e-10))
    # the spectral concurrence resolves only ~sqrt(eps) near rank deficiency
    checks.append(("qep_formation_vs_oracle", worst[2], 1e-6))
    checks.append(("qep_probabilities_vs_state", worst[3], 1e-12))

    worst = _worst(ns.samples, lambda a, b: _product_witness(rng.normal(size=(b - a, 4, 2))))
    checks.append(("witness_on_product_states", worst[0], 1.0 + 1e-9))

    columns = ("check", "value", "bound", "passed")
    rows = [(name, val, tol, val <= tol) for name, val, tol in checks]
    inputs = {"seed": ns.seed, "samples": ns.samples}
    outputs = {name: {"value": val, "bound": tol, "passed": val <= tol} for name, val, tol in checks}
    _emit(ns, inputs, columns, rows, constants, outputs)
    return EXIT_OK if all(val <= tol for _, val, tol in checks) else 1


_HANDLERS = {
    "delta-tau": _cmd_delta_tau,
    "interfere": _cmd_interfere,
    "gme": _cmd_gme,
    "qep": _cmd_qep,
    "detect": _cmd_detect,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def run_command(argv=None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _with_config(parser, argv, args)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:  # --config, --constants or --output names no usable file
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GravclockError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> None:
    sys.exit(run_command(argv))


if __name__ == "__main__":
    main()
