"""Span tracing of gravclock's public functions, from outside the program.

``install`` wraps each function named in ``LAYERS`` with one timing wrapper
and puts that wrapper at every module attribute of the loaded ``gravclock``
modules that binds the function, so a call made through ``kernels.X``, a
name imported with ``from .interferometry import X`` or the package's
re-export is recorded once.  A function that no longer exists is skipped and
reports zero calls.

Spans (name, start, end, parent span, request, work count) are kept in memory
and written out by the caller.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

PACKAGE = "gravclock"
# samples in the last refinement level of a quadrature that stopped at the cap
CAP_SAMPLES = 2**20 + 1


def _elements(args, result) -> int:
    return int(np.size(args[0]))


def _sweeps(args, result) -> int:
    return int(getattr(result, "sweeps", 0))


def _rows(args, result) -> int:
    return len(getattr(result, "rows", ()))


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    moves: str  # the end-to-end metric and workload this layer should move
    work: str = ""  # name of the work count recorded per call, if any
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


_VERIFY = "latency_p50_s and throughput_rps on verify; no other workload"
_QUAD = "latency_p50_s and peak_rss_mb on quadrature"
_SWEEP = "latency_p50_s and throughput_rps on states"
_ORACLE = "latency_p50_s and cpu_per_request_s on states, from its sweep and selftest requests"

LAYERS = (
    Layer("kernels", "block_thomas", _VERIFY),
    Layer("kernels", "newton_assemble", _VERIFY),
    Layer("kernels", "path_functional", _VERIFY),
    Layer("kernels", "radicand_array", _QUAD, "elements", _elements),
    Layer("kernels", "pair_integrand_array", _QUAD, "elements", _elements),
    Layer("kernels", "first_order_integrand_array", _QUAD, "elements", _elements),
    Layer("geodesic", "solve_extremal_path", "latency_p50_s on verify", "sweeps", _sweeps),
    Layer("propertime", "delta_tau_pair", "latency_p50_s, peak_rss_mb and error_rate on quadrature"),
    Layer("propertime", "delta_tau_first_order", "latency_p50_s on verify and quadrature"),
    Layer("detectability", "run_sweep", _SWEEP, "rows", _rows),
    Layer("detectability", "evaluate_point", _SWEEP),
    Layer("interferometry", "gme_entanglement", _ORACLE + "; error_rate on states with known defects"),
    Layer("interferometry", "detection_probabilities", _ORACLE),
    Layer("interferometry", "interferometer_state", _ORACLE),
    Layer("qep", "qep_gme_entanglement", _ORACLE),
    Layer("qep", "qep_visibility", _ORACLE),
    Layer("qep", "qep_arm_states", _ORACLE),
    Layer("clockstate", "reduced_density", _ORACLE),
    Layer("clockstate", "von_neumann_entropy", _ORACLE),
    Layer("clockstate", "concurrence", _ORACLE),
    Layer("clockstate", "entanglement_of_formation", _ORACLE),
    Layer("clockstate", "witness_value", _ORACLE),
    Layer("clockstate", "tensor_state", _ORACLE),
    Layer("clockstate", "density_from_state", _ORACLE),
    # self time: parsing, config merge and output formatting
    Layer("cli", "run_command", "latency_p50_s on states; small elsewhere"),
)

# metrics computed from several layers: name -> (unit, better, what it should move)
DERIVED = {
    "geodesic.solves_per_assembly": ("solve/assembly", "lower", "latency_p50_s on verify"),
    "geodesic.functional_evals_per_sweep": ("eval/sweep", "lower", "latency_p50_s on verify"),
    "propertime.refinement_levels": ("level/call", "lower", _QUAD),
    "propertime.samples_per_call": ("sample/call", "lower", _QUAD),
    "propertime.cap_hits": ("count", "lower", "latency_p50_s and error_rate on quadrature"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced latency_p50_s of the same requests"),
}

_QUADRATURES = ("propertime.delta_tau_pair", "propertime.delta_tau_first_order")
_INTEGRANDS = ("kernels.pair_integrand_array", "kernels.first_order_integrand_array")


def _quantities(layer: Layer):
    """(metric name, quantity, unit, better) recorded for one layer."""
    yield f"{layer.name}.calls", "calls", "count", "lower"
    if layer.work == "rows":
        yield f"{layer.module}.rows", "work", "count", "higher"
    elif layer.work:
        yield f"{layer.name}.{layer.work}", "work", "count", "lower"
    yield f"{layer.name}.self_s", "self_s", "s", "lower"


def metric_specs() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, moves) of every per-layer metric, in report order."""
    specs = [
        (metric, unit, better, layer.moves)
        for layer in LAYERS
        for metric, _, unit, better in _quantities(layer)
    ]
    return specs + [(name, unit, better, moves) for name, (unit, better, moves) in DERIVED.items()]


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request, work]
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, layer: Layer, fn):
        spans, stack, name, count = self.spans, self._stack, layer.name, layer.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, work in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "work": work,
                }) + "\n")


def _package_modules():
    return [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def install(tracer: Tracer) -> tuple[list, dict]:
    """Wrap every layer function at each of its binding sites.

    Returns the patches to undo and the original functions by layer name.
    """
    patches = []
    originals = {}
    modules = _package_modules()
    for layer in LAYERS:
        owner = sys.modules.get(f"{PACKAGE}.{layer.module}")
        fn = getattr(owner, layer.function, None)
        if not callable(fn):
            continue  # renamed or deleted: reports zero calls
        originals[layer.name] = fn
        wrapper = tracer.wrap(layer, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    patches.append((module, attr, fn))
    return patches, originals


def uninstall(patches) -> None:
    for module, attr, fn in reversed(patches):
        setattr(module, attr, fn)


def unwrapped_sites(originals: dict) -> list[str]:
    """Module attributes that still bind an original layer function."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            for name, fn in originals.items():
                if value is fn:
                    found.append(f"{module.__name__}.{attr} ({name})")
    return found


def layer_metrics(spans: list[list], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    last_level: dict[int, int] = {}  # quadrature span -> samples of its last integrand call
    solver_evals = 0
    for index, (name, start, end, parent, _, count) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[index]
        work[name] = work.get(name, 0) + count
        if parent >= 0:
            parent_name = spans[parent][0]
            if name in _INTEGRANDS and parent_name in _QUADRATURES:
                last_level[parent] = count
            elif name == "kernels.path_functional" and parent_name == "geodesic.solve_extremal_path":
                solver_evals += 1

    def ratio(num, den):
        return num / den if den else 0.0

    tables = {"calls": calls, "work": work, "self_s": self_s}
    metrics = {
        metric: tables[quantity].get(layer.name, 0.0 if quantity == "self_s" else 0)
        for layer in LAYERS
        for metric, quantity, _, _ in _quantities(layer)
    }

    quad_calls = sum(calls.get(name, 0) for name in _QUADRATURES)
    metrics["geodesic.solves_per_assembly"] = ratio(
        calls.get("kernels.block_thomas", 0), calls.get("kernels.newton_assemble", 0)
    )
    metrics["geodesic.functional_evals_per_sweep"] = ratio(
        solver_evals, work.get("geodesic.solve_extremal_path", 0)
    )
    metrics["propertime.refinement_levels"] = ratio(
        sum(calls.get(name, 0) for name in _INTEGRANDS), quad_calls
    )
    metrics["propertime.samples_per_call"] = ratio(
        sum(work.get(name, 0) for name in _INTEGRANDS), quad_calls
    )
    metrics["propertime.cap_hits"] = sum(1 for n in last_level.values() if n == CAP_SAMPLES)
    metrics["trace.overhead_s"] = overhead_s
    return metrics
