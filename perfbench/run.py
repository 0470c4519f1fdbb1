#!/usr/bin/env python3
"""Benchmark of the gravclock command-line interface.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout that holds this file,
and each request is one in-process ``gravclock.cli.run_command(argv)`` call
with stdout captured in memory.  Load is a closed loop with one client and
no extra threads: the next request goes out when the previous one returns.
Every output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics:

  setup_s            median wall time of a fresh interpreter running
                     ``gravclock --version`` (import plus parser build),
                     over 2 * SETUP_REPEATS interpreters started one at a
                     time, half before the timed requests and half after
  latency_p50_s      median wall time per timed request
  throughput_rps     timed requests that passed their check / timed wall time
  peak_rss_mb        peak resident memory of this process
  cpu_per_request_s  user + system CPU of this process per timed request

``--trace 1`` runs each request of one cycle untraced and then traced, and
reports the per-layer metrics of ``tracer.py`` for the traced runs, plus the
tracing overhead: traced minus untraced median wall time of those requests.

The first cycle of every run holds one request of each shape; it is a
warm-up and is not timed.  ``--known-defects`` swaps in the inputs on which
the seed program is known to fail (see ``workloads.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` and ``failed`` count every request
made, warm-up included.  The full result, with the run environment, goes to
``perfbench/out/``; the spans of a traced run go beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as trace_mod
from workloads import WORKLOADS, cycles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 6
SETUP_TIMEOUT_S = 60
MAX_FAILURES_KEPT = 20
WARMUP_RULE = "the first cycle (one request of each shape) is a warm-up, checked but not timed"

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "cpu_per_request_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    """Import gravclock.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "gravclock" / "cli.py").is_file():
        raise BenchmarkError(f"no gravclock sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gravclock.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchmarkError(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters running ``gravclock --version``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, gravclock.cli as cli; sys.exit(cli.run_command(['--version']))"
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("gravclock"):
            raise BenchmarkError(f"gravclock --version failed: {proc.stderr.strip()[-200:]}")
    return times


class Session:
    """Sends requests, checks their outputs and counts failures."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failures: list[dict] = []

    def request(self, req) -> tuple[float, bool]:
        """Run one request; return its wall time and whether it passed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.run_command(list(req.argv))
                reason = None
            except Exception as exc:  # counted as a failed request
                code, reason = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        if reason is None:
            try:
                reason = self.workload.check(req, code, out.getvalue())
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason is not None and err.getvalue():
                reason += f" (stderr: {err.getvalue().strip()[-200:]})"
        self.attempted += 1
        if reason is not None:
            self.failures.append({"shape": req.shape, "reason": reason[:500]})
        return elapsed, reason is None

    def run_all(self, requests) -> list[float]:
        return [self.request(req)[0] for req in requests]


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure_end_to_end(session, stream, seconds: float) -> tuple[dict, dict]:
    session.run_all(next(stream))  # warm-up
    latencies, passed, done = [], 0, 0
    cpu0 = cpu_seconds()
    start = perf_counter()
    while True:
        # stop at the cycle boundary nearest to `seconds`, so a run measures
        # `seconds` give or take half a cycle
        so_far = perf_counter() - start
        if done and so_far + 0.5 * so_far / done >= seconds:
            break
        done += 1
        for req in next(stream):
            elapsed, ok = session.request(req)
            latencies.append(elapsed)
            passed += ok
    wall = perf_counter() - start
    cpu = cpu_seconds() - cpu0
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "throughput_rps": passed / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_per_request_s": cpu / len(latencies),
    }
    detail = {"timed_requests": len(latencies), "timed_wall_s": wall, "latencies_s": latencies}
    return metrics, detail


def measure_layers(session, stream, spans_path: Path) -> tuple[dict, dict]:
    session.run_all(next(stream))  # warm-up
    replay = next(stream)
    tracer = trace_mod.Tracer()
    untraced, traced, sites = [], [], []
    # each request runs untraced and then traced, so drift on a shared
    # machine hits both sides of the overhead alike
    for number, req in enumerate(replay):
        untraced.append(session.request(req)[0])
        tracer.request = number
        patches, originals = trace_mod.install(tracer)
        try:
            missed = trace_mod.unwrapped_sites(originals)
            if missed:
                raise BenchmarkError(f"layer functions left unwrapped at: {missed}")
            traced.append(session.request(req)[0])
        finally:
            trace_mod.uninstall(patches)
        sites = sorted(f"{m.__name__}.{attr}" for m, attr, _ in patches)
    overhead = statistics.median(traced) - statistics.median(untraced)
    tracer.write(spans_path)
    detail = {
        "traced_requests": len(replay),
        "untraced_latencies_s": untraced,
        "traced_latencies_s": traced,
        "wrapped_sites": sites,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return trace_mod.layer_metrics(tracer.spans, overhead), detail


def git_revision() -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def process_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def version_of(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(args) -> dict:
    kernels = sys.modules.get("gravclock.kernels")
    backend = getattr(kernels, "backend_name", None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "backend": backend() if callable(backend) else "unknown",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        # OpenBLAS runs its pool on the calling thread plus its workers, so
        # this is the main thread plus the BLAS workers started at import
        "blas_threads": process_threads(),
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "git_revision": git_revision(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "known_defects": args.known_defects,
        "load": "closed loop, one client, in-process run_command calls",
        "warmup_rule": WARMUP_RULE,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-defects", action="store_true",
                        help="include the inputs on which the seed program fails")
    return parser.parse_args(argv)


def result_path(args, suffix: str) -> Path:
    defects = "-defects" if args.known_defects else ""
    return OUT / f"{args.workload}{defects}-seed{args.seed}-trace{args.trace}{suffix}"


def main(argv=None) -> int:
    args = parse_args(argv)
    # constants come from the CLI defaults, never from the caller's environment
    os.environ.pop("GRAVCLOCK_CONSTANTS", None)
    try:
        cli = load_cli()
        workload = WORKLOADS[args.workload]
        session = Session(cli, workload)
        stream = cycles(workload, args.seed, args.known_defects)
        OUT.mkdir(parents=True, exist_ok=True)
        env = environment(args)
        if args.trace:
            metrics, detail = measure_layers(session, stream, result_path(args, "-spans.jsonl"))
            units = {name: unit for name, unit, _, _ in trace_mod.metric_specs()}
        else:
            # set-up is sampled on both sides of the timed requests, so a
            # slow spell of the host at either end does not set the median
            setup = measure_setup()
            metrics, detail = measure_end_to_end(session, stream, args.seconds)
            setup += measure_setup()
            metrics = {"setup_s": statistics.median(setup), **metrics}
            detail["setup_times_s"] = setup
            units = END_TO_END_UNITS
    except (BenchmarkError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = len(session.failures)
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    full = {
        **result,
        "error_rate": failed / session.attempted,
        "environment": env,
        "detail": detail,
        "failures": session.failures[:MAX_FAILURES_KEPT],
    }
    path = result_path(args, ".json")
    path.write_text(json.dumps(full, indent=1) + "\n")
    print(f"{args.workload}: {session.attempted} requests, {failed} failed "
          f"(error_rate {full['error_rate']:.4g}); full result in {path.relative_to(ROOT)}")
    for failure in session.failures[:3]:
        print(f"  failed {failure['shape']}: {failure['reason'][:160]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
