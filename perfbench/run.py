"""plskit benchmark: one workload, one closed-loop client, stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  A single client sends each
request only after the previous one finished.  The last line of stdout
is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  Lines before it say how each figure was
obtained.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from stats import ScaledClock, nearest_rank

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# workload -> (minimum requests per run, tail percentile).  Every run
# makes at least that many requests, so at least ten samples lie beyond
# the tail percentile, and the percentile stays the same however fast
# the program gets.
WORKLOADS = {
    "build-peel": (100, 90.0),
    "build-spread": (50, 80.0),
    "verify-sweep": (50, 80.0),
    "cli-oneshot": (100, 90.0),
}
SMOKE_MIN_REQUESTS = 3
SETUP_LAUNCHES = 15


def import_env() -> dict:
    """Environment for child interpreters: the package from ``src/``, and
    bytecode caching on, as for an installed package, whatever the caller
    has set."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(launches: int) -> list[float]:
    """Scaled times of fresh interpreters importing plskit and plskit.cli.

    One unmeasured launch first writes the bytecode cache, as an
    installed package would already have it.
    """
    command = [sys.executable, "-c", "import plskit, plskit.cli"]
    env = import_env()

    def launch() -> None:
        subprocess.run(command, cwd=ROOT, env=env, check=True, capture_output=True)

    launch()
    clock = ScaledClock()
    times = []
    for _ in range(launches):
        _, error, elapsed = clock.time(launch)
        if error is not None:
            raise error
        times.append(elapsed)
    return times


def make_pass(workload: str, rng: random.Random, smoke: bool):
    import workloads

    if workload == "build-peel":
        return workloads.build_peel_pass(rng, smoke)
    if workload == "build-spread":
        return workloads.build_spread_pass(rng, smoke)
    if workload == "verify-sweep":
        return workloads.verify_sweep_pass(rng, smoke)
    return workloads.cli_pass(rng, smoke, str(ROOT), import_env())


class Outcomes:
    """Request counts, failures and correctly settled cells."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.cells = 0

    def record(self, request, output, error, problem: str | None = None) -> None:
        self.attempted += 1
        if error is not None:
            problem = f"{type(error).__name__}: {error}"
        elif problem is None:
            try:
                problem = request.check(output)
            except Exception as exc:  # output too malformed to check
                problem, error = f"check raised {type(exc).__name__}: {exc}", exc
        if problem is None:
            self.cells += request.cells
            return
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {request.label}: {problem}")
            if error is not None:
                traceback.print_exception(error, file=sys.stdout)


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Closed loop over whole passes until the time and request count are met."""
    min_requests, tail_pct = WORKLOADS[workload]
    min_requests = SMOKE_MIN_REQUESTS if smoke else min_requests
    setup = measure_setup(3 if smoke else SETUP_LAUNCHES)

    rng = random.Random(seed)
    clock = ScaledClock()
    outcomes = Outcomes()
    latencies: list[float] = []
    pass_times: list[float] = []
    started = perf_counter()
    while perf_counter() - started < seconds or outcomes.attempted < min_requests:
        first = len(latencies)
        for request in make_pass(workload, rng, smoke):
            output, error, elapsed = clock.time(request.call)
            latencies.append(elapsed)
            outcomes.record(request, output, error)
        pass_times.append(sum(latencies[first:]))

    usage = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    n = len(latencies)
    p50, _ = nearest_rank(latencies, 50.0)
    tail, beyond = nearest_rank(latencies, tail_pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} launches"),
        "latency_p50_ms": (p50 * 1000, "ms", f"p50 of {n} requests"),
        "latency_tail_ms": (tail * 1000, "ms", f"p{tail_pct:g} of {n} requests, {beyond} beyond it"),
        "cells_per_s": (
            outcomes.cells / clock.scaled,
            "1/s",
            f"{outcomes.cells} cells in {clock.scaled:.3f} s of requests",
        ),
        "verify_s": (statistics.median(pass_times), "s", f"median of {len(pass_times)} passes"),
        "peak_rss_mb": (
            resource.getrusage(usage).ru_maxrss / 1024,
            "MB",
            "largest CLI process" if usage == resource.RUSAGE_CHILDREN else "this process",
        ),
    }
    print(f"host speed: {clock.wall:.3f} s of wall time read as {clock.scaled:.3f} s")
    return finish(workload, seed, outcomes.attempted, outcomes.failed, metrics)


def run_traced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Each pass runs the same inputs untraced and traced, in alternating order.

    The traced outputs must equal the untraced ones byte for byte; the
    time difference between the two is the tracing overhead.
    """
    from layers import SweepKeys, per_layer_metrics, stages
    from tracer import Tracer
    from workloads import output_text

    tracer = Tracer()
    sweep_keys = SweepKeys()
    table = stages(sweep_keys)
    rng = random.Random(seed)
    clocks = {False: ScaledClock(), True: ScaledClock()}
    outcomes = Outcomes()
    scales: list[float] = []  # per traced request: scaled over wall time
    passes = 0
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        requests = make_pass(workload, rng, smoke)
        results = {False: [], True: []}
        for traced in (False, True) if passes % 2 == 0 else (True, False):
            if traced:
                tracer.install(table)
            try:
                for request in requests:
                    results[traced].append(timed_request(request, clocks[traced], tracer if traced else None))
            finally:
                tracer.uninstall()
        for request, plain, (output, error, _, scale) in zip(requests, results[False], results[True]):
            scales.append(scale)
            same = (error, plain[1]) == (None, None) and output_text(output) == output_text(plain[0])
            outcomes.record(request, output, error, None if same or error else "traced output differs")
        passes += 1

    print(f"stages wrapped: {len(tracer.wrapped)}; absent: {', '.join(tracer.absent) or 'none'}")
    print(f"{'span':24} {'calls':>8} {'total s':>10} {'self s':>10}")
    for name, row in sorted(tracer.stage_table(scales).items(), key=lambda item: -item[1]["self_s"]):
        print(f"{name:24} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    plain_s, traced_s = clocks[False].scaled, clocks[True].scaled
    print(f"tracing overhead: {traced_s:.4f} s traced vs {plain_s:.4f} s untraced over {passes} passes")

    metrics = {
        name: (value, unit, "")
        for name, (value, unit) in per_layer_metrics(tracer, sweep_keys, scales).items()
    }
    attempted, failed = outcomes.attempted, outcomes.failed
    metrics["failed_frac"] = (failed / attempted, "frac", f"{failed} of {attempted}")
    metrics["trace.overhead_pct"] = (100 * (traced_s - plain_s) / plain_s, "%", "traced minus untraced")
    metrics["trace.absent_stages"] = (len(tracer.absent), "count", "")
    return finish(workload, seed, attempted, failed, metrics)


def timed_request(request, clock: ScaledClock, tracer):
    """(output, error, scaled s, scale) of one request, inside a request
    span when a tracer is given; the traced run calls ``request.traced``."""
    call = request.traced or request.call
    if tracer is not None:
        call = tracer.request_call(call)
    wall = clock.wall
    output, error, elapsed = clock.time(call)
    return output, error, elapsed, elapsed / (clock.wall - wall)


def finish(workload: str, seed: int, attempted: int, failed: int, metrics: dict) -> dict:
    print(f"workload {workload}, seed {seed}: {attempted} requests, {failed} failed "
          f"(failed_frac {failed / attempted:.6g})")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for perfbench/smoke.py")
    args = parser.parse_args()

    if not (SRC / "plskit" / "__init__.py").is_file():
        print(f"error: plskit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = run_traced if args.trace else run_untraced
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
