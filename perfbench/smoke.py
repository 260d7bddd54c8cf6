"""Tiny-size run of every workload, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0 with correct outputs, that its last line
carries exactly the metrics BENCHMARK.json names, each with its unit,
and that failed_frac agrees with the attempted and failed counts.  It
also checks that a stage missing from the package is reported as absent.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec: dict, workload: str, trace: int) -> str | None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        return f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"outputs not correct: {done.stdout[-2000:]}"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != wanted:
        return f"metrics {got} differ from BENCHMARK.json {wanted}"
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            return f"metric {name} is malformed: {metric}"
    if trace:
        frac = result["metrics"]["failed_frac"]["value"]
        if frac != result["failed"] / result["attempted"]:
            return f"failed_frac {frac} does not match {result['failed']} / {result['attempted']}"
    return None


def check_absent_stage() -> str | None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install([("builder.gone", "plskit.builder", "no_such_stage", None),
                    ("builder.gone", "plskit.no_such_module", "stage", None)])
    tracer.uninstall()
    expected = ["plskit.builder.no_such_stage", "plskit.no_such_module.stage"]
    return None if tracer.absent == expected else f"absent stages {tracer.absent}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = 0
    checks = [(f"{w['name']} --trace {t}", lambda w=w, t=t: check_run(spec, w["name"], t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("absent stage", check_absent_stage))
    for label, check in checks:
        problem = check()
        print(f"{'FAIL' if problem else 'ok  '} {label}" + (f": {problem}" if problem else ""))
        problems += problem is not None
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
