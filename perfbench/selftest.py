"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny input size, untraced and
traced, and checks that each exits 0, prints each named metric with its
unit on a ``metric`` line, and ends with a result line holding exactly
``correct``, ``attempted``, ``failed`` and ``metrics``.  Then checks that
the benchmark refuses to run, printing no result, in a directory holding
only BENCHMARK.json and the benchmark.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SECONDS = "1"


def check_run(spec, workload, trace) -> list:
    argv = [*spec["command"], "--workload", workload, "--seed", "7",
            "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct: {lines[-1][:200]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in named}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in named})}")
    for m in named:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is {value}")
        prefix = f"metric {m['name']} = "
        if not any(ln.startswith(prefix) and f" {m['unit']} (n=" in ln
                   for ln in lines):
            problems.append(f"{where}: no '{prefix}... {m['unit']} (n=...)' line")
    return problems


def check_refuses_without_program(spec) -> list:
    bare = ROOT / ".bench_cache" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, *spec["command"][1:], "--workload",
                spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: benchmark ran or printed a result "
                f"(exit {proc.returncode})"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{'ok  ' if not found else 'FAIL'} {workload} trace={trace}")
            problems += found
    found = check_refuses_without_program(spec)
    print(f"{'ok  ' if not found else 'FAIL'} refuses to run without the program")
    problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
