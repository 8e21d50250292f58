"""exobench benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an exobench checkout.  Generates the workload's
inputs from the seed (cached under .bench_cache/, outside any timing),
times fresh-process imports of exobench, then starts one worker process
with BLAS/OpenMP threads pinned to 1 that sets up the workload and
measures it for S seconds.  Timings are scaled to the speed of the
reference kernel in speedref.py, read before and after each timed window,
so that phases of load from other processes on the machine cancel.  Prints provenance, every metric with its unit
and sample count, diagnostics and correctness checks, then a JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1
when a correctness check fails and 2 when it cannot run at all.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import (END_TO_END_UNITS, SETUP_REPEATS, SIZES, WORKLOADS,
                  per_layer_units)
from speedref import SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
CACHE_KEEP = 3            # input sets kept per workload
TIME_LIMIT_S = 170.0      # whole run, prepare included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import exobench; "
                "print(time.perf_counter() - t0)")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, deadline, what) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {what}")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def source_digest() -> str:
    """Inputs depend on exobench's generators and on the benchmark's own
    preparation code; the cache key changes whenever either does."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "prepare.py", HERE / "spec.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def prepared_inputs(workload, seed, size, deadline) -> Path | None:
    """The cached input directory for this seed, generated if missing."""
    if workload == "sim-write":
        return None   # sim-write generates its data in the timed body
    base = CACHE / "inputs"
    final = base / f"{workload}-{size}-s{seed}-{source_digest()}"
    if not (final / "inputs.json").is_file():
        tmp = base / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run_child([str(HERE / "prepare.py"), "--workload", workload,
                       "--seed", str(seed), "--size", size, "--out", str(tmp)],
                      deadline, "input generation")
            shutil.rmtree(final, ignore_errors=True)
            os.replace(tmp, final)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(final)
    old = sorted((p for p in base.glob(f"{workload}-*") if p != final),
                 key=lambda p: p.stat().st_mtime)
    for stale in old[:max(0, len(old) - (CACHE_KEEP - 1))]:
        shutil.rmtree(stale, ignore_errors=True)
    return final


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((SRC / "exobench").rglob("*.py")))


def measure(args) -> dict:
    if not (SRC / "exobench" / "__init__.py").is_file():
        raise BenchError(f"{ROOT} is not an exobench checkout (no src/exobench)")
    deadline = time.monotonic() + TIME_LIMIT_S
    inputs = prepared_inputs(args.workload, args.seed, args.size, deadline)
    import_s = []
    speed = SpeedLog()
    for k in range(SETUP_REPEATS):
        raw = float(run_child(["-c", IMPORT_PROBE], deadline, "import probe"))
        speed.mark()
        import_s.append(raw * speed.factor(k))
    work = CACHE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result_path = work / "result.json"
        run_child([str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size,
                   "--work", str(work), "--result", str(result_path)]
                  + (["--inputs", str(inputs)] if inputs else []),
                  deadline, "worker")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["import_samples"] = import_s
    result["provenance"].update({
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_exobench_lines": src_line_count(),
        "inputs_sha256": (json.loads((inputs / "inputs.json").read_text())["sha256"]
                          if inputs else result.get("generated_sha256", {})),
    })
    return result


def report(args, result) -> int:
    import_med = statistics.median(result["import_samples"])
    setup_med = statistics.median(result["setup_s"])
    if args.trace:
        layer = result["layer"]
        layer["setup.import_s"] = import_med
        layer["setup.workload_s"] = setup_med
        layer["trace.overhead_s"] = layer["trace.run_s"] - layer["trace.untraced_run_s"]
        units = per_layer_units()
        counts = dict(result["layer_n"])
        counts["setup.import_s"] = len(result["import_samples"])
        counts["setup.workload_s"] = len(result["setup_s"])
        metrics = {name: {"value": float(layer[name]), "unit": unit,
                          "n": counts.get(name, counts["passes"]), "note": ""}
                   for name, unit in units.items()}
    else:
        metrics = dict(result["metrics"])
        metrics["setup_s"] = {
            "value": import_med + setup_med, "unit": "s",
            "n": len(result["import_samples"]),
            "note": "median fresh-process import exobench + median workload "
                    "set-up, each at reference speed"}
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    print(f"exobench benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    for name, m in metrics.items():
        note = f"; {m['note']}" if m["note"] else ""
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={m['n']}{note})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"metric error_frac = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for line in result["diagnostics"]:
        print(f"diagnostic {line}")
    for c in result["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    correct = failed == 0 and all(c["ok"] for c in result["checks"])
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="exobench benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=sorted(SIZES),
                    help="input size; 'tiny' is for the self-test")
    args = ap.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return report(args, result)


if __name__ == "__main__":
    sys.exit(main())
