"""Smoke test of the benchmark itself, at a tiny problem size.

    python3 bench/smoke.py

Run from the root of a checkout. For every workload, untraced and traced,
it checks that the result line names every metric of BENCHMARK.json with
its unit and nothing else, that no op failed, and that the traced stage
and layer self times add up to about the traced op time. It also checks
that the benchmark refuses to run, without a result, in a directory that
holds only the benchmark. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS, STAGES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"])
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']} attempted={result['attempted']}")
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[7:])
    if detail.get("failed_ops_pct", 0.0) != 0.0 or detail["failures"]:
        errors.append(f"{where}: failures {detail['failures']}")
    if not any(ln.startswith(f"digest workload={workload} ") for ln in lines):
        errors.append(f"{where}: no artifact digest printed")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, "
                      f"units {[k for k in expected if got.get(k, expected[k]) != expected[k]]}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    if trace and not errors:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        op = m["trace.op_s"]
        stages = sum(m[f"pipeline.{s}_s"] for s in STAGES)
        own = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        if not 0.6 * op <= stages <= 1.05 * op:
            errors.append(f"{where}: stage times sum to {stages:.4f} s, "
                          f"traced op {op:.4f} s")
        if abs(own - op) > 0.2 * op:
            errors.append(f"{where}: layer self times sum to {own:.4f} s, "
                          f"traced op {op:.4f} s")
        print(f"{where}: traced op {op:.4f} s, stages {stages:.4f} s, "
              f"layer self times {own:.4f} s")
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / BENCH_DIR.name / "run.py"),
             "--workload", "resume", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
    for err in errors:
        print(f"FAIL {err}")
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
