"""mstkd benchmark: drives `mstkd.cli.main` in-process and times each call.

    python3 bench/run.py --workload full-pipeline|reembed|resume --seed N
                         --seconds S --trace 0|1 [--size default|tiny]

Run from the root of a source checkout; the package is imported from
`src/`. Every workload is a closed loop with one client in one process.
With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run (see
bench/README.md). Earlier lines record the environment, one artifact
digest per (workload, seed, split) and details that are not metrics.
The BLAS thread count is inherited and never pinned, except in the
single-threaded child of a traced run.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("full-pipeline", "reembed", "resume")
SPLITS = ("specialized", "balanced")
# interpreter start, imports and config building are repeated and the
# median taken; the trained run directory (about 6 s) is built once
SETUP_ROUNDS = 5
# untimed ops before the timed loop on the short-op workloads, so that the
# first timed ops do not pay for the allocator and page-cache state that
# set-up's training leaves behind; a full-pipeline op starts from scratch
WARMUP_S = 2.0
SKIP_MARK = ": up to date in "
N_STAGES = 6  # stages of run-all, each skipped on resume
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MSTKD_WORKERS")
# deterministic artifacts; logs (wall_time) and manifest.json (hashes logs)
# vary between runs, and config.json records the output directory
DETERMINISTIC_DIRS = ("dataset", "teachers", "embeddings", "adaptors",
                      "students", "reports")
END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("ops_per_s", "1/s"),
              ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"),
              ("student_acc_pct", "%"))

# shrinks the default config so that smoke.py runs each workload in seconds
TINY = {"dataset": {"identities_per_group": 8, "samples_per_identity": 6,
                    "validation_identities_per_group": 4,
                    "test_identities_per_group": 4},
        "backbone": {"hidden": [16], "embedding_dim": 8},
        "schedule_scale": 0.08, "pairs_per_group": 40}


class OpResult(NamedTuple):
    wall_s: float
    cpu_s: float        # user + sys of this process, BLAS threads included
    ok: bool
    why: str            # failure reason when not ok
    skipped: int        # stages that reported themselves up to date


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_mstkd():
    """Import the checkout's own mstkd; refuse any other copy."""
    if not (SRC / "mstkd" / "cli.py").is_file():
        fail(f"no mstkd sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from mstkd import cli
    if Path(cli.__file__).resolve().parent != SRC / "mstkd":
        fail(f"imported mstkd from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "nproc": len(os.sched_getaffinity(0)),
            **{k: os.environ.get(k) for k in ENV_VARS}}


class Bench:
    """One workload's configs, run directories and output checks."""

    def __init__(self, cli, args):
        self.cli = cli
        self.workload = args.workload
        self.seed = args.seed % 100_000
        self.size = args.size
        self.work = OUT / f"work-{os.getpid()}"
        self.configs: dict[str, Path] = {}
        self.digests: dict[str, str] = {}  # split -> first digest seen
        self.run_dir: Path | None = None
        self.n_dirs = 0
        self.quality: list[tuple[float, float]] = []

    # -- config and artifacts -------------------------------------------

    def write_configs(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        base = self.work / "default.json"
        with contextlib.redirect_stdout(io.StringIO()):
            if self.cli.main(["init-config", "--out", str(base)]) != 0:
                fail("init-config failed")
        doc = json.loads(base.read_text())
        if self.size == "tiny":
            for key, val in TINY.items():
                doc[key] = {**doc[key], **val} if isinstance(val, dict) else val
        for split in SPLITS:
            path = self.work / f"{split}.json"
            path.write_text(json.dumps({**doc, "split": split}, indent=2))
            self.configs[split] = path

    def argv(self, command: str, split: str, out: Path, force: bool = False):
        argv = [command, "--config", str(self.configs[split]),
                "--seed-override", str(self.seed), "--out", str(out)]
        return argv + ["--force"] if force else argv

    def fresh_dir(self) -> Path:
        self.n_dirs += 1
        return self.work / f"run-{self.n_dirs}"

    def call(self, argv) -> tuple[int, str]:
        """One timed-from-outside call of the public entry point."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                rc = self.cli.main(argv)
            except Exception:  # a traceback breaks the CLI contract: a failed op
                traceback.print_exc()
                rc = -1
        return rc, buf.getvalue()

    @staticmethod
    def digest(run_dir: Path) -> str:
        h = hashlib.sha256()
        for sub in DETERMINISTIC_DIRS:
            for path in sorted((run_dir / sub).glob("*")):
                if path.name.endswith(".log.jsonl"):
                    continue
                h.update(f"{sub}/{path.name}\0".encode())
                h.update(hashlib.sha256(path.read_bytes()).digest())
        return h.hexdigest()

    def check(self, run_dir: Path, split: str, rcs, output: str,
              skips_expected: int | None) -> tuple[bool, str]:
        """Output check of one op; also collects the quality guards."""
        if any(rc != 0 for rc in rcs):
            return False, f"exit codes {rcs}"
        skips = output.count(SKIP_MARK)
        if skips_expected is not None and skips != skips_expected:
            return False, f"{skips} stages skipped, expected {skips_expected}"
        reports = sorted((run_dir / "reports").glob("*.json"))
        if not reports:
            return False, "no reports"
        accs, stds = [], []
        for path in reports:
            try:
                doc = json.loads(path.read_text())
                per_group = [float(a) for a in doc["per_group_acc"]]
                accs.append(float(doc["global_acc"]))
                stds.append(float(doc["std"]))
            except (ValueError, KeyError, TypeError) as exc:
                return False, f"{path.name}: unreadable report ({exc})"
            if not per_group or not all(
                    math.isfinite(a) and 0.0 <= a <= 100.0 for a in per_group):
                return False, f"{path.name}: per-group accuracy out of range"
        digest = self.digest(run_dir)
        first = self.digests.setdefault(split, digest)
        if digest != first:
            return False, f"artifact digest {digest[:12]} != {first[:12]}"
        self.quality.append((statistics.fmean(accs), statistics.fmean(stds)))
        return True, ""

    def mean_quality(self, column: int) -> float:
        """Mean over the passed ops of (accuracy, STD); 0 if none passed."""
        return statistics.fmean(q[column] for q in self.quality) if self.quality else 0.0

    # -- workloads ----------------------------------------------------------

    def build_run_dir(self) -> None:
        """The trained run directory that reembed and resume operate on."""
        run_dir = self.fresh_dir()
        rc, output = self.call(self.argv("run-all", "specialized", run_dir))
        ok, why = self.check(run_dir, "specialized", [rc], output, 0)
        if not ok:
            fail(f"set-up run failed: {why}")
        self.run_dir = run_dir

    def op(self, i: int) -> "OpResult":
        """Run op `i`, timed from outside, then check its outputs."""
        if self.workload == "full-pipeline":
            split, run_dir = SPLITS[i % 2], self.fresh_dir()
            calls, skips_expected = [self.argv("run-all", split, run_dir)], 0
        elif self.workload == "reembed":
            split, run_dir = "specialized", self.run_dir
            calls = [self.argv(cmd, split, run_dir, force=True)
                     for cmd in ("extract", "evaluate")]
            skips_expected = 0
        else:
            split, run_dir = "specialized", self.run_dir
            calls = [self.argv("run-all", split, run_dir)]
            skips_expected = N_STAGES
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        results = [self.call(argv) for argv in calls]
        dt, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        output = "".join(out for _, out in results)
        ok, why = self.check(run_dir, split, [rc for rc, _ in results], output,
                             skips_expected)
        if self.workload == "full-pipeline":
            shutil.rmtree(run_dir)
        return OpResult(dt, cpu, ok, why, output.count(SKIP_MARK))


def child_import_seconds() -> float:
    """Interpreter start plus the numpy and mstkd imports, in a fresh process."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import numpy, mstkd.cli")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def run_loop(bench: Bench, seconds: float, first_op: int, tracing=None):
    """Closed loop: the next op starts when the previous one has finished.
    Returns the ops' results and, when traced, their layer metrics."""
    results, per_op = [], []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        start = len(tracing.spans) if tracing else 0
        res = bench.op(first_op + len(results))
        if tracing is not None:
            per_op.append(tracing.layer_metrics(start, len(tracing.spans), res.skipped))
        results.append(res)
    return results, per_op


def failures(results, first_op: int = 0) -> list[str]:
    return [f"op {first_op + i}: {r.why}" for i, r in enumerate(results) if not r.ok]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    parser.add_argument("--blas1-child", metavar="RUN_DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli = import_mstkd()
    import_s = time.perf_counter() - T_START
    bench = Bench(cli, args)
    if args.blas1_child is not None:
        return blas1_child(bench, args)

    try:
        print("env " + json.dumps(environment(), sort_keys=True), flush=True)
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            bench.write_configs()
            rounds.append(child_import_seconds() + time.perf_counter() - t0)
        t0 = time.perf_counter()
        if args.workload != "full-pipeline":
            bench.build_run_dir()
        build_s = time.perf_counter() - t0
        setup_s = statistics.median(rounds) + build_s
        if args.workload != "full-pipeline":
            run_loop(bench, WARMUP_S, 0)  # a broken op fails again when timed
        print(f"setup import_in_process_s={import_s:.4f} rounds_s="
              + ",".join(f"{r:.4f}" for r in rounds)
              + f" run_dir_s={build_s:.4f}", flush=True)

        if args.trace:
            result = traced_run(bench, args)
        else:
            result = untraced_run(bench, args, setup_s)
        for split, digest in sorted(bench.digests.items()):
            print(f"digest workload={args.workload} seed={bench.seed} "
                  f"split={split} sha256={digest}", flush=True)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def untraced_run(bench: Bench, args, setup_s: float) -> dict:
    results, _ = run_loop(bench, args.seconds, 0)
    failed = failures(results)
    times = [r.wall_s for r in results]
    n = len(results)
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "ops_per_s": n / sum(times),
        "cpu_s_per_op": sum(r.cpu_s for r in results) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "student_acc_pct": bench.mean_quality(0),
    }
    detail = {"ops": n, "failed_ops_pct": 100.0 * len(failed) / n,
              "student_std_pct": bench.mean_quality(1),
              "failures": failed[:5]}
    if n >= 100:  # at least ten ops beyond the 90th percentile
        detail["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
    else:
        detail["op_s"] = [round(t, 4) for t in times]
    print("detail " + json.dumps(detail), flush=True)
    return {"correct": not failed, "attempted": n, "failed": len(failed),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END}}


def traced_run(bench: Bench, args) -> dict:
    half = args.seconds / 2
    plain, _ = run_loop(bench, half, 0)
    tracing = tracer.Tracer()
    tracing.install()
    try:
        traced, per_op = run_loop(bench, half, len(plain), tracing)
    finally:
        tracing.uninstall()
    failed = failures(plain) + failures(traced, len(plain))
    OUT.mkdir(parents=True, exist_ok=True)
    tracing.dump(OUT / f"spans-{args.workload}.tsv")

    blas1, why = run_blas1_child(bench, args)
    if why:
        failed.append(f"blas1 child: {why}")
    metrics = tracer.median_metrics(per_op)
    traced_p50 = statistics.median(r.wall_s for r in traced)
    metrics["trace.op_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(r.wall_s for r in plain)
    metrics["evaluation.student_std_pct"] = bench.mean_quality(1)
    metrics.update(blas1)
    n = len(plain) + len(traced) + 1  # the single-threaded child's op
    print("detail " + json.dumps({"untraced_ops": len(plain),
                                  "traced_ops": len(traced),
                                  "spans": len(tracing.spans),
                                  "failures": failed[:5]}), flush=True)
    return {"correct": not failed, "attempted": n, "failed": len(failed),
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                        for name, unit in per_layer_names()}}


def per_layer_names():
    return (tracer.PER_LAYER + [("evaluation.student_std_pct", "%"),
                            ("trace.op_s", "s"), ("trace.overhead_s", "s"),
                            ("blas1.op_s", "s")]
            + [(f"blas1.pipeline.{s}_s", "s") for s in tracer.STAGES])


def run_blas1_child(bench: Bench, args) -> tuple[dict, str]:
    """One traced op of this workload in a child with one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size,
           "--blas1-child", str(bench.run_dir or "")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        return {}, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    for split, digest in doc["digests"].items():
        if bench.digests.get(split, digest) != digest:
            return {}, f"{split} artifacts differ with one BLAS thread"
    return doc["metrics"], doc["why"]


def blas1_child(bench: Bench, args) -> int:
    bench.write_configs()
    if args.blas1_child:
        bench.run_dir = Path(args.blas1_child)
    tracing = tracer.Tracer()
    tracing.install()
    try:
        res = bench.op(0)
    finally:
        tracing.uninstall()
        shutil.rmtree(bench.work, ignore_errors=True)
    layers = tracing.layer_metrics(0, len(tracing.spans), res.skipped)
    metrics = {"blas1.op_s": res.wall_s}
    metrics.update({f"blas1.pipeline.{s}_s": layers[f"pipeline.{s}_s"]
                    for s in tracer.STAGES})
    print(json.dumps({"metrics": metrics, "digests": bench.digests,
                      "why": res.why}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
