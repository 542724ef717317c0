#!/usr/bin/env python3
"""geoperc benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload qc --seed 11 --seconds 25 --trace 0

Workloads: lambda-c, qc, cascade, degree-failure (see perfbench/README.md).
Without --seed each workload uses its acceptance-gate seeds.

--trace 0 starts one worker process that warms up and then runs the task
untraced until the next task would end past --seconds, plus SETUP_PROBES more
processes that only import and warm up. It reports wall_s (median task time),
setup_s (median over all those processes) and peak_rss_mb (of the run worker).
--trace 1 starts one worker that alternates untraced and traced tasks for
--seconds and reports the per-layer metrics.

Every task output is checked. Metrics print by name with units; the last line
of standard output is the result object. The full result, with provenance,
is written to perfbench/out/. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("lambda-c", "qc", "cascade", "degree-failure")
SETUP_PROBES = 4
DEADLINE_S = 170.0
# Work runs in one thread: numpy's BLAS and OpenMP pools stay at one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    env.pop("PYTHONPATH", None)  # geoperc must come from this checkout's src/
    return env


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON document."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {args} printed nothing")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, worker: dict, env: dict) -> dict:
    return {
        **worker["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "base_seeds": worker["base_seeds"],
        "params": worker["params"],
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, help="base seed of every trial batch (default: gate seeds)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's sizes")
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{'gate' if args.seed is None else args.seed}-trace{args.trace}"
    if args.size != "full":
        tag += f"-{args.size}"
    common = ["--workload", args.workload, "--size", args.size]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    run_args = common + ["--mode", "run", "--seconds", str(args.seconds),
                         "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", str(OUT / f"spans-{tag}.jsonl")]

    try:
        worker = spawn(run_args, env, deadline)
        walls = worker["walls_s"]
        if args.trace:
            metrics = worker["per_layer"]
        else:
            setups = [worker["setup_s"]] + [
                spawn(common + ["--mode", "setup"], env, deadline)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            }
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = worker["attempted"], worker["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    document = {
        "provenance": provenance(args, worker, env),
        "result": result,
        "error_rate": failed / attempted,
        "task_walls_s": walls,
        "traced_walls_s": worker.get("traced_walls_s"),
        "setup_samples_s": None if args.trace else setups,
        "problems": worker["problems"],
    }
    text = json.dumps(document, allow_nan=False, indent=1)
    (OUT / f"result-{tag}.json").write_text(text + "\n")

    for problem in worker["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(walls)} untraced task(s), seed "
          f"{worker['base_seeds']}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':52s} {failed / attempted:.6g} ({failed}/{attempted} tasks failed)")
    print(json.dumps({"provenance": document["provenance"]}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
