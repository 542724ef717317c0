#!/usr/bin/env python3
"""Fast smoke test of the benchmark itself (about a minute on 2 cores).

    python3 perfbench/smoke.py

Runs every workload once at the tiny sizes, untraced and traced, and checks
the result line against BENCHMARK.json: its keys, every metric name and unit,
finite values and a clean pass. Then runs the benchmark in a copy of only
BENCHMARK.json and perfbench/, where it must fail without printing a result.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


def check_result(workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seconds", "1", "--trace", str(trace),
               "--size", "tiny")
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and isinstance(result["attempted"], int) and result["attempted"] >= 1):
        sys.exit(f"{where}: not a clean pass: {result}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        sys.exit(f"{where}: metric names or units differ; missing {missing}, extra {extra}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not (
            isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        ):
            sys.exit(f"{where}: metric {name} = {m}")
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} task(s)")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", "qc", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        sys.exit(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit code {proc.returncode}, no result")


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace)
    check_bare_directory()


if __name__ == "__main__":
    main()
