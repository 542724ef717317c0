"""One fresh benchmark process: import geoperc from src/, warm up, run tasks.

Started by run.py, never imported. Prints one JSON document as its last line
of standard output. In "setup" mode it stops after the warm-up; in "run" mode
it then runs the workload's task repeatedly within the time budget, checks
every output and, with --trace 1, repeats the tasks under the span tracer.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_geoperc():
    """Import geoperc from this checkout's src/ and nowhere else."""
    package = SRC / "geoperc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"worker: no geoperc package at {package}")
    sys.path.insert(0, str(SRC))
    import geoperc

    if Path(geoperc.__file__).resolve().parent != package.resolve():
        sys.exit(f"worker: imported geoperc from {geoperc.__file__}, not from {package}")
    return geoperc


class Runner:
    """Runs one workload's task and checks each output, counting failures."""

    def __init__(self, task, check, params, seeds):
        self.task, self.check, self.params, self.seeds = task, check, params, seeds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb: float | None = None  # after the first task of the process

    def timed(self, budget: float) -> list[float]:
        """Wall time of each task run while the next is expected to end within
        `budget` seconds; at least one task runs."""
        walls: list[float] = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + max(walls) <= budget:
            t0 = time.perf_counter()
            try:
                result = self.task(self.params, self.seeds)
            except Exception:  # a raising task is a failed operation, not a crash
                walls.append(time.perf_counter() - t0)
                problems = [traceback.format_exc(limit=3)]
            else:
                walls.append(time.perf_counter() - t0)
                problems = self.check(result, self.params)
            self.attempted += 1
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return walls


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args()

    t0 = time.perf_counter()
    geoperc = import_geoperc()
    import numpy

    from workloads import SIZES, WORKLOADS, seeds_for

    task, warm, check = WORKLOADS[args.workload]
    params = SIZES[args.size][args.workload]
    seeds = seeds_for(args.workload, args.seed)
    warm(params, seeds)
    doc = {
        "setup_s": time.perf_counter() - t0,
        "params": params,
        "base_seeds": seeds,
        "versions": {
            "geoperc": geoperc.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }
    if args.mode == "run":
        runner = Runner(task, check, params, seeds)
        if args.trace:
            from tracer import PER_LAYER_UNITS, Tracer, layer_metrics

            # Alternate untraced and traced tasks, so that the machine's
            # drift in speed cancels out of the overhead ratio.
            tracer = Tracer()
            untraced, traced = [], []
            start = time.perf_counter()
            while not traced or (time.perf_counter() - start + max(untraced) + max(traced)
                                 <= args.seconds):
                untraced += runner.timed(0.0)
                with tracer.installed():
                    traced += runner.timed(0.0)
            overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
            values = layer_metrics(tracer, len(traced), sum(traced), overhead)
            doc["per_layer"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                                for k, v in values.items()}
            doc["traced_walls_s"] = traced
            if args.spans:
                tracer.write(args.spans)
        else:
            untraced = runner.timed(args.seconds)
            doc["peak_rss_mb"] = runner.peak_rss_mb
        doc.update(
            walls_s=untraced,
            attempted=runner.attempted,
            failed=runner.failed,
            problems=runner.problems,
        )
    print(json.dumps(doc, allow_nan=False))


if __name__ == "__main__":
    main()
