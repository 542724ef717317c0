#!/usr/bin/env python3
"""Estimate the critical density by bisecting the crossing probability.

Emits one JSON document with the bracketing interval, every evaluation and
the per-trial critical densities, ready for plotting the empirical transition
curve.
"""

import argparse
import json

from geoperc.experiments import estimate_lambda_c


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--side", type=float, default=50.0)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--width", type=float, default=0.02, help="target interval width")
    args = ap.parse_args()

    result = estimate_lambda_c(
        side=args.side, trials=args.trials, base_seed=args.seed, target_width=args.width
    )
    print(json.dumps(result.to_dict(), indent=2, allow_nan=False))


if __name__ == "__main__":
    main()
