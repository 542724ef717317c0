#!/usr/bin/env python3
"""Degree-dependent failures on a 1600-node network in a 25 x 25 box.

Two regimes, 100 trials each:
  margin  q(k) = max(0, 1 - mu_c/mu - 1/k): survivors keep a spanning component
  attack  q(k) = 1 for k > 4: the remnant shatters into fragments

Prints one CSV row per trial with the largest-component fractions.
"""

import argparse
import sys

from geoperc.failures import ThresholdAttack, apply_failures, degree_margin_rule
from geoperc.geometry import Region, generate_uniform
from geoperc.graph import build_graph, components
from geoperc.seeding import STREAM_FAILURES, STREAM_PLACEMENT, derive_seed, substream


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1600)
    ap.add_argument("--side", type=float, default=25.0)
    ap.add_argument("--phi", type=int, default=4)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    region = Region(args.side, args.side)
    writer = sys.stdout
    writer.write("trial,mu,margin_largest_over_operational,attack_largest_over_n\n")
    for t in range(args.trials):
        seed = derive_seed(args.seed, 0, t, args.trials)
        pts = generate_uniform(args.n, region, substream(seed, STREAM_PLACEMENT))
        g = build_graph(pts, 1.0)
        mu = g.mean_degree()

        rule = degree_margin_rule(mu, int(g.degrees.max()))
        out = apply_failures(g, rule, substream(seed, STREAM_FAILURES))
        operational = int(out.alive.sum())
        margin_frac = (
            components(g, out.alive).largest_size / operational if operational else 0.0
        )

        out_b = apply_failures(g, ThresholdAttack(args.phi), substream(seed, STREAM_FAILURES))
        attack_frac = components(g, out_b.alive).largest_size / args.n

        writer.write(f"{t},{mu!r},{margin_frac!r},{attack_frac!r}\n")


if __name__ == "__main__":
    main()
