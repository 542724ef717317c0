"""Command-line interface: generate, fail, cascade, sweep, theory, estimate.

Every output document embeds the tool version, the effective parameters, and
the seed, which is enough to re-run the command exactly. When --seed is
omitted, ``main`` draws one seed from OS entropy and echoes it both to stderr
and into the output metadata. ``generate``, ``fail`` and ``cascade --seed T``
draw through the same ``experiments`` functions as the trials, so they replay
trial T. Documents are written through ``geoperc.io``: strict JSON to --out
or stdout, and for sweeps CSV of the same records. A flag that several
subcommands take is declared once, in ``_FLAGS``, and ``_THEORY`` gives each
theory subcommand its flags and body. A non-finite value of any float option
is rejected, named by its flag, before any work is done, and so is a --seed
outside [0, 2**64).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import __version__
from .cascade import parse_distribution, run_cascade
from .experiments import (
    BRACKET_WIDTH,
    draw_seed_node,
    draw_thresholds,
    estimate_lambda_c,
    estimate_qc,
    fail_nodes,
    place_points,
    run_cascade_trials,
    run_sweep,
)
from .failures import parse_rule
from .geometry import OPEN_BOX, Region
from .graph import build_graph
from .io import (
    config_from_dict,
    config_to_dict,
    dump_json,
    load_graph,
    load_json,
    save_graph,
    to_csv,
    write_text,
)
from .seeding import check_seed
from .theory import (
    LAMBDA_C,
    block_count_cap,
    circuit_count_bound,
    critical_phi,
    critical_q,
    no_cascade_condition,
    no_infinite_component_nondecreasing,
    no_infinite_component_nonincreasing,
)


def _fresh_seed() -> int:
    seed = int.from_bytes(os.urandom(8), "little")
    print(f"seed drawn from entropy: {seed}", file=sys.stderr)
    return seed


def _document(command: str, params: dict, seed: int | None, payload: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        **payload,
    }


def _emit(doc: dict, out: str | None) -> None:
    write_text(dump_json(doc, indent=2), out)


def _cmd_generate(args) -> int:
    region = Region(args.width, args.height, args.boundary)
    if (args.n is None) == (args.lam is None):
        raise ValueError("exactly one of --n and --lambda is required")
    for flag, value in (("--n", args.n), ("--lambda", args.lam)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be non-negative, got {value}")
    graph = build_graph(place_points(args.seed, region, args.n, args.lam), args.radius)
    params = {
        "n": args.n, "lambda": args.lam, "width": args.width, "height": args.height,
        "boundary": args.boundary, "radius": args.radius,
    }
    meta = _document("generate", params, args.seed, {})
    save_graph(graph, args.out, meta=meta)
    if args.out is not None:
        write_text(dump_json({**meta, "nodes": len(graph), "edges": graph.edge_count,
                              "out": args.out}), None)
    return 0


def _cmd_fail(args) -> int:
    graph = load_graph(args.graph)
    rule = parse_rule(args.rule)
    outcome = fail_nodes(args.seed, graph, rule)
    params = {"graph": args.graph, "rule": args.rule}
    doc = _document(
        "fail", params, args.seed,
        {
            "nodes": len(graph),
            "alive_count": int(outcome.alive.sum()),
            "alive": outcome.alive.tolist(),
        },
    )
    _emit(doc, args.out)
    return 0


def _cmd_cascade(args) -> int:
    graph = load_graph(args.graph)
    dist = parse_distribution(args.dist)
    if len(graph) == 0:
        raise ValueError("cannot run a cascade on an empty graph")
    thresholds = draw_thresholds(args.seed, dist, len(graph))
    seed_node = args.seed_node
    if seed_node is None:
        seed_node = draw_seed_node(args.seed, len(graph))
    state = run_cascade(graph, thresholds, seed_node)
    params = {"graph": args.graph, "dist": args.dist, "seed_node": args.seed_node}
    doc = _document("cascade", params, args.seed, {
        "seed_node": int(seed_node),
        "rounds": [r.tolist() for r in state.rounds],
        "failed": state.failed.tolist(),
        "thresholds": thresholds.tolist(),
    })
    _emit(doc, args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = config_from_dict(load_json(args.config))
    if config.kind == "cascade-trial":
        key, records = "records", [r.to_dict() for r in run_cascade_trials(config)]
    else:
        key, records = "points", [{**p.params, "estimate": p.estimate, "stderr": p.stderr,
                                   "trials": config.trials} for p in run_sweep(config).points]
    if args.format == "csv":
        write_text(to_csv(records), args.out)
    else:
        params = {"config": args.config, "effective_config": config_to_dict(config)}
        _emit(_document("sweep", params, config.base_seed, {key: records}), args.out)
    return 0


def _theory_critical_q(args) -> dict:
    return {"condition": "critical-q", "lambda": args.lam, "lambda_c": LAMBDA_C,
            "q_c": critical_q(args.lam)}


def _theory_critical_phi(args) -> dict:
    value = critical_phi(args.lam)
    return {"condition": "critical-phi", "lambda": args.lam,
            "phi": "unbounded" if math.isinf(value) else int(value)}


def _theory_failure_condition(args) -> dict:
    rule = parse_rule(args.rule)
    if rule.is_nondecreasing():
        res = no_infinite_component_nondecreasing(args.lam, rule)
        name = "no-infinite-component-nondecreasing"
    elif rule.is_nonincreasing():
        res = no_infinite_component_nonincreasing(args.lam, rule)
        name = "no-infinite-component-nonincreasing"
    else:
        raise ValueError(f"rule {args.rule!r} is neither non-decreasing nor non-increasing")
    return {"condition": name, "lambda": args.lam, "rule": args.rule, "lhs": res.lhs,
            "threshold": res.threshold, "relation": res.relation, "holds": res.holds}


def _theory_cascade_condition(args) -> dict:
    res = no_cascade_condition(args.lam, parse_distribution(args.dist))
    return {"condition": "no-cascade", "lambda": args.lam, "dist": args.dist, "lhs": res.lhs,
            "threshold": res.threshold, "relation": res.relation, "holds": res.holds}


def _theory_block_cap(args) -> dict:
    return {"condition": "block-cap", "lambda": args.lam, "d": args.d,
            "cap": block_count_cap(args.lam, args.d)}


def _theory_circuit_bound(args) -> dict:
    # the bound has ~0.95 m digits; Python prints at most 4300 by default
    if args.m > 4000:
        raise ValueError(f"--m must be at most 4000, got {args.m}")
    return {"condition": "circuit-bound", "m": args.m, "bound": circuit_count_bound(args.m)}


# theory subcommand -> (its flags before --out, the function building its body)
_THEORY = {
    "critical-q": (("--lambda",), _theory_critical_q),
    "critical-phi": (("--lambda",), _theory_critical_phi),
    "failure-condition": (("--lambda", "--rule"), _theory_failure_condition),
    "cascade-condition": (("--lambda", "--dist"), _theory_cascade_condition),
    "block-cap": (("--lambda", "--d"), _theory_block_cap),
    "circuit-bound": (("--m",), _theory_circuit_bound),
}


def _cmd_theory(args) -> int:
    sub = args.theory_command
    body = _THEORY[sub][1](args)
    _emit(_document("theory", {"subcommand": sub}, None, body), args.out)
    return 0


def _cmd_estimate(args) -> int:
    shared = {"side": args.side, "radius": args.radius, "trials": args.trials}
    if args.estimate_command == "lambda-c":
        estimate, params = estimate_lambda_c, shared
    else:
        estimate = functools.partial(estimate_qc, args.lam)
        params = {"lambda": args.lam, **shared}
    result = estimate(**shared, base_seed=args.seed)
    doc = _document(f"estimate {args.estimate_command}", {**params, "width": BRACKET_WIDTH},
                    args.seed, result.to_dict())
    _emit(doc, args.out)
    return 0


# Shared and theory flags -> add_argument keywords; a caller may override one.
_FLAGS = {
    "--lambda": dict(dest="lam", type=float, required=True),
    "--side": dict(type=float, default=50.0),
    "--radius": dict(type=float, default=1.0),
    "--rule": dict(required=True),
    "--dist": dict(required=True),
    "--d": dict(type=float, required=True),
    "--m": dict(type=int, required=True),
    "--seed": dict(type=int),
    "--out": dict(),
}


def _add(parser: argparse.ArgumentParser, *flags: str, **overrides) -> None:
    for flag in flags:
        parser.add_argument(flag, **{**_FLAGS[flag], **overrides})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoperc",
        description="Resilience analysis of random geometric graphs",
    )
    parser.add_argument("--version", action="version", version=f"geoperc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a graph and write it as JSON")
    p.add_argument("--n", type=int, default=None, help="fixed point count")
    _add(p, "--lambda", required=False, help="Poisson intensity (points per unit area)")
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--boundary", choices=["open-box", "torus"], default=OPEN_BOX)
    _add(p, "--radius", "--seed", "--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fail", help="apply a failure rule to a stored graph")
    p.add_argument("--graph", required=True)
    _add(p, "--rule", help="indep:q | attack:phi | table:q0,q1,...;tail=t")
    _add(p, "--seed", "--out")
    p.set_defaults(func=_cmd_fail)

    p = sub.add_parser("cascade", help="run a threshold cascade on a stored graph")
    p.add_argument("--graph", required=True)
    _add(p, "--dist", help="pieces:start,end,density;...")
    _add(p, "--seed")
    p.add_argument("--seed-node", type=int, default=None)
    _add(p, "--out")
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("sweep", help="run an experiment config file")
    p.add_argument("--config", required=True)
    _add(p, "--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("theory", help="evaluate a closed-form condition")
    tsub = p.add_subparsers(dest="theory_command", required=True)
    for name, (flags, _) in _THEORY.items():
        _add(tsub.add_parser(name), *flags, "--out")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("estimate", help="Monte Carlo estimation of critical points")
    esub = p.add_subparsers(dest="estimate_command", required=True)
    ep = esub.add_parser("lambda-c")
    _add(ep, "--side", "--radius")
    ep.add_argument("--trials", type=int, default=200)
    _add(ep, "--seed", "--out")
    ep = esub.add_parser("qc")
    _add(ep, "--lambda", "--side", "--radius")
    ep.add_argument("--trials", type=int, default=100)
    _add(ep, "--seed", "--out")
    p.set_defaults(func=_cmd_estimate)

    return parser


def _check_finite(args) -> None:
    """Reject a non-finite float option by its flag: dest with _ as -, lam as --lambda."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} must be a finite number, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
        if "seed" in vars(args):
            if args.seed is None:
                args.seed = _fresh_seed()
            check_seed(args.seed, "--seed")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
