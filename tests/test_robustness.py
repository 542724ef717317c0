"""Robustness harness: random argv for every command that takes numbers, run
in-process with every warning an error.

Each run must end one of three ways, never with a traceback: exit 0 with
strict JSON on stdout and nothing on stderr, exit 1 with exactly one
``error: `` line on stderr, or argparse's exit 2. The floats include
subnormals, signed zeros, 1e+-300, the float max, infinities and NaN. Work is
bounded: at most 1000 fixed points, at most 3 trials, and no Poisson mean in
(3000, 1e19), where a draw would place millions of points that no error
refuses.
"""

import contextlib
import io
import json
import math
import sys
import warnings

from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from geoperc.cli import main

from test_cli import _strict_json

EXTREME_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                  sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan)
FLOATS = st.one_of(st.sampled_from(EXTREME_FLOATS + (0.3, 1.0, 2.87, 7.11, 50.0)), st.floats())
ORDINARY = st.floats(0.3, 30.0)
# sides, radii and densities: a third of them ordinary enough to place a graph
SIZES = st.one_of(st.sampled_from(EXTREME_FLOATS), ORDINARY,
                  st.floats(min_value=0.0, exclude_min=True))
PROBABILITIES = st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats(0.0, 1.0))
SEEDS = st.integers(-1, 2**64)
# a Poisson mean in this range places too many points to test, yet is no error
_TOO_MUCH_WORK = (3000.0, 1e19)

RULES = st.one_of(
    st.builds("indep:{!r}".format, PROBABILITIES),
    st.builds("attack:{}".format, st.integers(-3, 10**30)),
    st.builds("table:{!r},{!r};tail={!r}".format, PROBABILITIES, PROBABILITIES, PROBABILITIES),
    st.builds("table:{!r}".format, PROBABILITIES),
    st.sampled_from(["table:", "table:0.1;foo=1", "attack:x", "indep", "bogus:1"]),
)


def _two_pieces(split, share):
    """Two pieces meeting at split, the first holding share of the mass."""
    first, second = share / split, (1.0 - share) / (1.0 - split)
    return f"pieces:0,{split!r},{first!r};{split!r},1,{second!r}"


VALID_RULES = st.one_of(st.builds("indep:{!r}".format, st.floats(0.0, 1.0)),
                        st.builds("attack:{}".format, st.integers(0, 20)))
VALID_DISTRIBUTIONS = st.builds(
    _two_pieces, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(0.0, 1.0))
DISTRIBUTIONS = st.one_of(
    VALID_DISTRIBUTIONS,
    st.builds("pieces:0,{0!r},{1!r};{0!r},1,{2!r}".format, PROBABILITIES, FLOATS, FLOATS),
    st.sampled_from(["pieces:0,1,1", "pieces:0,0.5,2", "pieces:", "uniform", "pieces:0,1"]),
)


def _flag(name, value):
    return f"{name}={value!r}"


def _run(argv):
    """The CLI's outcome on argv, checked against the three allowed ones."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            code = 2
    event(f"{argv[0]} exit {code}")
    if code == 2:
        return
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "", (argv, err)
        _strict_json(out)
    else:
        assert code == 1, (argv, code)
        assert out == "", (argv, out)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def _poisson_mean_is_workable(lam, width, height):
    # Python floats overflow to inf without a warning
    return not _TOO_MUCH_WORK[0] < lam * width * height < _TOO_MUCH_WORK[1]


THEORY_ARGV = st.one_of(
    st.builds(lambda x: ["critical-q", _flag("--lambda", x)], FLOATS),
    st.builds(lambda x: ["critical-phi", _flag("--lambda", x)], FLOATS),
    st.builds(lambda x, r: ["failure-condition", _flag("--lambda", x), f"--rule={r}"],
              FLOATS, RULES),
    st.builds(lambda x, d: ["cascade-condition", _flag("--lambda", x), f"--dist={d}"],
              FLOATS, DISTRIBUTIONS),
    st.builds(lambda x, d: ["block-cap", _flag("--lambda", x), _flag("--d", d)], FLOATS, FLOATS),
    st.builds(lambda m: ["circuit-bound", f"--m={m}"], st.integers(-3, 5000)),
)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(THEORY_ARGV)
def test_theory_commands_end_cleanly(argv):
    _run(["theory", *argv])


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(
    count=st.one_of(st.builds(lambda n: ["--n", str(n)], st.integers(-2, 1000)),
                    st.builds(lambda x: [_flag("--lambda", x)], SIZES)),
    width=SIZES, height=SIZES, radius=SIZES,
    boundary=st.sampled_from(["open-box", "torus"]), seed=SEEDS,
)
# a side below about 5.6e-309, where cells per unit length overflow a float
@example(count=["--n", "2"], width=1.0, height=5e-324, radius=1.0, boundary="open-box", seed=3)
def test_generate_ends_cleanly(count, width, height, radius, boundary, seed):
    if count[0].startswith("--lambda"):
        lam = float(count[0].split("=", 1)[1])
        if not _poisson_mean_is_workable(lam, width, height):
            event("skipped")
            return
    _run(["generate", *count, _flag("--width", width), _flag("--height", height),
          _flag("--radius", radius), f"--boundary={boundary}", f"--seed={seed}"])


def _graph_document(width, height, radius, boundary, fractions):
    """A graph file's document: the points at the given fractions of the sides."""
    return {"region": {"width": width, "height": height, "boundary": boundary},
            "radius": radius, "points": [[fx * width, fy * height] for fx, fy in fractions]}


FRACTIONS = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=40)
BOUNDARIES = st.sampled_from(["open-box", "torus"])
GRAPHS = st.one_of(
    st.builds(_graph_document, ORDINARY, ORDINARY, st.floats(0.3, 3.0), BOUNDARIES, FRACTIONS),
    st.builds(_graph_document, SIZES, SIZES, SIZES, BOUNDARIES, FRACTIONS),
)


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=GRAPHS,
    command=st.one_of(
        st.builds(lambda r: ["fail", f"--rule={r}"], RULES),
        st.builds(lambda d, node: ["cascade", f"--dist={d}", *node],
                  st.one_of(VALID_DISTRIBUTIONS, DISTRIBUTIONS),
                  st.one_of(st.just([]), st.builds(lambda i: [f"--seed-node={i}"],
                                                   st.integers(-2, 45)))),
    ),
    seed=SEEDS,
)
def test_fail_and_cascade_end_cleanly(tmp_path_factory, graph, command, seed):
    path = tmp_path_factory.mktemp("graph") / "g.json"
    path.write_text(json.dumps(graph))
    _run([command[0], f"--graph={path}", *command[1:], f"--seed={seed}"])


# valid configs of each kind at ordinary sizes ...
COMMON = {"region": st.fixed_dictionaries({"width": ORDINARY, "height": ORDINARY}),
          "radius": st.floats(0.3, 3.0), "trials": st.integers(1, 3), "base_seed": SEEDS}
VALID_CONFIGS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("percolation-sweep"), **COMMON,
                           "lambdas": st.lists(ORDINARY, min_size=1, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("failure-sweep"), **COMMON,
                           "proxy": st.just("giant-fraction"),
                           "lambdas": st.lists(ORDINARY, min_size=1, max_size=3),
                           "rules": st.lists(VALID_RULES, min_size=1, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("cascade-trial"), **COMMON,
                           "distribution": VALID_DISTRIBUTIONS, "lambdas": st.just([2.0])}),
    st.fixed_dictionaries({"kind": st.just("cascade-trial"), **COMMON,
                           "distribution": VALID_DISTRIBUTIONS, "count_mode": st.just("fixed"),
                           "n": st.integers(0, 1000),
                           "seeding": st.just("adjacent-to-largest-vulnerable-component")}),
)
# ... then up to two fields replaced by an extreme or invalid value
CHANGES = st.lists(st.one_of(
    st.tuples(st.sampled_from(["width", "height", "radius", "lambdas"]), FLOATS),
    st.tuples(st.just("trials"), st.integers(-1, 3)),
    st.tuples(st.just("n"), st.integers(-1, 1000)),
    st.tuples(st.just("base_seed"), SEEDS),
    st.tuples(st.just("rules"), RULES),
    st.tuples(st.just("distribution"), DISTRIBUTIONS),
    st.tuples(st.sampled_from(["kind", "proxy", "seeding", "count_mode", "boundary"]),
              st.sampled_from(["percolation-sweep", "crossing", "random-node", "poisson",
                               "torus", "bogus"])),
), max_size=2)


def _changed(config, changes):
    config = {**config, "region": dict(config["region"])}
    for key, value in changes:
        if key in ("width", "height", "boundary"):
            config["region"][key] = value
        elif key in ("lambdas", "rules"):
            config[key] = [value]
        else:
            config[key] = value
    return config


CONFIGS = st.builds(_changed, VALID_CONFIGS, CHANGES)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(config=CONFIGS)
def test_sweep_configs_end_cleanly(tmp_path_factory, config):
    region = config["region"]
    if not all(_poisson_mean_is_workable(lam, region["width"], region["height"])
               for lam in config.get("lambdas", ())):
        event("skipped")
        return
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(config))
    _run(["sweep", f"--config={path}"])
