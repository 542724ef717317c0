"""Trial batches split across forked workers: the results are those of the
serial loop, a worker's failure surfaces in the caller, no worker outlives its
batch, and small batches start no process."""

import os
import signal
import threading

import pytest

from geoperc import experiments
from geoperc.experiments import (
    ExperimentConfig,
    _over_trials,
    estimate_lambda_c,
    estimate_qc,
    run_cascade_trials,
    run_sweep,
)
from geoperc.failures import IndependentFailure, ThresholdAttack
from geoperc.seeding import derive_seed

from test_acceptance import HEAVY_LOW
from test_benchmark_hooks import workloads

# no worker count below 4 divides it
TRIALS = 17


def _split_into(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(experiments, "_worker_count", lambda trials: workers)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _batches():
    sweeps = (
        ExperimentConfig(kind="percolation-sweep", width=10.0, height=10.0,
                         lambdas=(1.0, 1.5, 2.5), trials=TRIALS, base_seed=3),
        ExperimentConfig(kind="failure-sweep", width=10.0, height=10.0, lambdas=(2.0, 4.0),
                         rules=(IndependentFailure(0.3), ThresholdAttack(4)), trials=TRIALS,
                         base_seed=5, proxy="giant-fraction"),
    )
    cascades = tuple(
        ExperimentConfig(kind="cascade-trial", width=15.0, height=15.0, n=400,
                         count_mode="fixed", distribution=HEAVY_LOW, seeding=seeding,
                         trials=TRIALS, base_seed=41)
        for seeding in experiments.SEEDINGS
    )
    return (
        [run_sweep(config) for config in sweeps],
        [run_cascade_trials(config) for config in cascades],
        estimate_qc(2.87, trials=TRIALS, base_seed=11),
        estimate_lambda_c(trials=TRIALS, base_seed=2024),
    )


def test_split_batches_equal_the_serial_loop(monkeypatch):
    outputs = {}
    for workers in (1, 2, 3):
        _split_into(monkeypatch, workers)
        outputs[workers] = _batches()
        _assert_no_child_left()
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def test_trial_t_runs_in_worker_t_mod_w(monkeypatch):
    _split_into(monkeypatch, 3)
    config = ExperimentConfig(kind="percolation-sweep", width=5.0, height=5.0,
                              lambdas=(1.0,), trials=TRIALS)
    pids = _over_trials(config, 0, lambda seed, points: os.getpid())
    assert pids[0::3] == [os.getpid()] * 6
    assert len({pids[1], pids[2], os.getpid()}) == 3
    assert pids[1::3] == [pids[1]] * 6 and pids[2::3] == [pids[2]] * 5
    _assert_no_child_left()


def test_trial_seeds_are_derived_as_the_trials_run(monkeypatch):
    # a batch holds no list of its seeds: a failing first trial surfaces after
    # one seed is derived, however many trials the batch has
    _split_into(monkeypatch, 1)
    derived = []

    def counting_derive_seed(*args):
        derived.append(args)
        return derive_seed(*args)

    def evaluate(seed, points):
        raise ValueError("first trial")

    monkeypatch.setattr(experiments, "derive_seed", counting_derive_seed)
    config = ExperimentConfig(kind="percolation-sweep", width=5.0, height=5.0,
                              lambdas=(1.0,), trials=10**5)
    with pytest.raises(ValueError, match="^first trial$"):
        _over_trials(config, 0, evaluate)
    assert derived == [(0, 0, 0, 10**5)]


def test_worker_count_follows_affinity_and_batch_size(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    counts = [experiments._worker_count(t) for t in (1, 15, 16, 24, 31, 32, 200)]
    assert counts == [1, 1, 2, 3, 3, 4, 4]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert experiments._worker_count(200) == 1


def _run_failing(monkeypatch, in_child, in_parent=lambda: None):
    """A 17-trial batch on two workers whose child runs in_child and whose
    parent runs in_parent on every trial."""
    _split_into(monkeypatch, 2)
    parent = os.getpid()
    config = ExperimentConfig(kind="percolation-sweep", width=5.0, height=5.0,
                              lambdas=(1.0,), trials=TRIALS)

    def evaluate(seed, points):
        (in_parent if os.getpid() == parent else in_child)()
        return seed

    return _over_trials(config, 0, evaluate)


def _boom():
    raise ValueError("boom")


def test_worker_exception_is_raised_in_the_caller(monkeypatch):
    with pytest.raises(ValueError, match="^boom$") as info:
        _run_failing(monkeypatch, _boom)
    assert info.type is ValueError
    _assert_no_child_left()


@pytest.mark.parametrize("die, status", [(lambda: os._exit(3), "3"),
                                         (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")],
                         ids=["exit-3", "sigkill"])
def test_worker_that_dies_raises_runtime_error(monkeypatch, die, status):
    with pytest.raises(RuntimeError, match=f"exited with status {status} without a result"):
        _run_failing(monkeypatch, die)
    _assert_no_child_left()


def test_caller_exception_reaps_its_workers(monkeypatch):
    with pytest.raises(ValueError, match="^boom$"):
        _run_failing(monkeypatch, lambda: None, in_parent=_boom)
    _assert_no_child_left()


def test_batches_under_another_thread_start_no_process(monkeypatch):
    # a fork while another thread runs can deadlock on a lock that thread held
    config = ExperimentConfig(kind="percolation-sweep", width=10.0, height=10.0,
                              lambdas=(1.5,), trials=2 * experiments._MIN_TRIALS_PER_WORKER,
                              base_seed=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = run_sweep(config)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    # pytest runs no other thread, so without one the batch would fork
    assert threading.active_count() == 1
    assert experiments._worker_count(config.trials) == 2

    def no_fork():
        raise AssertionError("a batch forked under another thread")

    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        monkeypatch.setattr(os, "fork", no_fork)
        assert run_sweep(config) == serial
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_small_batches_start_no_process(monkeypatch):
    # every benchmark warm-up runs 1 to 4 trials per batch, and 15 trials stay
    # below two workers' minimum share whatever the machine
    def no_fork():
        raise AssertionError("a small batch forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for name, (_, warm, _) in workloads.WORKLOADS.items():
        warm(workloads.SIZES["full"][name], workloads.seeds_for(name, None))
    run_sweep(ExperimentConfig(kind="percolation-sweep", width=5.0, height=5.0,
                               lambdas=(1.0,), trials=2 * experiments._MIN_TRIALS_PER_WORKER - 1))
