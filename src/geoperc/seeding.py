"""Deterministic seed derivation for Monte Carlo trials.

Every random draw in this package flows from a 64-bit integer seed. Per-trial
seeds are derived from a base seed with the splitmix64 mixing function:

    trial_seed = splitmix64(splitmix64(base_seed) + lam_index * trials + trial_index)

The harness keys a trial by its lambda index, so every failure rule of a sweep
at one lambda shares the trial's graph and failure uniforms. splitmix64 is a
bijection on uint64, so distinct (lambda index, trial) pairs within a sweep get
distinct trial seeds. Independent substreams of one trial (point placement,
failure draws, threshold draws, seed-node choice) are keyed by a small stream
index through the same mixer.

Generators are counter-based (Philox): the i-th variate of a stream is a pure
function of (seed, i), so the uniform assigned to node i never depends on how
many draws other consumers made.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Substream indices used by the experiment harness.
STREAM_PLACEMENT = 0
STREAM_FAILURES = 1
STREAM_THRESHOLDS = 2
STREAM_SEED_NODE = 3


def check_seed(seed: int, name: str) -> None:
    """Reject a seed outside [0, 2**64), which the 64-bit mask would alias to one inside."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")


def splitmix64(x: int) -> int:
    """One step of the splitmix64 generator; a bijection on uint64."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(base_seed: int, point_index: int, trial_index: int, trials_per_point: int) -> int:
    """Seed for one trial at one sweep index; injective within a sweep."""
    if trial_index < 0 or trial_index >= trials_per_point:
        raise ValueError(f"trial_index {trial_index} outside [0, {trials_per_point})")
    return splitmix64(splitmix64(base_seed & MASK64) + point_index * trials_per_point + trial_index)


def substream(seed: int, stream: int) -> int:
    """A named substream of a trial seed (placement, failures, ...)."""
    return splitmix64(splitmix64(seed & MASK64) + stream)


def generator_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))
