"""Helpers shared by the workloads."""

from __future__ import annotations

import math

import numpy as np

# False-alarm rate of each workload's statistical checks over a whole run
# (every round up to harness.MAX_ROUNDS).  A run reports correct=false on
# correct code with at most this probability.
RUN_FALSE_ALARM = 1e-4

WORKLOAD_KEYS = {"mc-closure": 1, "kernel-eval": 2, "scaling-limits": 3, "lattice-bridge": 4}
TIMED, WARM_UP = 0, 1


def rng(seed: int, workload: str, purpose: int, index: int = 0) -> np.random.Generator:
    """Independent input stream per (seed, workload, purpose, index)."""
    return np.random.default_rng(np.random.SeedSequence(
        [seed, WORKLOAD_KEYS[workload], purpose, index]))


def sampler_seed(gen: np.random.Generator) -> int:
    """A seed for minorkern's counter-based samplers."""
    return int(gen.integers(0, 2**62))


def sidak_per_test(alpha: float, tests: int) -> float:
    """Per-test level that holds the family-wise rate at alpha over `tests`."""
    return -math.expm1(math.log1p(-alpha) / tests)
