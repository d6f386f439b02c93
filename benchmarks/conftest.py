"""Shared benchmark workloads.

Each ``bench_*.py`` module regenerates one experiment row/series from
EXPERIMENTS.md; run them with::

    pytest benchmarks/ --benchmark-only

The sizes are laptop-scale by design: what the experiments measure is the
*shape* of the curves (linear vs quadratic, saturation vs growth), not
absolute numbers.
"""

import random

import pytest

from repro.trees import chain, comb, random_tree

from compact_json import compact_in_place


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Emit the compact per-series schema instead of the raw round dumps.

    The committed BENCH_*.json files use repro-bench-compact/1 (p50/p90 per
    parametrization plus bitset-vs-reference speedups); see compact_json.py.
    """
    compact_in_place(output_json)


def graded_random_trees():
    """Size-graded random trees, keyed by size; the same trees on every call
    (scripts outside pytest, like ``compare_backends.py``, build them here)."""
    rng = random.Random(2008)
    return {size: random_tree(size, rng=rng) for size in (128, 512, 2048)}


@pytest.fixture(scope="session")
def workload_trees():
    """Size-graded random trees used across the evaluation benchmarks."""
    return graded_random_trees()


@pytest.fixture(scope="session")
def shaped_trees():
    return {
        "chain": chain(1024, labels=("a", "b")),
        "comb": comb(512, "a", "b"),
        "bushy": random_tree(1024, rng=random.Random(7)),
    }
