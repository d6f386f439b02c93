"""Experiment S1 — disk-backed store: pack, cold load, warm hit.

The store trades resident memory for a file read on first touch, so the
numbers that matter are the three points of that trade:

* ``pack`` — serializing a ``TreeIndex`` into an RSTR v2 blob, fsyncing
  it and renaming it into place (the write-through cost a mutation pays);
* ``cold`` — :meth:`TreeStore.load`: read the file, CRC-verify the whole
  frame, rebuild the tree and index (the price of the first touch after
  an eviction); each round reads the file afresh, so every load is cold;
* ``warm`` — :meth:`TreeRegistry.get` on a resident tree (the steady
  state the LRU tier is supposed to keep hot paths at).

Series: one size group over the graded workload trees, three arms per
group.  The cold/warm gap is the headline: it is what the registry's
byte budget is buying.  The warm arm should be indistinguishable from a
plain in-memory registry lookup — ``compare_backends.py --store-only``
gates exactly that.

Record results with::

    pytest benchmarks/bench_store.py --benchmark-json=BENCH_store.json

The committed BENCH_store.json uses the repro-bench-compact/1 schema
(see conftest.py / compact_json.py).
"""

import pytest

from repro.service import TreeRegistry
from repro.trees import TreeStore, tree_index

SIZES = (128, 512, 2048)


@pytest.fixture(scope="module")
def packed_store(workload_trees, tmp_path_factory):
    """A store holding every workload tree, indexes prebuilt."""
    store = TreeStore(tmp_path_factory.mktemp("bench-store") / "store")
    for size, tree in workload_trees.items():
        tree_index(tree)
        store.pack(f"n{size}", tree, epoch=1)
    return store


@pytest.fixture(scope="module")
def warm_registry(workload_trees, tmp_path_factory):
    """A store-backed registry whose budget keeps every tree resident."""
    registry = TreeRegistry()
    for size, tree in workload_trees.items():
        registry.register(f"n{size}", tree)
    store = TreeStore(tmp_path_factory.mktemp("bench-warm") / "store")
    registry.attach_store(store, resident_budget=1 << 30)
    for size in workload_trees:
        registry.get(f"n{size}")  # fault in: every arm round is a warm hit
    return registry


@pytest.mark.parametrize("size", SIZES)
def test_pack(benchmark, workload_trees, packed_store, size):
    """S1 pack arm: serialize + atomic rename of one tree."""
    benchmark.group = f"S1 n={size}"
    tree = workload_trees[size]
    nbytes = benchmark(lambda: packed_store.pack(f"n{size}", tree, epoch=1))
    assert nbytes > 0


@pytest.mark.parametrize("size", SIZES)
def test_cold_load(benchmark, packed_store, size):
    """S1 cold arm: file read + full-frame CRC verify + index reconstruction."""
    benchmark.group = f"S1 n={size}"
    assert benchmark(lambda: packed_store.load(f"n{size}")[1]) == 1


@pytest.mark.parametrize("size", SIZES)
def test_warm_hit(benchmark, warm_registry, size):
    """S1 warm arm: registry lookup of a resident tree (no store I/O)."""
    benchmark.group = f"S1 n={size}"
    tree = benchmark(lambda: warm_registry.get(f"n{size}"))
    assert tree.size == size


def test_loaded_trees_agree_on_the_bench_grid(workload_trees, packed_store):
    """A store round trip must reproduce the tree exactly on every
    benchmarked point — otherwise the cold arm would be timing a
    different document than the warm arm serves."""
    for size, tree in workload_trees.items():
        loaded, epoch = packed_store.load(f"n{size}")
        assert epoch == 1
        assert loaded == tree, size
