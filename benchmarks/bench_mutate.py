"""Experiment M1 — spliced edits vs edit plus full reindex.

A live document answers indexed queries between edits, so the cost that
matters is *edit + index repair*, not edit alone.  Two arms per point:

* ``delta`` — :func:`repro.trees.mutate.apply_edit_indexed`: the new
  generation spliced from the old one, both the tree's stored columns
  (labels, parents and sizes: sizes patched on the ancestor chain,
  parents shifted past the edit) and its index (mask shift/splice +
  ancestor-chain repair);
* ``reindex`` — the same edit through :func:`repro.trees.mutate.apply_edit`
  (arrays re-derived by ``Tree(labels, parents)``) followed by a full
  :func:`repro.trees.tree_index` rebuild (the correctness oracles the
  property tests compare the delta path against, bit for bit).

Series: one (size, kind) grid of mid-tree edits over graded random trees
and the three edit kinds, and a front series at n=512/2048: a 3-node
subtree inserted at ``(0, 0)``, and node 1 deleted from the tree after
that insert — the edits write-mix and the perfbench write probes commit,
where the whole tree is suffix.  Relabel copies the label column and
label masks and shares every other table, so its delta arm should be far
below the rebuild at every size; insert and delete pay a parent shift
and a mask shift linear in the suffix but still avoid re-deriving the
structural tables.  Each arm is timed in its own block here, so a ratio
between two groups' rows carries the host's drift between blocks;
EXPERIMENTS.md quotes the ratios ``compare_backends.py --mutate-only``
times paired and interleaved.

Record results with::

    pytest benchmarks/bench_mutate.py --benchmark-json=BENCH_mutate.json

The committed BENCH_mutate.json uses the repro-bench-compact/1 schema
(see conftest.py / compact_json.py).
"""

import pytest

from repro.trees import parse_xml, tree_index
from repro.trees.mutate import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_edit,
    apply_edit_indexed,
    index_fingerprint,
    tree_fingerprint,
)

SIZES = (128, 512, 2048)

#: Mid-tree edits (around node size//2): both mask halves are non-trivial,
#: so the shift/splice cost is representative rather than best-case.
_KINDS = ("insert", "delete", "relabel")


#: Front edits, at these sizes.
FRONT_SIZES = (512, 2048)
_FRONT_KINDS = ("insert", "delete")


def edit_for(tree, kind):
    """The benchmarked edit of ``kind`` (also timed by ``compare_backends.py``)."""
    node = tree.size // 2
    if kind == "insert":
        return InsertSubtree(parent=node, index=0, subtree=parse_xml("<b><a/><c/></b>"))
    if kind == "delete":
        return DeleteSubtree(node=node)
    return Relabel(node=node, label="z")


def front_edit_for(tree, kind):
    """The benchmarked front edit of ``kind`` and the tree it applies to.

    Also timed by ``compare_backends.py``.  The delete applies to the tree
    after the insert, so node 1 is the inserted 3-node subtree.
    """
    insert = InsertSubtree(parent=0, index=0, subtree=parse_xml("<b><a/><c/></b>"))
    if kind == "insert":
        return tree, insert
    return apply_edit_indexed(tree, insert), DeleteSubtree(node=1)


@pytest.fixture(scope="module")
def indexed_trees(workload_trees):
    """The benchmark trees with their indexes prebuilt (steady-state input)."""
    for tree in workload_trees.values():
        tree_index(tree)
    return workload_trees


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", _KINDS)
def test_delta_maintenance(benchmark, indexed_trees, kind, size):
    """M1 delta arm: one edit with incremental index repair."""
    benchmark.group = f"M1 {kind} n={size}"
    tree = indexed_trees[size]
    edit = edit_for(tree, kind)
    result = benchmark(lambda: apply_edit_indexed(tree, edit))
    assert result._engine_index is not None


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", _KINDS)
def test_full_reindex(benchmark, indexed_trees, kind, size):
    """M1 oracle arm: the same edit, index rebuilt from scratch."""
    benchmark.group = f"M1 {kind} n={size}"
    tree = indexed_trees[size]
    edit = edit_for(tree, kind)
    result = benchmark(lambda: tree_index(apply_edit(tree, edit)))
    assert result is not None


@pytest.mark.parametrize("size", FRONT_SIZES)
@pytest.mark.parametrize("kind", _FRONT_KINDS)
def test_front_delta_maintenance(benchmark, indexed_trees, kind, size):
    """M1 delta arm, front edits."""
    benchmark.group = f"M1 front {kind} n={size}"
    tree, edit = front_edit_for(indexed_trees[size], kind)
    result = benchmark(lambda: apply_edit_indexed(tree, edit))
    assert result._engine_index is not None


@pytest.mark.parametrize("size", FRONT_SIZES)
@pytest.mark.parametrize("kind", _FRONT_KINDS)
def test_front_full_reindex(benchmark, indexed_trees, kind, size):
    """M1 oracle arm, front edits."""
    benchmark.group = f"M1 front {kind} n={size}"
    tree, edit = front_edit_for(indexed_trees[size], kind)
    result = benchmark(lambda: tree_index(apply_edit(tree, edit)))
    assert result is not None


def test_delta_equals_reindex_on_the_bench_grid(indexed_trees):
    """The two arms must agree bit for bit on every benchmarked point —
    otherwise the speedup rows would be comparing different computations."""
    points = [
        (size, kind, tree, edit_for(tree, kind))
        for size, tree in indexed_trees.items()
        for kind in _KINDS
    ]
    points += [
        (size, f"front {kind}", *front_edit_for(indexed_trees[size], kind))
        for size in FRONT_SIZES
        for kind in _FRONT_KINDS
    ]
    for size, kind, tree, edit in points:
        delta = apply_edit_indexed(tree, edit)
        oracle = apply_edit(tree, edit)
        assert tree_fingerprint(delta) == tree_fingerprint(oracle), (size, kind)
        assert index_fingerprint(delta._engine_index) == index_fingerprint(
            tree_index(oracle)
        ), (size, kind)
