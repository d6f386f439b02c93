"""TreeRegistry live-document surface: epochs, snapshots, pins, mutate,
and exception-isolated listeners."""

import pytest

from repro import obs
from repro.runtime import faults
from repro.runtime.errors import InjectedFaultError
from repro.service import TreeRegistry
from repro.trees import Tree, tree_index
from repro.trees.mutate import InsertSubtree, Relabel, index_fingerprint


def _tree(shape=("a", ["b", "c"])):
    return Tree.build(shape)


# -- epochs ------------------------------------------------------------------


def test_register_bumps_epoch():
    registry = TreeRegistry()
    assert registry.epoch("doc") == 0
    assert registry.register("doc", _tree()) == 1
    assert registry.epoch("doc") == 1
    assert registry.register("doc", _tree()) == 2
    assert registry.epoch("doc") == 2


def test_register_with_explicit_epoch():
    registry = TreeRegistry()
    assert registry.register("doc", _tree(), epoch=7) == 7
    assert registry.epoch("doc") == 7
    # Default bump continues from the pinned value.
    assert registry.register("doc", _tree()) == 8


def test_snapshot_is_atomic_pair():
    registry = TreeRegistry()
    t = _tree()
    registry.register("doc", t)
    tree, epoch = registry.snapshot("doc")
    assert tree is t
    assert epoch == 1
    with pytest.raises(ValueError, match="unknown tree"):
        registry.snapshot("missing")


# -- pins --------------------------------------------------------------------


def test_pin_holds_snapshot_and_tracks_gauge():
    registry = TreeRegistry()
    t = _tree()
    registry.register("doc", t)
    gauge = obs.gauge("snapshot_pins")
    base = gauge.value
    pin = registry.pin("doc")
    assert gauge.value == base + 1
    assert pin.tree is t and pin.epoch == 1 and pin.name == "doc"
    # A mutation does not disturb the pinned snapshot.
    registry.mutate("doc", Relabel(0, "z"))
    assert pin.tree is t
    assert pin.tree.labels[0] == "a"
    pin.release()
    assert gauge.value == base
    pin.release()  # idempotent
    assert gauge.value == base


def test_pin_is_a_context_manager():
    registry = TreeRegistry()
    registry.register("doc", _tree())
    gauge = obs.gauge("snapshot_pins")
    base = gauge.value
    with registry.pin("doc") as pin:
        assert gauge.value == base + 1
        assert pin.epoch == 1
    assert gauge.value == base


# -- mutate ------------------------------------------------------------------


def test_mutate_publishes_new_epoch_copy_on_write():
    registry = TreeRegistry()
    old = _tree()
    registry.register("doc", old)
    new_tree, epoch = registry.mutate(
        "doc", InsertSubtree(parent=0, index=0, subtree=Tree.leaf("x"))
    )
    assert epoch == 2
    assert registry.get("doc") is new_tree
    assert new_tree.to_shape() == ("a", ["x", "b", "c"])
    assert old.to_shape() == ("a", ["b", "c"])
    # The published index was maintained incrementally, bit-exact vs rebuild.
    assert index_fingerprint(tree_index(new_tree)) == index_fingerprint(
        tree_index(Tree(new_tree.labels, new_tree.parent))
    )


def test_mutate_accepts_json_edits_and_counts_by_kind():
    registry = TreeRegistry()
    registry.register("doc", _tree())
    counter = obs.counter("tree_mutations_total", kind="relabel")
    base = counter.value
    registry.mutate("doc", {"kind": "relabel", "node": 1, "label": "q"})
    assert registry.get("doc").labels[1] == "q"
    assert counter.value == base + 1


def test_mutate_unknown_tree_and_invalid_edit():
    registry = TreeRegistry()
    with pytest.raises(ValueError, match="unknown tree"):
        registry.mutate("missing", Relabel(0, "x"))
    registry.register("doc", _tree())
    with pytest.raises(ValueError, match="out of range"):
        registry.mutate("doc", Relabel(99, "x"))
    # A rejected edit publishes nothing.
    assert registry.epoch("doc") == 1


def test_mutate_fault_is_atomic():
    """An injected trees.mutate fault leaves tree and epoch untouched."""
    registry = TreeRegistry()
    t = _tree()
    registry.register("doc", t)
    with faults.scoped(("trees.mutate", 1)):
        with pytest.raises(InjectedFaultError):
            registry.mutate("doc", Relabel(0, "x"))
        assert registry.get("doc") is t
        assert registry.epoch("doc") == 1
        # The site is consumed; the retry succeeds.
        _, epoch = registry.mutate("doc", Relabel(0, "x"))
    assert epoch == 2
    assert registry.get("doc").labels[0] == "x"


# -- listener isolation (satellite regression) -------------------------------


def test_throwing_listener_does_not_abort_register_or_skip_later_listeners():
    registry = TreeRegistry()
    calls = []

    def bad(name):
        calls.append(("bad", name))
        raise RuntimeError("listener bug")

    def good(name):
        calls.append(("good", name))

    registry.subscribe(bad)
    registry.subscribe(good)
    errors = obs.counter("registry_listener_errors_total")
    base = errors.value
    epoch = registry.register("doc", _tree())
    assert epoch == 1
    assert registry.get("doc") is not None
    assert calls == [("bad", "doc"), ("good", "doc")]
    assert errors.value == base + 1


def test_listener_reentrancy_does_not_corrupt_epochs():
    """A listener that calls back into the registry (subscribing another
    listener, or re-registering a *different* tree) runs outside the
    registry lock, so reentrancy must neither deadlock nor corrupt epoch
    bookkeeping."""
    registry = TreeRegistry()
    seen = []

    def late(name):
        seen.append(("late", name, registry.epoch(name)))

    def reentrant(name):
        seen.append(("reentrant", name, registry.epoch(name)))
        # Subscribe from inside a callback: takes the registry lock again.
        registry.subscribe(late)
        # Register a *different* tree from inside the callback (bounded:
        # "shadow" has no reentrant listener cascade of its own).
        if name == "doc":
            registry.register("shadow", _tree())

    registry.subscribe(reentrant)
    epoch = registry.register("doc", _tree())
    assert epoch == 1
    # The nested registration published cleanly under its own epoch...
    assert registry.epoch("doc") == 1
    assert registry.epoch("shadow") == 1
    # ...and every listener observed a fully published state (the epoch
    # the callback reads is never the pre-publish value).
    assert ("reentrant", "doc", 1) in seen
    assert ("reentrant", "shadow", 1) in seen
    # A later registration reaches the listener subscribed re-entrantly,
    # and epochs keep advancing monotonically per tree.
    registry.register("doc", _tree())
    assert registry.epoch("doc") == 2
    assert ("late", "doc", 2) in seen
    # The reentrant listener fired for "doc" again and re-registered
    # "shadow" under the next epoch — advanced, not corrupted.
    assert registry.epoch("shadow") == 2


def test_reentrant_self_reregistration_is_bounded_and_consistent():
    """A listener re-registering the SAME tree must converge (the test
    bounds the recursion itself) with a strictly increasing epoch chain."""
    registry = TreeRegistry()
    fires = []

    def bump_once(name):
        fires.append(registry.epoch(name))
        if len(fires) < 3:  # the test's own recursion guard
            registry.register(name, _tree())

    registry.subscribe(bump_once)
    registry.register("doc", _tree())
    # Three nested publications, each one epoch further on, no epoch lost
    # or doubled by the reentrancy.
    assert registry.epoch("doc") == 3
    assert sorted(fires) == fires and len(set(fires)) == len(fires)


# -- generations are freed by reference counting -------------------------------


def test_superseded_generations_are_freed_without_the_cyclic_gc(gc_disabled):
    """No tree <-> index cycle: a generation dies with its last reference.

    Each round pins the current generation, evaluates and model-checks on
    it (warming compiled plans and relation tables on its index), releases
    the pin and mutates.  With the cyclic collector off, every superseded
    index must already be gone.
    """
    import random
    import weakref

    from repro.logic import parse_formula
    from repro.logic.modelcheck import ModelChecker
    from repro.trees import random_tree
    from repro.trees.mutate import DeleteSubtree
    from repro.xpath import parse_node
    from repro.xpath.evaluator import Evaluator

    rng = random.Random(14)
    registry = TreeRegistry()
    registry.register("doc", random_tree(120, ("a", "b"), rng))
    query = parse_node("<descendant[a]> and not <right[b]>")
    formula = parse_formula("exists y. child(x,y) & b(y)")
    superseded = []
    for round_ in range(20):
        pin = registry.pin("doc")
        index = tree_index(pin.tree)
        superseded.append(weakref.ref(index))
        Evaluator(pin.tree, backend="bitset").nodes(query)
        ModelChecker(pin.tree, backend="bitset").node_set(formula, "x")
        size = pin.tree.size
        pin.release()
        del pin, index
        edits = (
            Relabel(rng.randrange(size), "ab"[round_ % 2]),
            InsertSubtree(0, 0, random_tree(4, ("a",), rng)),
            DeleteSubtree(1),
        )
        registry.mutate("doc", edits[round_ % 3])
    assert [ref() for ref in superseded] == [None] * 20


# -- a spliced generation stores only labels, parents and sizes ----------------


def test_edits_and_bitset_reads_never_derive_pointer_columns(tmp_path):
    """Front inserts, deletes and relabels through a WAL-attached registry,
    past a checkpoint, then bitset reads of every generation: the one-step
    kernels on small frontiers, the sibling closures and the relation
    masks all read ``after`` and the parents, so no generation derives its
    pointer columns.  Every answer matches the oracles on a rebuilt copy,
    which derives its own."""
    import random

    from repro.logic import parse_formula
    from repro.logic.modelcheck import ModelChecker
    from repro.service import QueryRequest, QueryService
    from repro.trees import random_tree
    from repro.trees.mutate import DeleteSubtree
    from repro.trees.wal import WriteAheadLog
    from repro.xpath import parse_node, parse_path
    from repro.xpath.evaluator import Evaluator, select

    wal = WriteAheadLog.open(tmp_path / "wal", fsync="never", snapshot_every=4)
    registry = TreeRegistry()
    registry.attach_wal(wal)
    registry.register("doc", random_tree(120, ("a", "b", "c"), random.Random(26)))
    generations = [registry.get("doc")]
    stack = Tree.build(("b", ["a", "c"]))
    for round_ in range(4):
        for edit in (
            InsertSubtree(0, 0, stack),
            InsertSubtree(0, 1, stack),
            DeleteSubtree(1),
            Relabel(1, "abc"[round_ % 3]),
        ):
            generations.append(registry.mutate("doc", edit)[0])
    assert list((tmp_path / "wal" / "checkpoints").iterdir())

    paths = [
        parse_path(text)
        for text in (
            "child/child[a]/right",
            "child/child/left/parent",
            "child/right*/child[b]",
            "child/child/left*",
        )
    ]
    nodes = [parse_node(text) for text in ("<right[b]> and <left[c]>", "<left*[a]>")]
    pairs = [parse_formula(text) for text in RELATION_ATOMS]
    for tree in generations:
        oracle = Tree(list(tree.labels), list(tree.parent))
        index = tree_index(tree)
        assert index.sparse_child and index.sparse_sib  # both switches live
        scope = index.scope(None)
        for v in range(1, tree.size):
            bit = 1 << v
            assert index.child(bit, scope) == _mask(oracle.children_ids(v)), v
            assert index.parent(bit, scope) == 1 << oracle.parent[v], v
            assert index.right(bit, scope) == _mask([oracle.next_sibling[v]]), v
            assert index.left(bit, scope) == _mask([oracle.prev_sibling[v]]), v
        for path in paths:
            assert select(tree, path, backend="bitset") == select(oracle, path)
        for node in nodes:
            fast = Evaluator(tree, backend="bitset").nodes(node)
            assert fast == Evaluator(oracle).nodes(node)
        for formula in pairs:
            fast = ModelChecker(tree, backend="bitset").pairs(formula, "x", "y")
            assert fast == ModelChecker(oracle).pairs(formula, "x", "y")
        assert tree._columns == [None]

    with QueryService(registry, workers=1, _result_cache=False) as svc:
        results = svc.run_batch(
            [QueryRequest(op="select", query="child/right/left", tree="doc")]
            + [QueryRequest(op="eval", query="<left*[a]>", tree="doc")]
            + [
                QueryRequest(op="check", formula=text, tree="doc")
                for text in RELATION_ATOMS
            ]
        )
    assert [result.status for result in results] == ["ok"] * len(results)
    assert registry.get("doc") is generations[-1]
    assert generations[-1]._columns == [None]
    wal.close()


#: A pair query per relation the bitset checker reads as per-source masks.
RELATION_ATOMS = (
    "child(x,y)",
    "right(x,y)",
    "descendant(x,y)",
    "following_sibling(x,y)",
)


def _mask(ids) -> int:
    return sum(1 << v for v in ids if v >= 0)
