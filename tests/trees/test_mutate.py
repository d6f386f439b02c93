"""Live-document edits: structure, delta reindexing vs the full-rebuild
oracle, copy-on-write snapshot isolation, and the JSON wire format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees import Tree, TreeIndex, random_tree, tree_index
from repro.trees.mutate import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_edit,
    apply_edit_indexed,
    apply_edits,
    edit_from_json,
    edit_to_json,
    index_fingerprint,
    tree_fingerprint,
)
from repro.testing import trees


def assert_splice_exact(tree: Tree) -> None:
    """Both halves of a spliced generation are bit-exact vs scratch
    rebuilds: every structural array of the tree, every table of its index."""
    oracle = Tree(list(tree.labels), list(tree.parent))
    assert tree_fingerprint(tree) == tree_fingerprint(oracle)
    assert index_fingerprint(tree_index(tree)) == index_fingerprint(
        TreeIndex(oracle)
    )


# -- structural application --------------------------------------------------


def test_insert_as_middle_child():
    t = Tree.build(("a", ["b", ("c", ["d"]), "e"]))
    sub = Tree.build(("x", ["y"]))
    t2 = apply_edit(t, InsertSubtree(parent=0, index=1, subtree=sub))
    assert t2.to_shape() == ("a", ["b", ("x", ["y"]), ("c", ["d"]), "e"])
    # Copy-on-write: the source tree is untouched.
    assert t.to_shape() == ("a", ["b", ("c", ["d"]), "e"])


def test_insert_at_end_and_into_leaf():
    t = Tree.build(("a", ["b"]))
    t2 = apply_edit(t, InsertSubtree(parent=0, index=1, subtree=Tree.leaf("z")))
    assert t2.to_shape() == ("a", ["b", "z"])
    t3 = apply_edit(t2, InsertSubtree(parent=1, index=0, subtree=Tree.leaf("w")))
    assert t3.to_shape() == ("a", [("b", ["w"]), "z"])


def test_delete_subtree():
    t = Tree.build(("a", ["b", ("c", ["d", "e"]), "f"]))
    t2 = apply_edit(t, DeleteSubtree(node=2))  # the whole c-subtree
    assert t2.to_shape() == ("a", ["b", "f"])


def test_relabel():
    t = Tree.build(("a", ["b", "c"]))
    t2 = apply_edit(t, Relabel(node=2, label="q"))
    assert t2.to_shape() == ("a", ["b", "q"])
    assert t.labels[2] == "c"


def test_apply_edits_folds_in_order():
    t = Tree.leaf("a")
    t2 = apply_edits(
        t,
        [
            InsertSubtree(0, 0, Tree.leaf("b")),
            InsertSubtree(0, 1, Tree.leaf("c")),
            Relabel(1, "x"),
            DeleteSubtree(2),
        ],
    )
    assert t2.to_shape() == ("a", ["x"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (DeleteSubtree(0), "root"),
        (DeleteSubtree(99), "out of range"),
        (Relabel(99, "a"), "out of range"),
        (Relabel(0, ""), "non-empty"),
        (InsertSubtree(99, 0, Tree.leaf("a")), "out of range"),
        (InsertSubtree(0, 5, Tree.leaf("a")), "index 5 out of range"),
        (InsertSubtree(0, -1, Tree.leaf("a")), "out of range"),
        (InsertSubtree(0, 0, "not a tree"), "must be a Tree"),
        ("bogus", "unknown edit"),
    ],
)
def test_invalid_edits_raise(edit, message):
    t = Tree.build(("a", ["b", "c"]))
    with pytest.raises(ValueError, match=message):
        apply_edit(t, edit)
    with pytest.raises(ValueError, match=message):
        apply_edit_indexed(t, edit)


# -- incremental index vs the full-reindex oracle ----------------------------


def test_insert_incremental_index_every_position():
    t = Tree.build(("a", ["b", ("c", ["d", "e"]), ("f", ["g"])]))
    sub = Tree.build(("x", ["y", ("z", ["w"])]))
    for parent in range(t.size):
        for index in range(len(t.children_ids(parent)) + 1):
            t2 = apply_edit_indexed(t, InsertSubtree(parent, index, sub))
            assert_splice_exact(t2)


def test_delete_incremental_index_every_node():
    t = Tree.build(("a", ["b", ("c", ["d", ("e", ["h"])]), ("f", ["g"])]))
    for node in range(1, t.size):
        t2 = apply_edit_indexed(t, DeleteSubtree(node))
        assert_splice_exact(t2)


def test_relabel_shares_structural_tables():
    t = Tree.build(("a", ["b", "c"]))
    old = tree_index(t)
    t2 = apply_edit_indexed(t, Relabel(1, "q"))
    new = tree_index(t2)
    assert_splice_exact(t2)
    # Relabel is O(1): every structural table is shared, labels are not.
    assert new.after is old.after
    assert new.delta_groups is old.delta_groups
    assert new.sib_groups is old.sib_groups
    assert new.last_child_groups is old.last_child_groups
    assert new.label_masks is not old.label_masks
    # ...and so does the tree: only the labels are copied.
    for name, array in tree_fingerprint(t2).items():
        if name != "labels":
            assert array is getattr(t, name), name
    assert t2.labels is not t.labels


def _draw_edit(data, tree: Tree):
    kinds = ["insert", "relabel"] + (["delete"] if tree.size > 1 else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "relabel":
        node = data.draw(
            st.integers(0, tree.size - 1), label="relabel node"
        )
        label = data.draw(st.sampled_from("abcx"), label="label")
        return Relabel(node, label)
    if kind == "delete":
        node = data.draw(st.integers(1, tree.size - 1), label="delete node")
        return DeleteSubtree(node)
    parent = data.draw(st.integers(0, tree.size - 1), label="insert parent")
    index = data.draw(
        st.integers(0, len(tree.children_ids(parent))), label="insert index"
    )
    sub = data.draw(trees(max_size=5, alphabet=("a", "x")), label="subtree")
    return InsertSubtree(parent, index, sub)


@settings(max_examples=120)
@given(data=st.data())
def test_random_edit_scripts_are_bit_exact(data):
    """The acceptance-criteria property: after ANY edit script the spliced
    tree arrays equal ``Tree(labels, parent)`` and the incrementally
    maintained index equals a full reindex, bit for bit (and the
    incremental input of step i+1 is itself incremental)."""
    tree = data.draw(trees(max_size=16, alphabet=("a", "b", "c")))
    steps = data.draw(st.integers(1, 5), label="script length")
    for _ in range(steps):
        edit = _draw_edit(data, tree)
        tree = apply_edit_indexed(tree, edit)
        assert_splice_exact(tree)  # the oracle also re-validates the order


def assert_children_masks(tree: Tree) -> None:
    """The lazily derived children mask of every node is its child set."""
    index = tree_index(tree)
    for p in range(tree.size):
        want = sum(1 << c for c in tree.children_ids(p))
        assert index.children_mask(p) == want, p


@settings(max_examples=60)
@given(data=st.data())
def test_children_mask_matches_children_ids(data):
    """``children_mask`` on random trees and after random edit scripts
    (spliced indexes start with an empty memo of their own)."""
    tree = data.draw(trees(max_size=16, alphabet=("a", "b")))
    assert_children_masks(tree)
    for _ in range(data.draw(st.integers(1, 4), label="script length")):
        tree = apply_edit_indexed(tree, _draw_edit(data, tree))
        assert_children_masks(tree)


@settings(max_examples=60)
@given(data=st.data())
def test_edit_scripts_match_structural_fold(data):
    """apply_edit_indexed and apply_edit agree on the resulting tree."""
    tree = data.draw(trees(max_size=12))
    edits = []
    shadow = tree
    for _ in range(data.draw(st.integers(1, 4), label="script length")):
        edit = _draw_edit(data, shadow)
        edits.append(edit)
        shadow = apply_edit(shadow, edit)
        tree = apply_edit_indexed(tree, edit)
    assert tree == shadow
    assert apply_edits(Tree(shadow.labels, shadow.parent), []) == shadow


# -- snapshot isolation ------------------------------------------------------


def test_old_snapshot_untouched_by_edits():
    rng = random.Random(2008)
    t = random_tree(40, ("a", "b"), rng)
    before = index_fingerprint(tree_index(t))
    shape_before = t.to_shape()
    t2 = apply_edit_indexed(t, InsertSubtree(0, 0, random_tree(5, ("c",), rng)))
    t3 = apply_edit_indexed(t2, DeleteSubtree(1))
    assert t.to_shape() == shape_before
    assert index_fingerprint(tree_index(t)) == before
    assert t3.size == t.size  # inserted 5, deleted the inserted root's span


def test_pinned_reader_sees_pre_edit_results_on_every_backend():
    """A reader holding the old tree gets pre-edit answers from both
    evaluator backends and both checker backends, even after edits."""
    from repro.logic import parse_formula
    from repro.logic.modelcheck import ModelChecker
    from repro.xpath import parse_node
    from repro.xpath.evaluator import Evaluator

    rng = random.Random(7)
    old = random_tree(30, ("a", "b"), rng)
    query = parse_node("<child[a]>")
    formula = parse_formula("exists y. child(x,y) & b(y)")
    expect_nodes = sorted(Evaluator(old, backend="sets").nodes(query))
    expect_set = sorted(ModelChecker(old, backend="table").node_set(formula, "x"))

    new = apply_edit_indexed(old, DeleteSubtree(1))
    new = apply_edit_indexed(new, InsertSubtree(0, 0, random_tree(4, ("b",), rng)))

    for backend in ("sets", "bitset"):
        assert sorted(Evaluator(old, backend=backend).nodes(query)) == expect_nodes
    for backend in ("table", "bitset"):
        assert (
            sorted(ModelChecker(old, backend=backend).node_set(formula, "x"))
            == expect_set
        )
    # And the new snapshot agrees with itself across backends (the bitset
    # side runs on the incrementally maintained index).
    assert sorted(Evaluator(new, backend="bitset").nodes(query)) == sorted(
        Evaluator(new, backend="sets").nodes(query)
    )
    assert sorted(
        ModelChecker(new, backend="bitset").node_set(formula, "x")
    ) == sorted(ModelChecker(new, backend="table").node_set(formula, "x"))


@settings(max_examples=40)
@given(data=st.data())
def test_backends_agree_on_mutated_trees(data):
    """Identical query results on all backends after random edit scripts."""
    from repro.xpath import parse_node
    from repro.xpath.evaluator import Evaluator

    tree = data.draw(trees(max_size=10))
    for _ in range(data.draw(st.integers(1, 3), label="steps")):
        tree = apply_edit_indexed(tree, _draw_edit(data, tree))
    query = parse_node(
        data.draw(
            st.sampled_from(
                [
                    "<child[a]>",
                    "<descendant[b]>",
                    "<child[a]> and not <right[b]>",
                    "<(child[a])*[x]>",
                ]
            ),
            label="query",
        )
    )
    fast = sorted(Evaluator(tree, backend="bitset").nodes(query))
    oracle = sorted(Evaluator(tree, backend="sets").nodes(query))
    assert fast == oracle


# -- JSON wire format --------------------------------------------------------


def test_edit_json_round_trip():
    edits = [
        Relabel(3, "x"),
        DeleteSubtree(2),
        InsertSubtree(1, 0, Tree.build(("x", ["y", ("z", ["w"])]))),
    ]
    for edit in edits:
        assert edit_from_json(edit_to_json(edit)) == edit


def test_edit_from_json_accepts_xml_subtree():
    edit = edit_from_json(
        {"kind": "insert", "parent": 0, "index": 0, "xml": "<x><y/></x>"}
    )
    assert edit.subtree.to_shape() == ("x", ["y"])


@pytest.mark.parametrize(
    "payload, message",
    [
        ("nope", "must be a JSON object"),
        ({"kind": "teleport"}, "unknown edit kind"),
        ({"kind": "relabel", "node": 0}, "requires 'node' and 'label'"),
        ({"kind": "delete"}, "requires 'node'"),
        ({"kind": "delete", "node": 1, "label": "x"}, "unknown edit field"),
        ({"kind": "insert", "parent": 0, "index": 0}, "exactly one of"),
        (
            {"kind": "insert", "parent": 0, "index": 0, "xml": "<a/>", "shape": "b"},
            "exactly one of",
        ),
        (
            {"kind": "insert", "parent": 0, "index": 0, "shape": ["a"]},
            "bad shape",
        ),
        (
            {"kind": "insert", "parent": 0, "index": 0, "shape": [1, []]},
            "bad shape",
        ),
    ],
)
def test_edit_from_json_rejects_malformed(payload, message):
    with pytest.raises(ValueError, match=message):
        edit_from_json(payload)


def test_deep_shapes_round_trip_iteratively():
    shape = "a"
    for _ in range(3000):  # far past the recursion limit
        shape = ["a", [shape]]
    edit = edit_from_json(
        {"kind": "insert", "parent": 0, "index": 0, "shape": shape}
    )
    assert edit.subtree.size == 3001
    assert edit_from_json(edit_to_json(edit)) == edit
