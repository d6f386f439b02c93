"""Unit tests for the tree data model."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees import Tree
from repro.trees.mutate import tree_fingerprint


class TestConstruction:
    def test_single_node(self):
        t = Tree.leaf("a")
        assert t.size == 1
        assert t.root.label == "a"
        assert t.root.is_root and t.root.is_leaf

    def test_build_from_shape(self):
        t = Tree.build(("a", ["b", ("c", ["d"])]))
        assert t.labels == ("a", "b", "c", "d")
        assert t.parent == (-1, 0, 0, 2)

    def test_build_deep_chain_no_recursion_error(self):
        shape = "a"
        for __ in range(5000):
            shape = ("b", [shape])
        t = Tree.build(shape)
        assert t.size == 5001
        assert t.height == 5000

    def test_to_shape_roundtrip(self):
        shape = ("a", ["b", ("c", ["d", "e"]), "f"])
        assert Tree.build(shape).to_shape() == shape

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            Tree([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Tree(["a", "b"], [-1])

    def test_non_root_first_node_rejected(self):
        with pytest.raises(ValueError):
            Tree(["a", "b"], [0, -1])

    def test_forward_parent_pointer_rejected(self):
        with pytest.raises(ValueError):
            Tree(["a", "b", "c"], [-1, 2, 0])

    def test_non_preorder_ids_rejected(self):
        # 0 -> {1, 2}, but 3 is a child of 1: subtree of 1 is {1, 3}, not
        # contiguous.
        with pytest.raises(ValueError):
            Tree(["a", "b", "c", "d"], [-1, 0, 0, 1])


def _children_chain_tree(parents) -> "str | dict":
    """The constructor before the interval-nesting validator, kept as its
    oracle: the ``ValueError`` message it raised for ``parents``, or the
    structural arrays it derived (by ``tree_fingerprint`` name)."""
    n = len(parents)
    if n == 0:
        return "a tree must have at least one node (the root)"
    if parents[0] != -1:
        return "node 0 must be the root (parent -1)"
    children = [[] for _ in range(n)]
    for i in range(1, n):
        p = parents[i]
        if not 0 <= p < i:
            return f"node {i} has parent {p}; ids must be in document order"
        children[p].append(i)
    first_child = [-1] * n
    last_child = [-1] * n
    next_sibling = [-1] * n
    prev_sibling = [-1] * n
    child_indexes = [0] * n
    depths = [0] * n
    for v, kids in enumerate(children):
        if kids:
            first_child[v] = kids[0]
            last_child[v] = kids[-1]
        for idx, c in enumerate(kids):
            child_indexes[c] = idx
            if idx > 0:
                prev_sibling[c] = kids[idx - 1]
                next_sibling[kids[idx - 1]] = c
    for i in range(1, n):
        depths[i] = depths[parents[i]] + 1
    sizes = [1] * n
    for i in range(n - 1, 0, -1):
        sizes[parents[i]] += sizes[i]
    for v, kids in enumerate(children):
        expected = v + 1
        for c in kids:
            if c != expected:
                return "node ids are not in document (preorder) order"
            expected = c + sizes[c]
    return {
        "labels": ("a",) * n,
        "parent": tuple(parents),
        "first_child": tuple(first_child),
        "last_child": tuple(last_child),
        "next_sibling": tuple(next_sibling),
        "prev_sibling": tuple(prev_sibling),
        "depths": tuple(depths),
        "child_indexes": tuple(child_indexes),
        "subtree_sizes": tuple(sizes),
    }


def _tree_verdict(parents) -> "str | dict":
    try:
        tree = Tree(["a"] * len(parents), parents)
    except ValueError as exc:
        return str(exc)
    return tree_fingerprint(tree)


@st.composite
def parent_arrays(draw):
    """Preorder parent arrays of up to 40 nodes, some with a few entries
    overwritten by arbitrary ids (mostly invalid, occasionally still a
    valid tree)."""
    n = draw(st.integers(1, 40))
    parents = [-1]
    path = [0]  # the rightmost path: the only valid parents of the next id
    for i in range(1, n):
        depth = draw(st.integers(0, len(path) - 1))
        parents.append(path[depth])
        del path[depth + 1 :]
        path.append(i)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        parents[i] = draw(st.integers(-2, n))
    return parents


class TestValidator:
    """``Tree(labels, parents)`` checks interval nesting; it must accept
    and reject exactly what the children-chain check accepted."""

    def test_matches_children_chain_exhaustively(self):
        checked = 0
        for n in range(1, 8):
            for parents in itertools.product(*(range(-1, i + 1) for i in range(n))):
                assert _tree_verdict(parents) == _children_chain_tree(parents), parents
                checked += 1
        assert checked == 46232

    @settings(max_examples=400)
    @given(parent_arrays())
    def test_matches_children_chain_on_larger_arrays(self, parents):
        assert _tree_verdict(parents) == _children_chain_tree(parents)

    def test_empty_array_rejected_alike(self):
        assert _tree_verdict([]) == _children_chain_tree([])


class TestDerivedColumns:
    """A tree stores labels, parents and sizes; the pointer columns, depths
    and child indexes are derived from them on first read.  On every tree,
    spliced ones included, they match the children-chain constructor:
    ``TestValidator`` checks the derivation on constructed trees, and the
    edit-script tests of ``test_mutate`` check spliced trees against
    constructed ones on every column."""

    def test_columns_are_derived_once_and_shared_by_relabels(self):
        tree = Tree.build(("a", ["b", ("c", ["d"])]))
        relabelled = tree.relabel({"b": "x"})
        assert tree._columns == [None]  # nothing derived yet
        assert relabelled.next_sibling == (-1, 2, -1, -1)
        assert tree.next_sibling is relabelled.next_sibling
        assert tree.depths is relabelled.depths

    def test_pickling_ships_only_what_is_set(self):
        import pickle

        from repro.trees import random_tree

        tree = random_tree(100)
        blob = pickle.dumps(tree)
        copy = pickle.loads(blob)
        assert copy == tree and copy.subtree_sizes == tree.subtree_sizes
        assert tree._columns == [None] and copy._columns == [None]
        assert copy.next_sibling == Tree(list(tree.labels), list(tree.parent)).next_sibling
        # A column read before pickling travels with the tree.
        depths = tree.depths
        assert pickle.loads(pickle.dumps(tree)).depths == depths
        assert len(blob) < len(pickle.dumps(tree))


class TestNavigation:
    def test_parent_child_links(self, mixed_tree):
        t = mixed_tree
        assert [n.label for n in t.root.children] == ["b", "c", "b"]
        c = t.node(2)
        assert c.label == "c"
        assert c.parent == t.root
        assert [k.label for k in c.children] == ["a", "b", "a"]

    def test_sibling_links(self, mixed_tree):
        t = mixed_tree
        first, second, third = t.root.children
        assert first.next_sibling == second
        assert second.prev_sibling == first
        assert second.next_sibling == third
        assert third.next_sibling is None
        assert first.prev_sibling is None

    def test_first_last_flags(self, mixed_tree):
        t = mixed_tree
        first, second, third = t.root.children
        assert first.is_first_sibling and not first.is_last_sibling
        assert not second.is_first_sibling and not second.is_last_sibling
        assert third.is_last_sibling and not third.is_first_sibling
        assert t.root.is_first_sibling and t.root.is_last_sibling

    def test_depths(self, mixed_tree):
        assert mixed_tree.depths == (0, 1, 1, 2, 2, 2, 1, 2)
        assert mixed_tree.height == 2

    def test_child_indexes(self, mixed_tree):
        assert mixed_tree.child_indexes[1] == 0
        assert mixed_tree.child_indexes[2] == 1
        assert mixed_tree.child_indexes[6] == 2

    def test_subtree_sizes(self, mixed_tree):
        assert mixed_tree.subtree_sizes[0] == 8
        assert mixed_tree.subtree_sizes[2] == 4
        assert mixed_tree.subtree_sizes[6] == 2

    def test_descendant_ids_contiguous(self, mixed_tree):
        assert list(mixed_tree.descendant_ids(2)) == [3, 4, 5]
        assert list(mixed_tree.subtree_ids(6)) == [6, 7]

    def test_is_descendant(self, mixed_tree):
        assert mixed_tree.is_descendant(3, 2)
        assert mixed_tree.is_descendant(3, 0)
        assert not mixed_tree.is_descendant(2, 3)
        assert not mixed_tree.is_descendant(2, 2)
        assert not mixed_tree.is_descendant(6, 2)

    def test_iter_ancestors(self, mixed_tree):
        assert [n.node_id for n in mixed_tree.node(4).iter_ancestors()] == [2, 0]

    def test_iter_descendants_document_order(self, mixed_tree):
        ids = [n.node_id for n in mixed_tree.node(2).iter_descendants()]
        assert ids == [3, 4, 5]


class TestSubtreeExtraction:
    def test_subtree_copy(self, mixed_tree):
        sub = mixed_tree.subtree(2)
        assert sub.labels == ("c", "a", "b", "a")
        assert sub.parent == (-1, 0, 0, 0)

    def test_subtree_of_root_is_whole_tree(self, mixed_tree):
        assert mixed_tree.subtree(0) == mixed_tree

    def test_subtree_of_leaf(self, mixed_tree):
        assert mixed_tree.subtree(1) == Tree.leaf("b")


class TestEqualityAndDisplay:
    def test_structural_equality(self):
        assert Tree.build(("a", ["b"])) == Tree.build(("a", ["b"]))
        assert Tree.build(("a", ["b"])) != Tree.build(("a", ["c"]))
        assert Tree.build(("a", ["b", "c"])) != Tree.build(("a", [("b", ["c"])]))

    def test_hashable(self):
        assert len({Tree.leaf("a"), Tree.leaf("a"), Tree.leaf("b")}) == 2

    def test_pretty(self, mixed_tree):
        lines = mixed_tree.pretty().splitlines()
        assert lines[0] == "a"
        assert lines[1] == "  b"
        assert lines[3] == "    a"

    def test_relabel(self, mixed_tree):
        swapped = mixed_tree.relabel({"a": "b", "b": "a"})
        assert swapped.labels[0] == "b"
        assert swapped.labels[1] == "a"
        assert swapped.parent == mixed_tree.parent

    def test_alphabet(self, mixed_tree):
        assert mixed_tree.alphabet == frozenset({"a", "b", "c"})

    def test_len(self, mixed_tree):
        assert len(mixed_tree) == 8


class TestToShapeDeep:
    def test_to_shape_deep_chain_no_recursion_error(self):
        # shape_of used to be recursive and overflow around depth ~1000.
        from repro.trees import chain

        t = chain(5000, labels=("a", "b"))
        shape = t.to_shape()
        depth = 0
        while not isinstance(shape, str):
            label, kids = shape
            assert len(kids) == 1
            shape = kids[0]
            depth += 1
        assert depth == 4999

    def test_to_shape_roundtrips_deep(self):
        from repro.trees import chain

        t = chain(3000)
        assert Tree.build(t.to_shape()) == t


class TestPostorder:
    def _reference_postorder(self, tree):
        ranks = [0] * tree.size
        counter = 0
        stack = [(0, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                ranks[node] = counter
                counter += 1
            else:
                stack.append((node, True))
                for child in reversed(tree.children_ids(node)):
                    stack.append((child, False))
        return tuple(ranks)

    def test_postorder_matches_explicit_walk(self, mixed_tree):
        assert mixed_tree.postorder == self._reference_postorder(mixed_tree)

    def test_postorder_random_trees(self):
        import random

        from repro.trees import random_tree

        for seed in range(25):
            rng = random.Random(seed)
            t = random_tree(rng.randint(1, 40), rng=rng)
            assert t.postorder == self._reference_postorder(t)

    def test_pre_post_window_characterizes_ancestry(self):
        import random

        from repro.trees import random_tree

        t = random_tree(30, rng=random.Random(5))
        post = t.postorder
        for u in t.node_ids:
            for v in t.node_ids:
                is_anc = u < v and post[u] > post[v]
                assert is_anc == t.is_descendant(v, u)
