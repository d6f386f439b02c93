"""Bitset backend tests: kernel-level ground truth, backend dispatch, plan
sharing, and the three-way agreement property (bitset = sets = reference)
over the full Regular XPath(W) + path-boolean language."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.trees import Tree, chain, comb, random_tree
from repro.trees.axes import Axis, axis_image, axis_pairs, interval_axis_pairs
from repro.trees.mutate import Relabel, apply_edit_indexed
from repro.trees.tree import _prev_siblings
from repro.xpath import (
    BitsetEvaluator,
    Evaluator,
    SetEvaluator,
    ast,
    parse_node,
    parse_path,
)
from repro.xpath.engine import (
    bit,
    compile_node_plan,
    compile_path_plan,
    from_ids,
    iter_bits,
    iter_bits_reversed,
    to_frozenset,
    to_ids,
    to_set,
    tree_index,
)
from repro.xpath.random_exprs import ExprSampler
from repro.xpath.reference import node_set, path_pairs


class TestBitsetPrimitives:
    def test_roundtrip(self):
        ids = [0, 3, 5, 70, 200]
        mask = from_ids(ids)
        assert to_ids(mask) == ids
        assert to_set(mask) == set(ids)
        assert to_frozenset(mask) == frozenset(ids)

    def test_iter_bits_orders(self):
        mask = from_ids([1, 64, 65, 300])
        assert list(iter_bits(mask)) == [1, 64, 65, 300]
        assert list(iter_bits_reversed(mask)) == [300, 65, 64, 1]

    def test_empty_mask(self):
        assert to_ids(0) == []
        assert list(iter_bits(0)) == []

    def test_bit(self):
        assert bit(5) == 32


class TestKernelsAgainstAxisImage:
    """Every kernel must equal the per-node generator semantics, scoped and
    unscoped, on randomized trees and source sets."""

    @pytest.mark.parametrize("axis", list(Axis))
    def test_unscoped(self, axis):
        rng = random.Random(hash(axis.value) & 0xFFFF)
        for __ in range(20):
            tree = random_tree(rng.randint(1, 30), rng=rng)
            index = tree_index(tree)
            sources = {n for n in tree.node_ids if rng.random() < 0.4}
            expected = axis_image(tree, sources, axis)
            sc = index.scope(None)
            got = index.kernel(axis)(from_ids(sources), sc)
            assert to_set(got) == expected, (axis, tree.to_shape(), sources)

    @pytest.mark.parametrize("axis", list(Axis))
    def test_scoped(self, axis):
        rng = random.Random(hash(axis.value) & 0xFFF7)
        for __ in range(20):
            tree = random_tree(rng.randint(2, 30), rng=rng)
            index = tree_index(tree)
            scope = rng.randrange(tree.size)
            in_scope = list(tree.subtree_ids(scope))
            sources = {n for n in in_scope if rng.random() < 0.5}
            expected = axis_image(tree, sources, axis, scope)
            sc = index.scope(scope)
            got = index.kernel(axis)(from_ids(sources), sc)
            assert to_set(got) == expected, (axis, tree.to_shape(), scope, sources)

    def test_full_universe_matches_axis_pairs_targets(self):
        tree = random_tree(40, rng=random.Random(9))
        index = tree_index(tree)
        sc = index.scope(None)
        for axis in Axis:
            targets = {m for __, m in axis_pairs(tree, axis)}
            got = index.kernel(axis)(index.full, sc)
            assert to_set(got) == targets, axis

    def test_shared_tables_survive_racing_threads(self):
        # The interval prefix table is one per process and the children
        # masks are memoized per index: threads growing and filling them
        # at once must leave every entry exact.
        import sys
        import threading

        from repro.trees import index as index_module

        base = len(index_module._PREFIX)
        tree = random_tree(200, rng=random.Random(4))
        shared = tree_index(tree)
        sc = shared.scope(None)
        sources = {n for n in tree.node_ids if n % 3 == 0}
        expected = {
            axis: axis_image(tree, sources, axis)
            for axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING)
        }
        wrong = []

        start = threading.Barrier(4)

        def work(seed):
            start.wait(timeout=60)
            for step in range(1, 21):  # every thread grows the table, in turn
                index_module._grow_prefix(base + 100 * step + seed)
                for axis, want in expected.items():
                    if to_set(shared.kernel(axis)(from_ids(sources), sc)) != want:
                        wrong.append(axis)
            grown = tree_index(chain(base + seed + 1))
            if grown.descendant(1, grown.scope(None)) != grown.full ^ 1:
                wrong.append(grown.n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        table = index_module._PREFIX
        assert all(table[i] == (1 << i) - 1 for i in range(len(table)))


def _flat_tree(block: int, tail: int) -> Tree:
    """A root whose first child holds ``block`` leaves, then ``tail`` more
    leaves under the root: flat at the root and at the non-root scope 1."""
    parents = [-1, 0] + [1] * block + [0] * tail
    return Tree(["ab"[v % 2] for v in range(len(parents))], parents)


class TestSparseKernels:
    """The one-step kernels switch to a node-by-node walk at small
    frontiers; both regimes must equal the per-node axis semantics."""

    TREES = {
        "random": lambda: random_tree(600, rng=random.Random(31)),
        "chain": lambda: chain(300, labels=("a", "b")),
        "comb": lambda: comb(150),
        "flat": lambda: _flat_tree(60, 40),
    }
    LIMITS = {
        Axis.CHILD: "sparse_child",
        Axis.PARENT: "sparse_child",
        Axis.RIGHT: "sparse_sib",
        Axis.LEFT: "sparse_sib",
    }

    @pytest.mark.parametrize("axis", list(LIMITS))
    @pytest.mark.parametrize("shape", list(TREES))
    def test_every_regime_matches_axis_image(self, shape, axis):
        tree = self.TREES[shape]()
        index = tree_index(tree)
        limit = getattr(index, self.LIMITS[axis])
        # Chains and combs have too few shift groups ever to walk.
        walks = shape == "random" or (
            shape == "flat" and self.LIMITS[axis] == "sparse_child"
        )
        assert (limit > 0) == walks
        rng = random.Random(f"{shape}/{axis.value}")
        kernel = index.kernel(axis)
        # The whole tree, and the largest subtree below the root as a scope.
        inner = max(range(1, tree.size), key=lambda v: len(tree.subtree_ids(v)))
        for scope in (None, inner):
            universe = list(tree.node_ids if scope is None else tree.subtree_ids(scope))
            for k in sorted({0, 1, limit, limit + 1, len(universe)}):
                sources = set(rng.sample(universe, min(k, len(universe))))
                expected = axis_image(tree, sources, axis, scope)
                got = kernel(from_ids(sources), index.scope(scope))
                assert to_set(got) == expected, (shape, axis, scope, k)

    def test_left_falls_back_past_its_climb_budget(self):
        # The root's i-th child heads a chain of i nodes, so the climb from
        # v - 1 to a child's previous sibling is one step per chain level.
        parents = [-1]
        for length in range(1, 31):
            top = len(parents)
            parents += [0] + list(range(top, top + length - 1))
        tree = Tree(["a"] * len(parents), parents)
        index = tree_index(tree)
        limit = index.sparse_sib
        sources = set(tree.children_ids(0)[-limit:])
        S = from_ids(sources)
        budget = len(index.sib_groups)
        assert limit and _prev_siblings(tree.parent, S, budget) == -1
        got = index.left(S, index.scope(None))
        assert to_set(got) == axis_image(tree, sources, Axis.LEFT, None)

    def test_sparse_child_fills_no_children_memo(self):
        # The memo holds one n-bit mask per parent; small frontiers walk
        # v + 1 and next_sibling instead.
        tree = _flat_tree(60, 40)
        index = tree_index(tree)
        sc = index.scope(None)
        assert index.child(from_ids([0, 1]), sc) == from_ids(
            tree.children_ids(0) + tree.children_ids(1)
        )
        assert index._children == {}


def _descendants_of_a(tree) -> list:
    index = tree_index(tree)
    return to_ids(index.descendant(index.label_masks["a"], index.scope(None)))


def _answers(tree) -> tuple:
    query = parse_node("<child[a]>")
    return _descendants_of_a(tree), to_ids(BitsetEvaluator(tree).node_mask(query))


def _indexed(tree):
    tree_index(tree)
    return tree


def _queried(tree):
    _answers(tree)
    return tree


#: Trees as a service ships them: indexed, with compiled plans, and a
#: generation spliced from a queried tree, which shares its plans before
#: anyone queries it.
_SHIPPED = {
    "fresh": _indexed,
    "queried": _queried,
    "spliced": lambda tree: apply_edit_indexed(_queried(tree), Relabel(5, "a")),
}


def test_indexed_tree_pickles_into_a_fresh_process():
    # The interval prefix table is per process: an index unpickled in a
    # fresh interpreter must grow that process's table before it serves
    # (the first tree sent checks that).  Compiled plans are closures,
    # which stay behind.
    import multiprocessing

    with multiprocessing.get_context("spawn").Pool(1) as pool:
        for shipped, make in _SHIPPED.items():
            tree = make(random_tree(300, "ab", random.Random(1)))
            expected = _answers(Tree(tree.labels, tree.parent))
            assert pool.apply(_answers, (tree,)) == expected, shipped


class TestBackendDispatch:
    def test_default_is_sets(self, mixed_tree):
        ev = Evaluator(mixed_tree)
        assert isinstance(ev, SetEvaluator)
        assert ev.backend == "sets"

    def test_bitset_dispatch(self, mixed_tree):
        ev = Evaluator(mixed_tree, backend="bitset")
        assert isinstance(ev, BitsetEvaluator)
        assert isinstance(ev, Evaluator)
        assert ev.backend == "bitset"

    def test_unknown_backend_rejected(self, mixed_tree):
        with pytest.raises(ValueError):
            Evaluator(mixed_tree, backend="numpy")

    def test_subclass_direct_construction(self, mixed_tree):
        assert isinstance(SetEvaluator(mixed_tree), SetEvaluator)
        assert isinstance(BitsetEvaluator(mixed_tree), BitsetEvaluator)

    def test_subclass_backend_mismatch_rejected(self, mixed_tree):
        with pytest.raises(ValueError):
            SetEvaluator(mixed_tree, backend="bitset")


class TestPlanSharing:
    def test_plans_shared_structurally(self, mixed_tree):
        index = tree_index(mixed_tree)
        p1 = parse_path("child[a]/descendant")
        p2 = parse_path("child[a]/descendant")
        assert p1 is not p2  # distinct objects ...
        assert compile_path_plan(index, p1) is compile_path_plan(index, p2)

    def test_plans_shared_across_evaluators(self, mixed_tree):
        expr = parse_node("<descendant[a]>")
        e1 = Evaluator(mixed_tree, backend="bitset")
        e2 = Evaluator(mixed_tree, backend="bitset")
        assert e1.index is e2.index
        compile_node_plan(e1.index, expr)
        assert expr in e1.index.node_plans
        assert e1.nodes(expr) == e2.nodes(expr)

    def test_node_memo_structural(self, mixed_tree):
        ev = Evaluator(mixed_tree, backend="bitset")
        first = ev.nodes(parse_node("<descendant[a]>"))
        second = ev.nodes(parse_node("<descendant[a]>"))
        assert first == second
        assert first is not None

    def test_sets_memo_structural(self, mixed_tree):
        # The sets backend's memo is keyed on the expression itself now,
        # so structurally equal parses share one cache entry.
        ev = Evaluator(mixed_tree)
        first = ev.nodes(parse_node("<descendant[a]>"))
        second = ev.nodes(parse_node("<descendant[a]>"))
        assert first is second


class TestThreeWayAgreement:
    """bitset = sets = reference on random trees × random expressions,
    including ``W``, ``Intersect`` and ``Complement``."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 12), size=st.integers(1, 12))
    def test_node_sets_agree(self, seed, budget, size):
        rng = random.Random(seed)
        sampler = ExprSampler(rng=rng, path_booleans=True)
        expr = sampler.node(budget)
        tree = random_tree(size, rng=rng)
        reference = node_set(tree, expr)
        assert set(Evaluator(tree, backend="bitset").nodes(expr)) == reference
        assert set(Evaluator(tree, backend="sets").nodes(expr)) == reference

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 10), size=st.integers(1, 10))
    def test_pairs_agree(self, seed, budget, size):
        rng = random.Random(seed)
        sampler = ExprSampler(rng=rng, path_booleans=True)
        expr = sampler.path(budget)
        tree = random_tree(size, rng=rng)
        reference = path_pairs(tree, expr)
        assert Evaluator(tree, backend="bitset").pairs(expr) == reference
        assert Evaluator(tree, backend="sets").pairs(expr) == reference

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 10), size=st.integers(1, 12))
    def test_images_and_preimages_agree(self, seed, budget, size):
        rng = random.Random(seed)
        sampler = ExprSampler(rng=rng, path_booleans=True)
        expr = sampler.path(budget)
        tree = random_tree(size, rng=rng)
        sources = {n for n in tree.node_ids if rng.random() < 0.5}
        bits = Evaluator(tree, backend="bitset")
        sets_ = Evaluator(tree, backend="sets")
        assert bits.image(expr, sources) == sets_.image(expr, sources)
        assert bits.preimage(expr, sources) == sets_.preimage(expr, sources)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 8), size=st.integers(2, 12))
    def test_scoped_nodes_agree(self, seed, budget, size):
        rng = random.Random(seed)
        sampler = ExprSampler(rng=rng, path_booleans=True)
        expr = sampler.node(budget)
        tree = random_tree(size, rng=rng)
        scope = rng.randrange(tree.size)
        assert Evaluator(tree, backend="bitset").nodes(expr, scope) == Evaluator(
            tree, backend="sets"
        ).nodes(expr, scope)


class TestPairsFastPath:
    @pytest.mark.parametrize(
        "axis",
        [
            Axis.DESCENDANT,
            Axis.DESCENDANT_OR_SELF,
            Axis.ANCESTOR,
            Axis.ANCESTOR_OR_SELF,
            Axis.FOLLOWING,
            Axis.PRECEDING,
        ],
    )
    def test_interval_pairs_match_reference(self, axis):
        rng = random.Random(hash(axis.value) & 0xFFF)
        for __ in range(15):
            tree = random_tree(rng.randint(1, 25), rng=rng)
            assert interval_axis_pairs(tree, axis) == axis_pairs(tree, axis)
            scope = rng.randrange(tree.size)
            assert interval_axis_pairs(tree, axis, scope) == axis_pairs(
                tree, axis, scope
            )

    def test_non_interval_axis_returns_none(self, mixed_tree):
        assert interval_axis_pairs(mixed_tree, Axis.CHILD) is None

    @pytest.mark.parametrize("backend", ("sets", "bitset"))
    def test_evaluator_pairs_use_fast_path_consistently(self, backend, mixed_tree):
        for text in ("descendant", "ancestor", "following", "preceding"):
            expr = parse_path(text)
            got = Evaluator(mixed_tree, backend=backend).pairs(expr)
            assert got == path_pairs(mixed_tree, expr), text


class TestStarStrengthReduction:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_star_of_axis_equals_reference(self, axis):
        rng = random.Random(hash(axis.value) & 0x7FF)
        for __ in range(8):
            tree = random_tree(rng.randint(1, 14), rng=rng)
            expr = ast.Star(ast.Step(axis))
            assert Evaluator(tree, backend="bitset").pairs(expr) == path_pairs(
                tree, expr
            )

    def test_deep_chain_star_no_recursion(self):
        tree = chain(3000, labels=("a", "b"))
        got = Evaluator(tree, backend="bitset").image(parse_path("child*[leaf]"), {0})
        assert got == {2999}

    def test_general_star_saturation(self):
        tree = chain(10, labels=("a", "b"))
        got = Evaluator(tree, backend="bitset").image(
            parse_path("(child[b]/child[a])*"), {0}
        )
        assert got == {0, 2, 4, 6, 8}


class TestBitsetExtras:
    def test_node_mask(self, mixed_tree):
        ev = BitsetEvaluator(mixed_tree)
        mask = ev.node_mask(parse_node("a"))
        assert to_set(mask) == {0, 3, 5, 7}

    def test_image_mask(self, mixed_tree):
        ev = BitsetEvaluator(mixed_tree)
        got = ev.image_mask(parse_path("child"), bit(2))
        assert to_set(got) == {3, 4, 5}

    def test_holds_at(self, mixed_tree):
        ev = Evaluator(mixed_tree, backend="bitset")
        assert ev.holds_at(parse_node("<child[b]>"), 0)
        assert not ev.holds_at(parse_node("<child[b]>"), 1)
