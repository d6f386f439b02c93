"""Fuzzing the two model-checker backends against each other.

The row-wise ``table`` backend and the columnar ``bitset`` backend
(:mod:`repro.logic.engine`) share the bottom-up evaluation *scheme* but no
data structures: tables are frozensets of tuples on one side and big-int
masks on the other, and TC is a tuple BFS versus a semi-naive mask sweep.
Agreement on random formulas × random trees — including nested TC and the
T1 translation images of Regular XPath(W) queries — is the correctness
anchor for the bitset engine.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    CHECKER_BACKENDS,
    ModelChecker,
    ast as fo,
    formula_node_set,
    formula_pairs,
    holds,
    parse_formula,
    satisfying_table,
)
from repro.logic.random_formulas import FormulaSampler, random_formula
from repro.translations import xpath_to_mtc
from repro.trees import random_tree
from repro.xpath import Evaluator, parse_node, parse_path
from repro.xpath.fragments import Dialect
from repro.xpath.random_exprs import random_node


class TestDispatch:
    def test_backend_selection(self):
        tree = random_tree(5, rng=random.Random(0))
        assert ModelChecker(tree).backend == "table"
        assert ModelChecker(tree, backend="table").backend == "table"
        assert ModelChecker(tree, backend="bitset").backend == "bitset"
        assert set(CHECKER_BACKENDS) == {"table", "bitset"}

    def test_unknown_backend_rejected(self):
        tree = random_tree(3, rng=random.Random(0))
        with pytest.raises(ValueError, match="unknown checker backend"):
            ModelChecker(tree, backend="nope")

    def test_structural_memoization(self):
        # Structurally equal subformulas share one cache entry even when the
        # AST objects are distinct.
        tree = random_tree(6, rng=random.Random(1))
        for backend in CHECKER_BACKENDS:
            checker = ModelChecker(tree, backend=backend)
            first = checker.table(fo.LabelAtom("a", "x"))
            second = checker.table(fo.LabelAtom("a", "x"))
            assert first is second


class TestBackendsAgree:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 8), size=st.integers(1, 8))
    def test_satisfying_tables(self, seed, budget, size):
        rng = random.Random(seed)
        formula = random_formula(["x", "y"], budget=budget, rng=rng)
        tree = random_tree(size, rng=rng)
        assert satisfying_table(tree, formula) == satisfying_table(
            tree, formula, backend="bitset"
        )

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 6), size=st.integers(1, 6))
    def test_sentences(self, seed, budget, size):
        rng = random.Random(seed)
        formula = random_formula([], budget=budget, rng=rng)
        tree = random_tree(size, rng=rng)
        assert holds(tree, formula) == holds(tree, formula, backend="bitset")

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 7), size=st.integers(1, 7))
    def test_node_sets(self, seed, budget, size):
        rng = random.Random(seed)
        formula = random_formula(["x"], budget=budget, rng=rng)
        tree = random_tree(size, rng=rng)
        assert formula_node_set(tree, formula, "x") == formula_node_set(
            tree, formula, "x", backend="bitset"
        )

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 6), size=st.integers(1, 6))
    def test_pairs(self, seed, budget, size):
        rng = random.Random(seed)
        formula = random_formula(["x", "y"], budget=budget, rng=rng)
        tree = random_tree(size, rng=rng)
        assert formula_pairs(tree, formula, "x", "y") == formula_pairs(
            tree, formula, "x", "y", backend="bitset"
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), size=st.integers(1, 7))
    def test_nested_tc(self, seed, size):
        # Force a TC whose body itself contains a TC (the sampler only
        # sometimes nests them).
        rng = random.Random(seed)
        sampler = FormulaSampler(rng=rng)
        inner = sampler.formula(["u", "v"], budget=3)
        body = fo.And(fo.TC("u", "v", inner, "x", "y"), sampler.formula(["x"], budget=2))
        formula = fo.TC("x", "y", body, "x", "y")
        tree = random_tree(size, rng=rng)
        assert formula_pairs(tree, formula, "x", "y") == formula_pairs(
            tree, formula, "x", "y", backend="bitset"
        )


class TestTranslationImagesAgree:
    """Backend agreement on the T1 images — formulas with the shapes the
    XPath→FO(MTC) translation actually produces (heavy on TC)."""

    NODE_QUERIES = [
        "<(child/right)*[b]>",
        "<(child[a] | right)+>",
        "<descendant[a and <right>]>",
        "not W(<child[W(root)]>)",
        "<ancestor[W(<child[b]>)]>",
    ]
    PATH_QUERIES = [
        "(child[a]/right)*",
        "child+ | right+",
        "descendant[W(<child>)]",
        "preceding_sibling/ancestor_or_self",
    ]

    @pytest.mark.parametrize("text", NODE_QUERIES)
    def test_node_queries(self, text):
        rng = random.Random(hash(text) & 0xFFFF)
        formula = xpath_to_mtc(parse_node(text))
        for __ in range(5):
            tree = random_tree(rng.randint(3, 18), alphabet=("a", "b"), rng=rng)
            assert formula_node_set(tree, formula, "x") == formula_node_set(
                tree, formula, "x", backend="bitset"
            )

    @pytest.mark.parametrize("text", PATH_QUERIES)
    def test_path_queries(self, text):
        rng = random.Random(hash(text) & 0xFFFF)
        formula = xpath_to_mtc(parse_path(text))
        for __ in range(5):
            tree = random_tree(rng.randint(3, 15), alphabet=("a", "b"), rng=rng)
            assert formula_pairs(tree, formula, "x", "y") == formula_pairs(
                tree, formula, "x", "y", backend="bitset"
            )


def _binary_tables(checker) -> list:
    """The cached bitset tables with two or more columns."""
    return [t for t in checker._bcache.values() if len(t.columns) >= 2]


class TestSemiJoinShapes:
    """Which formulas the bitset checker answers by semi-joins on node masks
    (guarded ``∃`` as axis pre-images, parameter-free ``[TC]`` as one
    frontier sweep) instead of binary tables."""

    #: The serving pool's ``check`` formulas (perfbench's hot and cold pools).
    POOL = [
        "a(x) & exists y. child(x,y) & b(y)",
        "exists x. exists y. tc[u,v](child(u,v) | right(u,v))(x,y) & c(x) & d(y)",
        "exists x. a(x) & leaf(x)",
    ]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 10), size=st.integers(1, 20))
    def test_core_xpath_images_take_the_semijoin(self, seed, budget, size):
        rng = random.Random(seed)
        expr = random_node(budget, rng=rng, dialect=Dialect.CORE)
        formula = xpath_to_mtc(expr)
        tree = random_tree(size, rng=rng)
        checker = ModelChecker(tree, backend="bitset")
        answer = checker.node_set(formula, "x")
        assert answer == formula_node_set(tree, formula, "x")
        assert answer == Evaluator(tree, "sets").nodes(expr)
        assert not _binary_tables(checker)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 10), size=st.integers(1, 20))
    def test_regular_xpath_images_agree(self, seed, budget, size):
        # A [TC] nested between the variables of another [TC]'s body (as in
        # ancestor*) keeps the binary algebra, so only answers are compared.
        rng = random.Random(seed)
        expr = random_node(budget, rng=rng, dialect=Dialect.REGULAR)
        formula = xpath_to_mtc(expr)
        tree = random_tree(size, rng=rng)
        answer = formula_node_set(tree, formula, "x", backend="bitset")
        assert answer == formula_node_set(tree, formula, "x")
        assert answer == Evaluator(tree, "sets").nodes(expr)

    @pytest.mark.parametrize("text", POOL)
    def test_serving_pool_formulas(self, text):
        formula = parse_formula(text)
        tree = random_tree(512, alphabet=("a", "b", "c", "d"), rng=random.Random(512))
        checker = ModelChecker(tree, backend="bitset")
        oracle = ModelChecker(tree, backend="table")
        if fo.free_variables(formula):
            assert checker.node_set(formula, "x") == oracle.node_set(formula, "x")
        else:
            assert checker.holds(formula) == oracle.holds(formula)
        assert not _binary_tables(checker)

    def test_outside_the_grammar_keeps_binary_tables(self):
        # A path intersection has no semi-join: the join/project algebra
        # (binary tables) answers it, and still agrees with the oracle.
        formula = parse_formula("exists y. child(x,y) & descendant(x,y)")
        tree = random_tree(30, rng=random.Random(3))
        checker = ModelChecker(tree, backend="bitset")
        assert checker.node_set(formula, "x") == formula_node_set(tree, formula, "x")
        assert _binary_tables(checker)
