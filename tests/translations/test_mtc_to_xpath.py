"""Experiment T2: FO(MTC) fragment → Regular XPath.

Two validation modes: hand-written formulas checked against the model
checker, and the *round-trip* property — forward-translate random W-free
expressions (T1), translate back, and compare semantics.  The round trip
exercises every constructor of the compositional fragment.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Query
from repro.logic import formula_node_set, formula_pairs, parse_formula
from repro.translations import (
    UnsupportedFormula,
    mtc_to_node_expr,
    mtc_to_path_expr,
    xpath_to_mtc,
)
from repro.trees import parse_xml, random_tree
from repro.xpath import ast as xp, node_set, parse_node, path_pairs
from repro.xpath.fragments import Dialect
from repro.xpath.random_exprs import ExprSampler

NODE_FORMULAS = [
    "a(x)",
    "true",
    "~a(x) & b(x)",
    "exists y. child(x,y) & a(y)",
    "~(exists y. descendant(x,y) & b(y))",
    "exists y. tc[u,v](child(u,v) & a(v))(x,y) & leaf(y)",
    "all y. (child(x,y) -> a(y))",
    "exists y. rtc[u,v](right(u,v))(x,y) & b(y)",
    "exists y. child(y,x) & exists z. right(y,z)",
    "exists y. (child(x,y) | right(x,y)) & a(y)",
    "exists y z. child(x,y) & child(y,z) & b(z)",
    "root(x)",
    "leaf(x) | ~leaf(x)",
    "exists y. true & child(x,y)",
]

PATH_FORMULAS = [
    "child(x,y)",
    "child(y,x)",
    "x=y",
    "tc[u,v](child(u,v))(x,y)",
    "tc[u,v](child(u,v))(y,x)",
    "child(x,y) | right(x,y)",
    "exists z. child(x,z) & tc[u,v](right(u,v))(z,y) & a(y)",
    "a(x) & descendant(x,y) & b(y)",
    "a(x) & b(y)",  # a product (cylinder pair)
    "rtc[u,v](exists w. child(u,w) & child(w,v))(x,y)",
    "exists z. child(x,z) & leaf(z) & child(z,y)",
]


class TestHandWrittenFormulas:
    @pytest.mark.parametrize("text", NODE_FORMULAS)
    def test_node_formulas(self, text, small_trees):
        formula = parse_formula(text)
        expr = mtc_to_node_expr(formula, "x")
        for tree in small_trees[:70]:
            assert formula_node_set(tree, formula, "x") == set(node_set(tree, expr))

    @pytest.mark.parametrize("text", PATH_FORMULAS)
    def test_path_formulas(self, text, small_trees):
        formula = parse_formula(text)
        expr = mtc_to_path_expr(formula, "x", "y")
        for tree in small_trees[:70]:
            assert formula_pairs(tree, formula, "x", "y") == path_pairs(tree, expr)


class TestRoundTrip:
    """xpath → FO(MTC) → xpath must preserve semantics on the W-free dialect."""

    @settings(max_examples=70, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 9), size=st.integers(1, 9))
    def test_node_roundtrip(self, seed, budget, size):
        rng = random.Random(seed)
        expr = ExprSampler(rng=rng, dialect=Dialect.REGULAR).node(budget)
        formula = xpath_to_mtc(expr)
        back = mtc_to_node_expr(formula, "x")  # the fragment covers T1's image
        tree = random_tree(size, rng=rng)
        assert set(node_set(tree, expr)) == set(node_set(tree, back))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**9), budget=st.integers(1, 7), size=st.integers(1, 8))
    def test_path_roundtrip(self, seed, budget, size):
        rng = random.Random(seed)
        expr = ExprSampler(rng=rng, dialect=Dialect.REGULAR).path(budget)
        formula = xpath_to_mtc(expr)
        back = mtc_to_path_expr(formula, "x", "y")
        tree = random_tree(size, rng=rng)
        assert path_pairs(tree, expr) == path_pairs(tree, back)


class TestFragmentBoundary:
    """Formulas outside the compositional fragment are rejected loudly —
    these are exactly the shapes whose translation is the paper's hard
    contribution."""

    def test_path_intersection_rejected(self):
        with pytest.raises(UnsupportedFormula, match="intersection"):
            mtc_to_path_expr(parse_formula("child(x,y) & descendant(x,y)"), "x", "y")

    def test_tc_loop_rejected(self):
        with pytest.raises(UnsupportedFormula):
            mtc_to_node_expr(
                parse_formula("tc[u,v](right(u,v) | right(v,u))(x,x)"), "x"
            )

    def test_negated_binary_rejected(self):
        with pytest.raises(UnsupportedFormula):
            mtc_to_path_expr(parse_formula("~child(x,y)"), "x", "y")

    def test_cross_join_conjunct_rejected(self):
        with pytest.raises(UnsupportedFormula):
            mtc_to_path_expr(
                parse_formula("exists z. child(x,z) & child(z,y) & descendant(x,y)"),
                "x",
                "y",
            )

    def test_wrong_free_variables_rejected(self):
        with pytest.raises(UnsupportedFormula):
            mtc_to_node_expr(parse_formula("child(x,y)"), "x")

    def test_same_variable_pair_rejected(self):
        with pytest.raises(ValueError):
            mtc_to_path_expr(parse_formula("a(x)"), "x", "x")


class TestParameters:
    """A [TC] body that mentions a variable other than its own pair (a
    *parameter*) is outside the fragment.  It must be rejected, not filed as
    a guard on the step's source, which answers a different query."""

    def test_parameter_label_in_node_formula(self):
        formula = parse_formula(
            "exists y. tc[u,v](b(x) & child(u,v))(x,y) & leaf(y)"
        )
        tree = parse_xml("<b><a><a/></a></b>")
        assert formula_node_set(tree, formula, "x") == {0}
        with pytest.raises(UnsupportedFormula):
            mtc_to_node_expr(formula, "x")
        with pytest.raises(UnsupportedFormula):
            Query.from_fo_mtc(formula, "x")

    def test_negated_parameter_in_path_formula(self):
        formula = parse_formula("tc[u,v](child(u,v) & ~a(x))(x,y)")
        tree = parse_xml("<b><a><b/></a></b>")
        assert formula_pairs(tree, formula, "x", "y") == {(0, 1), (0, 2)}
        with pytest.raises(UnsupportedFormula):
            mtc_to_path_expr(formula, "x", "y")
        with pytest.raises(UnsupportedFormula):
            Query.from_fo_mtc(formula, "x", "y")


class TestConcurrentTranslation:
    def test_path_booleans_flag_is_per_call(self):
        """Two threads translate the same path intersection, one with
        ``allow_path_booleans``: each must see only its own flag."""
        formula = parse_formula("child(x,y) & descendant(x,y)")
        rounds = 5000
        wrong = {True: 0, False: 0}  # each thread writes only its own key

        def translate(allow: bool) -> None:
            for _ in range(rounds):
                try:
                    result = mtc_to_path_expr(
                        formula, "x", "y", allow_path_booleans=allow
                    )
                    ok = allow and isinstance(result, xp.Intersect)
                except UnsupportedFormula:
                    ok = not allow
                wrong[allow] += not ok

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=translate, args=(allow,))
                for allow in (True, False)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == {True: 0, False: 0}
