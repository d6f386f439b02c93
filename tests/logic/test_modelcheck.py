"""FO(MTC) model-checker tests (relational evaluation + TC semantics)."""

import random

import pytest

from repro.logic import (
    CHECKER_BACKENDS,
    ModelChecker,
    ast as fo,
    formula_node_set,
    formula_pairs,
    holds,
    parse_formula,
)
from repro.trees import Tree, chain, random_tree
from repro.xpath import Evaluator, parse_node


class TestAtoms:
    def test_label_atom(self, mixed_tree):
        assert formula_node_set(mixed_tree, parse_formula("a(x)"), "x") == {0, 3, 5, 7}

    def test_child_relation(self, mixed_tree):
        pairs = formula_pairs(mixed_tree, parse_formula("child(x,y)"), "x", "y")
        assert (0, 2) in pairs and (2, 3) in pairs and (0, 3) not in pairs

    def test_right_relation(self, mixed_tree):
        pairs = formula_pairs(mixed_tree, parse_formula("right(x,y)"), "x", "y")
        assert (1, 2) in pairs and (2, 6) in pairs and (1, 6) not in pairs

    def test_descendant_is_strict(self, mixed_tree):
        pairs = formula_pairs(mixed_tree, parse_formula("descendant(x,y)"), "x", "y")
        assert (0, 0) not in pairs and (0, 7) in pairs

    def test_equality(self, mixed_tree):
        pairs = formula_pairs(mixed_tree, parse_formula("x=y"), "x", "y")
        assert pairs == {(n, n) for n in mixed_tree.node_ids}

    def test_root_leaf_sugar(self, mixed_tree):
        assert formula_node_set(mixed_tree, parse_formula("root(x)"), "x") == {0}
        assert formula_node_set(mixed_tree, parse_formula("leaf(x)"), "x") == {1, 3, 4, 5, 7}

    @pytest.mark.parametrize("backend", CHECKER_BACKENDS)
    @pytest.mark.parametrize("macro", ["first", "last"])
    def test_first_last_sugar_match_xpath(self, mixed_tree, macro, backend):
        formula = parse_formula(f"{macro}(x)")
        trees = [mixed_tree, chain(4)]
        trees += [random_tree(n, rng=random.Random(n)) for n in (1, 7, 30)]
        for tree in trees:
            expected = Evaluator(tree, backend="sets").nodes(parse_node(macro))
            assert formula_node_set(tree, formula, "x", backend=backend) == expected


class TestConnectivesAndQuantifiers:
    def test_negation_complements(self, mixed_tree):
        got = formula_node_set(mixed_tree, parse_formula("~a(x)"), "x")
        assert got == {1, 2, 4, 6}

    def test_exists_projection(self, mixed_tree):
        got = formula_node_set(
            mixed_tree, parse_formula("exists y. child(x,y) & b(y)"), "x"
        )
        assert got == {0, 2}

    def test_forall(self, mixed_tree):
        # all children are leaves
        got = formula_node_set(
            mixed_tree, parse_formula("all y. (child(x,y) -> leaf(y))"), "x"
        )
        # 2 has leaf children only; 6 has leaf child; leaves vacuously.
        assert got == {1, 2, 3, 4, 5, 6, 7}

    def test_implication_and_iff(self, mixed_tree):
        f = parse_formula("a(x) <-> ~b(x)")
        got = formula_node_set(mixed_tree, f, "x")
        # a-labelled: true↔true; b-labelled: false↔false; c (node 2): false↔true fails.
        assert got == set(mixed_tree.node_ids) - {2}

    def test_sentences(self, mixed_tree):
        assert holds(mixed_tree, parse_formula("exists x. c(x)"))
        assert not holds(mixed_tree, parse_formula("all x. a(x)"))

    def test_holds_with_env(self, mixed_tree):
        f = parse_formula("child(x,y)")
        assert holds(mixed_tree, f, {"x": 0, "y": 2})
        assert not holds(mixed_tree, f, {"x": 0, "y": 3})

    def test_missing_env_raises(self, mixed_tree):
        with pytest.raises(ValueError):
            holds(mixed_tree, parse_formula("a(x)"))


class TestTransitiveClosure:
    def test_tc_child_is_descendant(self, mixed_tree):
        tc = formula_pairs(mixed_tree, parse_formula("tc[u,v](child(u,v))(x,y)"), "x", "y")
        desc = formula_pairs(mixed_tree, parse_formula("descendant(x,y)"), "x", "y")
        assert tc == desc

    def test_rtc_adds_diagonal(self, mixed_tree):
        rtc = formula_pairs(mixed_tree, parse_formula("rtc[u,v](child(u,v))(x,y)"), "x", "y")
        desc = formula_pairs(mixed_tree, parse_formula("descendant(x,y)"), "x", "y")
        assert rtc == desc | {(n, n) for n in mixed_tree.node_ids}

    def test_tc_is_strict_not_reflexive(self, mixed_tree):
        tc = formula_pairs(mixed_tree, parse_formula("tc[u,v](child(u,v))(x,y)"), "x", "y")
        assert all(a != b for a, b in tc)

    def test_tc_with_test_body(self, mixed_tree):
        f = parse_formula("tc[u,v](child(u,v) & a(v))(x,y)")
        assert formula_pairs(mixed_tree, f, "x", "y") == {(2, 3), (2, 5), (6, 7)}

    def test_tc_with_parameter(self, mixed_tree):
        # steps restricted to nodes with the same label as parameter z's node
        f = parse_formula(
            "exists z. root(z) & tc[u,v](child(u,v) & a(v))(x,y)"
        )
        got = formula_pairs(mixed_tree, f, "x", "y")
        assert got == {(2, 3), (2, 5), (6, 7)}

    def test_tc_cycle_via_sibling_shuffle(self):
        # TC of (right | left) relates any two distinct siblings, and each
        # sibling to itself when a cycle exists (>= 2 siblings).
        t = Tree.build(("r", ["a", "b", "c"]))
        f = parse_formula("tc[u,v](right(u,v) | right(v,u))(x,y)")
        pairs = formula_pairs(t, f, "x", "y")
        assert {(1, 1), (1, 2), (2, 1), (3, 3), (1, 3)} <= pairs
        assert (0, 0) not in pairs

    def test_tc_body_ignoring_bound_vars_is_total(self):
        t = chain(3)
        # body true(u,v): complete graph → TC total.
        f = parse_formula("tc[u,v](true)(x,y)")
        assert formula_pairs(t, f, "x", "y") == {(a, b) for a in range(3) for b in range(3)}

    def test_tc_equal_endpoints_variable(self):
        t = Tree.build(("r", ["a", "b"]))
        f = parse_formula("tc[u,v](right(u,v) | right(v,u))(x,x)")
        got = formula_node_set(t, f, "x")
        assert got == {1, 2}


class TestEvenLengthChains:
    """The flagship FO(MTC)-beyond-FO example: parity of depth."""

    EVEN_DEPTH = (
        "exists r. root(r) & rtc[u,v](exists w. child(u,w) & child(w,v))(r,x)"
    )

    @pytest.mark.parametrize("length", range(1, 8))
    def test_even_depth_on_chains(self, length):
        t = chain(length)
        got = formula_node_set(t, parse_formula(self.EVEN_DEPTH), "x")
        assert got == {n for n in range(length) if n % 2 == 0}


class TestChecker:
    def test_table_caching(self, mixed_tree):
        checker = ModelChecker(mixed_tree)
        f = parse_formula("exists y. child(x,y)")
        assert checker.table(f) is checker.table(f)

    def test_pairs_pads_missing_variable(self, mixed_tree):
        # a(x) as a "binary" query is a cylinder.
        pairs = ModelChecker(mixed_tree).pairs(parse_formula("a(x)"), "x", "y")
        assert pairs == {(n, m) for n in {0, 3, 5, 7} for m in mixed_tree.node_ids}

    def test_node_set_wrong_variable_raises(self, mixed_tree):
        with pytest.raises(ValueError):
            formula_node_set(mixed_tree, parse_formula("a(x)"), "y")
