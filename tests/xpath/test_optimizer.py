"""Canonical query forms (``repro.xpath.optimizer``).

The load-bearing properties are the two the module docstring promises —
canonicalization is *idempotent* and *semantics-preserving* (checked
against the naive reference semantics on random expression/tree pairs, for
both evaluator backends) — plus the compile-count regression: evaluating a
syntactic variant of an already-compiled query must not compile a second
plan.
"""

import random

import pytest
from hypothesis import given, settings

from repro import obs
from repro.testing import node_expressions, path_expressions, trees
from repro.trees import Tree, chain, random_tree
from repro.trees.index import tree_index
from repro.trees.mutate import DeleteSubtree, InsertSubtree, Relabel, apply_edit_indexed
from repro.xpath import (
    Evaluator,
    canonical_key,
    canonicalize,
    canonicalize_path,
    node_set,
    parse_node,
    parse_path,
    path_pairs,
)
from repro.xpath.engine.plan import compile_node_plan, compile_path_plan


class TestCanonicalize:
    @settings(max_examples=60, deadline=None)
    @given(expr=node_expressions(max_budget=10))
    def test_idempotent_nodes(self, expr):
        canon = canonicalize(expr)
        assert canonicalize(canon) == canon

    @settings(max_examples=60, deadline=None)
    @given(expr=path_expressions(max_budget=10))
    def test_idempotent_paths(self, expr):
        canon = canonicalize(expr)
        assert canonicalize(canon) == canon

    @settings(max_examples=40, deadline=None)
    @given(tree=trees(max_size=10), expr=node_expressions(max_budget=8))
    def test_semantics_preserved_nodes(self, tree, expr):
        # The reference evaluator never canonicalizes, so comparing it on
        # the *raw* expression against both backends on the *canonical*
        # form checks every rewrite+ordering rule end to end.
        expected = node_set(tree, expr)
        canon = canonicalize(expr)
        for backend in ("sets", "bitset"):
            got = set(Evaluator(tree, backend=backend).nodes(canon))
            assert got == expected, (backend, expr, canon)

    @settings(max_examples=40, deadline=None)
    @given(tree=trees(max_size=10), expr=path_expressions(max_budget=8))
    def test_semantics_preserved_paths(self, tree, expr):
        expected = path_pairs(tree, expr)
        canon = canonicalize(expr)
        for backend in ("sets", "bitset"):
            got = set(Evaluator(tree, backend=backend).pairs(canon))
            assert got == expected, (backend, expr, canon)

    @pytest.mark.parametrize(
        "left, right",
        [
            ("<descendant[b]>", "<child/child*[b]>"),
            ("<parent*[a]>", "<ancestor_or_self[a]>"),
            ("<child[a or b]>", "<child[b or a]>"),
            ("<child[a]> and <right>", "<right> and <child[a]>"),
        ],
    )
    def test_node_variants_share_one_key(self, left, right):
        assert canonical_key(parse_node(left)) == canonical_key(parse_node(right))

    @pytest.mark.parametrize(
        "left, right",
        [
            ("descendant[a]", "child/child*[a]"),
            ("child | parent", "parent | child"),
            ("child & (child | parent)", "(parent | child) & child"),
        ],
    )
    def test_path_variants_share_one_key(self, left, right):
        assert canonical_key(parse_path(left)) == canonical_key(parse_path(right))

    def test_keys_are_sorted(self):
        # Node and path sorts must never alias, whatever the unparse text.
        assert canonical_key(parse_node("<child>")).startswith("N:")
        assert canonical_key(parse_path("child")).startswith("P:")


class TestPlanCompileCount:
    """Satellite (a): canonical plan aliasing stops duplicate compilation."""

    def test_variant_does_not_recompile(self):
        tree = random_tree(64, rng=random.Random(7))
        index = tree_index(tree)
        compiles = obs.counter("xpath_plan_compile_total")
        ev = Evaluator(tree, backend="bitset")

        ev.nodes(parse_node("<descendant[b]>"))
        before = compiles.value
        ev.nodes(parse_node("<child/child*[b]>"))  # same canonical form
        assert compiles.value == before, "variant triggered a structural compile"
        # The raw key is cached as an alias of the canonical plan object.
        raw = parse_path("child/child*[b]")
        assert compile_path_plan(index, raw) is compile_path_plan(
            index, canonicalize_path(raw)
        )

    def test_node_plan_aliases_canonical(self):
        tree = chain(16, labels=("a", "b"))
        index = tree_index(tree)
        raw = parse_node("<child[b or a]>")
        canon = canonicalize(raw)
        assert canon != raw
        assert compile_node_plan(index, raw) is compile_node_plan(index, canon)

    def test_edits_reuse_the_documents_plans(self):
        # A plan reads no tree data, so every generation spliced from a
        # queried tree answers from the plans compiled on it.  A Label
        # plan that kept its compile-time mask would still see the d
        # relabelled away and never see the e relabelled in.
        base = random_tree(64, "abc", random.Random(11))
        labels = list(base.labels)
        labels[7] = "d"
        tree = Tree(labels, base.parent)
        queries = [
            parse_node(text)
            for text in (
                "<child[d]>",
                "<child[e]>",
                "<descendant[b and <right[c]>]>",
                "<(child[a] | child[b]/right)*[c]>",
                "W(<descendant[b]>)",
                "not <parent[a]>",
            )
        ]
        for query in queries:
            Evaluator(tree, backend="bitset").nodes(query)
        compiles = obs.counter("xpath_plan_compile_total")
        before = compiles.value
        answers = []
        for edit in (
            Relabel(7, "a"),
            Relabel(9, "e"),
            InsertSubtree(2, 1, random_tree(6, "abe", random.Random(3))),
            DeleteSubtree(3),
        ):
            tree = apply_edit_indexed(tree, edit)
            got = [Evaluator(tree, backend="bitset").nodes(q) for q in queries]
            oracle = [Evaluator(tree, backend="sets").nodes(q) for q in queries]
            assert got == oracle, edit
            answers.append(got)
        assert compiles.value == before, "an edit's generation recompiled a plan"
        assert answers[0][0] == set() and answers[1][1] == {base.parent[9]}
