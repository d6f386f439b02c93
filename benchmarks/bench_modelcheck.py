"""Experiment C3b — FO(MTC) model-checking cost anatomy.

Series: model-checking time as a function of (a) tree size for a fixed
formula, (b) quantifier depth, (c) number of TC operators — the three knobs
that the translation-vs-evaluation gap (C3) decomposes into — plus (d) the
serving pool's ``check`` formulas at serving size.  Every series runs on
both checker backends (the row-wise ``table`` reference and the columnar
``bitset`` engine), so the recorded numbers double as the model-checking
speedup table (see also ``compare_backends.py``, which gates on the
TC-heavy and serving series).
"""

import random

import pytest

from repro.logic import CHECKER_BACKENDS, ModelChecker, parse_formula
from repro.logic.ast import free_variables
from repro.trees import random_deep_tree, random_tree, tree_index

EXISTS_TOWER = {
    1: "exists y1. child(x,y1)",
    2: "exists y1. child(x,y1) & (exists y2. child(y1,y2))",
    3: "exists y1. child(x,y1) & (exists y2. child(y1,y2) & (exists y3. child(y2,y3)))",
}

TC_FORMULAS = {
    0: "exists y. child(x,y) & a(y)",
    1: "exists y. tc[u,v](child(u,v))(x,y) & a(y)",
    2: "exists y. tc[u,v](child(u,v) & (exists w. tc[p,q](right(p,q))(u,w)))(x,y) & a(y)",
}

#: The TC-heavy sentence of the speedup gate: reachability of a last leaf
#: through the union of both one-step relations.
TC_HEAVY = (
    "exists x. exists y. tc[u,v](child(u,v) | right(u,v))(x,y) "
    "& last(y) & leaf(y)"
)


#: The ``check`` formulas of the serving benchmark's request pools
#: (perfbench's hot and cold pools), keyed by what they exercise.
SERVING_FORMULAS = {
    "child": "a(x) & exists y. child(x,y) & b(y)",
    "tc": "exists x. exists y. tc[u,v](child(u,v) | right(u,v))(x,y) & c(x) & d(y)",
    "leaf": "exists x. a(x) & leaf(x)",
}


def serving_tree(size: int):
    """A serving-size document with an indexed tree, as the service has."""
    tree = random_tree(size, alphabet=("a", "b", "c", "d"), rng=random.Random(size))
    tree_index(tree)
    return tree


def check_once(tree, formula, backend: str):
    """One request's check: a fresh checker, as the service builds per call."""
    checker = ModelChecker(tree, backend=backend)
    free = sorted(free_variables(formula))
    return checker.node_set(formula, free[0]) if free else checker.holds(formula)


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
@pytest.mark.parametrize("size", (16, 32, 64, 128))
def test_size_scaling(benchmark, size, backend):
    tree = random_tree(size, rng=random.Random(size))
    formula = parse_formula("exists y. tc[u,v](child(u,v) & a(v))(x,y) & leaf(y)")
    result = benchmark(
        lambda: ModelChecker(tree, backend=backend).node_set(formula, "x")
    )
    assert isinstance(result, set)


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
@pytest.mark.parametrize("depth", sorted(EXISTS_TOWER))
def test_quantifier_depth(benchmark, depth, backend):
    tree = random_tree(48, rng=random.Random(7))
    formula = parse_formula(EXISTS_TOWER[depth])
    result = benchmark(
        lambda: ModelChecker(tree, backend=backend).node_set(formula, "x")
    )
    assert isinstance(result, set)


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
@pytest.mark.parametrize("tc_count", sorted(TC_FORMULAS))
def test_tc_count(benchmark, tc_count, backend):
    tree = random_tree(32, rng=random.Random(9))
    formula = parse_formula(TC_FORMULAS[tc_count])
    result = benchmark(
        lambda: ModelChecker(tree, backend=backend).node_set(formula, "x")
    )
    assert isinstance(result, set)


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
@pytest.mark.parametrize("size", (64, 128, 256))
def test_tc_heavy_sentence(benchmark, size, backend):
    """The gate series: TC over child|right on deep trees."""
    tree = random_deep_tree(size, rng=random.Random(size))
    formula = parse_formula(TC_HEAVY)
    result = benchmark(lambda: ModelChecker(tree, backend=backend).holds(formula))
    assert isinstance(result, bool)


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
def test_checker_reuse_amortizes(benchmark, backend):
    """A ModelChecker memoizes per subformula; re-asking is near-free."""
    tree = random_tree(64, rng=random.Random(3))
    formula = parse_formula("exists y. tc[u,v](child(u,v))(x,y) & b(y)")
    checker = ModelChecker(tree, backend=backend)
    checker.node_set(formula, "x")  # warm
    result = benchmark(lambda: checker.node_set(formula, "x"))
    assert isinstance(result, set)


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
@pytest.mark.parametrize("size", (512, 2048))
@pytest.mark.parametrize("name", sorted(SERVING_FORMULAS))
def test_serving_formulas(benchmark, name, size, backend):
    """The serving pool's check formulas at serving size."""
    tree = serving_tree(size)
    formula = parse_formula(SERVING_FORMULAS[name])
    result = benchmark(lambda: check_once(tree, formula, backend))
    assert isinstance(result, (bool, set))
