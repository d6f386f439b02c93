"""ExecutionBudget unit behavior plus end-to-end governance of the engines."""

import random
import time

import pytest

from repro.logic import ModelChecker, parse_formula
from repro.runtime import (
    BudgetExceededError,
    DeadlineExceededError,
    ExecutionBudget,
)
from repro.trees import chain, random_deep_tree, random_tree
from repro.xpath import Evaluator, parse_node, parse_path

STAR_QUERY = parse_path("(child[a] | child[b]/right)*")
TC_HEAVY = parse_formula(
    "exists x. exists y. tc[u,v](child(u,v) | right(u,v))(x,y) & last(y) & leaf(y)"
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestBudgetUnit:
    def test_unlimited_budget_never_trips(self):
        budget = ExecutionBudget()
        for _ in range(1000):
            budget.tick()
        budget.check_size(10**9)
        assert budget.steps == 1000

    def test_step_cap_trips_strictly_above(self):
        budget = ExecutionBudget(max_steps=3)
        budget.tick()
        budget.tick(weight=2)  # exactly at the cap: still fine
        with pytest.raises(BudgetExceededError):
            budget.tick()

    def test_deadline_uses_the_injected_clock(self):
        clock = FakeClock()
        budget = ExecutionBudget(timeout=5.0, clock=clock)
        clock.now = 4.999
        budget.tick()
        clock.now = 5.0
        with pytest.raises(DeadlineExceededError):
            budget.tick()

    def test_check_size(self):
        budget = ExecutionBudget(max_nodes=10)
        budget.check_size(10)
        with pytest.raises(BudgetExceededError, match="pair relation"):
            budget.check_size(11, "pair relation")

    def test_inspection_properties(self):
        clock = FakeClock(100.0)
        budget = ExecutionBudget(timeout=2.0, max_steps=5, clock=clock)
        clock.now = 100.5
        assert budget.elapsed == pytest.approx(0.5)
        assert budget.remaining_time == pytest.approx(1.5)
        budget.tick(weight=3)
        assert budget.remaining_steps == 2
        assert ExecutionBudget().remaining_time is None
        assert ExecutionBudget().remaining_steps is None

    @pytest.mark.parametrize("kwargs", [
        {"timeout": -1.0},
        {"max_steps": -1},
        {"max_nodes": -5},
    ])
    def test_negative_caps_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionBudget(**kwargs)

    def test_budget_errors_are_not_value_errors(self):
        """Operational exhaustion must not be swallowed by input validation."""
        assert not issubclass(BudgetExceededError, ValueError)
        assert issubclass(DeadlineExceededError, BudgetExceededError)


class TestEngineGovernance:
    """The budget actually governs every engine family."""

    def test_deadline_promptness_on_adversarial_input(self):
        """The acceptance gate: a 50ms deadline trips in under 2x the
        deadline on a workload that takes at least 4x longer ungoverned."""
        tree = random_tree(10_000, rng=random.Random(5))
        ungoverned = Evaluator(tree, backend="bitset")
        start = time.monotonic()
        assert ungoverned.pairs(STAR_QUERY)  # completes (and warms caches)
        assert time.monotonic() - start >= 0.20  # the premise: 4x the deadline

        budget = ExecutionBudget(timeout=0.05)
        governed = Evaluator(tree, backend="bitset", budget=budget)
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            governed.pairs(STAR_QUERY)
        assert time.monotonic() - start < 0.10

    @pytest.mark.parametrize("backend", ["bitset", "sets"])
    def test_step_cap_on_evaluator(self, backend):
        tree = chain(64, labels=("a", "b"))
        budget = ExecutionBudget(max_steps=5)
        ev = Evaluator(tree, backend=backend, budget=budget)
        with pytest.raises(BudgetExceededError):
            ev.pairs(STAR_QUERY)

    @pytest.mark.parametrize("backend", ["bitset", "sets"])
    def test_cardinality_cap_on_evaluator(self, backend):
        tree = chain(64, labels=("a", "b"))
        budget = ExecutionBudget(max_nodes=10)
        ev = Evaluator(tree, backend=backend, budget=budget)
        with pytest.raises(BudgetExceededError):
            ev.nodes(parse_node("true"))

    @pytest.mark.parametrize("backend", ["bitset", "table"])
    def test_step_cap_on_model_checker(self, backend):
        tree = random_deep_tree(128, rng=random.Random(1))
        budget = ExecutionBudget(max_steps=3)
        checker = ModelChecker(tree, backend=backend, budget=budget)
        with pytest.raises(BudgetExceededError):
            checker.holds(TC_HEAVY)

    @pytest.mark.parametrize("strategy", ["bitset", "deque"])
    def test_step_cap_on_twa(self, strategy):
        from repro.translations import compile_exists_path

        automaton = compile_exists_path(
            parse_path("descendant[a]/descendant[b]"), ("a", "b")
        )
        tree = chain(200, labels=("a", "b"))
        budget = ExecutionBudget(max_steps=2)
        with pytest.raises(BudgetExceededError):
            automaton.accepts(tree, strategy=strategy, budget=budget)

    def test_step_cap_on_decision_procedures(self):
        from repro.decision import exact_equivalent

        left = parse_node("<descendant[a]>")
        right = parse_node("<child[a]> or <child[<descendant[a]>]>")
        budget = ExecutionBudget(max_steps=2)
        with pytest.raises(BudgetExceededError):
            exact_equivalent(left, right, ("a", "b"), budget)

    def test_ample_budget_changes_nothing(self):
        """Same results with and without a (never-tripping) budget."""
        tree = random_tree(200, rng=random.Random(9))
        plain = Evaluator(tree, backend="bitset").image(STAR_QUERY, {0})
        budget = ExecutionBudget(timeout=60.0, max_steps=10**9, max_nodes=10**9)
        governed = Evaluator(tree, backend="bitset", budget=budget)
        assert governed.image(STAR_QUERY, {0}) == plain
        assert budget.steps > 0  # the checkpoints actually ran
