"""Query-plan compilation for the bitset backend.

A parsed Regular XPath(W) AST is compiled *once per tree* into a plan: a
tree of closures mirroring the expression structure.

* a compiled **path** has signature ``plan(ev, mask, scope) -> mask`` — the
  image of the source mask under the path's relation, clipped to the scope;
* a compiled **node expression** has signature ``plan(ev, scope) -> mask``
  — the set of nodes satisfying it within the scope.

Plans are cached on the per-tree :class:`~repro.xpath.engine.kernels.TreeIndex`
keyed *structurally* on the expression (AST nodes are frozen dataclasses),
so repeated subexpressions — inside one query or across queries on the same
tree — compile to the *same* closure, and every evaluator on the tree
shares the compiled plans.  Node-set *results* are memoized per evaluator
(per ``(expression, scope-root)``), mirroring the sets backend.

Kleene star runs as batched frontier sweeps: each round applies the body
plan to the whole frontier mask at once and prunes it against the reached
mask, so a saturation costs one kernel sweep per BFS level instead of one
set operation per node.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ... import obs
from ...runtime import faults
from ...runtime.budget import ExecutionBudget
from ...trees.index import AXIS_KERNELS, Scope, TreeIndex, tree_index
from ...trees.tree import Tree
from .. import ast
from ..evaluator import Evaluator, converse
from ..optimizer import canonicalize_node, canonicalize_path
from .bitset import from_ids, iter_bits, to_frozenset, to_set

__all__ = ["BitsetEvaluator", "compile_path_plan", "compile_node_plan"]

PathPlan = Callable[["BitsetEvaluator", int, Scope], int]
NodePlan = Callable[["BitsetEvaluator", Scope], int]

#: ``axis* = (closure ∪ self)``: the reflexive-transitive closure of each
#: axis is again an axis (reflexivity is restored by the caller's ``| S``).
_STAR_CLOSURES = {
    ast.Axis.SELF: ast.Axis.SELF,
    ast.Axis.CHILD: ast.Axis.DESCENDANT,
    ast.Axis.PARENT: ast.Axis.ANCESTOR,
    ast.Axis.RIGHT: ast.Axis.FOLLOWING_SIBLING,
    ast.Axis.LEFT: ast.Axis.PRECEDING_SIBLING,
    ast.Axis.DESCENDANT: ast.Axis.DESCENDANT,
    ast.Axis.ANCESTOR: ast.Axis.ANCESTOR,
    ast.Axis.DESCENDANT_OR_SELF: ast.Axis.DESCENDANT,
    ast.Axis.ANCESTOR_OR_SELF: ast.Axis.ANCESTOR,
    ast.Axis.FOLLOWING_SIBLING: ast.Axis.FOLLOWING_SIBLING,
    ast.Axis.PRECEDING_SIBLING: ast.Axis.PRECEDING_SIBLING,
    ast.Axis.FOLLOWING: ast.Axis.FOLLOWING,
    ast.Axis.PRECEDING: ast.Axis.PRECEDING,
}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


#: Structural compilations actually performed (plan-cache misses that built
#: a new closure tree, canonical aliases excluded) — the regression tests
#: assert equivalent query variants stop duplicating compilation work.
_COMPILES = obs.counter("xpath_plan_compile_total")


def compile_path_plan(index: TreeIndex, expr: ast.PathExpr) -> PathPlan:
    """The compiled plan for ``expr`` on ``index``'s tree (cached).

    Plans are keyed on the *canonical form*
    (:func:`repro.xpath.optimizer.canonicalize`): a syntactic variant of an
    already-compiled query stores an alias to the canonical plan instead of
    compiling a duplicate, so equivalent-by-rewriting variants share one
    closure tree.
    """
    plan = index.path_plans.get(expr)
    if plan is None:
        canon = canonicalize_path(expr)
        if canon != expr:
            plan = compile_path_plan(index, canon)
        else:
            _COMPILES.inc()
            plan = _compile_path(index, expr)
        index.path_plans[expr] = plan
    return plan


def compile_node_plan(index: TreeIndex, expr: ast.NodeExpr) -> NodePlan:
    """The compiled plan for node expression ``expr`` (canonically cached)."""
    plan = index.node_plans.get(expr)
    if plan is None:
        canon = canonicalize_node(expr)
        if canon != expr:
            plan = compile_node_plan(index, canon)
        else:
            _COMPILES.inc()
            plan = _compile_node(index, expr)
        index.node_plans[expr] = plan
    return plan


def _compile_path(index: TreeIndex, expr: ast.PathExpr) -> PathPlan:
    if isinstance(expr, ast.Step):
        # Plans are cached on the index, so they reach it through the
        # evaluator (``ev.index``) and never capture it themselves.
        kernel = AXIS_KERNELS[expr.axis]

        def run_step(ev, S: int, sc: Scope) -> int:
            return kernel(ev.index, S, sc) if S else 0

        return run_step

    if isinstance(expr, ast.Seq):
        left = compile_path_plan(index, expr.left)
        right = compile_path_plan(index, expr.right)

        def run_seq(ev, S: int, sc: Scope) -> int:
            mid = left(ev, S, sc)
            return right(ev, mid, sc) if mid else 0

        return run_seq

    if isinstance(expr, ast.Union):
        left = compile_path_plan(index, expr.left)
        right = compile_path_plan(index, expr.right)
        return lambda ev, S, sc: left(ev, S, sc) | right(ev, S, sc)

    if isinstance(expr, ast.Star):
        # Strength reduction: the star of a bare axis is itself an axis
        # kernel (child* = descendant-or-self, right* = self ∪ following
        # siblings, ...) — no fixpoint iteration needed.
        if isinstance(expr.path, ast.Step):
            closed = _STAR_CLOSURES.get(expr.path.axis)
            if closed is not None:
                kernel = AXIS_KERNELS[closed]

                def run_star_axis(ev, S: int, sc: Scope) -> int:
                    if not S:
                        return 0
                    # Same stage name as the general sweep so both star
                    # regimes (and the sets backend) share one taxonomy.
                    with obs.span(
                        "xpath.star.sweep", budget=ev.budget,
                        backend="bitset", mode="axis",
                    ):
                        return kernel(ev.index, S, sc) | S

                return run_star_axis
        body = compile_path_plan(index, expr.path)

        def run_star(ev, S: int, sc: Scope) -> int:
            # Batched frontier sweep: whole-mask image per BFS level.
            faults.check("xpath.bitset.star")
            if not S:
                return 0
            budget = ev.budget
            with obs.span(
                "xpath.star.sweep", budget=budget, backend="bitset", mode="sweep"
            ) as sweep:
                reached = S
                frontier = S
                rounds = 0
                while frontier:
                    if budget is not None:
                        budget.tick()
                    rounds += 1
                    frontier = body(ev, frontier, sc) & ~reached
                    reached |= frontier
                sweep.set(rounds=rounds, reached=reached.bit_count())
            return reached

        return run_star

    if isinstance(expr, ast.Check):
        test = expr.test
        compile_node_plan(index, test)  # pre-compile; results memoized per ev

        def run_check(ev, S: int, sc: Scope) -> int:
            return S & ev._node_mask(test, sc) if S else 0

        return run_check

    if isinstance(expr, ast.EmptyPath):
        return lambda ev, S, sc: 0

    if isinstance(expr, ast.Intersect):
        left = compile_path_plan(index, expr.left)
        right = compile_path_plan(index, expr.right)

        def run_intersect(ev, S: int, sc: Scope) -> int:
            # Relation intersection is per-source: image(p∩q, S) is NOT
            # image(p,S) ∩ image(q,S) when |S| > 1.
            budget = ev.budget
            acc = 0
            for v in iter_bits(S):
                if budget is not None:
                    budget.tick()
                b = 1 << v
                l = left(ev, b, sc)
                if l:
                    acc |= l & right(ev, b, sc)
            return acc

        return run_intersect

    if isinstance(expr, ast.Complement):
        body = compile_path_plan(index, expr.path)

        def run_complement(ev, S: int, sc: Scope) -> int:
            budget = ev.budget
            acc = 0
            full = sc.mask
            for v in iter_bits(S):
                if budget is not None:
                    budget.tick()
                acc |= full & ~body(ev, 1 << v, sc)
                if acc == full:
                    break
            return acc

        return run_complement

    raise TypeError(f"unknown path expression: {expr!r}")


def _compile_node(index: TreeIndex, expr: ast.NodeExpr) -> NodePlan:
    if isinstance(expr, ast.Label):
        mask = index.label_masks.get(expr.name, 0)
        return lambda ev, sc: mask & sc.mask

    if isinstance(expr, ast.TrueNode):
        return lambda ev, sc: sc.mask

    if isinstance(expr, ast.Not):
        operand = expr.operand
        compile_node_plan(index, operand)
        return lambda ev, sc: sc.mask & ~ev._node_mask(operand, sc)

    if isinstance(expr, ast.And):
        left, right = expr.left, expr.right
        compile_node_plan(index, left)
        compile_node_plan(index, right)
        return lambda ev, sc: ev._node_mask(left, sc) & ev._node_mask(right, sc)

    if isinstance(expr, ast.Or):
        left, right = expr.left, expr.right
        compile_node_plan(index, left)
        compile_node_plan(index, right)
        return lambda ev, sc: ev._node_mask(left, sc) | ev._node_mask(right, sc)

    if isinstance(expr, ast.Exists):
        # ⟨p⟩ is the domain of p: one backward sweep from the universe.
        backward = compile_path_plan(index, converse(expr.path))
        return lambda ev, sc: backward(ev, sc.mask, sc)

    if isinstance(expr, ast.Within):
        test = expr.test
        compile_node_plan(index, test)

        def run_within(ev, sc: Scope) -> int:
            # n ⊨ W φ iff n ⊨ φ under scope n; per-node scoped evaluation,
            # with each (φ, scope-root) result memoized on the evaluator.
            budget = ev.budget
            acc = 0
            scope_of = ev.index.scope
            for v in iter_bits(sc.mask):
                if budget is not None:
                    budget.tick()
                if (1 << v) & ev._node_mask(test, scope_of(v)):
                    acc |= 1 << v
            return acc

        return run_within

    raise TypeError(f"unknown node expression: {expr!r}")


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class BitsetEvaluator(Evaluator):
    """The ``bitset`` backend: compiled plans over big-int bitmasks.

    Same public API and semantics as the ``sets`` backend (construct via
    ``Evaluator(tree, backend="bitset")``); see the package docstring for
    the representation and DESIGN.md for the preorder-interval tricks.
    """

    backend = "bitset"

    def __init__(
        self,
        tree: Tree,
        backend: str | None = None,
        budget: ExecutionBudget | None = None,
    ):
        super().__init__(tree, backend, budget)
        self.index = tree_index(tree)
        # Node-set results per (expression, scope root), as masks.
        self._node_masks: dict[tuple[ast.NodeExpr, int], int] = {}

    # -- public API -------------------------------------------------------

    def nodes(self, expr: ast.NodeExpr, scope: int | None = None) -> frozenset[int]:
        return to_frozenset(self.node_mask(expr, scope))

    def node_mask(self, expr: ast.NodeExpr, scope: int | None = None) -> int:
        """The satisfying set as a raw bitmask (bitset-backend extra)."""
        faults.check("xpath.bitset")
        with obs.span("xpath.nodes", budget=self.budget, backend=self.backend):
            mask = self._node_mask(expr, self.index.scope(scope))
            if self.budget is not None:
                self.budget.check_size(mask.bit_count())
            return mask

    def image(
        self, expr: ast.PathExpr, sources: Iterable[int], scope: int | None = None
    ) -> set[int]:
        return to_set(self.image_mask(expr, from_ids(sources), scope))

    def image_mask(self, expr: ast.PathExpr, sources: int, scope: int | None = None) -> int:
        """Mask-in, mask-out image (bitset-backend extra)."""
        faults.check("xpath.bitset")
        with obs.span("xpath.image", budget=self.budget, backend=self.backend):
            sc = self.index.scope(scope)
            mask = compile_path_plan(self.index, expr)(self, sources & sc.mask, sc)
            if self.budget is not None:
                self.budget.check_size(mask.bit_count())
            return mask

    def pairs(self, expr: ast.PathExpr, scope: int | None = None) -> set[tuple[int, int]]:
        faults.check("xpath.bitset")
        expr = canonicalize_path(expr)
        with obs.span("xpath.pairs", budget=self.budget, backend=self.backend):
            if isinstance(expr, ast.Step):
                from ...trees.axes import interval_axis_pairs

                fast = interval_axis_pairs(self.tree, expr.axis, scope)
                if fast is not None:
                    return fast
            # One compiled-plan sweep per source: the plan is compiled (and
            # its node sets memoized) once, shared by all |universe| sweeps.
            budget = self.budget
            sc = self.index.scope(scope)
            plan = compile_path_plan(self.index, expr)
            result: set[tuple[int, int]] = set()
            for v in iter_bits(sc.mask):
                if budget is not None:
                    budget.tick()
                img = plan(self, 1 << v, sc)
                if img:
                    result.update((v, m) for m in iter_bits(img))
            if budget is not None:
                budget.check_size(len(result), "pair relation")
            return result

    def _image_internal(
        self, expr: ast.PathExpr, sources: Iterable[int], scope: int | None
    ) -> set[int]:
        sc = self.index.scope(scope)
        plan = compile_path_plan(self.index, expr)
        return to_set(plan(self, from_ids(sources) & sc.mask, sc))

    # -- internals -------------------------------------------------------

    def _node_mask(self, expr: ast.NodeExpr, sc: Scope) -> int:
        key = (expr, sc.root)
        mask = self._node_masks.get(key)
        if mask is None:
            mask = compile_node_plan(self.index, expr)(self, sc)
            self._node_masks[key] = mask
        return mask
