"""The optimized query evaluation engines.

Core XPath was isolated by Gottlob, Koch and Pichler precisely because it
admits evaluation in time O(|Q| · |T|); this module realizes that style of
algorithm for the full Regular XPath(W) dialect, in two interchangeable
backends behind one front door::

    Evaluator(tree)                    # backend="sets" (the default)
    Evaluator(tree, backend="bitset")  # compiled plans over big-int bitmasks

Both backends share the same algorithmic skeleton:

* node expressions are evaluated bottom-up into node sets, one set per
  subexpression (memoized per evaluation scope, keyed *structurally* on the
  expression so syntactically equal subqueries share work);
* path expressions are never materialized as relations — only their *images*
  and *pre-images* of node sets are computed, with Kleene star as a BFS
  fixpoint (each star costs O(|edges|) per saturation rather than a
  quadratic closure);
* pre-images use the syntactic converse of the path (every axis has an
  inverse), so ``⟨p⟩`` costs one backward saturation from the universe;
* the ``W`` operator is evaluated by *scoped* navigation (clipping steps at
  the subtree boundary) instead of materializing subtrees.

The ``sets`` backend (:class:`SetEvaluator`, below) walks the AST with
``set[int]`` node sets and per-node axis generators.  The ``bitset`` backend
(:class:`repro.xpath.engine.BitsetEvaluator`) compiles the AST once into a
plan of closures over big-int bitmasks and evaluates whole axes as
shift-and-mask kernels; see :mod:`repro.xpath.engine` and DESIGN.md.  Both
are cross-validated against the denotational reference semantics
(:mod:`repro.xpath.reference`) — and against each other — by the
property-test suite.

Both backends evaluate the *canonical form* of each query
(:func:`repro.xpath.optimizer.canonicalize`: the sound rewrite system plus
an ordering of commutative operands): public entry points canonicalize
before evaluating (the bitset backend equivalently through canonical plan-cache
aliasing), so syntactic variants of one query share memo entries and
compiled plans — and the two backends emit identical span structures for
any input, which the differential corpus asserts.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .. import obs
from ..runtime.budget import ExecutionBudget
from ..trees.axes import axis_steps, interval_axis_pairs, inverse_axis
from ..trees.tree import Tree
from . import ast
from .optimizer import canonicalize_node, canonicalize_path

__all__ = [
    "Evaluator",
    "SetEvaluator",
    "evaluate_nodes",
    "evaluate_path",
    "evaluate_pairs",
    "select",
    "converse",
]

#: The available evaluation backends (constructor ``backend=`` values).
BACKENDS = ("sets", "bitset")


def converse(expr: ast.PathExpr) -> ast.PathExpr:
    """The syntactic converse: ``[[converse(p)]] = [[p]]⁻¹``.

    Possible because every axis has an inverse axis; this is what makes
    pre-image computation (and hence ``⟨p⟩``) cheap.
    """
    if isinstance(expr, ast.Step):
        return ast.Step(inverse_axis(expr.axis))
    if isinstance(expr, ast.Seq):
        return ast.Seq(converse(expr.right), converse(expr.left))
    if isinstance(expr, ast.Union):
        return ast.Union(converse(expr.left), converse(expr.right))
    if isinstance(expr, ast.Star):
        return ast.Star(converse(expr.path))
    if isinstance(expr, (ast.Check, ast.EmptyPath)):
        return expr
    if isinstance(expr, ast.Intersect):
        return ast.Intersect(converse(expr.left), converse(expr.right))
    if isinstance(expr, ast.Complement):
        return ast.Complement(converse(expr.path))
    raise TypeError(f"unknown path expression: {expr!r}")


def _backend_class(name: str) -> type:
    if name == "sets":
        return SetEvaluator
    if name == "bitset":
        from .engine import BitsetEvaluator

        return BitsetEvaluator
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")


class Evaluator:
    """Evaluates Regular XPath(W) expressions on one tree.

    ``Evaluator(tree, backend=...)`` dispatches to the chosen backend
    implementation (a subclass); both share this public API.  An evaluator
    owns per-tree memo tables (node sets per ``(expression, scope)``), so
    reuse the same instance when issuing many queries against the same
    document.
    """

    #: Name of the backend an instance implements (set by subclasses).
    backend = ""

    def __new__(
        cls,
        tree: Tree,
        backend: str | None = None,
        budget: ExecutionBudget | None = None,
    ):
        if cls is Evaluator:
            return super().__new__(_backend_class(backend or "sets"))
        return super().__new__(cls)

    def __init__(
        self,
        tree: Tree,
        backend: str | None = None,
        budget: ExecutionBudget | None = None,
    ):
        if backend is not None and backend != self.backend:
            raise ValueError(
                f"{type(self).__name__} implements backend {self.backend!r}, "
                f"not {backend!r}"
            )
        self.tree = tree
        #: Optional resource envelope; hot loops checkpoint against it.
        self.budget = budget

    # -- public API (shared by both backends) ------------------------------

    def nodes(self, expr: ast.NodeExpr, scope: int | None = None) -> frozenset[int]:
        """The set of nodes satisfying ``expr`` (within ``scope`` if given)."""
        raise NotImplementedError

    def image(
        self, expr: ast.PathExpr, sources: Iterable[int], scope: int | None = None
    ) -> set[int]:
        """All nodes reachable from ``sources`` via ``expr``."""
        raise NotImplementedError

    def preimage(
        self, expr: ast.PathExpr, targets: Iterable[int], scope: int | None = None
    ) -> set[int]:
        """All nodes from which ``expr`` reaches into ``targets``."""
        return self.image(converse(expr), targets, scope)

    def pairs(self, expr: ast.PathExpr, scope: int | None = None) -> set[tuple[int, int]]:
        """The full relation denoted by ``expr``.

        Bare transitive axes (``descendant``, ``ancestor``, ``following``,
        ``preceding`` and the ``or_self`` closures) take an output-linear
        interval fast path; everything else falls back to one image
        computation per source node.
        """
        expr = canonicalize_path(expr)
        with obs.span("xpath.pairs", budget=self.budget, backend=self.backend):
            if isinstance(expr, ast.Step):
                fast = interval_axis_pairs(self.tree, expr.axis, scope)
                if fast is not None:
                    return fast
            return self._pairs_by_source(expr, scope)

    def holds_at(self, expr: ast.NodeExpr, node_id: int) -> bool:
        """Does ``expr`` hold at ``node_id`` (whole-tree scope)?"""
        with obs.span("xpath.holds_at", budget=self.budget, backend=self.backend):
            return node_id in self.nodes(expr)

    # -- shared internals ---------------------------------------------------

    def _universe(self, scope: int | None) -> range:
        return self.tree.node_ids if scope is None else self.tree.subtree_ids(scope)

    def _image_internal(
        self, expr: ast.PathExpr, sources: Iterable[int], scope: int | None
    ) -> set[int]:
        """Image computation without the public-entry span (subclass hook)."""
        return self.image(expr, sources, scope)

    def _pairs_by_source(
        self, expr: ast.PathExpr, scope: int | None
    ) -> set[tuple[int, int]]:
        budget = self.budget
        result: set[tuple[int, int]] = set()
        for n in self._universe(scope):
            if budget is not None:
                budget.tick()
            for m in self._image_internal(expr, (n,), scope):
                result.add((n, m))
        if budget is not None:
            budget.check_size(len(result), "pair relation")
        return result


class SetEvaluator(Evaluator):
    """The ``sets`` backend: AST-walking evaluation over ``set[int]``.

    Straightforward and allocation-heavy; kept both as the readable
    specification of the evaluation strategy and as a cross-check for the
    compiled bitset backend.
    """

    backend = "sets"

    def __init__(
        self,
        tree: Tree,
        backend: str | None = None,
        budget: ExecutionBudget | None = None,
    ):
        super().__init__(tree, backend, budget)
        # Memoized node sets, keyed structurally: AST nodes are frozen
        # dataclasses, so syntactically equal subexpressions (even distinct
        # objects) share one entry per scope.
        self._node_cache: dict[tuple[ast.NodeExpr, int | None], frozenset[int]] = {}

    # -- public API -------------------------------------------------------

    def nodes(self, expr: ast.NodeExpr, scope: int | None = None) -> frozenset[int]:
        expr = canonicalize_node(expr)
        with obs.span("xpath.nodes", budget=self.budget, backend=self.backend):
            return self._nodes(expr, scope)

    def image(
        self, expr: ast.PathExpr, sources: Iterable[int], scope: int | None = None
    ) -> set[int]:
        expr = canonicalize_path(expr)
        with obs.span("xpath.image", budget=self.budget, backend=self.backend):
            result = self._image(expr, set(sources), scope)
            if self.budget is not None:
                self.budget.check_size(len(result))
            return result

    # -- internals -------------------------------------------------------

    def _nodes(self, expr: ast.NodeExpr, scope: int | None) -> frozenset[int]:
        # The memoized recursion target: public ``nodes`` adds the span,
        # recursive evaluation re-enters here (no nested public spans, so
        # both backends emit the same span structure).
        key = (expr, scope)
        cached = self._node_cache.get(key)
        if cached is not None:
            return cached
        budget = self.budget
        if budget is not None:
            budget.tick()
        result = frozenset(self._node(expr, scope))
        if budget is not None:
            budget.check_size(len(result))
        self._node_cache[key] = result
        return result

    def _image_internal(
        self, expr: ast.PathExpr, sources: Iterable[int], scope: int | None
    ) -> set[int]:
        return self._image(expr, set(sources), scope)

    def _node(self, expr: ast.NodeExpr, scope: int | None) -> set[int]:
        tree = self.tree
        if isinstance(expr, ast.Label):
            return {n for n in self._universe(scope) if tree.labels[n] == expr.name}
        if isinstance(expr, ast.TrueNode):
            return set(self._universe(scope))
        if isinstance(expr, ast.Not):
            return set(self._universe(scope)) - self._nodes(expr.operand, scope)
        if isinstance(expr, ast.And):
            return set(self._nodes(expr.left, scope) & self._nodes(expr.right, scope))
        if isinstance(expr, ast.Or):
            return set(self._nodes(expr.left, scope) | self._nodes(expr.right, scope))
        if isinstance(expr, ast.Exists):
            universe = set(self._universe(scope))
            # The converse of a canonical path need not be canonical;
            # re-canonicalize so the walked structure matches the plan the
            # bitset backend compiles for the same ⟨p⟩ (span parity).
            return self._image(canonicalize_path(converse(expr.path)), universe, scope)
        if isinstance(expr, ast.Within):
            # n ⊨ W φ iff n ⊨ φ under scope n.  Each node gets its own scope.
            budget = self.budget
            result = set()
            for n in self._universe(scope):
                if budget is not None:
                    budget.tick()
                if n in self._nodes(expr.test, n):
                    result.add(n)
            return result
        raise TypeError(f"unknown node expression: {expr!r}")

    def _image(
        self, expr: ast.PathExpr, sources: set[int], scope: int | None
    ) -> set[int]:
        tree = self.tree
        if not sources:
            return set()
        if isinstance(expr, ast.Step):
            result: set[int] = set()
            for n in sources:
                result.update(axis_steps(tree, n, expr.axis, scope))
            return result
        if isinstance(expr, ast.Seq):
            return self._image(expr.right, self._image(expr.left, sources, scope), scope)
        if isinstance(expr, ast.Union):
            return self._image(expr.left, sources, scope) | self._image(
                expr.right, sources, scope
            )
        if isinstance(expr, ast.Star):
            return self._saturate(expr.path, sources, scope)
        if isinstance(expr, ast.Check):
            return sources & self._nodes(expr.test, scope)
        if isinstance(expr, ast.EmptyPath):
            return set()
        if isinstance(expr, ast.Intersect):
            # Relation intersection is per-source: image(p∩q, S) is NOT
            # image(p,S) ∩ image(q,S) when |S| > 1.
            budget = self.budget
            result = set()
            for n in sources:
                if budget is not None:
                    budget.tick()
                result |= self._image(expr.left, {n}, scope) & self._image(
                    expr.right, {n}, scope
                )
            return result
        if isinstance(expr, ast.Complement):
            budget = self.budget
            universe = set(self._universe(scope))
            result = set()
            for n in sources:
                if budget is not None:
                    budget.tick()
                result |= universe - self._image(expr.path, {n}, scope)
            return result
        raise TypeError(f"unknown path expression: {expr!r}")

    def _saturate(
        self, expr: ast.PathExpr, sources: set[int], scope: int | None
    ) -> set[int]:
        """BFS fixpoint for ``expr*``: the forward closure of ``sources``."""
        budget = self.budget
        with obs.span("xpath.star.sweep", budget=budget, backend=self.backend) as sweep:
            reached = set(sources)
            frontier = deque([sources])
            rounds = 0
            while frontier:
                if budget is not None:
                    budget.tick()
                rounds += 1
                batch = frontier.popleft()
                fresh = self._image(expr, batch, scope) - reached
                if fresh:
                    reached |= fresh
                    frontier.append(fresh)
            sweep.set(rounds=rounds, reached=len(reached))
        return reached


# ---------------------------------------------------------------------------
# Convenience one-shot functions
# ---------------------------------------------------------------------------


def evaluate_nodes(
    tree: Tree,
    expr: ast.NodeExpr,
    backend: str = "sets",
    budget: ExecutionBudget | None = None,
) -> frozenset[int]:
    """One-shot node-set evaluation on ``tree``."""
    return Evaluator(tree, backend=backend, budget=budget).nodes(expr)


def evaluate_path(
    tree: Tree,
    expr: ast.PathExpr,
    sources: Iterable[int],
    backend: str = "sets",
    budget: ExecutionBudget | None = None,
) -> set[int]:
    """One-shot image computation: nodes reachable from ``sources``."""
    return Evaluator(tree, backend=backend, budget=budget).image(expr, sources)


def evaluate_pairs(
    tree: Tree,
    expr: ast.PathExpr,
    backend: str = "sets",
    budget: ExecutionBudget | None = None,
) -> set[tuple[int, int]]:
    """One-shot full-relation evaluation (prefer images when possible)."""
    return Evaluator(tree, backend=backend, budget=budget).pairs(expr)


def select(
    tree: Tree,
    expr: ast.PathExpr,
    backend: str = "sets",
    budget: ExecutionBudget | None = None,
) -> set[int]:
    """XPath-style selection: nodes reachable from the *root* via ``expr``."""
    return Evaluator(tree, backend=backend, budget=budget).image(expr, {0})
