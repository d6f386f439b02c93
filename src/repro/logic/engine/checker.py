"""The bitset FO(MTC) model-checking backend.

Mirrors the design of the XPath bitset engine (:mod:`repro.xpath.engine`):
evaluation is still database-style bottom-up — every subformula becomes the
relation of its satisfying assignments — but relations are columnar
:class:`~repro.logic.engine.bittable.BitsetTable` masks instead of frozensets
of tuples, and the structural atoms come straight from the shared per-tree
:class:`~repro.trees.index.TreeIndex`:

* label atoms are one dict lookup into the per-label masks;
* a guarded ``∃z (β(x, z) ∧ ψ(z))`` whose β is path-shaped (the grammar of
  :func:`semijoin_plan`) is a **semi-join**: the one-column table
  ``guards(x) ∧ pre_β(mask of the z-guards)``, with ``pre_β`` run on the
  index's axis kernels and a parameter-free ``[TC]`` in β run as one
  frontier sweep of its step from the target mask — no binary table;
* everything else keeps the join/project algebra:
  ``child``/``right``/``descendant``/``following_sibling`` atoms are the
  index's per-source target-mask maps, ``∧`` is a bucketed mask join,
  ``¬`` is mask complement, ``∃`` is a column drop, ``∨`` a per-bucket OR,
  and ``[TC]`` runs as batched *semi-naive* frontier sweeps: per source,
  each BFS level unions whole successor masks and only the newly reached
  frontier is expanded in the next round — no tuple-at-a-time closure.

Construct via ``ModelChecker(tree, backend="bitset")``; the row-wise table
backend remains the default and the cross-validation oracle.
"""

from __future__ import annotations

from ... import obs
from ...runtime import faults
from ...runtime.budget import ExecutionBudget
from ...trees.axes import Axis
from ...trees.index import AXIS_KERNELS, tree_index
from ...xpath.engine.bitset import iter_bits
from .. import ast
from ..modelcheck import ModelChecker
from ..tables import Table
from ..transform import conjuncts
from .bittable import BitsetTable

__all__ = ["BitsetModelChecker", "columns", "mask_closure", "semijoin_plan"]


def mask_closure(
    successors: dict[int, int], budget: ExecutionBudget | None = None
) -> dict[int, int]:
    """Strict transitive closure of a successor-mask map.

    Two regimes:

    * **forward-only** (every edge goes to a strictly larger id — true for
      all of the signature's relations, whose targets lie later in
      preorder): the graph is acyclic in id order, so one reverse-id sweep
      with ``closure[v] = succ[v] ∪ ⋃ closure[w]`` costs O(edges) mask ORs;
    * otherwise: a semi-naive batched sweep per source — each round ORs the
      successor masks of the *frontier* only, then prunes the frontier
      against the reached mask, so every node is expanded at most once per
      source and each BFS level costs a handful of big-int operations.
    """
    forward = True
    for v, mask in successors.items():
        if mask & ((2 << v) - 1):  # any edge to an id <= v
            forward = False
            break
    closure: dict[int, int] = {}
    regime = "forward" if forward else "semi-naive"
    with obs.span(
        "logic.tc.sweep", budget=budget, regime=regime, sources=len(successors)
    ):
        if forward:
            for v in sorted(successors, reverse=True):
                if budget is not None:
                    budget.tick()
                mask = successors[v]
                reached = mask
                for w in iter_bits(mask):
                    later = closure.get(w)
                    if later:
                        reached |= later
                closure[v] = reached
            return closure
        for source, first in successors.items():
            if budget is not None:
                budget.tick()
            reached = 0
            frontier = first
            while frontier:
                reached |= frontier
                fresh = 0
                for v in iter_bits(frontier):
                    nxt = successors.get(v)
                    if nxt is not None:
                        fresh |= nxt
                frontier = fresh & ~reached
            closure[source] = reached
    return closure


#: The pre-image kernel of each relation atom: for ``name(x, z)`` the x's
#: with a z in the mask are the inverse axis image (first entry), for
#: ``name(z, x)`` the forward image (second entry).
_PRE_KERNELS = {
    "child": (AXIS_KERNELS[Axis.PARENT], AXIS_KERNELS[Axis.CHILD]),
    "right": (AXIS_KERNELS[Axis.LEFT], AXIS_KERNELS[Axis.RIGHT]),
    "descendant": (AXIS_KERNELS[Axis.ANCESTOR], AXIS_KERNELS[Axis.DESCENDANT]),
    "following_sibling": (
        AXIS_KERNELS[Axis.PRECEDING_SIBLING],
        AXIS_KERNELS[Axis.FOLLOWING_SIBLING],
    ),
}


def columns(formula: ast.Formula) -> frozenset[str]:
    """The columns of ``formula``'s table under the join/project algebra.

    These are its free variables, except that ``v = v`` constrains nothing
    (it evaluates to the 0-column ``true``).  A semi-join must produce the
    table the algebra would, so its shape decisions read these.
    """
    if isinstance(formula, ast.Eq):
        if formula.left == formula.right:
            return frozenset()
        return frozenset({formula.left, formula.right})
    if isinstance(formula, (ast.Not, ast.And, ast.Or, ast.TrueFormula)):
        result = frozenset()
        for child in formula.children():
            result |= columns(child)
        return result
    if isinstance(formula, (ast.Exists, ast.Forall)):
        return columns(formula.body) - {formula.var}
    if isinstance(formula, ast.TC):
        params = columns(formula.body) - {formula.x, formula.y}
        return params | {formula.source, formula.target}
    return ast.free_variables(formula)  # label and relation atoms


def semijoin_plan(formula: ast.Formula, x: str, z: str, in_tc: bool = False):
    """The pre-image plan of ``formula(x, z)``, or None outside its grammar.

    Pure: it decides from the formula's shape alone and evaluates nothing.
    The plan computes ``pre(S) = {x | ∃z ∈ S. formula(x, z)}`` on node
    masks, following the compositional core of the T2 translation
    (:mod:`repro.translations.mtc_to_xpath`)::

        β(x,z) := R(x,z) | R(z,x) | x=z | β ∨ β
                | ψ(x) ∧ β(x,z) ∧ ψ(z)              (unary guards)
                | ∃w (β₁(x,w) ∧ β₂(w,z))             (threaded join)
                | [TC_{u,v} β(u,v)](x,z) and its converse, without parameters
                | cylinders ψ(x), ψ(z)

    Plans are nested tuples: ``("axis", kernel)``, ``("self",)``,
    ``("or", p, q)``, ``("seq", p, q)`` for ``p(q(S))``, ``("tc", step)``
    and ``("guard", x_guards, inner, z_guards)`` for
    ``x_guards ∧ inner(S ∧ z_guards)``, where the guards are tuples of
    unary formulas and ``inner`` None is the total relation.  Outside the
    grammar — a conjunction of two binary formulas (path intersection), a
    negated binary formula, a ``[TC]`` with parameters, or a ``[TC]`` in
    path position inside another ``[TC]``'s body (``in_tc``) — the answer is
    None and the caller keeps the join/project algebra.
    """
    if isinstance(formula, ast.And):
        return _conjunction_plan(list(conjuncts(formula)), x, z, in_tc)
    free = columns(formula)
    if x not in free or z not in free:
        return _conjunction_plan([formula], x, z, in_tc)
    if len(free) > 2:
        return None
    if isinstance(formula, ast.Rel):
        inverse, forward = _PRE_KERNELS[formula.name]
        return ("axis", inverse if formula.left == x else forward)
    if isinstance(formula, ast.Eq):
        return ("self",)
    if isinstance(formula, ast.Or):
        left = semijoin_plan(formula.left, x, z, in_tc)
        right = semijoin_plan(formula.right, x, z, in_tc)
        if left is None or right is None:
            return None
        return ("or", left, right)
    if isinstance(formula, ast.Exists):
        # x and z are free, so the bound w is neither of them.
        w = formula.var
        first: list[ast.Formula] = []  # free ⊆ {x, w}
        second: list[ast.Formula] = []  # free ⊆ {w, z}
        for part in conjuncts(formula.body):
            part_free = columns(part)
            if x in part_free and z in part_free:
                return None
            (second if z in part_free else first).append(part)
        left = _conjunction_plan(first, x, w, in_tc)
        right = _conjunction_plan(second, w, z, in_tc)
        if left is None or right is None:
            return None
        return ("seq", left, right)
    if isinstance(formula, ast.TC):
        if in_tc or columns(formula.body) - {formula.x, formula.y}:
            return None
        # Without parameters the endpoints are exactly x and z: close the
        # step's pre-image, or its post-image for the converse.
        if formula.source == x:
            step = semijoin_plan(formula.body, formula.x, formula.y, True)
        else:
            step = semijoin_plan(formula.body, formula.y, formula.x, True)
        return None if step is None else ("tc", step)
    return None


def _conjunction_plan(parts: list[ast.Formula], x: str, z: str, in_tc: bool):
    """Split conjuncts into guards on x, guards on z and at most one binary
    formula (two would be a path intersection)."""
    x_guards: list[ast.Formula] = []
    z_guards: list[ast.Formula] = []
    binary: list[ast.Formula] = []
    for part in parts:
        free = columns(part)
        if not free <= {x, z}:
            return None
        if z not in free:
            x_guards.append(part)  # sentences guard x too
        elif x not in free:
            z_guards.append(part)
        else:
            binary.append(part)
    if len(binary) > 1:
        return None
    inner = None
    if binary:
        inner = semijoin_plan(binary[0], x, z, in_tc)
        if inner is None:
            return None
        if not x_guards and not z_guards:
            return inner
    return ("guard", tuple(x_guards), inner, tuple(z_guards))


class BitsetModelChecker(ModelChecker):
    """The ``bitset`` checker backend: columnar tables over the shared index."""

    backend = "bitset"

    def __init__(
        self,
        tree,
        backend: str | None = None,
        budget: ExecutionBudget | None = None,
    ):
        super().__init__(tree, backend, budget)
        self.index = tree_index(tree)
        self._bcache: dict[ast.Formula, BitsetTable] = {}
        self._table_cache: dict[ast.Formula, Table] = {}

    # -- public API ------------------------------------------------------------

    def table(self, formula: ast.Formula) -> Table:
        """The row-wise table of satisfying assignments (converted once)."""
        faults.check("logic.bitset")
        with obs.span("logic.table", budget=self.budget, backend=self.backend):
            cached = self._table_cache.get(formula)
            if cached is None:
                cached = self.btable(formula).to_table()
                self._table_cache[formula] = cached
            return cached

    def btable(self, formula: ast.Formula) -> BitsetTable:
        """The columnar table of satisfying assignments (memoized
        structurally, as the compiled XPath plans are)."""
        cached = self._bcache.get(formula)
        if cached is None:
            cached = self._eval(formula)
            self._bcache[formula] = cached
        return cached

    def holds(self, formula: ast.Formula, env: dict[str, int] | None = None) -> bool:
        faults.check("logic.bitset")
        with obs.span("logic.holds", budget=self.budget, backend=self.backend):
            env = env or {}
            table = self.btable(formula)
            missing = [c for c in table.columns if c not in env]
            if missing:
                raise ValueError(f"unassigned free variables: {missing}")
            for var in table.columns:
                table = table.select_eq(var, env[var])
            return table.truth

    def node_set(self, formula: ast.Formula, var: str) -> set[int]:
        faults.check("logic.bitset")
        with obs.span("logic.node_set", budget=self.budget, backend=self.backend):
            table = self.btable(formula)
            if table.columns == ():
                return set(self.universe) if table.truth else set()
            if table.columns != (var,):
                raise ValueError(
                    f"expected free variables ({var},), got {table.columns}"
                )
            mask = table.data.get((), 0)
            if self.budget is not None:
                self.budget.check_size(mask.bit_count())
            return set(iter_bits(mask))

    def node_mask(self, formula: ast.Formula, var: str) -> int:
        """The satisfying set as a raw bitmask (bitset-backend extra)."""
        with obs.span("logic.node_set", budget=self.budget, backend=self.backend):
            table = self.btable(formula)
            if table.columns == ():
                return self.index.full if table.truth else 0
            if table.columns != (var,):
                raise ValueError(
                    f"expected free variables ({var},), got {table.columns}"
                )
            return table.data.get((), 0)

    def pairs(self, formula: ast.Formula, x: str, y: str) -> set[tuple[int, int]]:
        faults.check("logic.bitset")
        with obs.span("logic.pairs", budget=self.budget, backend=self.backend):
            table = self.btable(formula)
            table = table.pad(
                tuple(sorted(set(table.columns) | {x, y})),
                self.index.n,
                self.index.full,
            )
            extra = [c for c in table.columns if c not in (x, y)]
            if extra:
                raise ValueError(f"unexpected free variables {extra}")
            result = table.pairs(x, y)
            if self.budget is not None:
                self.budget.check_size(len(result), "pair relation")
            return result

    # -- evaluation ---------------------------------------------------------------

    def _eval(self, formula: ast.Formula) -> BitsetTable:
        index = self.index
        n, full = index.n, index.full
        if self.budget is not None:
            # One checkpoint per (uncached) subformula evaluation.
            self.budget.tick()
        if isinstance(formula, ast.LabelAtom):
            return BitsetTable.unary(
                formula.var, index.label_masks.get(formula.label, 0)
            )
        if isinstance(formula, ast.Rel):
            return BitsetTable.from_source_masks(
                formula.left, formula.right, index.relation_masks(formula.name)
            )
        if isinstance(formula, ast.Eq):
            if formula.left == formula.right:
                return BitsetTable.boolean(True)
            return BitsetTable.from_source_masks(
                formula.left, formula.right, {v: 1 << v for v in range(n)}
            )
        if isinstance(formula, ast.TrueFormula):
            return BitsetTable.boolean(True)
        if isinstance(formula, ast.Not):
            return self.btable(formula.operand).complement(n, full)
        if isinstance(formula, ast.And):
            return self.btable(formula.left).join(self.btable(formula.right))
        if isinstance(formula, ast.Or):
            return self.btable(formula.left).union(
                self.btable(formula.right), n, full
            )
        if isinstance(formula, ast.Exists):
            free = columns(formula)
            if len(free) == 1:
                (x,) = free
                plan = semijoin_plan(formula.body, x, formula.var)
                if plan is not None:
                    return BitsetTable.unary(x, self._run(self._bind(plan), full))
            return self.btable(formula.body).project_away(formula.var)
        if isinstance(formula, ast.Forall):
            inner = self.btable(formula.body).complement(n, full)
            return inner.project_away(formula.var).complement(n, full)
        if isinstance(formula, ast.TC):
            return self._eval_tc(formula)
        raise TypeError(f"unknown formula: {formula!r}")

    # -- semi-joins --------------------------------------------------------------

    def _bind(self, plan):
        """The plan with every guard evaluated to its mask.

        All guards are evaluated here, before any sweep of the plan opens
        its span, so a guard's own ``[TC]`` sweeps never nest inside it.
        """
        op = plan[0]
        if op == "guard":
            _, x_guards, inner, z_guards = plan
            return (
                "guard",
                self._guard_mask(x_guards),
                None if inner is None else self._bind(inner),
                self._guard_mask(z_guards),
            )
        if op in ("or", "seq"):
            return (op, self._bind(plan[1]), self._bind(plan[2]))
        if op == "tc":
            return ("tc", self._bind(plan[1]))
        return plan

    def _guard_mask(self, guards) -> int:
        full = self.index.full
        mask = full
        for guard in guards:
            table = self.btable(guard)
            if table.columns:
                mask &= table.data.get((), 0)
            elif not table.data:
                mask = 0
        return mask

    def _run(self, plan, targets: int) -> int:
        """``pre(targets)`` for a bound plan (see :func:`semijoin_plan`)."""
        op = plan[0]
        if op == "axis":
            index = self.index
            return plan[1](index, targets, index.scope(None))
        if op == "guard":
            _, x_mask, inner, z_mask = plan
            targets &= z_mask
            if inner is None:
                return x_mask if targets else 0
            return self._run(inner, targets) & x_mask
        if op == "or":
            return self._run(plan[1], targets) | self._run(plan[2], targets)
        if op == "seq":
            return self._run(plan[1], self._run(plan[2], targets))
        if op == "tc":
            return self._sweep(plan[1], targets)
        return targets  # "self"

    def _sweep(self, step, targets: int) -> int:
        """The strict closure of ``step``'s pre-image from ``targets``: one
        frontier sweep, one budget tick per round."""
        faults.check("logic.bitset.tc")
        frontier = self._run(step, targets)
        if not frontier and not self._run(step, self.index.full):
            # An empty step relation has no closure to sweep, so the table
            # checker opens no sweep span for it either.
            return 0
        budget = self.budget
        reached = 0
        with obs.span("logic.tc.sweep", budget=budget, regime="frontier"):
            while frontier:
                if budget is not None:
                    budget.tick()
                reached |= frontier
                frontier = self._run(step, frontier) & ~reached
        return reached

    def _eval_tc(self, formula: ast.TC) -> BitsetTable:
        faults.check("logic.bitset.tc")
        n, full = self.index.n, self.index.full
        body = self.btable(formula.body)
        cols = tuple(sorted(set(body.columns) | {formula.x, formula.y}))
        body = body.pad(cols, n, full)
        key_cols = cols[:-1]
        params = tuple(c for c in cols if c not in (formula.x, formula.y))

        # Regroup body buckets into per-parameter-valuation successor maps.
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        last = cols[-1]
        if last == formula.y:
            xpos = key_cols.index(formula.x)
            ppos = [i for i, c in enumerate(key_cols) if c != formula.x]
            for key, mask in body.data.items():
                pkey = tuple(key[i] for i in ppos)
                succ = groups.setdefault(pkey, {})
                succ[key[xpos]] = succ.get(key[xpos], 0) | mask
        elif last == formula.x:
            ypos = key_cols.index(formula.y)
            ppos = [i for i, c in enumerate(key_cols) if c != formula.y]
            for key, mask in body.data.items():
                pkey = tuple(key[i] for i in ppos)
                succ = groups.setdefault(pkey, {})
                target = 1 << key[ypos]
                for a in iter_bits(mask):
                    succ[a] = succ.get(a, 0) | target
        else:
            # The mask column is the largest *parameter* (params[-1]).
            xpos = key_cols.index(formula.x)
            ypos = key_cols.index(formula.y)
            ppos = [
                i for i, c in enumerate(key_cols) if c not in (formula.x, formula.y)
            ]
            for key, mask in body.data.items():
                prefix = tuple(key[i] for i in ppos)
                target = 1 << key[ypos]
                for pv in iter_bits(mask):
                    succ = groups.setdefault(prefix + (pv,), {})
                    succ[key[xpos]] = succ.get(key[xpos], 0) | target

        src, tgt = formula.source, formula.target
        result_cols = tuple(sorted(set(params) | {src, tgt}))
        result_last = result_cols[-1]
        out: dict[tuple[int, ...], int] = {}
        tgt_is_mask = result_last == tgt and tgt != src and tgt not in params

        for pkey, successors in groups.items():
            closure = mask_closure(successors, self.budget)
            env_base = dict(zip(params, pkey))
            pinned_src = env_base.get(src)
            for a, reached in closure.items():
                if pinned_src is not None and pinned_src != a:
                    continue
                env = dict(env_base)
                env[src] = a
                if tgt in env:
                    # tgt pinned (a parameter, or tgt == src): one bit test.
                    if not (reached >> env[tgt]) & 1:
                        continue
                    key = tuple(env[c] for c in result_cols[:-1])
                    out[key] = out.get(key, 0) | (1 << env[result_last])
                elif tgt_is_mask:
                    # Fast path: the whole reachable mask is the bucket.
                    key = tuple(env[c] for c in result_cols[:-1])
                    out[key] = out.get(key, 0) | reached
                else:
                    for b in iter_bits(reached):
                        env[tgt] = b
                        key = tuple(env[c] for c in result_cols[:-1])
                        out[key] = out.get(key, 0) | (1 << env[result_last])
        if not result_cols:
            return BitsetTable.boolean(bool(out))
        return BitsetTable(result_cols, out)
