"""FO(MTC) → Regular XPath: the paper's hard direction, on a fragment (T2).

The full theorem — *every* FO(MTC) formula with at most two free variables is
expressible in Regular XPath(W) — is the paper's central technical
contribution; its proof goes through a game-theoretic normal form whose
faithful implementation is out of scope (see the substitution table in
DESIGN.md).  What we implement is the *compositional core* of the
translation, which covers every formula built by the grammar

    φ(x,y) := R(x,y) | R(y,x) | x=y | φ ∨ φ
             | ψ(x) ∧ φ(x,y) ∧ ψ(y)                  (unary guards)
             | ∃z (φ₁(x,z) ∧ φ₂(z,y))                 (threaded join)
             | [TC_{u,v} φ(u,v)](x,y)  and its converse
             | cylinders ψ(x), ψ(y) over unary formulas

    ψ(x)  := P_a(x) | x=x | ¬ψ | ψ ∧ ψ | ψ ∨ ψ | ∃y φ(x,y) | sentences

with R ranging over child/right/descendant/following_sibling.  This fragment
is exactly the image of the forward translation for W-free expressions, so
round-tripping ``xpath → mtc → xpath`` exercises every constructor (the T2
test suite) — and everything it accepts is checked semantically against the
model checker.

Formulas outside the fragment raise :class:`UnsupportedFormula` with an
explanation (e.g. genuine path intersection, TC loops ``[TC φ](x,x)``, or
formulas needing the W normal form).
"""

from __future__ import annotations

from ..logic import ast as fo
from ..logic.transform import conjuncts, disjuncts, nnf, rename_free
from ..trees.axes import Axis
from ..xpath import ast as xp
from ..xpath.evaluator import converse

__all__ = ["UnsupportedFormula", "mtc_to_node_expr", "mtc_to_path_expr", "ANY_PAIR"]


class UnsupportedFormula(ValueError):
    """The formula falls outside the implemented compositional fragment."""


#: The universal relation: climb to any ancestor-or-self (in particular the
#: root), then descend to anything.
ANY_PAIR: xp.PathExpr = xp.Seq(
    xp.Step(Axis.ANCESTOR_OR_SELF), xp.Step(Axis.DESCENDANT_OR_SELF)
)

_REL_AXIS = {
    "child": Axis.CHILD,
    "right": Axis.RIGHT,
    "descendant": Axis.DESCENDANT,
    "following_sibling": Axis.FOLLOWING_SIBLING,
}
_REL_INVERSE_AXIS = {
    "child": Axis.PARENT,
    "right": Axis.LEFT,
    "descendant": Axis.ANCESTOR,
    "following_sibling": Axis.PRECEDING_SIBLING,
}


def mtc_to_node_expr(formula: fo.Formula, x: str = "x") -> xp.NodeExpr:
    """Translate a formula with free variables ⊆ {x} into a node expression."""
    return _node(nnf(formula), x, False)


def mtc_to_path_expr(
    formula: fo.Formula,
    x: str = "x",
    y: str = "y",
    allow_path_booleans: bool = False,
) -> xp.PathExpr:
    """Translate a formula with free variables ⊆ {x, y} into a path expression.

    With ``allow_path_booleans`` the target language gains the XPath 2.0
    operators, so conjunctions of binary formulas become path intersections
    and negated binaries become complements — a strictly larger fragment
    (Core XPath 2.0 path expressions are FO-complete, ten Cate–Marx).
    """
    if x == y:
        raise ValueError("x and y must be distinct variables")
    return _path(nnf(formula), x, y, allow_path_booleans)


# ---------------------------------------------------------------------------
# Binary translation
# ---------------------------------------------------------------------------
#
# ``booleans`` is ``allow_path_booleans``, passed down the recursion (not
# kept in module state) so concurrent translations cannot see each other's.
#
# ``_path`` and ``_node`` check their free variables on entry, at every
# level: a subformula that mentions a *parameter* (a variable other than the
# pair being translated, such as x inside ``[TC_{u,v} b(x) ∧ child(u,v)]``)
# has no place in the target, and filing it as a guard on the step's source
# would answer a different query.


def _path(formula: fo.Formula, x: str, y: str, booleans: bool) -> xp.PathExpr:
    free = fo.free_variables(formula)
    if not free <= {x, y}:
        raise UnsupportedFormula(
            f"free variables {sorted(free)} not contained in {{{x}, {y}}}"
        )
    # Cylinders: a formula not relating x and y denotes a product relation.
    if y not in free:
        return xp.Seq(xp.Check(_node(formula, x, booleans)), ANY_PAIR)
    if x not in free:
        return xp.Seq(ANY_PAIR, xp.Check(_node(formula, y, booleans)))

    if isinstance(formula, fo.Rel):  # over (x, y) or (y, x): both are free
        if (formula.left, formula.right) == (x, y):
            return xp.Step(_REL_AXIS[formula.name])
        return xp.Step(_REL_INVERSE_AXIS[formula.name])
    if isinstance(formula, fo.Eq):
        return xp.SELF  # both orientations
    if isinstance(formula, fo.Or):
        parts = [_path(d, x, y, booleans) for d in disjuncts(formula)]
        result = parts[0]
        for part in parts[1:]:
            result = xp.Union(result, part)
        return result
    if isinstance(formula, fo.And):
        return _path_conjunction(list(conjuncts(formula)), x, y, booleans)
    if isinstance(formula, fo.Exists):
        return _path_exists(formula, x, y, booleans)
    if isinstance(formula, fo.TC):
        return _path_tc(formula, x, y, booleans)
    if isinstance(formula, fo.Not):
        if booleans:
            return xp.Complement(_path(formula.operand, x, y, booleans))
        raise UnsupportedFormula(
            "negation of a genuinely binary formula needs path complementation "
            "(XPath 2.0 territory; pass allow_path_booleans=True)"
        )
    raise UnsupportedFormula(f"no binary translation for {formula}")


def _path_conjunction(
    parts: list[fo.Formula], x: str, y: str, booleans: bool
) -> xp.PathExpr:
    binary: list[fo.Formula] = []
    unary_x: list[fo.Formula] = []
    unary_y: list[fo.Formula] = []
    for part in parts:
        free = fo.free_variables(part)
        if x in free and y in free:
            binary.append(part)
        elif y in free:
            unary_y.append(part)
        else:
            unary_x.append(part)  # includes sentences: guards on x
    if len(binary) > 1 and not booleans:
        raise UnsupportedFormula(
            "conjunction of several binary formulas is path intersection, "
            "not expressible in Regular XPath (pass allow_path_booleans=True "
            "to target Core XPath 2.0)"
        )
    if binary:
        core = _path(binary[0], x, y, booleans)
        for extra in binary[1:]:
            core = xp.Intersect(core, _path(extra, x, y, booleans))
    else:
        core = ANY_PAIR
    if unary_x:
        guard = _node(fo.big_and(unary_x), x, booleans)
        core = xp.Seq(xp.Check(guard), core)
    if unary_y:
        guard = _node(fo.big_and(unary_y), y, booleans)
        core = xp.Seq(core, xp.Check(guard))
    return core


def _path_exists(
    formula: fo.Exists, x: str, y: str, booleans: bool
) -> xp.PathExpr:
    z = formula.var
    body = formula.body
    if z in (x, y):
        # Shadowing: the bound z hides the free one; alpha-rename.
        fresh = f"{z}_inner"
        while fresh in fo.free_variables(body):
            fresh += "_"
        body = rename_free(body, {z: fresh})
        z = fresh
    parts = list(conjuncts(body))
    # Conjuncts not mentioning z commute with the quantifier: hoist them out
    # and let the conjunction translator place them as guards.
    outer = [part for part in parts if z not in fo.free_variables(part)]
    if outer:
        inner = [part for part in parts if z in fo.free_variables(part)]
        rebuilt = fo.Exists(z, fo.big_and(inner)) if inner else fo.TRUE
        return _path_conjunction(outer + [rebuilt], x, y, booleans)
    first: list[fo.Formula] = []  # free ⊆ {x, z}
    second: list[fo.Formula] = []  # free ⊆ {z, y}
    for part in parts:
        free = fo.free_variables(part)
        if y in free and x in free:
            raise UnsupportedFormula(
                f"conjunct {part} relates {x} and {y} across the ∃{z} join"
            )
        if y in free:
            second.append(part)
        elif x in free:
            first.append(part)
        else:
            # Unary in z: attach to the first leg (it becomes a mid-test).
            first.append(part)
    left = _path(fo.big_and(first), x, z, booleans) if first else ANY_PAIR
    right = _path(fo.big_and(second), z, y, booleans) if second else ANY_PAIR
    return xp.Seq(left, right)


def _path_tc(formula: fo.TC, x: str, y: str, booleans: bool) -> xp.PathExpr:
    step = _path(formula.body, formula.x, formula.y, booleans)
    if (formula.source, formula.target) == (x, y):
        return xp.plus(step)
    if (formula.source, formula.target) == (y, x):
        return converse(xp.plus(step))
    raise UnsupportedFormula(
        f"TC endpoints ({formula.source},{formula.target}) are not ({x},{y})"
    )


# ---------------------------------------------------------------------------
# Unary translation
# ---------------------------------------------------------------------------


def _node(formula: fo.Formula, x: str, booleans: bool) -> xp.NodeExpr:
    free = fo.free_variables(formula)
    if not free <= {x}:
        raise UnsupportedFormula(
            f"free variables {sorted(free)} not contained in {{{x}}}"
        )
    if not free:
        return _sentence(formula, booleans)
    # From here on every atom is about x alone.
    if isinstance(formula, fo.LabelAtom):
        return xp.Label(formula.label)
    if isinstance(formula, fo.Eq):
        return xp.TRUE  # x = x
    if isinstance(formula, fo.Rel):
        # R(x, x) for our strict/irreflexive-by-structure relations is false.
        return xp.FALSE
    if isinstance(formula, fo.Not):
        return xp.Not(_node(formula.operand, x, booleans))
    if isinstance(formula, fo.And):
        return xp.And(
            _node(formula.left, x, booleans), _node(formula.right, x, booleans)
        )
    if isinstance(formula, fo.Or):
        return xp.Or(
            _node(formula.left, x, booleans), _node(formula.right, x, booleans)
        )
    if isinstance(formula, fo.Exists):
        z = formula.var
        body = formula.body
        if z == x:
            raise AssertionError("shadowed quantifier should have been a sentence")
        return xp.Exists(_path(body, x, z, booleans))
    if isinstance(formula, fo.Forall):
        negated = fo.Exists(formula.var, nnf(fo.Not(formula.body)))
        return xp.Not(_node(negated, x, booleans))
    if isinstance(formula, fo.TC):  # both endpoints are x
        raise UnsupportedFormula(
            "TC loops [TC φ](x,x) need the paper's W normal form"
        )
    raise UnsupportedFormula(f"no unary translation for {formula}")


def _sentence(formula: fo.Formula, booleans: bool) -> xp.NodeExpr:
    """A sentence as a node expression: all nodes if true, none otherwise."""
    if isinstance(formula, fo.TrueFormula):
        return xp.TRUE
    if isinstance(formula, fo.Eq) and formula.left == formula.right:
        return xp.TRUE
    if isinstance(formula, fo.Not):
        return xp.Not(_sentence(formula.operand, booleans))
    if isinstance(formula, fo.And):
        return xp.And(
            _sentence(formula.left, booleans), _sentence(formula.right, booleans)
        )
    if isinstance(formula, fo.Or):
        return xp.Or(
            _sentence(formula.left, booleans), _sentence(formula.right, booleans)
        )
    if isinstance(formula, fo.Exists):
        # ∃z ψ(z) holds globally iff from anywhere we can reach a ψ-node.
        inner = _node(formula.body, formula.var, booleans)
        return xp.Exists(xp.Seq(ANY_PAIR, xp.Check(inner)))
    if isinstance(formula, fo.Forall):
        negated = fo.Exists(formula.var, nnf(fo.Not(formula.body)))
        return xp.Not(_sentence(negated, booleans))
    raise UnsupportedFormula(f"no sentence translation for {formula}")
