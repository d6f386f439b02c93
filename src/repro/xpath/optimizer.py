"""Canonical query forms: one key for every rewriting-equivalent variant.

The paper's central theme is that syntactically different formalisms denote
the *same* queries; this module uses that operationally.  Every query is
driven through the sound rewrite system (:mod:`repro.xpath.rewrite`)
interleaved with a deterministic *ordering* normalization of the
commutative/associative operators (``|``, ``&`` on paths; ``and``/``or`` on
node expressions), to a fixpoint.  Two syntactically different but
equivalent-by-rewriting queries therefore share one canonical form, and
hence one compiled plan (:mod:`repro.xpath.engine.plan`) and one result
cache entry (:func:`canonical_key`, used by
:class:`~repro.service.cache.ResultCache`).  Every rule is
semantics-preserving; the property suite re-verifies
``eval(q) == eval(canon(q))`` on random expression/tree pairs across both
backends, and idempotence ``canon(canon(q)) == canon(q)``.
"""

from __future__ import annotations

from functools import lru_cache

from . import ast
from .rewrite import simplify
from .unparse import unparse

__all__ = [
    "canonical_key",
    "canonicalize",
    "canonicalize_node",
    "canonicalize_path",
]

#: Fixpoint guard for the simplify/order interleaving; in practice the
#: composition stabilizes after two rounds (order is idempotent, simplify is
#: a fixpoint already), the cap only bounds pathological inputs.
_MAX_ROUNDS = 32


def _sort_key(expr: "ast.PathExpr | ast.NodeExpr") -> tuple[int, str]:
    return (expr.size, unparse(expr))


def _flatten(expr, cls):
    if isinstance(expr, cls):
        yield from _flatten(expr.left, cls)
        yield from _flatten(expr.right, cls)
    else:
        yield expr


def _rebuild(members, cls):
    result = members[0]
    for member in members[1:]:
        result = cls(result, member)
    return result


def _ordered_chain(expr, cls, recurse):
    """Flatten an associative/commutative chain, order members, rebuild."""
    members = sorted(
        {recurse(member) for member in _flatten(expr, cls)}, key=_sort_key
    )
    return _rebuild(members, cls)


def _order_path(expr: ast.PathExpr) -> ast.PathExpr:
    if isinstance(expr, (ast.Step, ast.EmptyPath)):
        return expr
    if isinstance(expr, ast.Union):
        return _ordered_chain(expr, ast.Union, _order_path)
    if isinstance(expr, ast.Intersect):
        return _ordered_chain(expr, ast.Intersect, _order_path)
    if isinstance(expr, ast.Seq):
        return ast.Seq(_order_path(expr.left), _order_path(expr.right))
    if isinstance(expr, ast.Star):
        return ast.Star(_order_path(expr.path))
    if isinstance(expr, ast.Check):
        return ast.Check(_order_node(expr.test))
    if isinstance(expr, ast.Complement):
        return ast.Complement(_order_path(expr.path))
    raise TypeError(f"unknown path expression: {expr!r}")


def _order_node(expr: ast.NodeExpr) -> ast.NodeExpr:
    if isinstance(expr, (ast.Label, ast.TrueNode)):
        return expr
    if isinstance(expr, ast.And):
        return _ordered_chain(expr, ast.And, _order_node)
    if isinstance(expr, ast.Or):
        return _ordered_chain(expr, ast.Or, _order_node)
    if isinstance(expr, ast.Not):
        return ast.Not(_order_node(expr.operand))
    if isinstance(expr, ast.Exists):
        return ast.Exists(_order_path(expr.path))
    if isinstance(expr, ast.Within):
        return ast.Within(_order_node(expr.test))
    raise TypeError(f"unknown node expression: {expr!r}")


def _order(expr):
    if isinstance(expr, ast.PathExpr):
        return _order_path(expr)
    return _order_node(expr)


@lru_cache(maxsize=4096)
def canonicalize(
    expr: "ast.PathExpr | ast.NodeExpr",
) -> "ast.PathExpr | ast.NodeExpr":
    """The deterministic canonical form: simplify ∘ order, to a fixpoint.

    Idempotent and semantics-preserving (both property-tested); equivalent-
    by-rewriting variants map to the same AST.  Both evaluator backends
    canonicalize at their public entry points (the bitset backend through
    plan-cache aliasing), so this sits on the hot path; ASTs are frozen
    dataclasses, hence hashable, and the memo amortizes repeated queries.
    """
    for _ in range(_MAX_ROUNDS):
        ordered = _order(simplify(expr))
        if ordered == expr:
            return ordered
        expr = ordered
    return expr  # pragma: no cover - the cap is a pathological-input guard


def canonicalize_path(expr: ast.PathExpr) -> ast.PathExpr:
    """Type-narrowed :func:`canonicalize` for path expressions."""
    result = canonicalize(expr)
    assert isinstance(result, ast.PathExpr)
    return result


def canonicalize_node(expr: ast.NodeExpr) -> ast.NodeExpr:
    """Type-narrowed :func:`canonicalize` for node expressions."""
    result = canonicalize(expr)
    assert isinstance(result, ast.NodeExpr)
    return result


def canonical_key(expr: "ast.PathExpr | ast.NodeExpr") -> str:
    """A deterministic text key: sort prefix + unparse of the canonical form."""
    canon = canonicalize(expr)
    prefix = "N" if isinstance(canon, ast.NodeExpr) else "P"
    return f"{prefix}:{unparse(canon)}"
