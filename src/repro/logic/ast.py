"""Abstract syntax of first-order logic with monadic transitive closure.

FO(MTC) is the logic side of the paper's main theorem: over finite
sibling-ordered trees it is expressively equivalent to Regular XPath(W).

The vocabulary is the standard tree signature:

* unary label predicates ``P_a(x)`` (:class:`LabelAtom`),
* binary relations ``child(x, y)``, ``right(x, y)`` (next sibling) — and,
  for convenience in FO-without-TC fragments, the built-ins ``descendant``
  and ``following_sibling`` (which TC renders definable),
* equality.

On top of FO, the *monadic transitive closure* operator
``[TC_{x,y} φ](u, v)`` (:class:`TC`): it holds iff ``(u, v)`` lies in the
**strict** transitive closure of ``{(a, b) | φ(a, b)}`` (Ebbinghaus–Flum
convention; use :func:`rtc` for the reflexive variant, which is what Kleene
star translates to).

Formulas are immutable dataclasses; variables are plain strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Formula",
    "LabelAtom",
    "Rel",
    "Eq",
    "TrueFormula",
    "Not",
    "And",
    "Or",
    "Exists",
    "Forall",
    "TC",
    "RELATION_NAMES",
    "implies",
    "iff",
    "rtc",
    "big_and",
    "big_or",
    "exists_many",
    "forall_many",
    "root_formula",
    "leaf_formula",
    "first_formula",
    "last_formula",
    "free_variables",
    "fresh_variable",
]

#: Binary relations the model checker evaluates directly on trees.
RELATION_NAMES = ("child", "right", "descendant", "following_sibling")


class Formula:
    """Base class for FO(MTC) formulas."""

    def children(self) -> tuple["Formula", ...]:
        raise NotImplementedError

    def walk(self) -> Iterator["Formula"]:
        yield self
        for child in self.children():
            yield from child.walk()

    @property
    def size(self) -> int:
        """Number of AST nodes (the formula-size measure for C3)."""
        return 1 + sum(child.size for child in self.children())

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __str__(self) -> str:
        from .unparse import unparse_formula

        return unparse_formula(self)


@dataclass(frozen=True)
class LabelAtom(Formula):
    """``P_label(var)``: the node bound to ``var`` carries ``label``."""

    label: str
    var: str

    def children(self) -> tuple[Formula, ...]:
        return ()


@dataclass(frozen=True)
class Rel(Formula):
    """A binary structural atom ``name(left, right)``.

    ``name`` must be one of :data:`RELATION_NAMES`.  ``descendant`` and
    ``following_sibling`` are *strict* (proper descendant / strictly later
    sibling).
    """

    name: str
    left: str
    right: str

    def __post_init__(self) -> None:
        if self.name not in RELATION_NAMES:
            raise ValueError(
                f"unknown relation {self.name!r}; expected one of {RELATION_NAMES}"
            )

    def children(self) -> tuple[Formula, ...]:
        return ()


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str

    def children(self) -> tuple[Formula, ...]:
        return ()


@dataclass(frozen=True)
class TrueFormula(Formula):
    def children(self) -> tuple[Formula, ...]:
        return ()


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)


@dataclass(frozen=True)
class TC(Formula):
    """``[TC_{x,y} body](source, target)`` — strict transitive closure.

    ``x`` and ``y`` are bound inside ``body``; other free variables of
    ``body`` act as parameters.  ``source`` and ``target`` are free variable
    occurrences of the TC formula itself.
    """

    x: str
    y: str
    body: Formula
    source: str
    target: str

    def __post_init__(self) -> None:
        if self.x == self.y:
            raise ValueError("TC binds two distinct variables")

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)


# ---------------------------------------------------------------------------
# Derived forms
# ---------------------------------------------------------------------------

FALSE = Not(TrueFormula())
TRUE = TrueFormula()


def implies(left: Formula, right: Formula) -> Formula:
    """``left → right``."""
    return Or(Not(left), right)


def iff(left: Formula, right: Formula) -> Formula:
    """``left ↔ right``."""
    return And(implies(left, right), implies(right, left))


def rtc(x: str, y: str, body: Formula, source: str, target: str) -> Formula:
    """Reflexive-transitive closure: ``source = target ∨ TC(...)``.

    This is the shape Kleene star translates to.
    """
    return Or(Eq(source, target), TC(x, y, body, source, target))


def big_and(formulas: list[Formula]) -> Formula:
    if not formulas:
        return TRUE
    result = formulas[0]
    for formula in formulas[1:]:
        result = And(result, formula)
    return result


def big_or(formulas: list[Formula]) -> Formula:
    if not formulas:
        return FALSE
    result = formulas[0]
    for formula in formulas[1:]:
        result = Or(result, formula)
    return result


def exists_many(variables: list[str], body: Formula) -> Formula:
    for var in reversed(variables):
        body = Exists(var, body)
    return body


def forall_many(variables: list[str], body: Formula) -> Formula:
    for var in reversed(variables):
        body = Forall(var, body)
    return body


def root_formula(var: str, helper: str = "_r") -> Formula:
    """``var`` is the root: it has no parent."""
    return Not(Exists(helper, Rel("child", helper, var)))


def leaf_formula(var: str, helper: str = "_l") -> Formula:
    """``var`` is a leaf: it has no child."""
    return Not(Exists(helper, Rel("child", var, helper)))


def first_formula(var: str, helper: str = "_p") -> Formula:
    """``var`` is a first sibling: it has no previous sibling."""
    return Not(Exists(helper, Rel("right", helper, var)))


def last_formula(var: str, helper: str = "_s") -> Formula:
    """``var`` is a last sibling: it has no next sibling."""
    return Not(Exists(helper, Rel("right", var, helper)))


# ---------------------------------------------------------------------------
# Variable bookkeeping
# ---------------------------------------------------------------------------


def free_variables(formula: Formula) -> frozenset[str]:
    """The free variables of ``formula``."""
    if isinstance(formula, LabelAtom):
        return frozenset({formula.var})
    if isinstance(formula, Rel):
        return frozenset({formula.left, formula.right})
    if isinstance(formula, Eq):
        return frozenset({formula.left, formula.right})
    if isinstance(formula, TrueFormula):
        return frozenset()
    if isinstance(formula, Not):
        return free_variables(formula.operand)
    if isinstance(formula, (And, Or)):
        return free_variables(formula.left) | free_variables(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_variables(formula.body) - {formula.var}
    if isinstance(formula, TC):
        params = free_variables(formula.body) - {formula.x, formula.y}
        return params | {formula.source, formula.target}
    raise TypeError(f"unknown formula: {formula!r}")


def fresh_variable(used: set[str], stem: str = "v") -> str:
    """A variable name not in ``used`` (which it updates)."""
    i = 0
    while f"{stem}{i}" in used:
        i += 1
    name = f"{stem}{i}"
    used.add(name)
    return name
