"""XPath axes as relations over tree node ids.

The paper's query languages navigate by four *primitive* axes — ``child``,
``parent``, ``right`` (next sibling) and ``left`` (previous sibling) — plus
their transitive closures (``descendant``, ``ancestor``,
``following_sibling``, ``preceding_sibling``) and the usual derived XPath
axes.  This module provides each axis in three forms:

* :func:`axis_steps` — the successors of one node (a generator),
* :func:`axis_image` — the image of a node set (the evaluator's workhorse),
* :func:`axis_pairs` — the full relation, used by the reference semantics.

Every axis has an inverse (:func:`inverse_axis`), which the evaluator uses to
compute pre-images syntactically.

All functions take an optional ``scope``: a node id restricting navigation to
the subtree rooted there.  This implements the paper's ``W`` (*within*)
operator without materializing subtrees: steps that would leave the scope's
subtree are suppressed (in particular the scope root has no parent and no
siblings, exactly as if it were the root of a standalone tree).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .tree import Tree


class Axis(Enum):
    """The navigational axes of Core XPath (primitive and derived)."""

    SELF = "self"
    CHILD = "child"
    PARENT = "parent"
    RIGHT = "right"  # next sibling (one step)
    LEFT = "left"  # previous sibling (one step)
    DESCENDANT = "descendant"
    ANCESTOR = "ancestor"
    FOLLOWING_SIBLING = "following_sibling"
    PRECEDING_SIBLING = "preceding_sibling"
    DESCENDANT_OR_SELF = "descendant_or_self"
    ANCESTOR_OR_SELF = "ancestor_or_self"
    FOLLOWING = "following"
    PRECEDING = "preceding"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Axis.{self.name}"


#: The four primitive (single-step) axes of the paper's syntax.
PRIMITIVE_AXES = (Axis.CHILD, Axis.PARENT, Axis.RIGHT, Axis.LEFT)

#: Transitive closures of the primitive axes.
TRANSITIVE_AXES = (
    Axis.DESCENDANT,
    Axis.ANCESTOR,
    Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING,
)

_INVERSES = {
    Axis.SELF: Axis.SELF,
    Axis.CHILD: Axis.PARENT,
    Axis.PARENT: Axis.CHILD,
    Axis.RIGHT: Axis.LEFT,
    Axis.LEFT: Axis.RIGHT,
    Axis.DESCENDANT: Axis.ANCESTOR,
    Axis.ANCESTOR: Axis.DESCENDANT,
    Axis.FOLLOWING_SIBLING: Axis.PRECEDING_SIBLING,
    Axis.PRECEDING_SIBLING: Axis.FOLLOWING_SIBLING,
    Axis.DESCENDANT_OR_SELF: Axis.ANCESTOR_OR_SELF,
    Axis.ANCESTOR_OR_SELF: Axis.DESCENDANT_OR_SELF,
    Axis.FOLLOWING: Axis.PRECEDING,
    Axis.PRECEDING: Axis.FOLLOWING,
}

#: Which primitive axis each transitive axis closes over.
CLOSURE_BASE = {
    Axis.DESCENDANT: Axis.CHILD,
    Axis.ANCESTOR: Axis.PARENT,
    Axis.FOLLOWING_SIBLING: Axis.RIGHT,
    Axis.PRECEDING_SIBLING: Axis.LEFT,
}


def inverse_axis(axis: Axis) -> Axis:
    """The converse axis: ``(n, m) in axis`` iff ``(m, n) in inverse``."""
    return _INVERSES[axis]


def axis_steps(
    tree: Tree, node_id: int, axis: Axis, scope: int | None = None
) -> Iterator[int]:
    """Yield the ``axis``-successors of ``node_id``.

    With a ``scope``, only successors inside the subtree of ``scope`` are
    produced; ``node_id`` itself is assumed to lie in that subtree.
    """
    if axis is Axis.SELF:
        yield node_id
    elif axis is Axis.CHILD:
        # Children of an in-scope node are always in scope.
        next_sibling = tree.next_sibling
        c = tree.first_child[node_id]
        while c >= 0:
            yield c
            c = next_sibling[c]
    elif axis is Axis.PARENT:
        pid = tree.parent[node_id]
        if pid >= 0 and (scope is None or node_id != scope):
            yield pid
    elif axis is Axis.RIGHT:
        if scope is None or node_id != scope:
            nid = tree.next_sibling[node_id]
            if nid >= 0:
                yield nid
    elif axis is Axis.LEFT:
        if scope is None or node_id != scope:
            nid = tree.prev_sibling[node_id]
            if nid >= 0:
                yield nid
    elif axis is Axis.DESCENDANT:
        yield from tree.descendant_ids(node_id)
    elif axis is Axis.DESCENDANT_OR_SELF:
        yield from tree.subtree_ids(node_id)
    elif axis is Axis.ANCESTOR:
        limit = 0 if scope is None else scope
        pid = tree.parent[node_id]
        while pid >= 0 and node_id != limit:
            yield pid
            node_id = pid
            if node_id == limit:
                break
            pid = tree.parent[node_id]
    elif axis is Axis.ANCESTOR_OR_SELF:
        yield node_id
        yield from axis_steps(tree, node_id, Axis.ANCESTOR, scope)
    elif axis is Axis.FOLLOWING_SIBLING:
        if scope is None or node_id != scope:
            nid = tree.next_sibling[node_id]
            while nid >= 0:
                yield nid
                nid = tree.next_sibling[nid]
    elif axis is Axis.PRECEDING_SIBLING:
        if scope is None or node_id != scope:
            nid = tree.prev_sibling[node_id]
            while nid >= 0:
                yield nid
                nid = tree.prev_sibling[nid]
    elif axis is Axis.FOLLOWING:
        # Document order after node_id, excluding its descendants.
        after = node_id + tree.subtree_sizes[node_id]
        end = tree.size if scope is None else scope + tree.subtree_sizes[scope]
        yield from range(after, end)
    elif axis is Axis.PRECEDING:
        # Document order before node_id, excluding its ancestors.
        start = 0 if scope is None else scope
        for other in range(start, node_id):
            if not tree.is_in_subtree(node_id, other):
                yield other
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unknown axis {axis!r}")


def axis_image(
    tree: Tree, sources: Iterable[int], axis: Axis, scope: int | None = None
) -> set[int]:
    """The set of nodes reachable from ``sources`` by one ``axis`` step."""
    result: set[int] = set()
    for node_id in sources:
        result.update(axis_steps(tree, node_id, axis, scope))
    return result


def axis_pairs(
    tree: Tree, axis: Axis, scope: int | None = None
) -> set[tuple[int, int]]:
    """The full binary relation denoted by ``axis`` (reference semantics)."""
    universe = tree.node_ids if scope is None else tree.subtree_ids(scope)
    pairs: set[tuple[int, int]] = set()
    for n in universe:
        for m in axis_steps(tree, n, axis, scope):
            pairs.add((n, m))
    return pairs


#: Axes whose full relation is a union of preorder-id intervals.
INTERVAL_AXES = (
    Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF,
    Axis.ANCESTOR,
    Axis.ANCESTOR_OR_SELF,
    Axis.FOLLOWING,
    Axis.PRECEDING,
)


def interval_axis_pairs(
    tree: Tree, axis: Axis, scope: int | None = None
) -> set[tuple[int, int]] | None:
    """The full relation of a transitive axis, generated output-linearly.

    Because preorder ids make every subtree a contiguous interval, the
    relations of ``descendant``/``ancestor``/``following``/``preceding``
    (and the ``or_self`` closures) are unions of id ranges; enumerating the
    ranges directly sidesteps the per-source image machinery (and, for
    ``preceding``, the per-candidate subtree tests) that
    :func:`axis_pairs` would otherwise pay for.  Returns ``None`` for axes
    without interval structure — callers fall back to the generic path.
    """
    if axis not in INTERVAL_AXES:
        return None
    lo = 0 if scope is None else scope
    hi = tree.size if scope is None else scope + tree.subtree_sizes[scope]
    sizes = tree.subtree_sizes
    pairs: set[tuple[int, int]] = set()
    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        keep_self = axis is Axis.DESCENDANT_OR_SELF
        for v in range(lo, hi):
            start = v if keep_self else v + 1
            for m in range(start, v + sizes[v]):
                pairs.add((v, m))
        return pairs
    if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        keep_self = axis is Axis.ANCESTOR_OR_SELF
        for v in range(lo, hi):
            start = v if keep_self else v + 1
            for m in range(start, v + sizes[v]):
                pairs.add((m, v))
        return pairs
    if axis is Axis.FOLLOWING:
        for v in range(lo, hi):
            for m in range(v + sizes[v], hi):
                pairs.add((v, m))
        return pairs
    # PRECEDING is the converse of FOLLOWING.
    for v in range(lo, hi):
        for m in range(v + sizes[v], hi):
            pairs.add((m, v))
    return pairs
