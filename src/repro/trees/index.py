"""The shared per-tree bitset index: precomputed masks and axis kernels.

A :class:`TreeIndex` is built once per tree (and cached on the tree via
:func:`tree_index`) and precomputes everything the bit-parallel engines
need.  It is the common substrate of *three* consumers:

* the compiled XPath query plans (:mod:`repro.xpath.engine.plan`),
* the bitset FO(MTC) model checker (:mod:`repro.logic.engine`),
* the bit-parallel tree-walking-automaton runs (:mod:`repro.automata.twa`).

Precomputed state, none of it a table of one mask per node:

* per-label bitmasks (label tests become one dict lookup);
* ``after[v] = v + subtree_size(v)`` — the end of ``v``'s preorder
  interval; equivalently ``postorder[v] + depth[v] + 1``;
* *delta groups* for the one-step axes: nodes grouped by ``v - parent(v)``
  (for ``child``/``parent``) and by subtree size (for ``right``/``left``,
  since the next sibling of ``v`` is exactly ``v + subtree_size(v)``).
  A one-step image is then a union of ``(mask & group) << delta`` — a few
  big-int shifts instead of a Python-level loop over nodes.  A frontier of
  at most half as many nodes as there are groups steps node by node over
  ``after`` and the parents instead (the direction-optimizing switch);
* local-type flag masks (leaf / first sibling / last sibling) and
  *last-child* delta groups, which turn a walking automaton's observation
  dispatch and down moves into mask intersections and grouped shifts;
* per-source target masks for the logic signature's binary relations
  (``child``, ``right``, ``descendant``, ``following_sibling``), the
  columnar representation the bitset model checker evaluates on.

The index reads no pointer column of the tree: ``p``'s first child is
``p + 1``, each next sibling starts at the previous child's ``after``, and
a previous sibling is found by climbing the parents from ``v - 1``.  A
parent's children mask (the sibling block the sibling kernels read) is
derived that way on demand by :meth:`TreeIndex.children_mask` and
memoized per index, so only parents a workload actually visits ever get
one.  An interval mask ``[a, b)`` is
``prefix[b] ^ prefix[a]`` over one prefix table per *process*
(``_PREFIX``), grown to the largest tree indexed so far and shared by
every index, so no index stores or splices one.

Axis kernels all have the signature ``kernel(mask, scope) -> mask`` and
assume the input mask is a subset of the scope's subtree interval.  The
scope root behaves exactly like a tree root (no parent, no siblings), which
is what the paper's ``W`` operator requires; whole-tree evaluation is the
special case ``scope root = 0``.
"""

from __future__ import annotations

import threading
from types import MethodType

from .axes import Axis
from .tree import Tree, _next_sibling, _prev_siblings

__all__ = ["AXIS_KERNELS", "Scope", "TreeIndex", "tree_index"]

#: ``_PREFIX[i] = (1 << i) - 1``, shared by every index in the process.
#: The kernels' inner loops read interval masks from it: two lookups
#: instead of two fresh big-int shifts, which an interleaved A/B measured
#: 12-20% slower in ``descendant`` and ``preceding_sibling``.  Appends
#: happen only under the lock; readers only index below the length.
_PREFIX: list[int] = [0]
_PREFIX_LOCK = threading.Lock()


def _grow_prefix(n: int) -> None:
    """Grow the process-wide prefix table to at least ``n + 1`` entries."""
    if len(_PREFIX) <= n:
        with _PREFIX_LOCK:
            mask = _PREFIX[-1]
            for _ in range(len(_PREFIX), n + 1):
                mask = (mask << 1) | 1
                _PREFIX.append(mask)


#: Fewest shift groups for which a one-step kernel tests the frontier's
#: popcount at all.  Below it the grouped shifts are a few big-int ops and
#: the test alone costs more than it saves (a chain has one delta group).
_SPARSE_MIN_GROUPS = 8


def _sparse_limit(groups: list) -> int:
    """The largest frontier a one-step kernel steps node by node."""
    return len(groups) // 2 if len(groups) >= _SPARSE_MIN_GROUPS else 0


def _map_bits(S: int, column: tuple[int, ...]) -> int:
    """The image of ``S`` under the node-to-node ``column`` (-1 = none)."""
    acc = 0
    while S:
        low = S & -S
        S ^= low
        target = column[low.bit_length() - 1]
        if target >= 0:
            acc |= 1 << target
    return acc


class Scope:
    """An evaluation scope: the subtree rooted at ``root`` as an interval."""

    __slots__ = ("root", "lo", "hi", "mask", "root_bit")

    def __init__(self, root: int, lo: int, hi: int, mask: int):
        self.root = root
        self.lo = lo
        self.hi = hi
        self.mask = mask
        self.root_bit = 1 << root

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scope(root={self.root}, ids=[{self.lo}, {self.hi}))"


class TreeIndex:
    """Precomputed bitset indexes and axis kernels for one tree.

    Also owns the compiled-plan caches (filled by
    :mod:`repro.xpath.engine.plan`), so plans are shared by every evaluator
    and every query on the same tree.

    The index keeps the tree's immutable ``labels`` and ``parent`` (as
    ``parents``; ``parent`` is the axis kernel) tuples, never the
    :class:`Tree` itself: the tree holds
    its index, and nothing the index holds — tables, scopes, cached plans —
    refers back to either, so a generation is freed by reference counting
    as soon as its last holder lets go.
    """

    def __init__(self, tree: Tree):
        n = tree.size
        self.n = n
        self.full = (1 << n) - 1

        label_masks: dict[str, int] = {}
        for v, lbl in enumerate(tree.labels):
            label_masks[lbl] = label_masks.get(lbl, 0) | (1 << v)
        self.label_masks = label_masks

        sizes = tree.subtree_sizes
        self.after = after = [v + s for v, s in enumerate(sizes)]

        # One pass over the non-root nodes, reading only the parents and
        # the interval ends: v is its parent's first child iff it is the
        # next id, and has a next sibling (at after[v], so subtree_size(v)
        # away) or else is the last child.
        parent = tree.parent
        delta_groups: dict[int, int] = {}
        sib_groups: dict[int, int] = {}
        last_groups: dict[int, int] = {}
        leaf_mask = 0
        first_mask = last_mask = 1  # the root has no siblings
        for v in range(1, n):
            bit = 1 << v
            p = parent[v]
            d = v - p
            delta_groups[d] = delta_groups.get(d, 0) | bit
            if d == 1:
                first_mask |= bit
            if _next_sibling(after, parent, v) >= 0:
                s = sizes[v]
                sib_groups[s] = sib_groups.get(s, 0) | bit
            else:
                last_mask |= bit
                last_groups[d] = last_groups.get(d, 0) | (1 << p)
        for v, s in enumerate(sizes):
            if s == 1:
                leaf_mask |= 1 << v
        #: (delta, mask-of-nodes-with-that-parent-offset), ascending delta.
        self.delta_groups = sorted(delta_groups.items())
        #: (size, mask-of-nodes-with-a-next-sibling-of-that-offset).
        self.sib_groups = sorted(sib_groups.items())

        # Local-type flag masks (the TWA observation components).  The root
        # flag is scope-dependent and handled by the automaton runners.
        self.leaf_mask = leaf_mask
        #: Nodes with at least one child (their first child is ``v + 1``).
        self.internal_mask = self.full ^ leaf_mask
        self.first_mask = first_mask
        self.last_mask = last_mask
        #: Delta groups for the *last* child: ``last_child(v) = v + d``.
        self.last_child_groups = sorted(last_groups.items())

        self._finalize(tree)

    @classmethod
    def _from_parts(
        cls,
        tree: Tree,
        *,
        label_masks: dict[str, int],
        after: list[int],
        delta_groups: list[tuple[int, int]],
        sib_groups: list[tuple[int, int]],
        leaf_mask: int,
        first_mask: int,
        last_mask: int,
        last_child_groups: list[tuple[int, int]],
    ) -> "TreeIndex":
        """Assemble an index from precomputed state without recomputation.

        The entry point of the section codec (:mod:`repro.trees.share`)
        and of the edit splice (:mod:`repro.trees.mutate`): every table is
        handed in already built, so loading a tree (in a shard process, or
        after eviction) or publishing an edit skips the construction work.
        """
        index = object.__new__(cls)
        index.n = tree.size
        index.full = (1 << tree.size) - 1
        index.label_masks = label_masks
        index.after = after
        index.delta_groups = delta_groups
        index.sib_groups = sib_groups
        index.leaf_mask = leaf_mask
        index.internal_mask = index.full ^ leaf_mask
        index.first_mask = first_mask
        index.last_mask = last_mask
        index.last_child_groups = last_child_groups
        index._finalize(tree)
        return index

    def __setstate__(self, state: dict) -> None:
        # An unpickled index (a tree sent to another process) skips
        # _finalize, and that process's prefix table may be shorter.
        self.__dict__.update(state)
        _grow_prefix(self.n)

    def _finalize(self, tree: Tree) -> None:
        """Shared tail of both constructors: tree columns, lazy tables, caches."""
        self.labels = tree.labels
        self.parents = tree.parent
        #: Frontier popcounts up to which the one-step kernels go node by
        #: node (0 = never); see "one-step kernels" below.
        self.sparse_child = _sparse_limit(self.delta_groups)
        self.sparse_sib = _sparse_limit(self.sib_groups)
        _grow_prefix(self.n)  # the kernels index it up to n
        self._after_leq: list[int] | None = None  # lazy, for `preceding`
        self._children: dict[int, int] = {}  # lazy, see children_mask
        self._scopes: dict[int, Scope] = {}
        self._relation_masks: dict[str, dict[int, int]] = {}

        # Compiled-plan caches, keyed *structurally* on the expression
        # (AST nodes are frozen dataclasses).  Filled by engine.plan.
        self.path_plans: dict = {}
        self.node_plans: dict = {}

    # -- scopes -----------------------------------------------------------

    def scope(self, root: int | None) -> Scope:
        """The (cached) scope for ``root`` (``None`` = whole tree)."""
        if root is None:
            root = 0
        sc = self._scopes.get(root)
        if sc is None:
            lo, hi = root, self.after[root]
            sc = Scope(root, lo, hi, _PREFIX[hi] ^ _PREFIX[lo])
            self._scopes[root] = sc
        return sc

    def kernel(self, axis: Axis):
        """The ``(mask, scope) -> mask`` kernel for ``axis``, bound here.

        Bound per call and never stored on the index; see
        :data:`AXIS_KERNELS` for what cached plans capture instead.
        """
        return MethodType(AXIS_KERNELS[axis], self)

    # -- one-step kernels ----------------------------------------------------
    #
    # Direction-optimizing (Beamer, Asanović and Patterson, SC 2012): a
    # frontier of at most ``sparse_child`` / ``sparse_sib`` nodes steps node
    # by node over ``after`` and the parents; a larger one pays one grouped
    # shift-and-mask per distinct offset.  A limit of 0 skips even the
    # popcount test.  Each walk is O(1) per source (per child for
    # ``child``) but ``left``'s climb, which gives up past one step per group.

    def self_(self, S: int, sc: Scope) -> int:
        return S

    def child(self, S: int, sc: Scope) -> int:
        limit = self.sparse_child
        if limit and S.bit_count() <= limit:
            # Each source's children: v + 1, then each next sibling at the
            # previous child's after, up to v's own.  Never the
            # children_mask memo, which would keep one mask per parent.
            after = self.after
            acc = 0
            while S:
                low = S & -S
                S ^= low
                v = low.bit_length() - 1
                end = after[v]
                c = v + 1
                while c < end:
                    acc |= 1 << c
                    c = after[c]
            return acc
        # v is a child of a source iff (v - delta(v)) is a source.
        acc = 0
        for d, gmask in self.delta_groups:
            acc |= (S << d) & gmask
        return acc

    def parent(self, S: int, sc: Scope) -> int:
        S &= ~sc.root_bit  # the scope root navigates like a tree root
        limit = self.sparse_child
        if limit and S.bit_count() <= limit:
            return _map_bits(S, self.parents)
        acc = 0
        for d, gmask in self.delta_groups:
            acc |= (S & gmask) >> d
        return acc

    def right(self, S: int, sc: Scope) -> int:
        S &= ~sc.root_bit
        limit = self.sparse_sib
        if limit and S.bit_count() <= limit:
            after = self.after
            parents = self.parents
            acc = 0
            while S:
                low = S & -S
                S ^= low
                v = low.bit_length() - 1
                w = after[v]  # inline _next_sibling: a call per node costs ~20%
                if w < after[parents[v]]:
                    acc |= 1 << w
            return acc
        acc = 0
        for s, gmask in self.sib_groups:
            acc |= (S & gmask) << s
        return acc

    def left(self, S: int, sc: Scope) -> int:
        S &= ~sc.root_bit
        limit = self.sparse_sib
        if limit and S.bit_count() <= limit:
            # The climbs get one step per sib group in all; past that
            # (previous siblings with deep last descendants) the grouped
            # shifts cost less.
            acc = _prev_siblings(self.parents, S, len(self.sib_groups))
            if acc >= 0:
                return acc
        acc = 0
        for s, gmask in self.sib_groups:
            acc |= (S >> s) & gmask
        return acc

    # -- walking-automaton move kernels ------------------------------------

    def down_first(self, S: int, sc: Scope) -> int:
        # The first child of an internal node is always the next preorder id.
        return (S & self.internal_mask) << 1

    def down_last(self, S: int, sc: Scope) -> int:
        acc = 0
        for d, gmask in self.last_child_groups:
            acc |= (S & gmask) << d
        return acc

    # -- interval kernels --------------------------------------------------

    def descendant(self, S: int, sc: Scope) -> int:
        # Union of preorder intervals; sources already inside an earlier
        # interval are pruned wholesale (their subtree is covered).
        acc = 0
        prefix = _PREFIX
        after = self.after
        rem = S
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            acc |= prefix[after[v]] ^ prefix[v + 1]
            rem = (rem ^ low) & ~acc
        return acc

    def descendant_or_self(self, S: int, sc: Scope) -> int:
        return S | self.descendant(S, sc)

    def ancestor(self, S: int, sc: Scope) -> int:
        # Fixpoint of the parent kernel: one sweep per tree level, with the
        # already-reached mask pruning shared ancestor chains.
        acc = 0
        frontier = S
        while frontier:
            frontier = self.parent(frontier, sc) & ~acc
            acc |= frontier
        return acc

    def ancestor_or_self(self, S: int, sc: Scope) -> int:
        return S | self.ancestor(S, sc)

    def following(self, S: int, sc: Scope) -> int:
        # following(S) = [min after(v), scope end): one interval, whose left
        # end is found by descending the first source's subtree chain.
        if not S:
            return 0
        prefix = _PREFIX
        after = self.after
        v = (S & -S).bit_length() - 1
        m = after[v]
        while True:
            # Only sources *inside* the current minimum's subtree can end
            # earlier; everything else starts at or after m.
            inner = S & (prefix[m] ^ prefix[v + 1])
            if not inner:
                break
            v = (inner & -inner).bit_length() - 1
            m = after[v]
        return prefix[sc.hi] ^ prefix[m]

    def preceding(self, S: int, sc: Scope) -> int:
        # u precedes some source iff u's subtree ends by the last source:
        # after(u) <= max(S).  One lookup in the cumulative after-table.
        if not S:
            return 0
        return self.after_leq(S.bit_length() - 1) & sc.mask

    # -- sibling closures --------------------------------------------------

    def following_sibling(self, S: int, sc: Scope) -> int:
        # Sibling blocks are the children mask of the parent; following
        # siblings are the block members with larger preorder id.  Sources
        # are taken lowest first, so the first one seen in a block covers
        # the rest of that block, which then leaves the worklist whole.
        S &= ~sc.root_bit
        acc = 0
        parent = self.parents
        memo = self._children
        rem = S
        while rem:
            v = (rem & -rem).bit_length() - 1
            p = parent[v]
            block = memo.get(p)
            if block is None:
                block = self.children_mask(p)
            acc |= block >> (v + 1) << (v + 1)  # the block's bits above v
            rem &= ~block
        return acc

    def preceding_sibling(self, S: int, sc: Scope) -> int:
        # The mirror image: highest source first, block bits below it.
        S &= ~sc.root_bit
        acc = 0
        parent = self.parents
        memo = self._children
        prefix = _PREFIX
        rem = S
        while rem:
            v = rem.bit_length() - 1
            p = parent[v]
            block = memo.get(p)
            if block is None:
                block = self.children_mask(p)
            acc |= block & prefix[v]  # the block's bits below v
            rem &= ~block
        return acc

    # -- columnar relations (the logic engine's atoms) ---------------------

    def relation_masks(self, name: str) -> dict[int, int]:
        """The binary relation ``name`` as a per-source target-mask map.

        ``relation_masks(name)[v]`` is the bitmask of nodes ``w`` with
        ``name(v, w)``; sources with an empty image are absent.  Cached per
        tree — this is the columnar representation the bitset model checker
        (:mod:`repro.logic.engine`) evaluates relational atoms into.
        """
        masks = self._relation_masks.get(name)
        if masks is not None:
            return masks
        n = self.n
        after = self.after
        masks = {}
        if name == "child":
            for v in range(n):
                if after[v] > v + 1:
                    masks[v] = self.children_mask(v)
        elif name == "right":
            for v in range(n):
                w = _next_sibling(after, self.parents, v)
                if w >= 0:
                    masks[v] = 1 << w
        elif name == "descendant":
            prefix = _PREFIX
            for v in range(n):
                if after[v] > v + 1:
                    masks[v] = prefix[after[v]] ^ prefix[v + 1]
        elif name == "following_sibling":
            parent = self.parents
            for v in range(n):
                if _next_sibling(after, parent, v) >= 0:
                    block = self.children_mask(parent[v])
                    masks[v] = block >> (v + 1) << (v + 1)
        else:
            raise ValueError(f"unknown relation {name!r}")
        self._relation_masks[name] = masks
        return masks

    # -- lazy tables -------------------------------------------------------

    def children_mask(self, p: int) -> int:
        """Mask of ``p``'s children, derived once per parent and memoized.

        ``p``'s children tile its interval: the first is ``p + 1`` and each
        next one starts at the previous one's ``after``, up to ``after[p]``.
        Two threads may race on the memo; both compute the same int, so the
        race is harmless.
        """
        mask = self._children.get(p)
        if mask is None:
            mask = 0
            after = self.after
            end = after[p]
            c = p + 1
            while c < end:
                mask |= 1 << c
                c = after[c]
            self._children[p] = mask
        return mask

    def after_leq(self, m: int) -> int:
        """Mask of nodes ``u`` whose subtree ends by ``m`` (after(u) <= m)."""
        if self._after_leq is None:
            by_after = [0] * (self.n + 1)
            for u, a in enumerate(self.after):
                by_after[a] |= 1 << u
            acc = 0
            table = []
            for a in range(self.n + 1):
                acc |= by_after[a]
                table.append(acc)
            self._after_leq = table
        return self._after_leq[m]


#: The unbound ``(index, mask, scope) -> mask`` kernel of each axis.
#: Compiled plans capture these and take the index from their evaluator at
#: call time: a plan cached on an index that captured the index's bound
#: methods would make every index (and its tree) cyclic garbage, which
#: only the cyclic collector frees.
AXIS_KERNELS = {
    Axis.SELF: TreeIndex.self_,
    Axis.CHILD: TreeIndex.child,
    Axis.PARENT: TreeIndex.parent,
    Axis.RIGHT: TreeIndex.right,
    Axis.LEFT: TreeIndex.left,
    Axis.DESCENDANT: TreeIndex.descendant,
    Axis.ANCESTOR: TreeIndex.ancestor,
    Axis.DESCENDANT_OR_SELF: TreeIndex.descendant_or_self,
    Axis.ANCESTOR_OR_SELF: TreeIndex.ancestor_or_self,
    Axis.FOLLOWING_SIBLING: TreeIndex.following_sibling,
    Axis.PRECEDING_SIBLING: TreeIndex.preceding_sibling,
    Axis.FOLLOWING: TreeIndex.following,
    Axis.PRECEDING: TreeIndex.preceding,
}


def tree_index(tree: Tree) -> TreeIndex:
    """The per-tree :class:`TreeIndex`, built once and cached on the tree."""
    index = tree._engine_index
    if index is None:
        index = TreeIndex(tree)
        tree._engine_index = index
    return index
