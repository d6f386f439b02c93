"""The sibling-ordered labelled tree data model.

This is the XML data abstraction used throughout the paper: a finite tree
whose nodes carry a single label from a finite alphabet and whose children are
linearly ordered.  Attributes and text content of real XML documents are
mapped onto labels by the parser in :mod:`repro.trees.xml_io`.

Trees are immutable after construction.  Node ids are preorder (document
order) ranks, the root is node ``0``, and a tree stores three flat columns:
``labels``, ``parent`` and ``subtree_sizes``.  Every subtree is then the
id interval ``[v, v + subtree_sizes[v])``, and the remaining primitive
axis steps the paper's automata and query languages navigate by
(``first_child``, ``last_child``, ``next_sibling``, ``prev_sibling``), plus
``depths`` and ``child_indexes``, follow from those columns.  They are
derived together on first read and cached, giving O(1) access afterwards.
"""

from __future__ import annotations

from operator import le
from typing import Iterator, Sequence

from .node import Node

#: The structural shape used by :meth:`Tree.build`: a ``(label, children)``
#: pair, where ``children`` is a sequence of nested shapes.  A bare string is
#: accepted as shorthand for a leaf.
TreeShape = "str | tuple[str, Sequence['TreeShape']]"


#: The columns derived on first read, in ``_derive_columns`` order.
_DERIVED = (
    "first_child",
    "last_child",
    "next_sibling",
    "prev_sibling",
    "depths",
    "child_indexes",
)


class Tree:
    """An immutable, sibling-ordered, node-labelled finite tree.

    Construct with :meth:`Tree.build` (from a nested ``(label, children)``
    shape), :func:`repro.trees.xml_io.parse_xml`, or one of the generators in
    :mod:`repro.trees.generate`.
    """

    __slots__ = (
        "labels",
        "parent",
        "subtree_sizes",
        *_DERIVED,  # unset until first read, see __getattr__
        "_columns",
        "_alphabet",
        "_shape",
        "_postorder",
        "_engine_index",
    )

    def __init__(self, labels: Sequence[str], parents: Sequence[int]):
        """Build a tree from per-node labels and parent pointers.

        ``parents[i]`` must be the id of node ``i``'s parent, or ``-1`` for
        the root.  Node ids must be in document order: every parent id is
        smaller than its child's id, and the children of each node appear in
        sibling order.  :meth:`Tree.build` produces arrays in this form.
        """
        n = len(labels)
        if n == 0:
            raise ValueError("a tree must have at least one node (the root)")
        if len(parents) != n:
            raise ValueError("labels and parents must have the same length")
        if parents[0] != -1:
            raise ValueError("node 0 must be the root (parent -1)")
        parent = tuple(parents)
        for i in range(1, n):
            p = parent[i]
            if not 0 <= p < i:
                raise ValueError(
                    f"node {i} has parent {p}; ids must be in document order"
                )
        subtree_sizes = [1] * n
        for i in range(n - 1, 0, -1):
            subtree_sizes[parent[i]] += subtree_sizes[i]

        # Document order is interval nesting: after[v] = v + size(v) ends
        # v's id interval, and every node's interval must sit inside its
        # parent's.  Then each descendant d of v has v < d < after[d] <=
        # after[v], and since (v, after[v]) holds exactly size(v) - 1 ids it
        # holds exactly v's descendants; the children of v therefore tile
        # it in id order, which is the preorder (children-chain) condition.
        after = [v + s for v, s in enumerate(subtree_sizes)]
        # The root's -1 reads after[n - 1], which is n: the last id is a leaf.
        if not all(map(le, after, [after[p] for p in parent])):
            raise ValueError("node ids are not in document (preorder) order")
        self._set_arrays(tuple(labels), parent, tuple(subtree_sizes), [None])

    def _set_arrays(
        self,
        labels: tuple[str, ...],
        parent: tuple[int, ...],
        subtree_sizes: tuple[int, ...],
        columns: list,
    ) -> None:
        self.labels = labels
        self.parent = parent
        self.subtree_sizes = subtree_sizes
        # A one-slot holder for the derived columns, shared with every
        # relabel of this tree (same parent and sizes, so same columns).
        self._columns = columns
        self._alphabet: frozenset[str] | None = None
        self._shape = None
        self._postorder: tuple[int, ...] | None = None
        # Per-tree bitset index, built lazily by repro.trees.index and
        # shared by the XPath plans, the logic engine, and the automata.
        self._engine_index = None

    @classmethod
    def _spliced(
        cls,
        labels: tuple[str, ...],
        parent: tuple[int, ...],
        subtree_sizes: tuple[int, ...],
        columns: list | None = None,
    ) -> "Tree":
        """A tree from already-spliced stored columns, taken as given.

        The edit splice in :mod:`repro.trees.mutate` builds a new
        generation's columns from the old ones and assembles them here,
        skipping the checks; its oracle is ``Tree(labels, parent)``
        (compared by ``tree_fingerprint``).  A relabel passes its base's
        ``_columns`` holder, so the two share the derived columns.
        """
        tree = object.__new__(cls)
        tree._set_arrays(labels, parent, subtree_sizes, columns or [None])
        return tree

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails, which for a derived column
        # means its slot is still unset: derive all six into the shared
        # holder (once), then cache the one asked for in this tree's slot.
        if name not in _DERIVED:
            raise AttributeError(name)
        columns = self._columns
        if columns[0] is None:
            columns[0] = _derive_columns(self.parent, self.subtree_sizes)
        value = columns[0][_DERIVED.index(name)]
        setattr(self, name, value)
        return value

    def __getstate__(self):
        # Only the set slots: object's default reads every slot through
        # getattr, which reaches __getattr__ and derives the unset columns
        # just to ship them.
        return None, _set_slots(self)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, shape: "TreeShape") -> "Tree":
        """Build a tree from a nested ``(label, children)`` shape.

        >>> t = Tree.build(("a", ["b", ("c", ["d"])]))
        >>> t.size
        4
        >>> t.labels
        ('a', 'b', 'c', 'd')
        """
        labels: list[str] = []
        parents: list[int] = []
        # Iterative preorder walk so deep trees do not hit the recursion limit.
        stack: list[tuple[object, int]] = [(shape, -1)]
        while stack:
            item, parent_id = stack.pop()
            if isinstance(item, str):
                label, kids = item, ()
            else:
                label, kids = item  # type: ignore[misc]
            my_id = len(labels)
            labels.append(label)
            parents.append(parent_id)
            for kid in reversed(list(kids)):
                stack.append((kid, my_id))
        return cls(labels, parents)

    @classmethod
    def leaf(cls, label: str) -> "Tree":
        """A single-node tree."""
        return cls([label], [-1])

    # -- basic attributes ----------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return len(self.labels)

    @property
    def root(self) -> Node:
        return Node(self, 0)

    @property
    def height(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        return max(self.depths)

    @property
    def alphabet(self) -> frozenset[str]:
        """The set of labels actually occurring in this tree."""
        if self._alphabet is None:
            self._alphabet = frozenset(self.labels)
        return self._alphabet

    @property
    def postorder(self) -> tuple[int, ...]:
        """Postorder rank of each node (lazy, computed without recursion).

        Together with the preorder ids this gives the classic XPath
        accelerator pre/post window: ``u`` is an ancestor of ``v`` iff
        ``u < v`` and ``postorder[u] > postorder[v]``.  For preorder ids the
        ranks satisfy ``postorder[v] = v + subtree_size(v) - depth(v) - 1``
        (each of ``v``'s ancestors finishes after ``v``, everything else in
        ``v``'s preorder prefix plus ``v``'s proper subtree finishes first).
        """
        if self._postorder is None:
            self._postorder = tuple(
                v + self.subtree_sizes[v] - self.depths[v] - 1
                for v in range(self.size)
            )
        return self._postorder

    def node(self, node_id: int) -> Node:
        return Node(self, node_id)

    def nodes(self) -> Iterator[Node]:
        """All nodes in document order."""
        for i in range(self.size):
            yield Node(self, i)

    @property
    def node_ids(self) -> range:
        return range(self.size)

    # -- structure queries on ids --------------------------------------------

    def children_ids(self, node_id: int) -> tuple[int, ...]:
        """Ids of the children of ``node_id``, in sibling order.

        The first child is ``node_id + 1`` and each next sibling starts
        where the previous child's interval ends, up to ``node_id``'s end.
        """
        sizes = self.subtree_sizes
        end = node_id + sizes[node_id]
        kids = []
        c = node_id + 1
        while c < end:
            kids.append(c)
            c += sizes[c]
        return tuple(kids)

    def descendant_ids(self, node_id: int) -> range:
        """Ids of proper descendants (contiguous thanks to preorder ids)."""
        return range(node_id + 1, node_id + self.subtree_sizes[node_id])

    def subtree_ids(self, node_id: int) -> range:
        """Ids of the subtree rooted at ``node_id`` (node included)."""
        return range(node_id, node_id + self.subtree_sizes[node_id])

    def is_descendant(self, descendant: int, ancestor: int) -> bool:
        """True iff ``descendant`` is a *proper* descendant of ``ancestor``."""
        return ancestor < descendant < ancestor + self.subtree_sizes[ancestor]

    def is_in_subtree(self, node_id: int, scope_root: int) -> bool:
        """True iff ``node_id`` lies in the subtree rooted at ``scope_root``."""
        return scope_root <= node_id < scope_root + self.subtree_sizes[scope_root]

    def subtree(self, node_id: int) -> "Tree":
        """A standalone copy of the subtree rooted at ``node_id``.

        The paper's ``W`` operator and nested-TWA subtree tests both
        conceptually run queries "within" such a subtree; the evaluators avoid
        this copy by scoped evaluation, but automata tests and the test suite
        use it as a ground truth.
        """
        base = node_id
        span = self.subtree_ids(node_id)
        labels = [self.labels[i] for i in span]
        parents = [-1] + [self.parent[i] - base for i in span][1:]
        return Tree(labels, parents)

    # -- conversion / display --------------------------------------------------

    def to_shape(self) -> "str | tuple[str, list]":
        """The nested ``(label, children)`` shape (leaves as bare strings).

        Built by an iterative reverse-document-order sweep (children have
        larger ids than their parent, so their shapes are always ready),
        which keeps deep chains clear of the recursion limit.
        """
        if self._shape is None:
            shapes: list = [None] * self.size
            for v in range(self.size - 1, -1, -1):
                kids = self.children_ids(v)
                if kids:
                    shapes[v] = (self.labels[v], [shapes[c] for c in kids])
                else:
                    shapes[v] = self.labels[v]
            self._shape = shapes[0]
        return self._shape

    def pretty(self) -> str:
        """An indented one-node-per-line rendering, for debugging."""
        lines = []
        for i in range(self.size):
            lines.append("  " * self.depths[i] + self.labels[i])
        return "\n".join(lines)

    def relabel(self, mapping: dict[str, str]) -> "Tree":
        """A copy with labels replaced via ``mapping`` (missing keys kept)."""
        labels = tuple([mapping.get(lbl, lbl) for lbl in self.labels])
        return Tree._spliced(labels, self.parent, self.subtree_sizes, self._columns)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same shape and same labels."""
        return (
            isinstance(other, Tree)
            and other.labels == self.labels
            and other.parent == self.parent
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.parent))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        if self.size <= 8:
            return f"Tree({self.to_shape()!r})"
        return f"Tree(<{self.size} nodes, height {self.height}>)"


def _set_slots(tree: Tree) -> dict:
    """The slots set on ``tree``, by name; an unset derived column is left
    out, not derived (``object.__getattribute__`` skips ``__getattr__``)."""
    state = {}
    for name in Tree.__slots__:
        try:
            state[name] = object.__getattribute__(tree, name)
        except AttributeError:
            pass
    return state


def _derive_columns(parent: tuple[int, ...], sizes: tuple[int, ...]) -> tuple:
    """The pointer columns, depths and child indexes, in ``_DERIVED`` order.

    One pass over the interval ends ``after[v] = v + sizes[v]``: ``v``'s
    first child is ``v + 1`` when its interval holds more than ``v``, and
    its next sibling starts at ``after[v]`` when that is still inside the
    parent's interval (-1 marks "none" in every pointer column).
    """
    n = len(parent)
    after = [v + s for v, s in enumerate(sizes)]
    first_child = [v + 1 if a > v + 1 else -1 for v, a in enumerate(after)]
    next_sibling = [_next_sibling(after, parent, v) for v in range(n)]
    prev_sibling = [-1] * n
    last_child = [-1] * n
    child_indexes = [0] * n
    for v, s in enumerate(next_sibling):
        if s >= 0:
            prev_sibling[s] = v
            child_indexes[s] = child_indexes[v] + 1
        elif v:
            last_child[parent[v]] = v
    depths = [0] * n
    for v in range(1, n):
        depths[v] = depths[parent[v]] + 1
    columns = (first_child, last_child, next_sibling, prev_sibling, depths)
    return (*map(tuple, columns), tuple(child_indexes))


# -- sibling links: no tree or index stores a sibling column; these two
# derive them from the parents and the interval ends after[v] = v + size(v).


def _next_sibling(after: Sequence[int], parent: Sequence[int], v: int) -> int:
    """``v``'s next sibling, -1 for none: ``after[v]`` if that is still
    inside the parent's interval (the root's -1 reads ``after[n - 1] = n``)."""
    w = after[v]
    return w if w < after[parent[v]] else -1


def _prev_siblings(parent: Sequence[int], S: int, budget: int) -> int:
    """The mask of the previous siblings of the nodes in mask ``S``, or -1
    if the search would take more than ``budget`` steps up the parents:
    ``v - 1`` is ``v``'s parent or else the last node of the previous
    sibling's subtree, which the parents climb to."""
    acc = 0
    while S:
        low = S & -S
        S ^= low
        v = low.bit_length() - 1
        p = parent[v]
        u = v - 1
        if u != p:
            while parent[u] != p:
                if not budget:
                    return -1
                budget -= 1
                u = parent[u]
            acc |= 1 << u
    return acc
