"""Live-document edits: subtree insert/delete/relabel with delta reindexing.

Every engine in the repro evaluates against a frozen :class:`Tree` plus its
:class:`~repro.trees.index.TreeIndex`.  This module makes documents *live*
without giving that up: an edit produces a **new** tree (copy-on-write — the
old tree, its index, and every compiled plan cached on it stay valid for
readers pinned to the old snapshot) whose stored columns and index are
both **spliced** from the old generation's instead of derived from scratch.

The preorder-interval representation is what makes the splice cheap.  A
subtree edit touches exactly one contiguous id range ``[pos, pos + k)``:

* a tree stores only ``labels``, ``parent`` and ``subtree_sizes`` (its
  pointer columns are derived on first read, and no edit reads them).
  Below ``pos`` the splice keeps labels and parents and patches sizes on
  the ancestor chain of the edit parent; it takes the inserted subtree's
  columns, parents offset by ``pos``; past the splice only the parents
  shift, by ``±k``.  A relabel copies the label column and shares the
  rest, derived columns included;
* below the splice point the index's per-node ``after`` table changes
  only on the ancestor chain, and past it every entry shifts whole;
* every big-int node-set mask updates by a **shift + splice** —
  ``(m & low) | ((m & ~low) << k)`` on insert and
  ``(m & low) | ((m >> k) & ~low)`` on delete, with
  ``low = (1 << pos) - 1`` (Python's infinite-precision ``~low`` makes the
  high part exact);
* the index holds no per-node mask table: a parent's children mask is
  derived lazily from ``after``, so nothing past the splice point needs
  more than an integer shift;
* subtree sizes (the ``after`` table and the size-keyed ``sib_groups`` /
  ``last_child_groups``) change only on the **ancestor chain** of the edit
  parent, whose nodes sit below the splice and move group whole;
* the parent-offset ``delta_groups`` split exactly at the splice point by
  id arithmetic: a node below the splice whose parent is also below keeps
  its offset, a node above with parent below grows/shrinks by ``k``, and
  both cases are contiguous sub-intervals of each group.

The from-scratch builds are the correctness oracles — ``Tree(labels,
parent)`` for the columns and ``TreeIndex(tree)`` for the index: the
property suite in ``tests/trees/test_mutate.py`` asserts bit-exact
equality (:func:`tree_fingerprint`, :func:`index_fingerprint`) after random
edit scripts, and :func:`apply_edit` is the structural oracle that
builds the edited tree only through ``Tree(labels, parents)``.

Edits round-trip through JSON (:func:`edit_from_json` /
:func:`edit_to_json`), which is how the service tier's ``mutate`` requests
carry them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .index import TreeIndex, tree_index
from .tree import _DERIVED, Tree, _next_sibling, _prev_siblings

__all__ = [
    "InsertSubtree",
    "DeleteSubtree",
    "Relabel",
    "Edit",
    "apply_edit",
    "apply_edits",
    "apply_edit_indexed",
    "edit_from_json",
    "edit_to_json",
    "index_fingerprint",
    "tree_fingerprint",
]


@dataclass(frozen=True)
class InsertSubtree:
    """Insert a standalone subtree as child ``index`` of node ``parent``."""

    parent: int
    index: int
    subtree: Tree
    kind = "insert"


@dataclass(frozen=True)
class DeleteSubtree:
    """Delete node ``node`` together with its whole subtree."""

    node: int
    kind = "delete"


@dataclass(frozen=True)
class Relabel:
    """Replace the label of one node."""

    node: int
    label: str
    kind = "relabel"


Edit = "InsertSubtree | DeleteSubtree | Relabel"


# -- validation --------------------------------------------------------------


def _check_node(tree: Tree, node: int, role: str) -> None:
    if not isinstance(node, int) or isinstance(node, bool):
        raise ValueError(f"{role} must be an int node id, got {node!r}")
    if not 0 <= node < tree.size:
        raise ValueError(
            f"{role} {node!r} out of range for a tree of {tree.size} nodes"
        )


def _check_relabel(tree: Tree, edit: Relabel) -> None:
    _check_node(tree, edit.node, "relabel node")
    if not isinstance(edit.label, str) or not edit.label:
        raise ValueError(f"relabel label must be a non-empty string, got {edit.label!r}")


def _check_delete(tree: Tree, edit: DeleteSubtree) -> None:
    _check_node(tree, edit.node, "delete node")
    if edit.node == 0:
        raise ValueError("cannot delete the root")


def _insert_position(tree: Tree, edit: InsertSubtree) -> tuple[int, int]:
    """The preorder id the inserted subtree's root will take, and the id of
    its previous sibling-to-be (-1 when it becomes the first child).

    Walks the parent's children over the subtree sizes, only as far as
    the insert index: child ``i + 1`` starts where child ``i`` ends.
    """
    _check_node(tree, edit.parent, "insert parent")
    index = edit.index
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValueError(f"insert index must be an int, got {index!r}")
    sizes = tree.subtree_sizes
    end = edit.parent + sizes[edit.parent]
    prev, pos = -1, edit.parent + 1
    steps = 0
    while steps < index and pos < end:
        prev, pos = pos, pos + sizes[pos]
        steps += 1
    if steps != index:  # negative, or past the last child
        raise ValueError(
            f"insert index {index} out of range: node {edit.parent} has "
            f"{len(tree.children_ids(edit.parent))} children"
        )
    if not isinstance(edit.subtree, Tree):
        raise ValueError(f"insert subtree must be a Tree, got {edit.subtree!r}")
    return pos, prev


# -- structural application (no index) ---------------------------------------


def apply_edit(tree: Tree, edit) -> Tree:
    """Apply one edit structurally, returning a brand-new :class:`Tree`.

    The input tree is never touched (trees are immutable); this is the
    copy-on-write snapshot boundary.  The returned tree has **no** index
    attached — use :func:`apply_edit_indexed` on the hot path.  This is
    the from-scratch structural oracle of the splice: it edits only the
    label and parent arrays and lets ``Tree(labels, parents)`` derive and
    check the rest, sharing nothing with :func:`apply_edit_indexed` but
    argument validation.
    """
    if isinstance(edit, Relabel):
        _check_relabel(tree, edit)
        labels = list(tree.labels)
        labels[edit.node] = edit.label
        return Tree(labels, tree.parent)
    if isinstance(edit, InsertSubtree):
        return Tree(*_insert_arrays(tree, edit))
    if isinstance(edit, DeleteSubtree):
        return Tree(*_delete_arrays(tree, edit))
    raise ValueError(f"unknown edit {edit!r}")


def apply_edits(tree: Tree, edits) -> Tree:
    """Fold an edit script left-to-right with :func:`apply_edit`."""
    for edit in edits:
        tree = apply_edit(tree, edit)
    return tree


def _insert_arrays(tree: Tree, edit: InsertSubtree):
    pos, _ = _insert_position(tree, edit)
    sub = edit.subtree
    k = sub.size
    labels = list(tree.labels[:pos]) + list(sub.labels) + list(tree.labels[pos:])
    parents = list(tree.parent[:pos])
    parents.append(edit.parent)
    for i in range(1, k):
        parents.append(sub.parent[i] + pos)
    for i in range(pos, tree.size):
        p = tree.parent[i]
        parents.append(p + k if p >= pos else p)
    return labels, parents


def _delete_arrays(tree: Tree, edit: DeleteSubtree):
    _check_delete(tree, edit)
    x = edit.node
    k = tree.subtree_sizes[x]
    labels = list(tree.labels[:x]) + list(tree.labels[x + k :])
    parents = list(tree.parent[:x])
    for i in range(x + k, tree.size):
        p = tree.parent[i]
        # Survivors never have a parent inside the deleted interval: such a
        # parent would make them descendants of x, hence deleted themselves.
        parents.append(p - k if p >= x + k else p)
    return labels, parents


# -- incremental maintenance (the splice) -------------------------------------


def apply_edit_indexed(tree: Tree, edit) -> Tree:
    """Apply one edit by splicing the old generation's arrays and index.

    Returns a new tree whose structural arrays and cached index were both
    assembled from the old ones (see module docstring) rather than derived
    from scratch — bit-exact with ``Tree(labels, parent)`` and
    ``TreeIndex(tree)``, validated by the property suite.  The old tree
    and its index are untouched.
    """
    old = tree_index(tree)
    if isinstance(edit, Relabel):
        new_tree, index = _relabel_indexed(tree, old, edit)
    elif isinstance(edit, InsertSubtree):
        new_tree, index = _insert_indexed(tree, old, edit)
    elif isinstance(edit, DeleteSubtree):
        new_tree, index = _delete_indexed(tree, old, edit)
    else:
        raise ValueError(f"unknown edit {edit!r}")
    new_tree._engine_index = index
    return new_tree


def _ancestor_chain(tree: Tree, after: list[int], node: int):
    """Ancestors-or-self of ``node``, the splice's parent: below the splice
    point, the only nodes whose subtree size, ``after``, last child or
    next sibling offset can change (any other node there ends before the
    splice).

    Returns the chain (``node`` first), its mask, and the mask of the
    chain nodes whose last child lies past the splice: those whose child
    on the chain has a later sibling.
    """
    chain = [node]
    mask = 1 << node
    late = 0
    parent = tree.parent
    u, p = node, parent[node]
    while p >= 0:
        chain.append(p)
        mask |= 1 << p
        if _next_sibling(after, parent, u) >= 0:
            late |= 1 << p
        u, p = p, parent[p]
    return chain, mask, late


def _relabel_indexed(tree: Tree, old: TreeIndex, edit: Relabel):
    _check_relabel(tree, edit)
    labels = list(tree.labels)
    labels[edit.node] = edit.label
    # Structure is untouched: the new tree shares the parent and size
    # tuples and the holder of the derived columns.
    new_tree = Tree._spliced(
        tuple(labels), tree.parent, tree.subtree_sizes, tree._columns
    )
    label_masks = dict(old.label_masks)
    old_label = tree.labels[edit.node]
    if edit.label != old_label:
        bit = 1 << edit.node
        remaining = label_masks[old_label] & ~bit
        if remaining:
            label_masks[old_label] = remaining
        else:
            del label_masks[old_label]
        label_masks[edit.label] = label_masks.get(edit.label, 0) | bit
    # ...and so does the index, every table being read-only after
    # construction.
    index = TreeIndex._from_parts(
        new_tree,
        label_masks=label_masks,
        after=old.after,
        delta_groups=old.delta_groups,
        sib_groups=old.sib_groups,
        leaf_mask=old.leaf_mask,
        first_mask=old.first_mask,
        last_mask=old.last_mask,
        last_child_groups=old.last_child_groups,
    )
    return new_tree, index


def _insert_indexed(tree: Tree, old: TreeIndex, edit: InsertSubtree):
    pos, prev = _insert_position(tree, edit)
    sub = edit.subtree
    subidx = tree_index(sub)
    k = sub.size
    n = old.n
    P = edit.parent
    sizes = tree.subtree_sizes
    has_next = pos < old.after[P]  # the new node gets a next sibling
    low = (1 << pos) - 1
    chain, chain_mask, late = _ancestor_chain(tree, old.after, P)

    def up(mask: int) -> int:
        return (mask & low) | ((mask & ~low) << k)

    # -- stored tree columns: ids below pos keep their labels and parents
    # and (off the chain) their sizes; the inserted block is the subtree's
    # columns, its parents offset by pos; the suffix's parents shift by k.
    subtree_sizes = list(sizes[:pos])
    for u in chain:
        subtree_sizes[u] += k
    new_tree = Tree._spliced(
        tree.labels[:pos] + sub.labels + tree.labels[pos:],
        tree.parent[:pos]
        + (P,)
        + tuple(
            [p + pos for p in sub.parent[1:]]
            + [p + k if p >= pos else p for p in tree.parent[pos:]]
        ),
        tuple(subtree_sizes) + sub.subtree_sizes + sizes[pos:],
    )

    # -- index tables: below pos only chain entries change; the suffix
    # shifts whole.
    after = old.after[:pos]
    for u in chain:
        after[u] += k
    after += [pos + a for a in subidx.after]
    after += [a + k for a in old.after[pos:]]

    label_masks = {}
    for label, m in old.label_masks.items():
        label_masks[label] = up(m)
    for label, m in subidx.label_masks.items():
        label_masks[label] = label_masks.get(label, 0) | (m << pos)

    root_bit = 1 << pos
    leaf_mask = (up(old.leaf_mask) | (subidx.leaf_mask << pos)) & ~(1 << P)
    first_mask = up(old.first_mask) | (subidx.first_mask << pos)
    last_mask = up(old.last_mask) | (subidx.last_mask << pos)
    if prev >= 0:
        first_mask &= ~root_bit  # the new node has a previous sibling
    elif has_next:
        first_mask &= ~(1 << (pos + k))  # old first child demoted
    if has_next:
        last_mask &= ~root_bit  # the new node has a next sibling
    elif prev >= 0:
        last_mask &= ~(1 << prev)  # old last child demoted (id < pos)

    # delta_groups: exact interval split.  For group (d, g): v < pos keeps
    # d; v in [pos, pos+d) has its parent below the splice, so the offset
    # grows by k; v >= pos+d has parent >= pos, so the offset is preserved.
    acc: dict[int, int] = {}
    for d, g in old.delta_groups:
        below = g & low
        bound = pos + d if pos + d < n else n
        straddle = (1 << bound) - (1 << pos)
        mid = g & straddle
        high = g & ~low & ~straddle
        if below:
            acc[d] = acc.get(d, 0) | below
        if mid:
            acc[d + k] = acc.get(d + k, 0) | (mid << k)
        if high:
            acc[d] = acc.get(d, 0) | (high << k)
    for d, g in subidx.delta_groups:
        acc[d] = acc.get(d, 0) | (g << pos)
    acc[pos - P] = acc.get(pos - P, 0) | root_bit  # the new edge P -> pos
    delta_groups = sorted(acc.items())

    # sib_groups (keyed by subtree size): the chain, all below pos, grows
    # by k and moves group whole; the rest splices.  Then repair the edit
    # site's siblings.
    acc = {}
    for s, g in old.sib_groups:
        moved = g & chain_mask
        rest = g ^ moved
        if rest:
            acc[s] = acc.get(s, 0) | up(rest)
        if moved:
            acc[s + k] = acc.get(s + k, 0) | moved
    if has_next:
        acc[k] = acc.get(k, 0) | root_bit  # new node's next sibling at +k
    elif prev >= 0:
        # The old last child (id < pos) gains a next sibling.
        acc[sizes[prev]] = acc.get(sizes[prev], 0) | (1 << prev)
    for s, g in subidx.sib_groups:
        acc[s] = acc.get(s, 0) | (g << pos)
    sib_groups = sorted(acc.items())

    # last_child_groups: the affected owners are exactly the chain (a
    # non-chain node u < pos with last_child(u) >= pos would contain the
    # splice, i.e. be an ancestor of P).  A chain owner whose last child
    # lies past pos moves group by k; P's last child is the new node when
    # that is last.
    grow = late | (1 << P) if has_next else late
    acc = {}
    for d, g in old.last_child_groups:
        moved = g & grow
        rest = g & ~grow & ~(1 << P)
        if rest:
            acc[d] = acc.get(d, 0) | up(rest)
        if moved:
            acc[d + k] = acc.get(d + k, 0) | moved
    if not has_next:
        acc[pos - P] = acc.get(pos - P, 0) | (1 << P)
    for d, g in subidx.last_child_groups:
        acc[d] = acc.get(d, 0) | (g << pos)
    last_child_groups = sorted(acc.items())

    index = TreeIndex._from_parts(
        new_tree,
        label_masks=label_masks,
        after=after,
        delta_groups=delta_groups,
        sib_groups=sib_groups,
        leaf_mask=leaf_mask,
        first_mask=first_mask,
        last_mask=last_mask,
        last_child_groups=last_child_groups,
    )
    return new_tree, index


def _delete_indexed(tree: Tree, old: TreeIndex, edit: DeleteSubtree):
    _check_delete(tree, edit)
    x = edit.node
    sizes = tree.subtree_sizes
    parent = tree.parent
    k = sizes[x]
    n = old.n
    P = parent[x]
    end = x + k
    low = (1 << x) - 1
    interval = (1 << end) - (1 << x)  # the deleted id range [x, x+k)
    chain, chain_mask, late = _ancestor_chain(tree, old.after, P)
    has_next = _next_sibling(old.after, parent, x) >= 0  # at `end`
    # x's previous sibling, -1 for none (an empty mask); no climb is
    # longer than n steps.
    prev = _prev_siblings(parent, 1 << x, n).bit_length() - 1

    def down(mask: int) -> int:
        # Deleted bits shift into [x-k, x) and are cleared by the ~low
        # guard on the high part / absent from the untouched low part.
        return (mask & low) | ((mask >> k) & ~low)

    # -- stored tree columns: ids below x keep their labels and parents
    # and (off the chain) their sizes; the survivors past the deleted
    # interval, none of which has a parent inside it, shift down by k.
    subtree_sizes = list(sizes[:x])
    for u in chain:
        subtree_sizes[u] -= k
    new_tree = Tree._spliced(
        tree.labels[:x] + tree.labels[end:],
        parent[:x] + tuple([p - k if p >= end else p for p in parent[end:]]),
        tuple(subtree_sizes) + sizes[end:],
    )

    # -- index tables: below x only chain entries change; the survivors
    # past the interval shift whole.
    after = old.after[:x]
    for u in chain:
        after[u] -= k
    after += [a - k for a in old.after[end:]]

    label_masks = {}
    for label, m in old.label_masks.items():
        m = down(m)
        if m:
            label_masks[label] = m

    leaf_mask = down(old.leaf_mask)
    first_mask = down(old.first_mask)
    last_mask = down(old.last_mask)
    if prev < 0 and not has_next:
        leaf_mask |= 1 << P  # x was the only child
    if prev < 0 and has_next:
        first_mask |= 1 << x  # next sibling's new id is end - k == x
    if prev >= 0 and not has_next:
        last_mask |= 1 << prev  # prev sibling (id < x) becomes last

    # delta_groups: clear the deleted interval, then split as on insert.
    # The gap [x + d, x + k + d) is provably empty in every group: a node
    # there would have its parent inside the deleted interval.
    acc: dict[int, int] = {}
    for d, g in old.delta_groups:
        g &= ~interval
        if not g:
            continue
        below = g & low
        bound = x + d if x + d < n else n
        straddle = (1 << bound) - (1 << x)
        mid = g & straddle
        high = g & ~low & ~straddle
        if below:
            acc[d] = acc.get(d, 0) | below
        if mid:
            acc[d - k] = acc.get(d - k, 0) | (mid >> k)
        if high:
            acc[d] = acc.get(d, 0) | (high >> k)
    delta_groups = sorted(acc.items())

    pre_clear = chain_mask | interval
    if prev >= 0 and not has_next:
        pre_clear |= 1 << prev  # prev sibling loses its next sibling
    acc = {}
    for s, g in old.sib_groups:
        moved = g & chain_mask  # the chain shrinks by k and moves group
        rest = g & ~pre_clear
        if rest:
            acc[s] = acc.get(s, 0) | down(rest)
        if moved:
            acc[s - k] = acc.get(s - k, 0) | moved
    sib_groups = sorted(acc.items())

    # A chain owner whose last child lies past the interval moves group by
    # -k; when x was P's last child, P's last child becomes its previous
    # sibling, or none.
    shrink = late | (1 << P) if has_next else late
    acc = {}
    for d, g in old.last_child_groups:
        moved = g & shrink
        rest = g & ~shrink & ~(1 << P) & ~interval
        if rest:
            acc[d] = acc.get(d, 0) | down(rest)
        if moved:
            acc[d - k] = acc.get(d - k, 0) | moved
    if prev >= 0 and not has_next:
        acc[prev - P] = acc.get(prev - P, 0) | (1 << P)
    last_child_groups = sorted(acc.items())

    index = TreeIndex._from_parts(
        new_tree,
        label_masks=label_masks,
        after=after,
        delta_groups=delta_groups,
        sib_groups=sib_groups,
        leaf_mask=leaf_mask,
        first_mask=first_mask,
        last_mask=last_mask,
        last_child_groups=last_child_groups,
    )
    return new_tree, index


# -- JSON round-trip (the service wire format) --------------------------------

_EDIT_FIELDS = {
    "relabel": {"kind", "node", "label"},
    "delete": {"kind", "node"},
    "insert": {"kind", "parent", "index", "xml", "shape"},
}

def _tree_from_shape_json(obj) -> Tree:
    """Build a tree from the JSON shape form: a label string for a leaf,
    ``[label, [child, ...]]`` for an inner node.  Iterative (like
    :meth:`Tree.build`), so arbitrarily deep shapes never hit the
    recursion limit."""
    labels: list[str] = []
    parents: list[int] = []
    stack = [(obj, -1)]
    while stack:
        item, parent_id = stack.pop()
        if isinstance(item, str):
            label, kids = item, ()
        elif (
            isinstance(item, (list, tuple))
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], (list, tuple))
        ):
            label, kids = item
        else:
            raise ValueError(
                f"bad shape {item!r}: expected a label string or "
                "[label, [children]]"
            )
        my_id = len(labels)
        labels.append(label)
        parents.append(parent_id)
        for kid in reversed(list(kids)):
            stack.append((kid, my_id))
    return Tree(labels, parents)


def _shape_to_json(tree: Tree):
    # Reverse-document-order sweep: children have larger ids, so their
    # shapes are ready when the parent assembles (no recursion).
    shapes: list = [None] * tree.size
    for v in range(tree.size - 1, -1, -1):
        kids = tree.children_ids(v)
        if kids:
            shapes[v] = [tree.labels[v], [shapes[c] for c in kids]]
        else:
            shapes[v] = tree.labels[v]
    return shapes[0]


def edit_from_json(payload) -> "InsertSubtree | DeleteSubtree | Relabel":
    """Decode one edit from its JSON dict (unknown keys/kinds rejected)."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"edit must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind not in _EDIT_FIELDS:
        raise ValueError(
            f"unknown edit kind {kind!r}; expected one of "
            f"{sorted(_EDIT_FIELDS)}"
        )
    unknown = set(payload) - _EDIT_FIELDS[kind]
    if unknown:
        raise ValueError(f"unknown edit field(s) for {kind!r}: {sorted(unknown)}")
    if kind == "relabel":
        if "node" not in payload or "label" not in payload:
            raise ValueError("relabel edit requires 'node' and 'label'")
        return Relabel(node=payload["node"], label=payload["label"])
    if kind == "delete":
        if "node" not in payload:
            raise ValueError("delete edit requires 'node'")
        return DeleteSubtree(node=payload["node"])
    if "parent" not in payload or "index" not in payload:
        raise ValueError("insert edit requires 'parent' and 'index'")
    has_xml = "xml" in payload
    has_shape = "shape" in payload
    if has_xml == has_shape:
        raise ValueError("insert edit requires exactly one of 'xml' or 'shape'")
    if has_xml:
        from .xml_io import parse_xml

        subtree = parse_xml(payload["xml"])
    else:
        subtree = _tree_from_shape_json(payload["shape"])
    return InsertSubtree(
        parent=payload["parent"], index=payload["index"], subtree=subtree
    )


def edit_to_json(edit) -> dict:
    """The JSON dict for one edit (inserts carry their subtree as a shape)."""
    if isinstance(edit, Relabel):
        return {"kind": "relabel", "node": edit.node, "label": edit.label}
    if isinstance(edit, DeleteSubtree):
        return {"kind": "delete", "node": edit.node}
    if isinstance(edit, InsertSubtree):
        return {
            "kind": "insert",
            "parent": edit.parent,
            "index": edit.index,
            "shape": _shape_to_json(edit.subtree),
        }
    raise ValueError(f"unknown edit {edit!r}")


# -- the oracle comparison helpers -------------------------------------------

#: Every structural array of a :class:`Tree`: the stored three, then the
#: derived ones.
_TREE_ARRAYS = ("labels", "parent", "subtree_sizes", *_DERIVED)


def tree_fingerprint(tree: Tree) -> dict:
    """Every structural array of a tree, as plain comparable values.

    The splice's contract on the tree side: a tree built by
    :func:`apply_edit_indexed` must match ``Tree(labels, parent)`` on
    every array, not just on the labels and parents it is keyed by.  Both
    sides derive their pointer columns, depths and child indexes with one
    function from their parents and sizes, so those compare the stored
    sizes (and any column set on the tree directly); the independent
    oracle of the derivation is the children-chain constructor of the
    tree tests.
    """
    return {name: getattr(tree, name) for name in _TREE_ARRAYS}


def index_fingerprint(index: TreeIndex) -> dict:
    """Every stored table of an index, as plain comparable values.

    Two indexes over equal trees must produce identical fingerprints —
    this is the bit-exactness contract the incremental maintenance is
    property-tested against (oracle: ``TreeIndex(tree)`` from scratch).
    Lazily derived state is left out: the children masks follow from
    ``after`` here.
    """
    return {
        "n": index.n,
        "full": index.full,
        "label_masks": dict(index.label_masks),
        "after": list(index.after),
        "delta_groups": [tuple(item) for item in index.delta_groups],
        "sib_groups": [tuple(item) for item in index.sib_groups],
        "last_child_groups": [tuple(item) for item in index.last_child_groups],
        "leaf_mask": index.leaf_mask,
        "internal_mask": index.internal_mask,
        "first_mask": index.first_mask,
        "last_mask": index.last_mask,
    }
