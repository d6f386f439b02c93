"""The columnar section codec of a :class:`~repro.trees.index.TreeIndex`.

The bitset engines' whole representation — node sets as big ints over
preorder ids — was chosen because it packs into flat byte buffers without
any pointer chasing.  This module is that packing: a tree and its index
become a list of tagged **sections**, mirroring the pre/post-order "XPath
accelerator" encoding (one flat table per axis-relevant attribute) in
relational form.  The on-disk store (:mod:`repro.trees.store`, format
RSTR v2) frames these sections with its header, offset table and
per-section checksums; shard processes of the sharded query service read
those files.

Sections (W = ``(n + 7) // 8``, the fixed mask width in bytes; all
integers little-endian):

========================  ===================================================
``PARENTS``               n × i32 parent ids (root = -1)
``LABEL_TABLE``           u32 count, then per label u32 byte-length + UTF-8
``LABEL_IDS``             n × u32 indexes into the label table
``AFTER``                 n × u32 (``after[v] = v + subtree_size(v)``)
``FLAG_MASKS``            3 × W: leaf, first-sibling, last-sibling masks
``LABEL_MASKS``           one W-byte mask per label, in table order
``DELTA_GROUPS``          u32 count, count × u32 deltas, count × W masks
``SIB_GROUPS``            same encoding (sizes instead of deltas)
``LAST_CHILD_GROUPS``     same encoding
========================  ===================================================

The mask sections hold one mask per label and per distinct delta or
size, not one per node: the index derives children masks from ``AFTER``
and the parents and reads interval masks from a process-wide table, so
unlike version 1 (tags 7 and 11, 90% of an n=2048 file) the format
stores neither.

Masks reconstruct in the reading process with one ``int.from_bytes`` each
over a memoryview slice of the file's bytes — no pickling, no per-node
Python objects.  :func:`tree_from_sections` raises a structured
:class:`~repro.runtime.errors.TreeShareError` on any structural mismatch
inside the sections, which the store reports as corruption.
"""

from __future__ import annotations

import struct

from ..runtime.errors import TreeShareError
from .index import TreeIndex
from .tree import Tree

__all__ = ["build_sections", "tree_from_sections"]

# Section tags (the offset table makes the layout self-describing, so new
# sections can be appended in later versions without breaking old readers).
# Tags 7 and 11 were version 1's quadratic tables and stay unused.
T_PARENTS = 1
T_LABEL_TABLE = 2
T_LABEL_IDS = 3
T_AFTER = 4
T_FLAG_MASKS = 5
T_LABEL_MASKS = 6
T_DELTA_GROUPS = 8
T_SIB_GROUPS = 9
T_LAST_CHILD_GROUPS = 10

_REQUIRED_TAGS = (
    T_PARENTS,
    T_LABEL_TABLE,
    T_LABEL_IDS,
    T_AFTER,
    T_FLAG_MASKS,
    T_LABEL_MASKS,
    T_DELTA_GROUPS,
    T_SIB_GROUPS,
    T_LAST_CHILD_GROUPS,
)


def _grouped_bytes(groups: list[tuple[int, int]], width: int) -> bytes:
    """Encode ``[(key, mask), ...]`` as count + keys + fixed-width masks."""
    out = bytearray(struct.pack("<I", len(groups)))
    for key, _ in groups:
        out += struct.pack("<I", key)
    for _, mask in groups:
        out += mask.to_bytes(width, "little")
    return bytes(out)


def _read_groups(view: memoryview, width: int, n: int) -> list[tuple[int, int]]:
    if len(view) < 4:
        raise TreeShareError("group section too short for its count header")
    (count,) = struct.unpack_from("<I", view, 0)
    need = 4 + count * (4 + width)
    if len(view) != need:
        raise TreeShareError(
            f"group section length {len(view)} != expected {need} "
            f"for {count} groups of width {width}"
        )
    keys = struct.unpack_from(f"<{count}I", view, 4) if count else ()
    base = 4 + 4 * count
    groups = []
    for i, key in enumerate(keys):
        off = base + i * width
        groups.append((key, int.from_bytes(view[off : off + width], "little")))
    return groups


def build_sections(index: TreeIndex) -> list[tuple[int, bytes]]:
    """The full ``(tag, payload)`` section list for ``index``.

    The canonical serialization of a tree + index; the on-disk store
    writer (:mod:`repro.trees.store`) wraps it in the RSTR framing.
    """
    n = index.n
    width = (n + 7) // 8

    label_order = sorted(index.label_masks)
    label_id = {label: i for i, label in enumerate(label_order)}
    label_table = bytearray(struct.pack("<I", len(label_order)))
    for label in label_order:
        encoded = label.encode("utf-8")
        label_table += struct.pack("<I", len(encoded))
        label_table += encoded

    sections: list[tuple[int, bytes]] = [
        (T_PARENTS, struct.pack(f"<{n}i", *index.parents)),
        (T_LABEL_TABLE, bytes(label_table)),
        (T_LABEL_IDS, struct.pack(f"<{n}I", *(label_id[l] for l in index.labels))),
        (T_AFTER, struct.pack(f"<{n}I", *index.after)),
        (
            T_FLAG_MASKS,
            index.leaf_mask.to_bytes(width, "little")
            + index.first_mask.to_bytes(width, "little")
            + index.last_mask.to_bytes(width, "little"),
        ),
        (
            T_LABEL_MASKS,
            b"".join(
                index.label_masks[label].to_bytes(width, "little")
                for label in label_order
            ),
        ),
        (T_DELTA_GROUPS, _grouped_bytes(index.delta_groups, width)),
        (T_SIB_GROUPS, _grouped_bytes(index.sib_groups, width)),
        (T_LAST_CHILD_GROUPS, _grouped_bytes(index.last_child_groups, width)),
    ]
    return sections


def tree_from_sections(
    view: memoryview, entries: dict[int, tuple[int, int]], n: int
) -> Tree:
    """Reconstruct a tree + index from validated section bounds.

    The reader half of the codec: ``entries`` maps section tag to
    ``(offset, length)`` within ``view``, whose framing — header layout,
    bounds, checksums — the caller has already validated.  Every table is
    materialized eagerly, so nothing built here keeps ``view`` alive.
    Raises :class:`TreeShareError` on structural problems within the
    sections themselves.
    """
    width = (n + 7) // 8

    def section(tag: int, expected: int | None = None) -> memoryview:
        if tag not in entries:
            raise TreeShareError(f"missing required section {tag}")
        offset, length = entries[tag]
        sub = view[offset : offset + length]
        if expected is not None and len(sub) != expected:
            raise TreeShareError(
                f"section {tag} has length {len(sub)}, expected {expected}"
            )
        return sub

    parents = struct.unpack(f"<{n}i", section(T_PARENTS, 4 * n))

    table_view = section(T_LABEL_TABLE)
    if len(table_view) < 4:
        raise TreeShareError("label table too short for its count header")
    (label_count,) = struct.unpack_from("<I", table_view, 0)
    labels_by_id: list[str] = []
    pos = 4
    for _ in range(label_count):
        if pos + 4 > len(table_view):
            raise TreeShareError("label table truncated mid-entry")
        (length,) = struct.unpack_from("<I", table_view, pos)
        pos += 4
        if pos + length > len(table_view):
            raise TreeShareError("label table truncated mid-label")
        labels_by_id.append(bytes(table_view[pos : pos + length]).decode("utf-8"))
        pos += length

    label_ids = struct.unpack(f"<{n}I", section(T_LABEL_IDS, 4 * n))
    if any(i >= label_count for i in label_ids):
        raise TreeShareError("label id out of range for the label table")
    labels = [labels_by_id[i] for i in label_ids]

    try:
        tree = Tree(labels, parents)
    except ValueError as exc:
        raise TreeShareError(f"sections do not encode a valid tree: {exc}") from exc

    after = list(struct.unpack(f"<{n}I", section(T_AFTER, 4 * n)))

    flags = section(T_FLAG_MASKS, 3 * width)
    leaf_mask = int.from_bytes(flags[0:width], "little")
    first_mask = int.from_bytes(flags[width : 2 * width], "little")
    last_mask = int.from_bytes(flags[2 * width : 3 * width], "little")

    label_mask_view = section(T_LABEL_MASKS, label_count * width)
    label_masks = {
        label: int.from_bytes(
            label_mask_view[i * width : (i + 1) * width], "little"
        )
        for i, label in enumerate(labels_by_id)
    }

    delta_groups = _read_groups(section(T_DELTA_GROUPS), width, n)
    sib_groups = _read_groups(section(T_SIB_GROUPS), width, n)
    last_child_groups = _read_groups(section(T_LAST_CHILD_GROUPS), width, n)

    index = TreeIndex._from_parts(
        tree,
        label_masks=label_masks,
        after=after,
        delta_groups=delta_groups,
        sib_groups=sib_groups,
        leaf_mask=leaf_mask,
        first_mask=first_mask,
        last_mask=last_mask,
        last_child_groups=last_child_groups,
    )
    tree._engine_index = index
    return tree
