"""Node sets as Python big-int bitmasks over preorder ids.

The bitset backend represents every node set as one arbitrary-precision
integer: bit ``i`` is set iff node ``i`` (preorder / document-order rank)
is in the set.  Because CPython big ints are contiguous arrays of 30-bit
digits, the boolean algebra on node sets (``&``, ``|``, ``^``, ``~`` against
a universe mask) runs at memcpy-like speed — the per-element interpreter
overhead of ``set[int]`` disappears.

Two structural facts about preorder ids make whole *axes* cheap in this
representation (see :mod:`repro.xpath.engine.kernels`):

* the subtree of ``v`` is the contiguous id interval
  ``[v, v + subtree_size(v))``, so ``descendant``, ``following``,
  ``preceding`` and ``W``-scope clipping are interval masks;
* single-step axes have *shift structure*: a next sibling lives exactly
  ``subtree_size(v)`` positions to the left of ``v``'s bit, a child exactly
  ``child - parent`` positions — so one-step images are unions of
  ``(mask & group) << delta`` over the distinct deltas of the tree.

This module holds only the representation-level helpers; the tree-aware
kernels live in :mod:`repro.xpath.engine.kernels` and plan compilation in
:mod:`repro.xpath.engine.plan`.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

__all__ = [
    "bit",
    "from_ids",
    "to_ids",
    "to_set",
    "to_frozenset",
    "iter_bits",
    "iter_bits_reversed",
    "popcount",
    "lowest_bit",
    "highest_bit",
]

_WORD = 0xFFFFFFFFFFFFFFFF  # chunk masks into 64-bit words when iterating
_ONE = re.compile("1")


def bit(node_id: int) -> int:
    """The singleton mask {node_id}."""
    return 1 << node_id


def from_ids(ids: Iterable[int]) -> int:
    """Build a mask from an iterable of node ids."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order.

    Chunks the big int into 64-bit words first: extracting the lowest set
    bit of a *small* int is O(1), whereas doing it directly on an n-bit int
    costs O(n/64) per step.
    """
    base = 0
    while mask:
        word = mask & _WORD
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low
        mask >>= 64
        base += 64


def iter_bits_reversed(mask: int) -> Iterator[int]:
    """Yield set bit positions in decreasing order."""
    while mask:
        top = mask.bit_length() - 1
        yield top
        mask ^= 1 << top


def to_ids(mask: int) -> list[int]:
    """The sorted list of node ids in the mask.

    One C-level scan: the reversed binary string holds node ``i``'s bit at
    index ``i``.  On a 2048-bit mask with 504 bits set it is 1.6x faster
    than :func:`iter_bits`; on a mask of a few bits it costs about half a
    microsecond more.
    """
    return [m.start() for m in _ONE.finditer(bin(mask)[:1:-1])]


def to_set(mask: int) -> set[int]:
    """The mask as a mutable ``set`` (the sets backend's currency)."""
    return set(to_ids(mask))


def to_frozenset(mask: int) -> frozenset[int]:
    """The mask as a ``frozenset`` (the public ``nodes()`` result type)."""
    return frozenset(to_ids(mask))


def popcount(mask: int) -> int:
    """Number of nodes in the set."""
    return mask.bit_count()


def lowest_bit(mask: int) -> int:
    """Position of the lowest set bit (mask must be non-zero)."""
    return (mask & -mask).bit_length() - 1


def highest_bit(mask: int) -> int:
    """Position of the highest set bit (mask must be non-zero)."""
    return mask.bit_length() - 1
