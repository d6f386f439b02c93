"""The section codec in memory: bit-exactness and corruption.

Every tree a shard serves crosses the process boundary as the codec's
sections inside an RSTR frame (:mod:`repro.trees.store`).  This file
proves the two properties of that representation without a file in
between; ``test_store.py`` covers the same path through ``TreeStore``
files:

* **round-trip fidelity** — ``build_sections`` → (any buffer) →
  ``tree_from_sections`` reproduces every stored table the engines
  consult *bit-exactly* (``index_fingerprint``), for arbitrary trees
  (random shapes, empty labels, single node, deep chains).  A single
  flipped bit in a group or label mask silently corrupts every query
  answer, so the comparison is integer equality on the full big-int
  masks, not a sample.
* **structured corruption failure** — a truncated section raises
  :class:`~repro.runtime.errors.TreeShareError`, and a truncated,
  bit-flipped, or version-skewed frame raises
  :class:`~repro.runtime.errors.StoreCorruptError` (both the ``io`` exit
  code), never an unstructured struct/index error and never a silently
  wrong tree.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.errors import StoreCorruptError, TreeShareError, exit_code_for
from repro.trees import (
    Tree,
    chain,
    pack_bytes,
    parse_xml,
    random_tree,
    to_xml,
    tree_index,
)
from repro.trees.mutate import index_fingerprint
from repro.trees.share import build_sections, tree_from_sections
from repro.trees.store import FORMAT_VERSION, _validate


def assert_index_equal(original, loaded):
    """Every stored mask family, compared bit-exactly."""
    assert index_fingerprint(loaded) == index_fingerprint(original)


def lay_out(sections) -> "tuple[memoryview, dict[int, tuple[int, int]]]":
    """Concatenate ``(tag, payload)`` sections into one plain buffer."""
    buf = bytearray()
    entries = {}
    for tag, payload in sections:
        entries[tag] = (len(buf), len(payload))
        buf += payload
    return memoryview(bytes(buf)), entries


def roundtrip(tree: Tree) -> Tree:
    view, entries = lay_out(build_sections(tree_index(tree)))
    return tree_from_sections(view, entries, tree.size)


def decode_blob(blob: bytes) -> Tree:
    """Read an RSTR blob in memory: every frame check, then the codec."""
    view = memoryview(blob)
    entries, n, _ = _validate(view, "blob")
    return tree_from_sections(view, entries, n)


class TestRoundTrip:
    def test_single_node(self):
        tree = parse_xml("<a/>")
        loaded = roundtrip(tree)
        assert loaded.size == 1
        assert_index_equal(tree_index(tree), tree_index(loaded))

    def test_empty_labels(self):
        # Empty-string labels are legal in the data model and must survive
        # the length-prefixed label table.
        tree = Tree(labels=["", "a", "", "b"], parents=[-1, 0, 0, 2])
        loaded = roundtrip(tree)
        assert loaded.labels == tree.labels
        assert_index_equal(tree_index(tree), tree_index(loaded))

    def test_deep_chain(self):
        tree = chain(300, "abc")
        loaded = roundtrip(tree)
        assert loaded.parent == tree.parent
        assert_index_equal(tree_index(tree), tree_index(loaded))

    def test_xml_identity(self):
        tree = random_tree(120, "abc", random.Random(3))
        assert to_xml(roundtrip(tree)) == to_xml(tree)

    def test_dump_tree_convenience(self):
        # pack_bytes is the one-call writer: sections plus their frame.
        tree = random_tree(40, "ab", random.Random(5))
        loaded = decode_blob(pack_bytes(tree_index(tree), epoch=4))
        assert_index_equal(tree_index(tree), tree_index(loaded))

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        alphabet=st.sampled_from(["a", "ab", "abc", "xyzw"]),
    )
    def test_random_trees_bit_exact(self, size, seed, alphabet):
        tree = random_tree(size, alphabet, random.Random(seed))
        loaded = roundtrip(tree)
        assert loaded.labels == tree.labels
        assert loaded.parent == tree.parent
        assert_index_equal(tree_index(tree), tree_index(loaded))

    def test_loaded_tree_answers_queries(self):
        # The reconstructed index is the live engine index (no rebuild).
        from repro.xpath import evaluate_path, parse_path

        tree = random_tree(150, "ab", random.Random(11))
        loaded = roundtrip(tree)
        assert loaded._engine_index is not None
        sources = range(tree.size)
        for query in ("descendant[a]", "child[b]", "following[a]"):
            expr = parse_path(query)
            assert evaluate_path(loaded, expr, sources, backend="bitset") == (
                evaluate_path(tree, expr, sources, backend="bitset")
            )


class TestCorruption:
    def tree(self) -> Tree:
        return random_tree(50, "ab", random.Random(9))

    def payload(self) -> bytes:
        return pack_bytes(tree_index(self.tree()))

    def test_truncated_segment(self):
        payload = self.payload()
        for cut in (0, 3, 16, len(payload) // 2, len(payload) - 1):
            with pytest.raises(StoreCorruptError):
                decode_blob(payload[:cut])
        # Past the frame, the codec checks every section's own length.
        tree = self.tree()
        view, entries = lay_out(build_sections(tree_index(tree)))
        for tag, (offset, length) in entries.items():
            short = dict(entries)
            short[tag] = (offset, length - 1)
            with pytest.raises(TreeShareError):
                tree_from_sections(view, short, tree.size)

    def test_bad_magic(self):
        payload = bytearray(self.payload())
        payload[0] ^= 0xFF
        with pytest.raises(StoreCorruptError, match="magic"):
            decode_blob(bytes(payload))

    def test_version_skew(self):
        payload = bytearray(self.payload())
        struct.pack_into("<H", payload, 4, FORMAT_VERSION + 1)
        with pytest.raises(StoreCorruptError, match="version"):
            decode_blob(bytes(payload))

    def test_flipped_payload_bit_fails_crc(self):
        payload = bytearray(self.payload())
        payload[-10] ^= 0x01
        with pytest.raises(StoreCorruptError, match="checksum"):
            decode_blob(bytes(payload))

    def test_error_maps_to_io_exit_code(self):
        assert exit_code_for(TreeShareError("x")) == 3
        assert exit_code_for(StoreCorruptError("x")) == 3
