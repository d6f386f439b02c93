"""The disk-backed RSTR v2 store: fidelity, lifetime, and corruption.

The registry's eviction tier depends on the properties proven here:

* **round-trip fidelity** — ``TreeStore.pack`` → file → ``TreeStore.load``
  reproduces every engine-visible mask *bit-exactly* for arbitrary trees,
  including trees produced by the mutation edit scripts (the write-through
  path packs exactly those).  The comparison is ``index_fingerprint``
  equality on the full big-int masks, not a sample.
* **store-loaded answers** — all three backend families (the XPath
  sets/bitset evaluators, the FO(MTC) table/bitset model checkers, and the
  tree walking automata) answer a pinned query corpus identically from the
  loaded index;
* **generation lifetime** — a loaded index is freed by reference counting
  as soon as its tree goes, also when an edit spliced a new generation
  from it;
* **structured corruption failure** — a truncated tail, a flipped payload
  bit, a version-skewed header, or a real version 1 file raises
  :class:`~repro.runtime.errors.StoreCorruptError` (exit code 3), never an
  unstructured error and never a silently wrong answer.
"""

from __future__ import annotations

import os
import random
import shutil
import struct
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import faults
from repro.runtime.errors import (
    EngineFaultError,
    InjectedFaultError,
    StoreCorruptError,
    exit_code_for,
)
from repro.trees import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    Tree,
    TreeStore,
    apply_edit,
    chain,
    index_nbytes,
    pack_bytes,
    parse_xml,
    random_tree,
    to_xml,
    tree_index,
)
from repro.trees.mutate import index_fingerprint
from repro.trees.store import FORMAT_VERSION, _HEADER, _decode_name, _encode_name

#: A version 1 store file (see ``data/README.md``).
V1_FIXTURE = Path(__file__).parent / "data" / "v1doc.rstr"

#: The pinned cross-backend query corpus: every family must answer these
#: identically from a loaded index and from a freshly built one.
XPATH_QUERIES = ("descendant[a]", "child[b]", "following[a]", "ancestor[b]")
MTC_FORMULAS = ("exists x. a(x)", "a(x)", "tc[u,v](child(u,v))(x,y)")


def roundtrip(store: TreeStore, tree: Tree, name: str = "t") -> Tree:
    store.pack(name, tree)
    loaded, _ = store.load(name)
    return loaded


class TestRoundTrip:
    def test_single_node(self, tmp_path):
        store = TreeStore(tmp_path)
        tree = parse_xml("<a/>")
        loaded = roundtrip(store, tree)
        assert loaded.size == 1
        assert index_fingerprint(tree_index(loaded)) == index_fingerprint(
            tree_index(tree)
        )

    def test_empty_labels(self, tmp_path):
        tree = Tree(labels=["", "a", "", "b"], parents=[-1, 0, 0, 2])
        loaded = roundtrip(TreeStore(tmp_path), tree)
        assert loaded.labels == tree.labels
        assert index_fingerprint(tree_index(loaded)) == index_fingerprint(
            tree_index(tree)
        )

    def test_deep_chain(self, tmp_path):
        tree = chain(300, "abc")
        loaded = roundtrip(TreeStore(tmp_path), tree)
        assert loaded.parent == tree.parent
        assert to_xml(loaded) == to_xml(tree)

    def test_epoch_stamp_round_trips(self, tmp_path):
        store = TreeStore(tmp_path)
        tree = random_tree(20, "ab", random.Random(1))
        store.pack("t", tree, epoch=41)
        assert store.epoch("t") == 41
        _, epoch = store.load("t")
        assert epoch == 41

    def test_predicted_size_is_exact(self, tmp_path):
        store = TreeStore(tmp_path)
        for seed in (1, 2, 3):
            tree = random_tree(10 + 30 * seed, "abcd", random.Random(seed))
            nbytes = store.pack("t", tree)
            assert nbytes == index_nbytes(tree_index(tree))
            assert store.nbytes("t") == nbytes

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        alphabet=st.sampled_from(["a", "ab", "abc", "xyzw"]),
    )
    def test_random_trees_bit_exact(self, tmp_path_factory, size, seed, alphabet):
        tree = random_tree(size, alphabet, random.Random(seed))
        store = TreeStore(tmp_path_factory.mktemp("store"))
        loaded = roundtrip(store, tree)
        assert loaded.labels == tree.labels
        assert loaded.parent == tree.parent
        assert index_fingerprint(tree_index(loaded)) == index_fingerprint(
            tree_index(tree)
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_post_mutation_trees_bit_exact(self, tmp_path_factory, seed):
        # The write-through path packs trees produced by the edit scripts;
        # they must round-trip exactly like freshly built ones.
        rng = random.Random(seed)
        tree = random_tree(rng.randint(2, 40), "abc", rng)
        for _ in range(3):
            kind = rng.randrange(3)
            if kind == 0:
                edit = Relabel(rng.randrange(tree.size), rng.choice("abc"))
            elif kind == 1:
                parent = rng.randrange(tree.size)
                width = len(tree.children_ids(parent))
                edit = InsertSubtree(
                    parent,
                    rng.randint(0, width),
                    random_tree(rng.randint(1, 5), "abc", rng),
                )
            elif tree.size > 1:
                edit = DeleteSubtree(rng.randrange(1, tree.size))
            else:
                continue
            tree = apply_edit(tree, edit)
        store = TreeStore(tmp_path_factory.mktemp("store"))
        loaded = roundtrip(store, tree)
        assert index_fingerprint(tree_index(loaded)) == index_fingerprint(
            tree_index(tree)
        )


class TestBackendAgreement:
    def test_all_backends_answer_from_the_mapping(self, tmp_path):
        from repro.automata import random_twa
        from repro.logic import ModelChecker, parse_formula
        from repro.logic.ast import free_variables
        from repro.xpath import evaluate_path, parse_path

        tree = random_tree(120, "ab", random.Random(11))
        loaded = roundtrip(TreeStore(tmp_path), tree)
        assert loaded._engine_index is not None  # live index, no rebuild
        sources = range(tree.size)
        for query in XPATH_QUERIES:
            expr = parse_path(query)
            for backend in ("sets", "bitset"):
                assert evaluate_path(loaded, expr, sources, backend=backend) == (
                    evaluate_path(tree, expr, sources, backend=backend)
                ), (query, backend)
        for text in MTC_FORMULAS:
            formula = parse_formula(text)
            free = tuple(sorted(free_variables(formula)))
            for backend in ("table", "bitset"):
                ref = ModelChecker(tree, backend=backend)
                got = ModelChecker(loaded, backend=backend)
                if not free:
                    assert got.holds(formula) == ref.holds(formula), (text, backend)
                elif len(free) == 1:
                    assert got.node_set(formula, free[0]) == ref.node_set(
                        formula, free[0]
                    ), (text, backend)
                else:
                    assert got.pairs(formula, *free) == ref.pairs(formula, *free)
        for seed in range(3):
            twa = random_twa(alphabet=("a", "b"), num_states=3, rng=random.Random(seed))
            assert twa.accepts(loaded) == twa.accepts(tree)


class TestHandleLifecycle:
    @pytest.mark.parametrize(
        "edit",
        [Relabel(3, "b"), InsertSubtree(3, 0, Tree.leaf("c")), DeleteSubtree(3)],
        ids=["relabel", "insert", "delete"],
    )
    def test_edit_outlives_the_old_mapping(self, tmp_path, edit, gc_disabled):
        # The new generation must not keep the old one alive: the loaded
        # index is freed by refcount as soon as its tree goes, and the new
        # generation still answers from its own tables.
        from repro.trees import apply_edit_indexed
        from repro.xpath import Evaluator, parse_node

        tree = random_tree(256, "ab", random.Random(5))
        old = roundtrip(TreeStore(tmp_path), tree)
        freed = weakref.finalize(tree_index(old), lambda: None)
        new = apply_edit_indexed(old, edit)
        del old
        assert not freed.alive
        query = parse_node("<descendant[a]>")
        expected = Evaluator(apply_edit(tree, edit), backend="sets").nodes(query)
        assert Evaluator(new, backend="bitset").nodes(query) == expected
        assert index_fingerprint(tree_index(new)) == index_fingerprint(
            tree_index(apply_edit(tree, edit))
        )


class TestDirectory:
    def test_names_contains_remove(self, tmp_path):
        store = TreeStore(tmp_path)
        tree = random_tree(10, "ab", random.Random(1))
        store.pack("beta", tree)
        store.pack("alpha", tree)
        assert store.names() == ["alpha", "beta"]
        assert "alpha" in store and store.contains("beta")
        assert "gamma" not in store
        assert store.total_bytes() == 2 * index_nbytes(tree_index(tree))
        assert store.remove("alpha") is True
        assert store.remove("alpha") is False
        assert store.names() == ["beta"]

    def test_weird_names_round_trip(self, tmp_path):
        store = TreeStore(tmp_path)
        tree = random_tree(5, "ab", random.Random(1))
        names = ["a tree/with weird:name", "ünïcode", "..", "%41", "a.b-c_d"]
        for name in names:
            store.pack(name, tree)
        assert store.names() == sorted(names)
        for name in names:
            loaded, _ = store.load(name)
            assert loaded.labels == tree.labels
        # Every encoded file name is a plain single path component.
        for entry in os.listdir(tmp_path):
            assert "/" not in entry and entry not in (".", "..")

    def test_encode_decode_inverse(self):
        for name in ("plain", "a b", "ü", "%", "%25", "x/y\\z", "."):
            assert _decode_name(_encode_name(name)) == name

    def test_missing_tree_raises_keyerror(self, tmp_path):
        store = TreeStore(tmp_path)
        with pytest.raises(KeyError):
            store.load("ghost")
        with pytest.raises(KeyError):
            store.verify("ghost")
        assert store.epoch("ghost") is None
        assert store.nbytes("ghost") is None

    def test_verify_report(self, tmp_path):
        store = TreeStore(tmp_path)
        tree = random_tree(25, "abc", random.Random(6))
        nbytes = store.pack("doc", tree, epoch=7)
        report = store.verify("doc")
        assert report["name"] == "doc"
        assert report["bytes"] == nbytes
        assert report["n"] == tree.size
        assert report["epoch"] == 7
        assert report["sections"] == 9


class TestCorruption:
    def packed(self, tmp_path) -> "tuple[TreeStore, bytes]":
        store = TreeStore(tmp_path)
        store.pack("t", random_tree(50, "ab", random.Random(9)))
        return store, store._path("t").read_bytes()

    def rewrite(self, store: TreeStore, blob: bytes) -> None:
        store._path("t").write_bytes(blob)

    def test_truncated_tail(self, tmp_path):
        store, blob = self.packed(tmp_path)
        for cut in (0, 3, _HEADER.size, len(blob) // 2, len(blob) - 1):
            self.rewrite(store, blob[:cut])
            with pytest.raises(StoreCorruptError):
                store.load("t")

    def test_bad_magic(self, tmp_path):
        store, blob = self.packed(tmp_path)
        corrupt = bytearray(blob)
        corrupt[0] ^= 0xFF
        self.rewrite(store, bytes(corrupt))
        with pytest.raises(StoreCorruptError, match="magic"):
            store.load("t")
        assert store.epoch("t") is None  # header probe refuses it too

    def test_version_skew(self, tmp_path):
        store, blob = self.packed(tmp_path)
        corrupt = bytearray(blob)
        struct.pack_into("<H", corrupt, 4, FORMAT_VERSION + 1)
        self.rewrite(store, bytes(corrupt))
        with pytest.raises(StoreCorruptError, match="version"):
            store.load("t")

    def test_flipped_section_bit_fails_that_sections_crc(self, tmp_path):
        store, blob = self.packed(tmp_path)
        corrupt = bytearray(blob)
        corrupt[-10] ^= 0x01
        self.rewrite(store, bytes(corrupt))
        with pytest.raises(StoreCorruptError, match="checksum"):
            store.load("t")
        with pytest.raises(StoreCorruptError, match="checksum"):
            store.verify("t")

    def test_flipped_table_byte_fails_header_crc(self, tmp_path):
        store, blob = self.packed(tmp_path)
        corrupt = bytearray(blob)
        corrupt[_HEADER.size + 4] ^= 0xFF  # a table entry's offset field
        self.rewrite(store, bytes(corrupt))
        with pytest.raises(StoreCorruptError, match="checksum"):
            store.load("t")

    def test_foreign_tail_data(self, tmp_path):
        store, blob = self.packed(tmp_path)
        self.rewrite(store, blob + b"x")
        with pytest.raises(StoreCorruptError, match="size"):
            store.load("t")

    def test_empty_file(self, tmp_path):
        store, _ = self.packed(tmp_path)
        self.rewrite(store, b"")
        with pytest.raises(StoreCorruptError, match="empty"):
            store.load("t")

    def test_corrupt_load_counts_and_leaves_no_handle(self, tmp_path):
        from repro import obs

        store, blob = self.packed(tmp_path)
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0x01
        self.rewrite(store, bytes(corrupt))
        with pytest.raises(StoreCorruptError):
            store.load("t")
        counters = obs.REGISTRY.to_json()["counters"]
        assert counters["store_loads_total{event=corrupt}"] >= 1

    def test_error_maps_to_io_exit_code(self):
        assert exit_code_for(StoreCorruptError("x")) == 3

    def test_version_one_file_is_refused(self, tmp_path):
        # A real file from the version 1 writer, quadratic sections and
        # all: the reader refuses it with the typed version error.
        from repro.cli import main

        store = TreeStore(tmp_path)
        shutil.copyfile(V1_FIXTURE, store._path("v1doc"))
        assert store.names() == ["v1doc"]
        with pytest.raises(StoreCorruptError, match="version 1"):
            store.load("v1doc")
        with pytest.raises(StoreCorruptError, match="version 1"):
            store.verify("v1doc")
        assert store.epoch("v1doc") is None  # stale: re-pack before trusting
        assert main(["store", "verify", str(tmp_path)]) == 3

    def test_load_fault_site(self, tmp_path):
        store, _ = self.packed(tmp_path)
        faults.arm("store.load", times=1)
        with pytest.raises(InjectedFaultError):
            store.load("t")
        assert isinstance(InjectedFaultError("store.load"), EngineFaultError)
        tree, _ = store.load("t")  # the next touch retries and succeeds
        assert tree.size == 50


class TestAtomicity:
    def test_pack_replaces_atomically(self, tmp_path):
        store = TreeStore(tmp_path)
        old = random_tree(20, "ab", random.Random(1))
        new = random_tree(30, "ab", random.Random(2))
        store.pack("t", old, epoch=1)
        store.pack("t", new, epoch=2)
        loaded, epoch = store.load("t")
        assert epoch == 2
        assert loaded.labels == new.labels
        assert [p.name for p in store.directory.iterdir()] == ["t.rstr"]

    def test_pack_bytes_standalone(self):
        tree = random_tree(15, "ab", random.Random(3))
        blob = pack_bytes(tree_index(tree), epoch=5)
        assert blob[:4] == b"RSTR"
        assert len(blob) == index_nbytes(tree_index(tree))
