"""The mutation write-ahead log: framing, torn tails, checkpoints, recovery.

The durability contract under test:

* **framing round-trips** and rejects every torn/corrupt shape;
* **torn tails heal**: a crash mid-append leaves at most one bad record at
  the end of the log — ``WriteAheadLog.open`` truncates it, ``recover``
  tolerates it, and neither loses an intact record;
* **mid-log damage is fatal**: an intact record *after* a corrupt one is
  history damage, never silently skipped (``WalCorruptError``);
* **recovery is bit-exact**: the recovered registry matches the structural
  oracle fold of the logged edits — same epochs, and per-tree
  ``index_fingerprint`` identical to a from-scratch rebuild;
* **log-ahead atomicity**: a failed append (the ``wal.append`` fault site)
  aborts the mutation with both the registry and the log untouched, and
  so does a store pack that fails after the append (the record is
  retracted);
* **checkpoints are an optimization**: one RSTR file per tree bounds
  replay; a corrupt or missing checkpoint falls back to the log, a failed
  checkpoint write fails no publish, and a checkpoint ahead of a log that
  lost its unsynced tail recovers at the checkpoint's epoch;
* **no tree drops out**: trees a store evicted, or that were cold when the
  log was attached, recover like resident ones.
"""

from __future__ import annotations

import json
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.runtime import faults
from repro.runtime.errors import InjectedFaultError, WalCorruptError
from repro.service import TreeRegistry
from repro.trees import (
    Tree,
    TreeStore,
    WriteAheadLog,
    index_nbytes,
    parse_xml,
    random_tree,
    tree_digest,
)
from repro.trees.mutate import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_edit,
    edit_to_json,
    index_fingerprint,
)
from repro.trees.index import tree_index
from repro.trees.wal import _frame, _parse_frame, recover
from repro.testing import trees


def _registry_with_wal(tmp_path, **wal_kwargs):
    wal = WriteAheadLog.open(tmp_path / "wal", **wal_kwargs)
    registry = TreeRegistry()
    registry.attach_wal(wal)
    return registry, wal


def assert_recovered_matches(recovered: TreeRegistry, oracle: TreeRegistry) -> None:
    """Same names, same epochs, bit-identical index fingerprints."""
    assert recovered.names() == oracle.names()
    for name in oracle.names():
        expected_tree, expected_epoch = oracle.snapshot(name)
        got_tree, got_epoch = recovered.snapshot(name)
        assert got_epoch == expected_epoch, name
        assert got_tree == expected_tree, name
        assert index_fingerprint(tree_index(got_tree)) == index_fingerprint(
            tree_index(Tree(list(expected_tree.labels), list(expected_tree.parent)))
        ), name


# -- framing -----------------------------------------------------------------


def test_frame_round_trip():
    payload = {"rec": "register", "tree": "t", "epoch": 1, "seq": 7}
    line = _frame(payload)
    assert line.endswith(b"\n")
    assert _parse_frame(line) == payload
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert line == b"%08x %08x %s\n" % (len(body), zlib.crc32(body), body)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda line: line[:-1],  # no trailing newline (torn write)
        lambda line: line[: len(line) // 2],  # cut mid-body
        lambda line: line.replace(b"register", b"registex"),  # CRC mismatch
        lambda line: b"zz" + line[2:],  # bad length field
        lambda line: b"",  # empty
        lambda line: b"not a frame at all\n",
    ],
)
def test_parse_frame_rejects_damage(mangle):
    line = _frame({"rec": "register", "tree": "t", "epoch": 1, "seq": 1})
    assert _parse_frame(mangle(line)) is None


def test_tree_digest_is_structural():
    t1 = Tree.build(("a", ["b", "c"]))
    t2 = Tree.build(("a", ["b", "c"]))
    t3 = Tree.build(("a", [("b", ["c"])]))  # same labels, different shape
    assert tree_digest(t1) == tree_digest(t2)
    assert tree_digest(t1) != tree_digest(t3)
    assert tree_digest(t1) != tree_digest(Tree.build(("a", ["b", "x"])))


# -- append + recover --------------------------------------------------------


def test_register_and_mutate_recover(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/><c/></a>"))
    registry.mutate("doc", Relabel(1, "z"))
    registry.mutate("doc", InsertSubtree(0, 0, Tree.leaf("q")))
    registry.register("other", Tree.leaf("o"))
    wal.close()

    recovered = recover(tmp_path / "wal")
    assert_recovered_matches(recovered, registry)
    assert recovered.epoch("doc") == 3
    assert recovered.epoch("other") == 1


def test_recover_matches_structural_oracle_fold(tmp_path):
    """The acceptance criterion: recovery == the apply_edit oracle fold."""
    rng = random.Random(9)
    base = random_tree(30, ("a", "b", "c"), rng)
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("live", base)
    oracle = base
    for step in range(20):
        if oracle.size > 2 and step % 3 == 2:
            edit = DeleteSubtree(rng.randrange(1, oracle.size))
        elif step % 3 == 1:
            edit = Relabel(rng.randrange(oracle.size), rng.choice("abcx"))
        else:
            parent = rng.randrange(oracle.size)
            index = rng.randint(0, len(oracle.children_ids(parent)))
            edit = InsertSubtree(parent, index, random_tree(3, ("x",), rng))
        registry.mutate("live", edit)
        # The oracle is the *structural* fold — never the incremental path.
        oracle = apply_edit(oracle, edit)
    wal.close()

    recovered = recover(tmp_path / "wal")
    assert recovered.epoch("live") == 21
    assert recovered.get("live") == oracle
    assert index_fingerprint(tree_index(recovered.get("live"))) == index_fingerprint(
        tree_index(Tree(list(oracle.labels), list(oracle.parent)))
    )


def test_recover_into_existing_registry_and_empty_dir(tmp_path):
    assert recover(tmp_path / "missing").names() == []
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", Tree.leaf("a"))
    wal.close()
    target = TreeRegistry()
    assert recover(tmp_path / "wal", registry=target) is target
    assert target.names() == ["doc"]


def test_reopen_resumes_sequence(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/></a>"))
    registry.mutate("doc", Relabel(1, "z"))
    assert wal.last_seq == 2
    wal.close()

    wal2 = WriteAheadLog.open(tmp_path / "wal")
    assert wal2.last_seq == 2
    assert wal2.known_trees == {"doc"}
    registry2 = recover(tmp_path / "wal")
    registry2.attach_wal(wal2)
    registry2.mutate("doc", Relabel(0, "r"))
    wal2.close()
    final = recover(tmp_path / "wal")
    assert final.epoch("doc") == 3
    assert final.get("doc").labels[0] == "r"


# -- torn tails and corruption ----------------------------------------------


def test_torn_tail_truncated_on_open(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/></a>"))
    registry.mutate("doc", Relabel(1, "z"))
    wal.close()
    path = tmp_path / "wal" / "wal.jsonl"
    intact = path.read_bytes()
    torn = _frame({"rec": "mutate", "tree": "doc", "epoch": 3, "seq": 3})[:-7]
    path.write_bytes(intact + torn)

    # recover() tolerates the torn tail without truncating...
    recovered = recover(tmp_path / "wal")
    assert recovered.epoch("doc") == 2
    assert path.read_bytes() == intact + torn

    # ...the writer truncates it back to the last intact record.
    wal2 = WriteAheadLog.open(tmp_path / "wal")
    assert wal2.truncated_bytes == len(torn)
    assert wal2.last_seq == 2
    wal2.close()
    assert path.read_bytes() == intact
    assert_recovered_matches(recover(tmp_path / "wal"), registry)


def test_crash_after_append_before_publish_rolls_forward(tmp_path):
    """The log-ahead contract: the durable history wins on recovery."""
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/></a>"))
    # Simulate the crash window: the record is durable, the epoch never
    # published (the registry still holds epoch 1).
    post = apply_edit(registry.get("doc"), Relabel(1, "z"))
    wal.append_mutate("doc", 2, edit_to_json(Relabel(1, "z")), post)
    wal.close()
    assert registry.epoch("doc") == 1
    recovered = recover(tmp_path / "wal")
    assert recovered.epoch("doc") == 2
    assert recovered.get("doc") == post


def test_intact_record_after_corruption_is_fatal(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/></a>"))
    registry.mutate("doc", Relabel(1, "z"))
    registry.mutate("doc", Relabel(1, "w"))
    wal.close()
    path = tmp_path / "wal" / "wal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 3
    lines[1] = lines[1][:10] + b"!" + lines[1][11:]  # damage the middle record
    path.write_bytes(b"".join(lines))
    with pytest.raises(WalCorruptError, match="after corrupt record"):
        recover(tmp_path / "wal")
    with pytest.raises(WalCorruptError, match="after corrupt record"):
        WriteAheadLog.open(tmp_path / "wal")


def test_digest_mismatch_is_fatal(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/></a>"))
    wal.close()
    path = tmp_path / "wal" / "wal.jsonl"
    payload = _parse_frame(path.read_bytes())
    payload["sha"] = "0" * 16  # valid frame, lying digest
    path.write_bytes(_frame(payload))
    with pytest.raises(WalCorruptError, match="digest mismatch"):
        recover(tmp_path / "wal")
    assert recover(tmp_path / "wal", verify=False).names() == ["doc"]


def test_bad_splice_fails_verification(tmp_path, monkeypatch):
    # A splice that gets a structural array wrong passes the per-record
    # digest (labels + parents only) and the index check (the index is
    # maintained from the old index, not from the new arrays); only the
    # tree fingerprint against a rebuild catches it.
    import repro.trees.wal as wal_module
    from repro.trees.mutate import apply_edit_indexed

    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/><c/><d/></a>"))
    registry.mutate("doc", Relabel(2, "z"))
    wal.close()

    def bad_splice(tree, edit):
        spliced = apply_edit_indexed(tree, edit)
        spliced.next_sibling = (-1,) * spliced.size  # no siblings at all
        return spliced

    monkeypatch.setattr(wal_module, "apply_edit_indexed", bad_splice)
    with pytest.raises(WalCorruptError, match="structural arrays diverge"):
        recover(tmp_path / "wal")
    assert recover(tmp_path / "wal", verify=False).names() == ["doc"]


def test_mutate_of_unknown_tree_is_fatal(tmp_path):
    wal = WriteAheadLog.open(tmp_path / "wal")
    post = apply_edit(parse_xml("<a><b/></a>"), Relabel(1, "z"))
    wal.append_mutate("ghost", 2, edit_to_json(Relabel(1, "z")), post)
    wal.close()
    with pytest.raises(WalCorruptError, match="unknown tree"):
        recover(tmp_path / "wal")


# -- the wal.append fault site: log-ahead atomicity --------------------------


def test_failed_append_aborts_mutation_untouched(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/></a>"))
    log_before = wal.path.read_bytes()
    with faults.scoped(("wal.append", 1)):
        with pytest.raises(InjectedFaultError):
            registry.mutate("doc", Relabel(1, "z"))
    # Registry untouched (no half-published epoch), log untouched (no
    # record for the aborted edit), sequence not consumed.
    assert registry.epoch("doc") == 1
    assert registry.get("doc").labels[1] == "b"
    assert wal.path.read_bytes() == log_before
    assert wal.last_seq == 1
    # The next mutation proceeds normally at the next epoch.
    registry.mutate("doc", Relabel(1, "z"))
    assert registry.epoch("doc") == 2
    wal.close()
    assert_recovered_matches(recover(tmp_path / "wal"), registry)


def test_failed_append_aborts_registration(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    with faults.scoped(("wal.append", 1)):
        with pytest.raises(InjectedFaultError):
            registry.register("doc", Tree.leaf("a"))
    assert registry.names() == []
    assert wal.last_seq == 0
    wal.close()


@pytest.mark.parametrize("policy", ["always", 64])
def test_failed_pack_retracts_the_logged_record(tmp_path, monkeypatch, policy):
    # With a store attached, the record is appended before the pack: a
    # failed pack must take it back out, or recovery would replay an edit
    # (or registration) whose caller saw it fail.
    from repro.trees import TreeStore

    registry, wal = _registry_with_wal(tmp_path, fsync=policy)
    store = TreeStore(tmp_path / "store")
    registry.attach_store(store)
    registry.register("doc", parse_xml("<a><b/></a>"))
    log_before = wal.path.read_bytes()
    real_pack = store.pack

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store, "pack", full_disk)
    with pytest.raises(OSError):
        registry.mutate("doc", Relabel(1, "z"))
    with pytest.raises(OSError):
        registry.register("other", Tree.leaf("a"))
    assert registry.epoch("doc") == 1
    assert wal.path.read_bytes() == log_before
    assert wal.last_seq == 1
    assert "other" not in wal.known_trees
    monkeypatch.setattr(store, "pack", real_pack)
    # The next mutation takes the freed epoch and sequence number.
    registry.mutate("doc", Relabel(1, "y"))
    assert registry.epoch("doc") == 2 and wal.last_seq == 2
    wal.close()
    assert_recovered_matches(recover(tmp_path / "wal"), registry)


def test_retract_only_undoes_the_latest_append(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", parse_xml("<a><b/></a>"))
    registry.mutate("doc", Relabel(1, "z"))
    with pytest.raises(ValueError, match="latest"):
        wal.retract(1)
    wal.close()


# -- fsync policies ----------------------------------------------------------


@pytest.mark.parametrize("policy", ["always", "never", 4])
def test_fsync_policies_accepted(tmp_path, policy):
    registry, wal = _registry_with_wal(tmp_path, fsync=policy)
    registry.register("doc", parse_xml("<a><b/></a>"))
    for _ in range(6):
        registry.mutate("doc", Relabel(1, "z"))
    wal.close()  # close always syncs
    assert recover(tmp_path / "wal").epoch("doc") == 7


@pytest.mark.parametrize("policy", ["sometimes", 0, -3, True, 1.5, None])
def test_bad_fsync_policy_rejected(tmp_path, policy):
    with pytest.raises(ValueError, match="fsync policy"):
        WriteAheadLog(tmp_path / "wal", fsync=policy)


def test_batched_fsync_counts_appends(tmp_path):
    wal = WriteAheadLog.open(tmp_path / "wal", fsync=3)
    tree = Tree.leaf("a")
    wal.append_register("t", 1, tree)
    wal.append_register("t", 2, tree)
    assert wal._unsynced == 2
    wal.append_register("t", 3, tree)  # third append crosses the batch
    assert wal._unsynced == 0
    wal.close()


# -- checkpoints -------------------------------------------------------------


def test_snapshot_cadence_and_pruning(tmp_path):
    # One RSTR checkpoint per tree, replaced in place (nothing to prune),
    # written at the tree's first publish past each multiple of the cadence.
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=4)
    written = obs.counter("wal_checkpoints_total", event="ok").value
    registry.register("doc", parse_xml("<a><b/></a>"))  # seq 1
    registry.register("other", Tree.leaf("o"))  # seq 2
    for _ in range(13):  # seq 3..15: due at seq 4, 8 and 12
        registry.mutate("doc", Relabel(1, "z"))
    registry.mutate("other", Relabel(0, "p"))  # seq 16: first past 4
    checkpoints = tmp_path / "wal" / "checkpoints"
    assert sorted(p.name for p in checkpoints.iterdir()) == ["doc.rstr", "other.rstr"]
    assert TreeStore(checkpoints).epoch("doc") == 11  # published at seq 12
    assert TreeStore(checkpoints).epoch("other") == 2
    assert obs.counter("wal_checkpoints_total", event="ok").value == written + 4
    assert not list((tmp_path / "wal").glob("*.json"))
    wal.close()
    assert_recovered_matches(recover(tmp_path / "wal"), registry)


def test_recovery_prefers_snapshot_but_survives_tampering(tmp_path):
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=3)
    registry.register("doc", parse_xml("<a><b/></a>"))
    for label in "zwxyvu":  # epochs 2..7; checkpointed at epochs 3 and 6
        registry.mutate("doc", Relabel(1, label))
    wal.close()
    checkpoint = tmp_path / "wal" / "checkpoints" / "doc.rstr"

    def replayed():
        before = obs.REGISTRY.total("wal_records_replayed_total")
        assert_recovered_matches(recover(tmp_path / "wal"), registry)
        return obs.REGISTRY.total("wal_records_replayed_total") - before

    assert replayed() == 1  # the checkpoint, then only epoch 7's record
    # A corrupt checkpoint is skipped: the log replays the whole history.
    blob = bytearray(checkpoint.read_bytes())
    blob[-1] ^= 0xFF
    checkpoint.write_bytes(bytes(blob))
    assert replayed() == 7
    # No checkpoint at all: the log alone carries the full history.
    checkpoint.unlink()
    assert replayed() == 7


def test_checkpoint_ahead_of_a_truncated_log(tmp_path):
    # With batched fsyncs a checkpoint can reach the disk while the records
    # before it are lost with the log's unsynced tail.
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2, fsync="never")
    registry.register("doc", parse_xml("<a><b/><c/></a>"))
    for label in "zwx":  # epochs 2..4; checkpointed at epochs 2 and 4
        registry.mutate("doc", Relabel(1, label))
    wal.close()
    log = tmp_path / "wal" / "wal.jsonl"
    log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:2]))

    recovered = recover(tmp_path / "wal")
    assert_recovered_matches(recovered, registry)
    assert recovered.epoch("doc") == 4
    # The reopened log resumes after the surviving records, the registry
    # at the checkpoint's next epoch; recovery replays it on the checkpoint.
    wal2 = WriteAheadLog.open(tmp_path / "wal", snapshot_every=4)
    assert wal2.last_seq == 2
    recovered.attach_wal(wal2)
    assert recovered.mutate("doc", Relabel(2, "y"))[1] == 5
    wal2.close()
    again = recover(tmp_path / "wal")
    assert_recovered_matches(again, recovered)
    assert again.get("doc").labels == ("a", "x", "y")


def test_failed_checkpoint_write_fails_no_publish(tmp_path, monkeypatch):
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2)
    failed = obs.counter("wal_checkpoints_total", event="error").value

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(TreeStore, "pack", full_disk)
    registry.register("doc", parse_xml("<a><b/></a>"))
    for label in "zwx":
        registry.mutate("doc", Relabel(1, label))
    assert registry.epoch("doc") == 4
    assert obs.counter("wal_checkpoints_total", event="error").value == failed + 2
    assert not list((tmp_path / "wal").rglob("*.rstr"))
    wal.close()
    assert_recovered_matches(recover(tmp_path / "wal"), registry)


# -- trees a store evicted, or never loaded, stay in the durable history -----


def _store_backed(tmp_path, registry):
    """Four 64-node trees under a store budget of 2.5 trees (two resident)."""
    rng = random.Random(23)
    docs = {f"t{i}": random_tree(64, ("a", "b"), rng) for i in range(4)}
    budget = sum(index_nbytes(tree_index(tree)) for tree in docs.values()) * 5 // 8
    registry.attach_store(TreeStore(tmp_path / "store"), resident_budget=budget)
    for name, tree in docs.items():
        registry.register(name, tree)
    assert registry.resident_names() == ["t2", "t3"]
    return registry


@pytest.mark.parametrize(
    "order",
    [
        "t0 t1 t2 t3 t3",  # the last checkpoints cover evicted trees
        "t0 t1 t2 t3 t0",  # the last record edits a tree evicted meanwhile
    ],
)
def test_recovery_keeps_evicted_trees(tmp_path, order):
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2)
    _store_backed(tmp_path, registry)
    for name in order.split():
        registry.mutate(name, Relabel(0, "r"))
    wal.close()
    assert_recovered_matches(recover(tmp_path / "wal"), registry)


def test_mutating_a_tree_cold_at_attach_logs_it_first(tmp_path):
    registry = _store_backed(tmp_path, TreeRegistry())
    wal = WriteAheadLog.open(tmp_path / "wal", snapshot_every=2)
    registry.attach_wal(wal)
    assert wal.known_trees == {"t2", "t3"}  # t0 and t1 were cold
    registry.mutate("t0", Relabel(0, "r"))
    registry.mutate("t1", Relabel(0, "r"))
    assert wal.known_trees == {"t0", "t1", "t2", "t3"}
    wal.close()
    assert_recovered_matches(recover(tmp_path / "wal"), registry)


def test_attach_wal_baselines_preexisting_trees(tmp_path):
    registry = TreeRegistry()
    registry.register("early", parse_xml("<a><b/></a>"))
    registry.mutate("early", Relabel(1, "z"))  # un-logged history
    wal = WriteAheadLog.open(tmp_path / "wal")
    registry.attach_wal(wal)
    assert wal.known_trees == {"early"}  # baselined at attach time
    registry.mutate("early", Relabel(1, "w"))
    wal.close()
    recovered = recover(tmp_path / "wal")
    # The baseline captured epoch 2's state; the logged edit took it to 3.
    assert recovered.epoch("early") == 3
    assert_recovered_matches(recovered, registry)


def test_attach_does_not_rebaseline_known_trees(tmp_path):
    registry, wal = _registry_with_wal(tmp_path)
    registry.register("doc", Tree.leaf("a"))
    wal.close()
    wal2 = WriteAheadLog.open(tmp_path / "wal")
    registry2 = recover(tmp_path / "wal", registry=TreeRegistry())
    registry2.attach_wal(wal2)
    assert wal2.last_seq == 1  # no duplicate register record appended
    wal2.close()


def test_closed_wal_rejects_appends(tmp_path):
    wal = WriteAheadLog.open(tmp_path / "wal")
    wal.close()
    with pytest.raises(ValueError, match="closed"):
        wal.append_register("t", 1, Tree.leaf("a"))
    wal.close()  # idempotent


# -- property: arbitrary edit scripts survive the full round trip ------------


def _draw_edit(data, tree):
    kinds = ["insert", "relabel"] + (["delete"] if tree.size > 1 else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "relabel":
        return Relabel(data.draw(st.integers(0, tree.size - 1)), data.draw(st.sampled_from("abcx")))
    if kind == "delete":
        return DeleteSubtree(data.draw(st.integers(1, tree.size - 1)))
    parent = data.draw(st.integers(0, tree.size - 1))
    index = data.draw(st.integers(0, len(tree.children_ids(parent))))
    return InsertSubtree(parent, index, data.draw(trees(max_size=4, alphabet=("a", "x"))))


@settings(max_examples=40)
@given(data=st.data())
def test_wal_round_trip_arbitrary_scripts(data, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("wal-prop")
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=3)
    base = data.draw(trees(max_size=10, alphabet=("a", "b")))
    registry.register("t", base)
    oracle = base
    for _ in range(data.draw(st.integers(1, 6), label="script length")):
        edit = _draw_edit(data, oracle)
        registry.mutate("t", edit)
        oracle = apply_edit(oracle, edit)
    wal.close()
    recovered = recover(tmp_path / "wal")
    assert recovered.get("t") == oracle
    assert recovered.epoch("t") == registry.epoch("t")
    assert index_fingerprint(tree_index(recovered.get("t"))) == index_fingerprint(
        tree_index(Tree(list(oracle.labels), list(oracle.parent)))
    )
