"""What truncating the write-ahead log changes.

The live segment ``wal.jsonl`` rolls into a closed ``wal-<seq>.jsonl``
every four checkpoint cadences, and a closed segment is deleted once
durable checkpoints cover every record in it.  Under test:

* **disk use follows the live state**: checkpoints, the live segment and at
  most one closed segment, however long the history;
* **idle trees do not pin history**: a roll checkpoints them, a cold one
  from the store without making it resident;
* **a crash at any step of a roll** recovers exactly and reopens with a
  continuous ``last_seq``; so does a deletion cut short; a roll that fails
  after its rename is finished by the next append;
* **only written checkpoints free segments**: failed checkpoint writes
  keep them, and the next written one frees them; a checkpoint a reopened
  writer finds on disk frees nothing until it is rewritten;
* **lost history is never silent**: a checkpoint that fails its CRC after
  its tree's older segments were deleted raises ``WalCorruptError`` naming
  the tree;
* ``retract``, reopening past a roll, and a whole-history log written
  before segments existed all keep working.
"""

from __future__ import annotations

import builtins
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.runtime.errors import WalCorruptError
from repro.service import TreeRegistry
from repro.trees import Tree, TreeStore, WriteAheadLog, index_nbytes, random_tree
from repro.trees.index import tree_index
from repro.trees import wal as wal_module
from repro.trees.mutate import InsertSubtree, Relabel, apply_edit
from repro.trees.wal import _parse_frame, recover
from repro.testing import trees

from .test_wal import _draw_edit, _registry_with_wal, assert_recovered_matches


class Crash(BaseException):
    """A process dying mid-step: nothing in the WAL catches it."""


def _abandon(wal):
    """Drop a crashed writer without the fsync and close of ``close()``."""
    if wal._handle is not None:
        wal._handle.close()
        wal._handle = None


def _closed(directory) -> list[str]:
    return sorted(p.name for p in Path(directory).glob("wal-*.jsonl"))


def _live_records(directory) -> list[dict]:
    lines = (Path(directory) / "wal.jsonl").read_bytes().splitlines(keepends=True)
    return [_parse_frame(line) for line in lines]


def assert_recovers(directory, oracle: TreeRegistry) -> TreeRegistry:
    """Same names and epochs as ``oracle``, trees equal and bit-exact."""
    recovered = recover(directory)
    assert_recovered_matches(recovered, oracle)
    return recovered


# -- disk use ------------------------------------------------------------------


def test_disk_use_stays_at_the_live_state(tmp_path):
    # Cadence 2: the live segment rolls every 8 records.
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, fsync="never", snapshot_every=2)
    rng = random.Random(27)
    for i in range(3):
        registry.register(f"t{i}", random_tree(24, ("a", "b"), rng))
    rolled = obs.counter("wal_segments_total", event="rolled").value
    for step in range(400):
        registry.mutate(f"t{rng.randrange(3)}", Relabel(rng.randrange(24), rng.choice("abc")))
        assert len(_closed(directory)) <= 1, step
        assert len(_live_records(directory)) <= 8 + 1, step  # header + one roll's worth
        assert len(list((directory / "checkpoints").glob("*.rstr"))) <= 3
    assert obs.counter("wal_segments_total", event="rolled").value - rolled == 50
    assert wal.last_seq == 403
    wal.close()
    assert_recovers(directory, registry)


@pytest.mark.parametrize("cold", [False, True], ids=["resident", "cold"])
def test_an_idle_tree_is_checkpointed_at_a_roll(tmp_path, cold):
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=4)  # rolls every 16
    rng = random.Random(4)
    idle, busy = random_tree(64, ("a", "b"), rng), random_tree(64, ("a", "b"), rng)
    if cold:
        # Room for one and a half trees: the idle one is evicted.
        budget = index_nbytes(tree_index(idle)) * 3 // 2
        registry.attach_store(TreeStore(tmp_path / "store"), resident_budget=budget)
    registry.register("idle", idle)  # seq 1, not due for a checkpoint
    registry.register("busy", busy)
    assert registry.resident_names() == (["busy"] if cold else ["busy", "idle"])
    for step in range(15):  # seq 3..17: the roll before seq 17 closes 1..16
        registry.mutate("busy", Relabel(step % 64, "c"))
    assert _closed(directory) == ["wal-000000000016.jsonl"]  # pinned by idle
    assert not (directory / "checkpoints" / "idle.rstr").exists()
    for step in range(16):  # the roll before seq 33 must not keep 1..16
        registry.mutate("busy", Relabel(step % 64, "d"))
    assert "wal-000000000016.jsonl" not in _closed(directory)
    assert TreeStore(directory / "checkpoints").epoch("idle") == 1
    if cold:  # checkpointed from the store, not made resident
        assert "idle" not in registry.resident_names()
    wal.close()
    assert_recovers(directory, registry)


# -- crashes -----------------------------------------------------------------


def _roll_twice(tmp_path, monkeypatch, method):
    """Cadence 2 (rolls every 8): an idle tree registered at seq 1 (not due
    for a checkpoint) and a busy one edited until the second roll, which
    crashes in ``method``.  That roll must checkpoint the idle tree and can
    then delete both closed segments.  Returns the registry as published
    before the crash."""
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2)
    registry.register("idle", Tree.build(("a", ["b"])))
    registry.register("busy", random_tree(16, ("a", "b"), random.Random(5)))
    for step in range(14):  # seq 3..16; the roll before seq 9 keeps 1..8
        registry.mutate("busy", Relabel(step, "c"))
    assert _closed(directory) == ["wal-000000000008.jsonl"]
    real = getattr(WriteAheadLog, method)

    def crash_in_second_roll(self, *args):
        if self._base == self.last_seq == 16:  # inside the roll before seq 17
            raise Crash(method)
        return real(self, *args)

    monkeypatch.setattr(WriteAheadLog, method, crash_in_second_roll)
    with pytest.raises(Crash):
        registry.mutate("busy", Relabel(15, "c"))
    monkeypatch.setattr(WriteAheadLog, method, real)
    _abandon(wal)
    return registry


@pytest.mark.parametrize(
    "method, live",
    [
        ("_start_segment", False),  # renamed, no live segment yet
        ("_checkpoint_pinning", True),  # headed, idle tree not yet checkpointed
        ("_drop_covered", True),  # checkpointed, nothing deleted yet
    ],
)
def test_crash_at_each_step_of_a_roll(tmp_path, monkeypatch, method, live):
    directory = tmp_path / "wal"
    registry = _roll_twice(tmp_path, monkeypatch, method)
    assert _closed(directory) == ["wal-000000000008.jsonl", "wal-000000000016.jsonl"]
    assert (directory / "wal.jsonl").exists() == live
    recovered = assert_recovers(directory, registry)
    assert recovered.epoch("busy") == 15  # the crashed edit was never logged

    wal = WriteAheadLog.open(directory, snapshot_every=2)
    assert wal.last_seq == 16
    assert _live_records(directory)[0] == {
        "rec": "segment",
        "seq": 16,
        "trees": {"busy": 15, "idle": 1},
    }
    recovered.attach_wal(wal)
    assert wal.last_seq == 16  # both trees known: nothing re-registered
    for step in range(9):  # seq 17..25: the next roll frees both old segments
        recovered.mutate("busy", Relabel(step, "d"))
    assert wal.last_seq == 25
    assert _closed(directory) == []
    wal.close()
    assert_recovers(directory, recovered)


def test_crash_halfway_through_deleting_segments(tmp_path, monkeypatch):
    directory = tmp_path / "wal"
    real_unlink = Path.unlink
    deleted = []

    def unlink_once(path, *args, **kwargs):
        if deleted:
            raise Crash("second deletion")
        deleted.append(path.name)
        return real_unlink(path, *args, **kwargs)

    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2)
    registry.register("idle", Tree.build(("a", ["b"])))
    registry.register("busy", random_tree(16, ("a", "b"), random.Random(5)))
    for step in range(14):
        registry.mutate("busy", Relabel(step, "c"))
    monkeypatch.setattr(Path, "unlink", unlink_once)
    with pytest.raises(Crash):
        registry.mutate("busy", Relabel(15, "c"))  # the roll before seq 17
    monkeypatch.setattr(Path, "unlink", real_unlink)
    _abandon(wal)
    assert deleted == ["wal-000000000008.jsonl"]
    assert _closed(directory) == ["wal-000000000016.jsonl"]
    recovered = assert_recovers(directory, registry)
    wal = WriteAheadLog.open(directory, snapshot_every=2)
    assert wal.last_seq == 16
    recovered.attach_wal(wal)
    recovered.mutate("busy", Relabel(0, "e"))  # seq 17 is due: frees the rest
    assert wal.last_seq == 17 and _closed(directory) == []
    wal.close()
    assert_recovers(directory, recovered)


@pytest.mark.parametrize("step", ["fsync_directory", "open"])
def test_a_roll_that_fails_after_its_rename_is_retried(tmp_path, monkeypatch, step):
    # The directory fsync (EIO) or the new segment's open (EMFILE, ENOSPC)
    # fails once: that mutation fails, and the next one finishes the roll.
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2)  # rolls every 8
    registry.register("idle", Tree.leaf("i"))  # pins the closed segment
    registry.register("doc", Tree.build(("a", ["b"])))
    for label in "xyxyxy":  # seq 3..8
        registry.mutate("doc", Relabel(1, label))
    real = getattr(wal_module, step, None) or getattr(builtins, step)
    failed = []

    def fail_once(*args, **kwargs):
        if not failed:
            failed.append(args)
            raise OSError(5, "Input/output error")
        return real(*args, **kwargs)

    monkeypatch.setattr(wal_module, step, fail_once, raising=False)
    with pytest.raises(OSError):
        registry.mutate("doc", Relabel(1, "z"))  # the roll before seq 9
    assert wal.last_seq == 8 and registry.epoch("doc") == 7
    assert _closed(directory) == ["wal-000000000008.jsonl"]
    assert not (directory / "wal.jsonl").exists()
    registry.mutate("doc", Relabel(1, "z"))  # seq 9, after the roll finishes
    assert wal.last_seq == 9 and registry.epoch("doc") == 8
    assert [r["seq"] for r in _live_records(directory)] == [8, 9]
    for label in "xyxyxyxy":  # seq 10..17: the next roll frees both segments
        registry.mutate("doc", Relabel(1, label))
    assert _closed(directory) == []
    wal.close()
    assert_recovers(directory, registry)


# -- failed checkpoint writes --------------------------------------------------


def test_failed_checkpoint_writes_keep_segments(tmp_path, monkeypatch):
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=1)
    failed = obs.counter("wal_checkpoints_total", event="error").value
    real_pack = TreeStore.pack

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(TreeStore, "pack", full_disk)
    registry.register("doc", random_tree(16, ("a", "b"), random.Random(6)))
    registry.register("other", Tree.leaf("o"))
    for step in range(8):  # seq 3..10: two rolls, every checkpoint fails
        registry.mutate("doc", Relabel(step, "z"))
    assert obs.counter("wal_checkpoints_total", event="error").value - failed >= 10
    assert _closed(directory) == ["wal-000000000004.jsonl", "wal-000000000008.jsonl"]
    assert_recovers(directory, registry)

    monkeypatch.setattr(TreeStore, "pack", real_pack)
    registry.mutate("doc", Relabel(0, "y"))  # seq 11: doc's checkpoint is written
    assert _closed(directory) == ["wal-000000000004.jsonl"]  # other's register
    registry.mutate("other", Relabel(0, "p"))
    assert _closed(directory) == []
    wal.close()
    assert_recovers(directory, registry)


# -- lost history --------------------------------------------------------------


def _deleted_history(tmp_path, monkeypatch):
    """Trees whose first records are in deleted segments: ``doc`` has later
    records, ``idle`` has none, and ``kept``'s register survives in a segment
    pinned by ``stuck`` (whose checkpoint writes fail) while the segment with
    its later records was deleted."""
    real_pack = TreeStore.pack

    def stuck_fails(self, name, *args, **kwargs):
        if name == "stuck":
            raise OSError(28, "No space left on device")
        return real_pack(self, name, *args, **kwargs)

    monkeypatch.setattr(TreeStore, "pack", stuck_fails)
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=1)
    registry.register("idle", Tree.leaf("i"))  # seq 1
    registry.register("doc", Tree.build(("a", ["b"])))  # seq 2
    for label in "xy":  # seq 3, 4; the roll before 5 covers 1..4
        registry.mutate("doc", Relabel(1, label))
    registry.register("stuck", Tree.leaf("s"))  # seq 5
    registry.register("kept", Tree.build(("a", ["b"])))  # seq 6
    for label in "xy":
        registry.mutate("doc", Relabel(1, label))  # seq 7, 8
    for label in "xyzw":
        registry.mutate("kept", Relabel(1, label))  # seq 9..12
    registry.mutate("doc", Relabel(1, "z"))  # seq 13: the roll keeps 5..8 only
    wal.close()
    monkeypatch.setattr(TreeStore, "pack", real_pack)
    assert _closed(directory) == ["wal-000000000008.jsonl"]
    return registry


@pytest.mark.parametrize("name", ["doc", "idle", "kept"])
def test_corrupt_checkpoint_after_deleted_history_is_fatal(tmp_path, monkeypatch, name):
    directory = tmp_path / "wal"
    registry = _deleted_history(tmp_path, monkeypatch)
    assert_recovers(directory, registry)
    checkpoint = directory / "checkpoints" / f"{name}.rstr"
    blob = bytearray(checkpoint.read_bytes())
    blob[-1] ^= 0xFF
    checkpoint.write_bytes(bytes(blob))
    with pytest.raises(WalCorruptError, match=f"'{name}'.*checkpoint failed to load"):
        recover(directory)


def test_a_damaged_checkpoint_found_on_reopen_frees_no_history(tmp_path):
    # The checkpoint's body fails its CRC but its header still reads, so
    # recovery replays the tree from the log.  A reopened writer must keep
    # that history until it has written the tree's checkpoint again.
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2)  # rolls every 8
    registry.register("idle", Tree.build(("a", ["b"])))  # seq 1
    registry.register("busy", random_tree(16, ("a", "b"), random.Random(9)))
    registry.mutate("idle", Relabel(1, "x"))  # seq 3: idle's checkpoint, epoch 2
    wal.close()
    checkpoint = directory / "checkpoints" / "idle.rstr"
    blob = bytearray(checkpoint.read_bytes())
    blob[-1] ^= 0xFF
    checkpoint.write_bytes(bytes(blob))
    assert TreeStore(directory / "checkpoints").epoch("idle") == 2  # header intact
    recovered = assert_recovers(directory, registry)

    wal = WriteAheadLog.open(directory, snapshot_every=2)
    recovered.attach_wal(wal)
    assert wal.last_seq == 3  # nothing re-registered
    for step in range(8):  # seq 4..11: the roll before seq 9 closes 1..8
        recovered.mutate("busy", Relabel(step, "c"))
    assert _closed(directory) == ["wal-000000000008.jsonl"]  # idle's history
    for step in range(8):  # seq 12..19: the roll before 17 rewrites idle's checkpoint
        recovered.mutate("busy", Relabel(step, "d"))
    assert _closed(directory) == []
    assert TreeStore(directory / "checkpoints").load("idle")[1] == 2
    wal.close()
    assert_recovers(directory, recovered)


def test_a_torn_closed_segment_is_corruption(tmp_path):
    # A closed segment was fsynced before its rename, so a cut record in
    # it is damage, even at its end, and even though the live segment
    # after it holds only a header.
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2)
    registry.register("idle", Tree.leaf("i"))  # pins the first segment
    registry.register("busy", Tree.build(("a", ["b"])))
    for step in range(7):  # seq 3..9: the roll before seq 9 closes 1..8
        registry.mutate("busy", Relabel(1, "xy"[step % 2]))
    wal.close()
    segment = directory / "wal-000000000008.jsonl"
    segment.write_bytes(segment.read_bytes()[:-5])
    with pytest.raises(WalCorruptError, match="closed segment"):
        recover(directory)


# -- retract, reopen, old logs -------------------------------------------------


def test_retract_undoes_the_record_that_opened_a_segment(tmp_path, monkeypatch):
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2)  # rolls every 8
    store = TreeStore(tmp_path / "store")
    registry.attach_store(store)
    registry.register("idle", Tree.leaf("i"))  # pins the closed segment
    registry.register("doc", Tree.build(("a", ["b", "c"])))
    for label in "xyzxyz":  # seq 3..8
        registry.mutate("doc", Relabel(1, label))
    real_pack = store.pack

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store, "pack", full_disk)
    with pytest.raises(OSError):
        registry.mutate("doc", Relabel(2, "q"))  # rolls, appends seq 9, retracts
    assert wal.last_seq == 8 and registry.epoch("doc") == 7
    assert [r["rec"] for r in _live_records(directory)] == ["segment"]
    assert _closed(directory) == ["wal-000000000008.jsonl"]
    monkeypatch.setattr(store, "pack", real_pack)
    # Seq 9 again, in the same segment: an empty live segment never rolls
    # (a second roll would rename it over the closed segment).
    registry.mutate("doc", Relabel(2, "r"))
    assert wal.last_seq == 9
    assert [r["seq"] for r in _live_records(directory)] == [8, 9]
    assert _closed(directory) == ["wal-000000000008.jsonl"]
    wal.close()
    assert_recovers(directory, registry).get("doc").labels == ("a", "z", "r")


def test_reopened_writer_does_not_rebaseline_past_a_roll(tmp_path):
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=4)  # rolls every 16
    registry.register("doc", Tree.leaf("a"))  # seq 1: no checkpoint
    registry.register("other", Tree.leaf("o"))
    for step in range(15):  # seq 3..17: doc is in the closed segment only
        registry.mutate("other", Relabel(0, "pq"[step % 2]))
    wal.close()
    assert _closed(directory) == ["wal-000000000016.jsonl"]
    assert not (directory / "checkpoints" / "doc.rstr").exists()
    wal2 = WriteAheadLog.open(directory, snapshot_every=4)
    registry2 = recover(directory, registry=TreeRegistry())
    registry2.attach_wal(wal2)
    assert wal2.last_seq == 17  # no duplicate register record appended
    wal2.close()


def test_a_whole_history_log_rolls_at_its_next_boundary(tmp_path):
    # A log written without rolls (as before segments existed) is one
    # live segment of any length.
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=None)
    registry.register("doc", Tree.build(("a", ["b"])))
    for step in range(9):  # seq 2..10
        registry.mutate("doc", Relabel(1, "xyz"[step % 3]))
    wal.close()
    assert_recovers(directory, registry)
    wal = WriteAheadLog.open(directory, snapshot_every=1)  # rolls every 4
    assert wal.last_seq == 10
    registry.attach_wal(wal)
    registry.mutate("doc", Relabel(0, "r"))  # seq 11
    registry.mutate("doc", Relabel(0, "s"))  # seq 12
    assert _closed(directory) == []
    registry.mutate("doc", Relabel(0, "t"))  # seq 13 rolls 1..12
    assert [r["seq"] for r in _live_records(directory)] == [12, 13]
    wal.close()
    assert_recovers(directory, registry)


def test_recovered_trees_derive_no_columns(tmp_path):
    # Checkpoint-loaded, replayed and register-only trees alike.
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=3)
    rng = random.Random(8)
    registry.register("doc", random_tree(40, ("a", "b"), rng))
    registry.register("leaf", Tree.leaf("l"))
    for step in range(7):
        registry.mutate("doc", InsertSubtree(0, 0, Tree.build(("b", ["a"]))))
    wal.close()
    recovered = assert_recovers(directory, registry)
    for name in recovered.names():
        assert recovered.get(name)._columns == [None], name


# -- property: long scripts round-trip across rolls ----------------------------


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_long_scripts_round_trip_across_rolls(data, tmp_path_factory):
    # Cadence 2 rolls every 8 records; 2 registers + 12..40 edits roll 1-5 times.
    tmp_path = tmp_path_factory.mktemp("wal-segments-prop")
    directory = tmp_path / "wal"
    registry, wal = _registry_with_wal(tmp_path, snapshot_every=2, fsync="never")
    oracles = {}
    for name in ("t", "u"):
        oracles[name] = data.draw(trees(max_size=10, alphabet=("a", "b")), label=name)
        registry.register(name, oracles[name])
    for _ in range(data.draw(st.integers(12, 40), label="script length")):
        name = data.draw(st.sampled_from(("t", "t", "u")), label="tree")
        edit = _draw_edit(data, oracles[name])
        registry.mutate(name, edit)
        oracles[name] = apply_edit(oracles[name], edit)
    assert len(_closed(directory)) <= 1
    wal.close()
    recovered = assert_recovers(directory, registry)
    for name, oracle in oracles.items():
        assert recovered.get(name) == oracle
