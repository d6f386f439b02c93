"""Durable mutation history: a write-ahead log for the tree registry.

PR 8 made documents live; this module makes the edit history survive the
process.  A WAL directory holds two kinds of files:

* ``wal.jsonl`` and ``wal-<seq>.jsonl`` — the log, as segments.  Each
  record is one line framed as ``<length:hex8> <crc32:hex8> <json>\\n``
  where *length* is the byte length of the JSON payload and the CRC is over
  those bytes.  Records reuse the strict PR 8 mutate codec
  (:func:`~repro.trees.mutate.edit_to_json`), carry a monotonically
  increasing ``seq``, the published ``epoch``, and a short digest of the
  *post-state* tree so replay is self-verifying.  ``wal.jsonl`` is the live
  segment.  Every ``4 × snapshot_every`` records (a constant multiple;
  ``snapshot_every=None`` never rolls) the next append first **rolls** it:
  fsync, rename to ``wal-<seq of its last record>.jsonl``, and start a new
  ``wal.jsonl`` headed by a ``segment`` record naming every tree the log
  knows with its latest epoch.  Only the live segment can therefore have a
  torn tail: a crashed append leaves at most one torn record there;
  :meth:`WriteAheadLog.open` detects it (bad frame, short line, CRC
  mismatch) and truncates back to the last intact record.  A bad frame
  *followed by intact records*, or any bad frame in a closed segment, is
  not a torn tail — that is corruption and raises
  :class:`~repro.runtime.errors.WalCorruptError`.

* ``checkpoints/<name>.rstr`` — one :class:`~repro.trees.store.TreeStore`
  file per tree (CRC-checked, atomically replaced), stamped with its
  epoch and written by the publish that makes it current when the tree is
  due, so no step needs the whole registry and an evicted tree cannot drop
  out.  :func:`recover` loads each and replays only its tree's later
  records.

**Truncation.**  A closed segment is deleted, after each checkpoint and
each roll, once every tree with a record in it has a checkpoint on disk
whose epoch is at or past that tree's highest epoch in the segment — the
test :func:`recover` uses to skip a record.  At a roll, every tree that
would still pin a segment older than the one just closed is checkpointed
(through :attr:`WriteAheadLog.checkpoint_source`, which the registry sets;
a cold tree is read from its store without becoming resident), so at most
the live segment and one closed segment remain.  Deletion reads only the
epochs whose pack returned in this writer: a checkpoint whose write failed
frees nothing, and neither does one a reopened writer finds on disk (its
header reads without a CRC check, so a damaged body would pass) until the
tree is checkpointed again.  Recovery time and disk use thus follow the
live state, not the history.  The price is that a checkpoint is now the
only copy of its tree's deleted history: one that fails its CRC raises
``WalCorruptError`` naming the tree rather than recovering it at an older
epoch, or without it.

**Log-ahead contract.**  :meth:`TreeRegistry.mutate
<repro.service.api.TreeRegistry.mutate>` and ``register`` append the
record *before* publishing the new epoch (and before packing it, when a
store is attached).  A crash between append and publish is therefore
rolled **forward** on recovery — the durable history wins — while a
failed append (``wal.append`` fault site, disk error) aborts the mutation
with the registry untouched, and a store pack that fails after the append
retracts the record (:meth:`WriteAheadLog.retract`).  A tree's first record
in a log is always a full ``register``.  Recovery replays edits through
:func:`~repro.trees.mutate.apply_edit_indexed` (the incremental index
maintenance) and verifies the result two ways: every record's post-state
digest, and — for each checkpointed or replayed tree — its stored columns
and :func:`~repro.trees.mutate.index_fingerprint` against a tree and index
rebuilt from scratch.

Fsync policy is configurable: ``"always"`` (fsync every append — the
durable default for the CLI), ``"never"`` (leave flushing to the OS), or an
integer *N* (fsync every N appends).  Appends, bytes, and fsync latency are
recorded in ``wal_appends_total`` / ``wal_bytes`` / ``wal_fsync_seconds``,
checkpoint writes in ``wal_checkpoints_total`` (``event`` ``ok`` or
``error``), rolls and deletions in ``wal_segments_total`` (``event``
``rolled`` or ``deleted``), and recovery wall time in ``recovery_seconds``.
"""

from __future__ import annotations

import array
import hashlib
import json
import os
import re
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from ..runtime import faults
from ..runtime.errors import StoreCorruptError, WalCorruptError
from .mutate import (
    _TREE_ARRAYS,
    _shape_to_json,
    _tree_from_shape_json,
    apply_edit_indexed,
    edit_from_json,
    index_fingerprint,
)
from .index import tree_index
from .store import TreeStore, fsync_directory
from .tree import Tree, _set_slots

__all__ = ["WriteAheadLog", "recover", "recover_registry", "tree_digest"]

_LOG_NAME = "wal.jsonl"
_CHECKPOINTS = "checkpoints"
#: A closed segment, named by the seq of its last record.
_CLOSED = re.compile(r"wal-(\d+)\.jsonl")
#: The live segment rolls every this many checkpoint cadences.
_ROLL_CADENCES = 4


def tree_digest(tree: Tree) -> str:
    """A short structural digest of a tree (labels + parent vector).

    This is the per-record self-check: cheap (O(n) text hashing, no index
    work) but collision-resistant, so replay detects a record applied to
    the wrong base state.  The full bit-exactness checks against
    ``tree_fingerprint`` and ``index_fingerprint`` happen once per tree at
    the end of recovery.
    """
    hasher = hashlib.sha256()
    hasher.update("\x00".join(tree.labels).encode("utf-8"))
    hasher.update(b"\x01")
    hasher.update(array.array("q", tree.parent).tobytes())
    return hasher.hexdigest()[:16]


def _frame(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"%08x %08x %s\n" % (len(body), zlib.crc32(body), body)


def _parse_frame(line: bytes):
    """Decode one framed line; return the payload dict or ``None`` if torn."""
    if len(line) < 19 or not line.endswith(b"\n") or line[8:9] != b" " or line[17:18] != b" ":
        return None
    try:
        length = int(line[:8], 16)
        crc = int(line[9:17], 16)
    except ValueError:
        return None
    body = line[18:-1]
    if len(body) != length or zlib.crc32(body) != crc:
        return None
    try:
        return json.loads(body)
    except ValueError:
        return None


def _scan_log(data: bytes, path: str):
    """Split the raw log into intact records.

    Returns ``(records, good_length)`` where *records* is the list of
    decoded payloads and *good_length* is the byte offset up to which the
    log is intact.  A torn suffix (no complete intact record after the bad
    point) is tolerated; an intact record *after* a bad one means the
    middle of the history is corrupt and raises :class:`WalCorruptError`.
    """
    records: list[dict] = []
    offset = 0
    torn_at = None
    while offset < len(data):
        newline = data.find(b"\n", offset)
        line = data[offset:] if newline < 0 else data[offset : newline + 1]
        payload = _parse_frame(line)
        if payload is None:
            if torn_at is None:
                torn_at = offset
            if newline < 0:
                break
            offset = newline + 1
            continue
        if torn_at is not None:
            raise WalCorruptError(
                f"{path}: intact record at byte {offset} after corrupt "
                f"record at byte {torn_at} — history is damaged mid-log, "
                "not merely torn at the tail"
            )
        records.append(payload)
        offset = newline + 1
    good_length = len(data) if torn_at is None else torn_at
    return records, good_length


def _read_closed(path: Path) -> list[dict]:
    """The records of a closed segment, which was fsynced before its rename:
    any bad frame in it is damage, not a torn tail."""
    data = path.read_bytes()
    records, good_length = _scan_log(data, str(path))
    if good_length < len(data):
        raise WalCorruptError(
            f"{path}: closed segment is damaged at byte {good_length}"
        )
    return records


def _closed_segments(directory: Path) -> list[tuple[int, Path]]:
    """``(last seq, path)`` of each closed segment, oldest first."""
    found = []
    for path in directory.glob("wal-*.jsonl"):
        match = _CLOSED.fullmatch(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def _pins(records) -> dict[str, int]:
    """Each tree's highest epoch among ``records``: the checkpoint epoch
    at which recovery would skip every one of them."""
    pins: dict[str, int] = {}
    for record in records:
        if record["rec"] != "segment":
            name = record["tree"]
            pins[name] = max(pins.get(name, 0), int(record["epoch"]))
    return pins


@dataclass
class _Segment:
    """A closed segment still on disk; ``pins`` is ``None`` until read
    (segments found by :meth:`WriteAheadLog.open` are read on first need)."""

    path: Path
    pins: dict[str, int] | None = None


class WriteAheadLog:
    """The writer half: framed appends, fsync policy, segments, checkpoints.

    Use :meth:`open` (which performs torn-tail truncation) rather than the
    constructor.  Appends are not internally locked — callers serialize on
    the registry's mutation lock, which is the same ordering the log is
    meant to record.  ``snapshot_every`` is the checkpoint cadence in
    records (``None`` writes no checkpoints and never rolls the log).

    ``checkpoint_source`` maps a tree name to its published ``(tree,
    epoch)``, or ``None`` when it cannot; a roll calls it, under the
    caller's lock, for each tree that would pin an older segment.
    :meth:`TreeRegistry.attach_wal <repro.service.api.TreeRegistry.attach_wal>`
    sets it.  Without one, such segments stay until their trees' own
    checkpoints cover them.
    """

    def __init__(self, directory, *, fsync="always", snapshot_every: int | None = 256):
        if fsync not in ("always", "never") and not (
            isinstance(fsync, int) and not isinstance(fsync, bool) and fsync > 0
        ):
            raise ValueError(
                f"fsync policy must be 'always', 'never', or a positive int, got {fsync!r}"
            )
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError(f"snapshot_every must be positive or None, got {snapshot_every!r}")
        self.directory = Path(directory)
        self.fsync_policy = fsync
        self.snapshot_every = snapshot_every
        self.last_seq = 0
        self.truncated_bytes = 0
        self.checkpoint_source = None
        self._handle = None
        self._unsynced = 0
        #: Each known tree's latest logged (or checkpointed) epoch.
        self._epochs: dict[str, int] = {}
        #: The seq before the live segment's first record, its pins, and
        #: the closed segments still on disk, oldest first.
        self._base = 0
        self._live_pins: dict[str, int] = {}
        self._closed: list[_Segment] = []
        #: ``last_seq`` at each tree's latest checkpoint attempt (the due
        #: grid); the store is made by the first one, so a log that never
        #: checkpoints adds no directory.
        self._checkpointed: dict[str, int] = {}
        self._checkpoints: TreeStore | None = None
        #: The epoch of each tree's checkpoint written by this writer, set
        #: only when its pack returns: a file found on disk is not trusted
        #: until rewritten, since only a full CRC load could vouch for it.
        self._durable: dict[str, int] = {}
        #: A roll renamed the live segment but has not started the next one
        #: (a failed directory fsync or open): the next append finishes it.
        self._rolling = False
        #: ``(seq, frame bytes, name, previous epoch, previous pin)`` of the
        #: latest append, so :meth:`retract` can undo it.
        self._last_append = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, directory, *, fsync="always", snapshot_every: int | None = 256):
        """Open (creating if needed) a WAL directory for appending.

        Reads the live segment, truncating a torn tail back to the last
        intact record, and the checkpoints' names and header epochs; seeds
        ``last_seq`` / ``known_trees`` from those and the live segment's
        header.  Closed segments are only listed.  A roll that stopped
        after its rename (no live segment yet) is finished here from the
        newest closed segment.

        The checkpoints found here free no segment: their headers are read
        without the CRC check of a load, so a damaged body would pass.  A
        busy tree is checkpointed again by its first due publish, and an
        idle one by the first roll its records would otherwise outlive.
        """
        wal = cls(directory, fsync=fsync, snapshot_every=snapshot_every)
        wal.directory.mkdir(parents=True, exist_ok=True)
        if (wal.directory / _CHECKPOINTS).is_dir():
            wal._checkpoints = TreeStore(wal.directory / _CHECKPOINTS)
            for name in wal._checkpoints.names():
                epoch = wal._checkpoints.epoch(name)
                if epoch is not None:
                    wal._epochs[name] = epoch
        for last_seq, path in _closed_segments(wal.directory):
            wal._closed.append(_Segment(path))
            wal.last_seq = wal._base = last_seq
        path = wal.path
        data = path.read_bytes() if path.exists() else b""
        records, good_length = _scan_log(data, str(path))
        wal._handle = open(path, "ab")
        if good_length < len(data):
            wal.truncated_bytes = len(data) - good_length
            wal._handle.truncate(good_length)
            wal._handle.seek(0, os.SEEK_END)
            obs.counter("wal_truncations_total").inc()
        if wal._closed and not records:
            newest = wal._closed[-1]
            inherited = _read_closed(newest.path)
            newest.pins = _pins(inherited)
            wal._note(inherited)
            wal._handle.close()
            wal._handle = None
            wal._start_segment()
            return wal
        wal._note(records)
        wal._live_pins = _pins(records)
        for record in records:
            wal.last_seq = max(wal.last_seq, int(record["seq"]))
        if records and records[0]["rec"] == "segment":
            wal._base = int(records[0]["seq"])
        return wal

    def close(self) -> None:
        self._rolling = False  # a reopen finishes an unfinished roll
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                pass
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def path(self) -> Path:
        """The live segment."""
        return self.directory / _LOG_NAME

    @property
    def known_trees(self):
        """The trees the log can replay: named by a record, the live
        segment's header, or a checkpoint."""
        return self._epochs.keys()

    def _note(self, records) -> None:
        """Fold the trees and epochs ``records`` name into ``_epochs``."""
        epochs = self._epochs
        for record in records:
            named = record["trees"] if record["rec"] == "segment" else {
                record["tree"]: record["epoch"]
            }
            for name, epoch in named.items():
                epochs[name] = max(epochs.get(name, 0), int(epoch))

    # -- appends -------------------------------------------------------------

    def append_register(self, name: str, epoch: int, tree: Tree) -> int:
        """Log a full (re)registration of ``name`` at ``epoch``."""
        return self._append(
            {
                "rec": "register",
                "tree": name,
                "epoch": epoch,
                "shape": _shape_to_json(tree),
                "sha": tree_digest(tree),
            }
        )

    def append_mutate(self, name: str, epoch: int, edit_json: dict, new_tree: Tree) -> int:
        """Log one edit of ``name`` publishing ``epoch`` (wire-format edit)."""
        return self._append(
            {
                "rec": "mutate",
                "tree": name,
                "epoch": epoch,
                "edit": edit_json,
                "sha": tree_digest(new_tree),
            }
        )

    def _append(self, payload: dict) -> int:
        if self._handle is None and not self._rolling:
            raise ValueError("write-ahead log is closed")
        faults.check("wal.append")
        every = self.snapshot_every
        if self._rolling or (
            every is not None
            and self.last_seq > self._base
            and self.last_seq % (_ROLL_CADENCES * every) == 0
        ):
            self._roll()
        seq = self.last_seq + 1
        payload["seq"] = seq
        frame = _frame(payload)
        self._handle.write(frame)
        self._handle.flush()
        self._unsynced += 1
        if self.fsync_policy == "always" or (
            self.fsync_policy != "never" and self._unsynced >= self.fsync_policy
        ):
            self.sync()
        self.last_seq = seq
        name, epoch = payload["tree"], payload["epoch"]
        epochs, pins = self._epochs, self._live_pins
        self._last_append = (seq, len(frame), name, epochs.get(name), pins.get(name))
        epochs[name] = max(epochs.get(name, 0), epoch)
        pins[name] = max(pins.get(name, 0), epoch)
        obs.counter("wal_appends_total", kind=payload["rec"]).inc()
        obs.counter("wal_bytes").inc(len(frame))
        return seq

    def retract(self, seq: int) -> None:
        """Undo the append of record ``seq``, which must be the latest.

        For a logged change whose publish then failed (the registry's store
        could not pack it): the log must not claim an epoch that was never
        published, or recovery would replay an edit its caller saw fail.
        A crash before the retraction rolls the record forward instead,
        like any crash between append and publish.  A roll happens before
        an append, so the record is always in the live segment.
        """
        if self._last_append is None or self._last_append[0] != seq:
            raise ValueError(f"record {seq} is not the latest append")
        _, length, name, epoch, pin = self._last_append
        self._last_append = None
        self._handle.truncate(self._handle.seek(0, os.SEEK_END) - length)
        self._handle.seek(0, os.SEEK_END)
        os.fsync(self._handle.fileno())
        self._unsynced = 0
        self.last_seq = seq - 1
        for values, value in ((self._epochs, epoch), (self._live_pins, pin)):
            if value is None:
                del values[name]
            else:
                values[name] = value

    def sync(self) -> None:
        """Force the log to stable storage (records fsync latency)."""
        if self._handle is None or not self._unsynced:
            return
        start = time.perf_counter()
        os.fsync(self._handle.fileno())
        obs.histogram("wal_fsync_seconds").observe(time.perf_counter() - start)
        self._unsynced = 0

    # -- segments ------------------------------------------------------------

    def _roll(self) -> None:
        """Close the live segment under its last seq and start the next.

        The fsync first makes the closed segment whole, so only the live
        segment can ever have a torn tail.  A failure before the rename
        changes nothing; one after it leaves ``_rolling`` set, and the
        next append retries from :meth:`_start_segment`.  A record in a
        closed segment cannot be retracted.
        """
        if not self._rolling:
            self.sync()
            closed = self.directory / f"wal-{self.last_seq:012d}.jsonl"
            os.replace(self.path, closed)
            handle, self._handle = self._handle, None
            self._rolling = True
            self._last_append = None
            self._closed.append(_Segment(closed, self._live_pins))
            self._live_pins = {}
            self._base = self.last_seq
            handle.close()
        self._start_segment()
        self._rolling = False
        obs.counter("wal_segments_total", event="rolled").inc()
        self._checkpoint_pinning()
        self._drop_covered()

    def _start_segment(self) -> None:
        """Open a live segment headed by the trees it inherits.

        The directory fsync first makes the rename that closed the last
        one durable; the segment is rewritten whole, so a retry after a
        failed header write leaves no fragment of it.
        """
        fsync_directory(self.directory)
        handle = open(self.path, "wb")
        try:
            header = {"rec": "segment", "seq": self._base, "trees": self._epochs}
            handle.write(_frame(header))
            handle.flush()
        except BaseException:
            handle.close()
            raise
        self._handle = handle

    def _pins_of(self, segment: _Segment) -> dict[str, int] | None:
        """``segment``'s pins, read on first need; ``None`` if unreadable
        (a damaged segment is kept for :func:`recover` to report)."""
        if segment.pins is None:
            try:
                segment.pins = _pins(_read_closed(segment.path))
            except (OSError, WalCorruptError):
                return None
        return segment.pins

    def _checkpoint_pinning(self) -> None:
        """Checkpoint each tree that pins a segment older than the newest
        closed one, from ``checkpoint_source``."""
        source = self.checkpoint_source
        if source is None:
            return
        durable = self._durable
        stale = set()
        for segment in self._closed[:-1]:
            for name, epoch in (self._pins_of(segment) or {}).items():
                if durable.get(name, -1) < epoch:
                    stale.add(name)
        for name in sorted(stale):
            published = source(name)
            if published is not None and published[1] > durable.get(name, -1):
                self._checkpoint(name, *published)

    def _drop_covered(self) -> None:
        """Delete each closed segment whose records checkpoints all cover."""
        durable = self._durable
        kept = []
        for segment in self._closed:
            pins = self._pins_of(segment)
            if pins is None or any(durable.get(n, -1) < e for n, e in pins.items()):
                kept.append(segment)
                continue
            segment.path.unlink(missing_ok=True)
            obs.counter("wal_segments_total", event="deleted").inc()
        self._closed = kept

    # -- checkpoints ---------------------------------------------------------

    def maybe_checkpoint(self, name: str, tree: Tree, epoch: int) -> None:
        """Checkpoint ``name``'s just-published ``tree`` at ``epoch`` if due.

        Called by the registry after every logged publish, under its
        mutation lock.  A tree is due at its first publish past a multiple
        of ``snapshot_every`` records since its last checkpoint attempt: a
        fixed grid, not a per-tree distance (which would drift), so
        recovery replays about one cadence every time.  A failed write
        (``OSError``) is counted, not raised: the epoch is already logged
        and published.  A written one may free closed segments.
        """
        every = self.snapshot_every
        if every is None or self.last_seq // every <= self._checkpointed.get(name, 0) // every:
            return
        self._checkpointed[name] = self.last_seq
        if self._checkpoint(name, tree, epoch):
            self._drop_covered()

    def _checkpoint(self, name: str, tree: Tree, epoch: int) -> bool:
        """Pack one checkpoint; whether it reached the disk."""
        try:
            if self._checkpoints is None:
                self._checkpoints = TreeStore(self.directory / _CHECKPOINTS)
            self._checkpoints.pack(name, tree, epoch=epoch)
        except OSError:
            obs.counter("wal_checkpoints_total", event="error").inc()
            return False
        obs.counter("wal_checkpoints_total", event="ok").inc()
        self._durable[name] = epoch
        return True


def _log_records(directory: Path):
    """``(path, records)`` of each segment, oldest first; only the live
    segment may have a torn tail, which is left out."""
    for _, path in _closed_segments(directory):
        yield path, _read_closed(path)
    live = directory / _LOG_NAME
    data = live.read_bytes() if live.exists() else b""
    yield live, _scan_log(data, str(live))[0]


def recover(directory, *, registry=None, verify: bool = True):
    """Fold the WAL directory back into a live ``TreeRegistry``.

    Registers every intact checkpoint at its epoch, then replays each
    record of the retained segments, oldest first, that is newer than its
    tree's checkpoint through the incremental index maintenance, checking
    each record's post-state digest.  Skipping by epoch, not ``seq``, also
    covers a checkpoint ahead of a log that lost its unsynced tail.  A
    corrupt checkpoint is skipped, and its tree replayed from the log if
    the log still holds its history; every tree a segment header names
    must come back at or past the epoch the header records, or
    :class:`WalCorruptError` names it.  With ``verify=True``, every
    checkpointed or replayed tree's stored columns (and any derived column
    already set on it) and :func:`index_fingerprint` are compared against
    a tree and index rebuilt from scratch; nothing is derived on the
    recovered tree.  A torn tail of the live segment is ignored (the writer
    truncates it on its next :meth:`WriteAheadLog.open`); corruption
    anywhere else raises :class:`WalCorruptError`.  Only ``directory`` is
    read.  Returns the registry (a fresh one unless ``registry`` is
    passed); attach a :class:`WriteAheadLog` afterwards to resume logging.
    """
    from ..service.api import TreeRegistry

    start = time.perf_counter()
    directory = Path(directory)
    if registry is None:
        registry = TreeRegistry()
    checkpointed: dict[str, int] = {}
    corrupt: set[str] = set()
    if (directory / _CHECKPOINTS).is_dir():
        checkpoints = TreeStore(directory / _CHECKPOINTS)
        for name in checkpoints.names():
            try:
                tree, epoch = checkpoints.load(name)
            except StoreCorruptError:
                corrupt.add(name)  # replayed if the log still holds it all
                continue
            registry.register(name, tree, epoch=epoch)
            checkpointed[name] = epoch

    def lost(name: str) -> str:
        return " (its checkpoint failed to load)" if name in corrupt else ""

    to_verify = set(checkpointed)
    floors: dict[str, int] = {}
    applied = 0
    for log_path, records in _log_records(directory):
        for record in records:
            seq = int(record.get("seq", 0))
            if record["rec"] == "segment":
                for name, epoch in record["trees"].items():
                    floors[name] = max(floors.get(name, 0), int(epoch))
                continue
            name = record["tree"]
            if int(record["epoch"]) <= checkpointed.get(name, -1):
                continue
            if record["rec"] == "register":
                tree = _tree_from_shape_json(record["shape"])
            elif record["rec"] == "mutate":
                try:
                    base = registry.get(name)
                except ValueError:
                    raise WalCorruptError(
                        f"{log_path}: mutate record seq {seq} targets unknown tree "
                        f"{name!r} (no base registration in a checkpoint or the "
                        f"log){lost(name)}"
                    ) from None
                tree = apply_edit_indexed(base, edit_from_json(record["edit"]))
                to_verify.add(name)
            else:
                raise WalCorruptError(
                    f"{log_path}: unknown record type {record['rec']!r} at seq {seq}"
                )
            if verify and tree_digest(tree) != record["sha"]:
                raise WalCorruptError(
                    f"{log_path}: post-state digest mismatch replaying seq {seq} "
                    f"({record['rec']} of tree {name!r}){lost(name)}"
                )
            registry.register(name, tree, epoch=int(record["epoch"]))
            applied += 1
    for name, floor in sorted(floors.items()):
        if registry.epoch(name) < floor:
            raise WalCorruptError(
                f"tree {name!r} recovers to epoch {registry.epoch(name)}, but the "
                f"log reached epoch {floor} before its older segments were "
                f"deleted{lost(name)}"
            )
    if verify:
        for name in sorted(to_verify):
            tree = registry.get(name)
            # The digest covers only labels and parents; the spliced arrays
            # and the spliced index are each checked against a rebuild.  Of
            # the derived columns, only those already set on the tree are
            # compared: the rest follow from the stored three through one
            # function, and deriving them would keep them on a serving tree.
            rebuilt = Tree(list(tree.labels), list(tree.parent))
            held = _set_slots(tree)
            for column in _TREE_ARRAYS:
                if column in held and held[column] != getattr(rebuilt, column):
                    raise WalCorruptError(
                        f"recovered tree {name!r} structural arrays diverge from "
                        "a from-scratch rebuild"
                    )
            if index_fingerprint(tree_index(tree)) != index_fingerprint(
                tree_index(rebuilt)
            ):
                raise WalCorruptError(
                    f"recovered tree {name!r} index fingerprint diverges from "
                    "a from-scratch rebuild"
                )
    elapsed = time.perf_counter() - start
    obs.histogram("recovery_seconds").observe(elapsed)
    obs.counter("wal_records_replayed_total").inc(applied)
    return registry


#: Package-namespace alias (a bare ``recover`` is ambiguous in repro.trees).
recover_registry = recover
