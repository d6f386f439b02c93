"""Durable mutation history: a write-ahead log for the tree registry.

PR 8 made documents live; this module makes the edit history survive the
process.  A WAL directory holds two kinds of files:

* ``wal.jsonl`` — the append-only log, never compacted.  Each record is one
  line framed as ``<length:hex8> <crc32:hex8> <json>\\n`` where *length* is
  the byte length of the JSON payload and the CRC is over those bytes.
  Records reuse the strict PR 8 mutate codec
  (:func:`~repro.trees.mutate.edit_to_json`), carry a monotonically
  increasing ``seq``, the published ``epoch``, and a short digest of the
  *post-state* tree so replay is self-verifying.  A crashed append leaves
  at most one torn record at the tail; :meth:`WriteAheadLog.open` detects
  it (bad frame, short line, CRC mismatch) and truncates back to the last
  intact record.  A bad frame *followed by intact records* is not a torn
  tail — that is corruption and raises :class:`~repro.runtime.errors.WalCorruptError`.

* ``checkpoints/<name>.rstr`` — one :class:`~repro.trees.store.TreeStore`
  file per tree (CRC-checked, atomically replaced), stamped with its
  epoch and written by the publish that makes it current when the tree is
  due, so no step needs the whole registry and an evicted tree cannot drop
  out.  :func:`recover` loads each and replays only its tree's later
  records.  The log stays the source of truth: a checkpoint that fails to
  load or to write costs replay work, never a tree.

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
digest, and — for each checkpointed or replayed tree — a bit-for-bit
:func:`~repro.trees.mutate.index_fingerprint` comparison against an index
rebuilt from scratch.

Fsync policy is configurable: ``"always"`` (fsync every append — the
durable default for the CLI), ``"never"`` (leave flushing to the OS), or an
integer *N* (fsync every N appends).  Appends, bytes, and fsync latency are
recorded in ``wal_appends_total`` / ``wal_bytes`` / ``wal_fsync_seconds``,
checkpoint writes in ``wal_checkpoints_total`` (``event`` ``ok`` or
``error``), and recovery wall time in ``recovery_seconds``.
"""

from __future__ import annotations

import array
import hashlib
import json
import os
import time
import zlib
from pathlib import Path

from .. import obs
from ..runtime import faults
from ..runtime.errors import StoreCorruptError, WalCorruptError
from .mutate import (
    _shape_to_json,
    _tree_from_shape_json,
    apply_edit_indexed,
    edit_from_json,
    index_fingerprint,
    tree_fingerprint,
)
from .index import tree_index
from .store import TreeStore
from .tree import Tree

__all__ = ["WriteAheadLog", "recover", "recover_registry", "tree_digest"]

_LOG_NAME = "wal.jsonl"
_CHECKPOINTS = "checkpoints"


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


class WriteAheadLog:
    """The writer half: framed appends, fsync policy, per-tree checkpoints.

    Use :meth:`open` (which performs torn-tail truncation) rather than the
    constructor.  Appends are not internally locked — callers serialize on
    the registry's mutation lock, which is the same ordering the log is
    meant to record.  ``snapshot_every`` is the checkpoint cadence in
    records (``None`` writes no checkpoints).
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
        self.known_trees: set[str] = set()
        self._handle = None
        self._unsynced = 0
        #: ``last_seq`` at each tree's latest checkpoint; the store is made
        #: by the first one, so a log that never checkpoints adds no directory.
        self._checkpointed: dict[str, int] = {}
        self._checkpoints: TreeStore | None = None
        #: ``(seq, frame bytes, name, first mention)`` of the latest append,
        #: so :meth:`retract` can undo it.
        self._last_append = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, directory, *, fsync="always", snapshot_every: int | None = 256):
        """Open (creating if needed) a WAL directory for appending.

        Scans the existing log, truncates a torn tail back to the last
        intact record, and seeds ``last_seq`` / ``known_trees`` from the
        surviving records.
        """
        wal = cls(directory, fsync=fsync, snapshot_every=snapshot_every)
        wal.directory.mkdir(parents=True, exist_ok=True)
        path = wal.directory / _LOG_NAME
        data = path.read_bytes() if path.exists() else b""
        records, good_length = _scan_log(data, str(path))
        wal._handle = open(path, "ab")
        if good_length < len(data):
            wal.truncated_bytes = len(data) - good_length
            wal._handle.truncate(good_length)
            wal._handle.seek(0, os.SEEK_END)
            obs.counter("wal_truncations_total").inc()
        for record in records:
            wal.last_seq = max(wal.last_seq, int(record.get("seq", 0)))
            name = record.get("tree")
            if name:
                wal.known_trees.add(name)
        return wal

    def close(self) -> None:
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
        return self.directory / _LOG_NAME

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
        if self._handle is None:
            raise ValueError("write-ahead log is closed")
        faults.check("wal.append")
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
        name = payload["tree"]
        self._last_append = (seq, len(frame), name, name not in self.known_trees)
        self.known_trees.add(name)
        obs.counter("wal_appends_total", kind=payload["rec"]).inc()
        obs.counter("wal_bytes").inc(len(frame))
        return seq

    def retract(self, seq: int) -> None:
        """Undo the append of record ``seq``, which must be the latest.

        For a logged change whose publish then failed (the registry's store
        could not pack it): the log must not claim an epoch that was never
        published, or recovery would replay an edit its caller saw fail.
        A crash before the retraction rolls the record forward instead,
        like any crash between append and publish.
        """
        if self._last_append is None or self._last_append[0] != seq:
            raise ValueError(f"record {seq} is not the latest append")
        _, length, name, first = self._last_append
        self._last_append = None
        self._handle.truncate(self._handle.seek(0, os.SEEK_END) - length)
        self._handle.seek(0, os.SEEK_END)
        os.fsync(self._handle.fileno())
        self._unsynced = 0
        self.last_seq = seq - 1
        if first:
            self.known_trees.discard(name)

    def sync(self) -> None:
        """Force the log to stable storage (records fsync latency)."""
        if self._handle is None or not self._unsynced:
            return
        start = time.perf_counter()
        os.fsync(self._handle.fileno())
        obs.histogram("wal_fsync_seconds").observe(time.perf_counter() - start)
        self._unsynced = 0

    # -- checkpoints ---------------------------------------------------------

    def maybe_checkpoint(self, name: str, tree: Tree, epoch: int) -> None:
        """Checkpoint ``name``'s just-published ``tree`` at ``epoch`` if due.

        Called by the registry after every logged publish, under its
        mutation lock.  A tree is due at its first publish past a multiple
        of ``snapshot_every`` records since its last checkpoint: a fixed
        grid, not a per-tree distance (which would drift), so recovery
        replays about one cadence every time.  A failed write (``OSError``)
        is counted, not raised: the epoch is already logged and published.
        """
        every = self.snapshot_every
        if every is None or self.last_seq // every <= self._checkpointed.get(name, 0) // every:
            return
        self._checkpointed[name] = self.last_seq
        try:
            if self._checkpoints is None:
                self._checkpoints = TreeStore(self.directory / _CHECKPOINTS)
            self._checkpoints.pack(name, tree, epoch=epoch)
        except OSError:
            obs.counter("wal_checkpoints_total", event="error").inc()
        else:
            obs.counter("wal_checkpoints_total", event="ok").inc()


def recover(directory, *, registry=None, verify: bool = True):
    """Fold the WAL directory back into a live ``TreeRegistry``.

    Registers every intact checkpoint at its epoch (a corrupt one is
    skipped), then replays each log record newer than its tree's
    checkpoint through the incremental index maintenance, checking each
    record's post-state digest.  Skipping by epoch, not ``seq``, also
    covers a checkpoint ahead of a log that lost its unsynced tail.  With
    ``verify=True``, every checkpointed or replayed tree's structural
    arrays (:func:`tree_fingerprint`) and :func:`index_fingerprint` are
    compared bit-for-bit against a tree and index rebuilt from scratch.  A
    torn tail is ignored (the writer truncates it on its next
    :meth:`WriteAheadLog.open`); corruption anywhere else raises
    :class:`WalCorruptError`.  Only ``directory`` is read.  Returns the
    registry (a fresh one unless ``registry`` is passed); attach a
    :class:`WriteAheadLog` afterwards to resume logging.
    """
    from ..service.api import TreeRegistry

    start = time.perf_counter()
    directory = Path(directory)
    if registry is None:
        registry = TreeRegistry()
    checkpointed: dict[str, int] = {}
    if (directory / _CHECKPOINTS).is_dir():
        checkpoints = TreeStore(directory / _CHECKPOINTS)
        for name in checkpoints.names():
            try:
                tree, epoch = checkpoints.load(name)
            except StoreCorruptError:
                continue  # the log still holds the tree's whole history
            registry.register(name, tree, epoch=epoch)
            checkpointed[name] = epoch
    to_verify = set(checkpointed)
    log_path = directory / _LOG_NAME
    data = log_path.read_bytes() if log_path.exists() else b""
    records, _good_length = _scan_log(data, str(log_path))
    applied = 0
    for record in records:
        seq = int(record.get("seq", 0))
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
                    f"{name!r} (no base registration in a checkpoint or the log)"
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
                f"({record['rec']} of tree {name!r})"
            )
        registry.register(name, tree, epoch=int(record["epoch"]))
        applied += 1
    if verify:
        for name in sorted(to_verify):
            tree = registry.get(name)
            # The digest covers only labels and parents; the spliced arrays
            # and the spliced index are each checked against a rebuild.
            rebuilt = Tree(list(tree.labels), list(tree.parent))
            if tree_fingerprint(tree) != tree_fingerprint(rebuilt):
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
