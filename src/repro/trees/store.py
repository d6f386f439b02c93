"""Disk-backed columnar document store in the XPath-accelerator style.

The section codec (:mod:`repro.trees.share`) flattens a tree plus its
:class:`~repro.trees.index.TreeIndex` into self-describing columnar
sections — pre/post-order interval arrays and label-, offset- and
size-partitioned masks.  This module gives that representation a durable
home so the servable corpus is no longer capped at RAM: a
:class:`TreeStore` is a directory of one **RSTR v2** file per named tree
(about 0.1 MB at n=2048), written atomically and read back whole, so a
cold tree's index is rebuilt from flat buffers without parsing or
materializing node objects.  It is also the only way trees reach the
sharded service's shard processes, which attach a store read-only.

File layout (all integers little-endian)::

    header    magic "RSTR" | version u16 | reserved u16 | n u32
              | section_count u32 | epoch u64 | total_size u64
              | table_crc32 u32
    table     section_count × (tag u32, offset u64, length u64, crc32 u32)
    payload   the sections, at their table offsets

The sections (tags, encodings, and the ``W``-byte mask width) are
produced by :func:`repro.trees.share.build_sections` and read back by
:func:`repro.trees.share.tree_from_sections`; this module adds only the
framing:

* the header carries the registry **epoch** the tree was packed at, so
  the registry and the shards can tell which generation a file holds
  without reading the payload;
* integrity is **per section** (each table entry carries its payload's
  CRC-32, and the header CRC covers the header + table), so corruption is
  localized in error messages and every check runs *before* any mask is
  reconstructed.

:meth:`TreeStore.load` reads the file and verifies the magic, version,
declared size (a truncated tail fails here), table checksum, and every
section's bounds and CRC eagerly, raising
:class:`~repro.runtime.errors.StoreCorruptError` on any mismatch — a
flipped bit on disk must fail loudly, never surface as a wrong query
answer.  Only after the file fully validates are the sections handed to
the shared reader, which builds every table eagerly: a loaded tree holds
no view of the file, so its lifetime is that of any other tree.  A
version 1 file (which also carried two quadratic mask tables) is refused
with the same typed version error as any other version skew; re-pack it
from its source document.

Writes are crash-safe: :meth:`TreeStore.pack` writes to a temporary file
in the same directory, fsyncs it, and renames it into place with
``os.replace``, so a reader never observes a half-written store file.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from pathlib import Path

from .. import obs
from ..runtime import faults
from ..runtime.errors import StoreCorruptError, TreeShareError
from .index import TreeIndex, tree_index
from .share import _REQUIRED_TAGS, build_sections, tree_from_sections
from .tree import Tree

__all__ = ["FORMAT_VERSION", "MAGIC", "TreeStore", "index_nbytes"]

MAGIC = b"RSTR"
FORMAT_VERSION = 2

# magic, version, reserved, n, sections, epoch, size, table crc
_HEADER = struct.Struct("<4sHHIIQQI")
_ENTRY = struct.Struct("<IQQI")  # tag, offset, length, crc

_SUFFIX = ".rstr"

#: Characters that map to themselves in store file names; anything else is
#: percent-encoded so arbitrary registry names can't escape the directory.
_SAFE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _encode_name(name: str) -> str:
    if not name:
        raise ValueError("tree name must be non-empty")
    return "".join(
        c if c in _SAFE_CHARS and c != "%" else "".join(
            f"%{b:02X}" for b in c.encode("utf-8")
        )
        for c in name
    )


def _decode_name(encoded: str) -> str:
    out = bytearray()
    i = 0
    while i < len(encoded):
        if encoded[i] == "%":
            out.append(int(encoded[i + 1 : i + 3], 16))
            i += 3
        else:
            out.append(ord(encoded[i]))
            i += 1
    return out.decode("utf-8")


def index_nbytes(index: TreeIndex) -> int:
    """The exact RSTR v2 file size for ``index``, in O(labels) time.

    Pure arithmetic over the section encodings — no serialization — so the
    registry can price a tree's residency on every load and publish.  (The
    same number prices a resident in-memory index: the flat serialization
    *is* the columnar content, so it is the honest apples-to-apples cost
    of keeping the tree servable.)
    """
    n = index.n
    width = (n + 7) // 8
    label_bytes = sum(4 + len(label.encode("utf-8")) for label in index.label_masks)
    payload = (
        4 * n  # PARENTS
        + 4 + label_bytes  # LABEL_TABLE
        + 4 * n  # LABEL_IDS
        + 4 * n  # AFTER
        + 3 * width  # FLAG_MASKS
        + len(index.label_masks) * width  # LABEL_MASKS
    )
    for groups in (index.delta_groups, index.sib_groups, index.last_child_groups):
        payload += 4 + len(groups) * (4 + width)
    return _HEADER.size + len(_REQUIRED_TAGS) * _ENTRY.size + payload


def fsync_directory(directory: Path) -> None:
    """Make the entries of ``directory`` (a rename, a new file) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def pack_bytes(index: TreeIndex, epoch: int = 0) -> bytes:
    """Serialize ``index`` to one RSTR v2 blob stamped with ``epoch``."""
    sections = build_sections(index)
    table = bytearray()
    payload = bytearray()
    base = _HEADER.size + _ENTRY.size * len(sections)
    for tag, blob in sections:
        table += _ENTRY.pack(tag, base + len(payload), len(blob), zlib.crc32(blob))
        payload += blob
    total = base + len(payload)
    unsummed = _HEADER.pack(
        MAGIC, FORMAT_VERSION, 0, index.n, len(sections), epoch, total, 0
    )
    crc = zlib.crc32(bytes(table), zlib.crc32(unsummed))
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, 0, index.n, len(sections), epoch, total, crc
    )
    return header + bytes(table) + bytes(payload)


def _validate(view: memoryview, origin: str):
    """Verify every RSTR v2 frame check; the parsed reader inputs.

    Returns ``(entries, n, epoch)`` with ``entries`` mapping section tag
    to ``(offset, length)``.  Every check — header fields, declared
    size vs. actual, table CRC, per-section bounds and CRCs — runs here,
    before any content is interpreted, so a caller that gets a return
    value holds a fully verified frame.
    """
    if not view:
        raise StoreCorruptError(f"{origin}: store file is empty")
    if len(view) < _HEADER.size:
        raise StoreCorruptError(
            f"{origin}: too short for a store header "
            f"({len(view)} < {_HEADER.size} bytes)"
        )
    magic, version, _, n, section_count, epoch, total, table_crc = (
        _HEADER.unpack_from(view, 0)
    )
    if magic != MAGIC:
        raise StoreCorruptError(f"{origin}: bad store magic {magic!r}")
    if version != FORMAT_VERSION:
        raise StoreCorruptError(
            f"{origin}: unsupported store version {version} "
            f"(expected {FORMAT_VERSION})"
        )
    if n < 1:
        raise StoreCorruptError(f"{origin}: store declares an empty tree (n={n})")
    table_end = _HEADER.size + section_count * _ENTRY.size
    if total < table_end or total != len(view):
        raise StoreCorruptError(
            f"{origin}: declared size {total} != file size {len(view)} "
            "(truncated tail or foreign data)"
        )
    unsummed = _HEADER.pack(
        magic, version, 0, n, section_count, epoch, total, 0
    )
    if zlib.crc32(view[_HEADER.size : table_end], zlib.crc32(unsummed)) != table_crc:
        raise StoreCorruptError(f"{origin}: header/table checksum mismatch")
    entries: dict[int, tuple[int, int]] = {}
    for i in range(section_count):
        tag, offset, length, crc = _ENTRY.unpack_from(
            view, _HEADER.size + i * _ENTRY.size
        )
        if offset < table_end or offset + length > total:
            raise StoreCorruptError(
                f"{origin}: section {tag} spans [{offset}, {offset + length}) "
                f"outside the payload region [{table_end}, {total})"
            )
        if zlib.crc32(view[offset : offset + length]) != crc:
            raise StoreCorruptError(f"{origin}: section {tag} checksum mismatch")
        entries[tag] = (offset, length)
    return entries, n, epoch


def _decode(blob: bytes, origin: str) -> "tuple[Tree, int, int]":
    """Every frame check, then the codec: ``(tree, epoch, sections)``."""
    view = memoryview(blob)
    entries, n, epoch = _validate(view, origin)
    try:
        tree = tree_from_sections(view, entries, n)
    except TreeShareError as exc:
        raise StoreCorruptError(f"{origin}: {exc}") from exc
    return tree, epoch, len(entries)


class TreeStore:
    """A directory of RSTR v2 files, one per named tree.

    The store is deliberately dumb — no manifest, no lock file: each tree
    is one atomically-replaced file whose name is the (percent-encoded)
    registry name, so concurrent readers and a single writer compose
    through the filesystem's own rename atomicity, and ``repro store
    verify`` can audit a directory with nothing but the files themselves.
    """

    def __init__(self, directory: "str | os.PathLike[str]"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeStore({str(self.directory)!r})"

    def _path(self, name: str) -> Path:
        return self.directory / (_encode_name(name) + _SUFFIX)

    # -- inventory -----------------------------------------------------------

    def names(self) -> list[str]:
        """The stored tree names, sorted."""
        return sorted(
            _decode_name(p.name[: -len(_SUFFIX)])
            for p in self.directory.glob("*" + _SUFFIX)
        )

    def contains(self, name: str) -> bool:
        return self._path(name).exists()

    def __contains__(self, name: str) -> bool:
        return self.contains(name)

    def nbytes(self, name: str) -> int | None:
        """The stored file size for ``name``, or None when absent."""
        try:
            return self._path(name).stat().st_size
        except OSError:
            return None

    def total_bytes(self) -> int:
        """The summed size of every stored tree file."""
        return sum(
            p.stat().st_size for p in self.directory.glob("*" + _SUFFIX)
        )

    def epoch(self, name: str) -> int | None:
        """The epoch ``name`` was packed at, or None when absent/unreadable.

        Reads only the fixed-size header.  An unreadable or corrupt header
        reports None rather than raising: callers use this to decide
        whether the stored generation is current, and "unreadable" and
        "absent" both mean "re-pack before trusting the store".
        """
        try:
            with open(self._path(name), "rb") as f:
                raw = f.read(_HEADER.size)
        except OSError:
            return None
        if len(raw) < _HEADER.size:
            return None
        magic, version, _, n, _, epoch, _, _ = _HEADER.unpack(raw)
        if magic != MAGIC or version != FORMAT_VERSION or n < 1:
            return None
        return epoch

    def remove(self, name: str) -> bool:
        """Delete ``name``'s store file; whether one existed."""
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            return False
        return True

    # -- write ---------------------------------------------------------------

    def pack(self, name: str, tree: Tree, *, epoch: int = 0) -> int:
        """Serialize ``tree`` into the store under ``name``; bytes written.

        Atomic: the blob is written to a same-directory temporary file,
        fsynced, and renamed over the target, then the directory entry is
        fsynced — a crash leaves either the old generation or the new one,
        never a torn file.
        """
        blob = pack_bytes(tree_index(tree), epoch)
        path = self._path(name)
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as f:
                f.write(blob)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        fsync_directory(self.directory)
        return len(blob)

    # -- read ----------------------------------------------------------------

    def _read(self, name: str) -> "tuple[Path, bytes]":
        path = self._path(name)
        try:
            return path, path.read_bytes()
        except FileNotFoundError:
            raise KeyError(name) from None

    def load(self, name: str) -> tuple[Tree, int]:
        """Read ``name``'s store file and reconstruct its tree + index.

        Returns ``(tree, epoch)``.  The whole frame is CRC-verified before
        any section is interpreted (see :func:`_validate`), and the tree
        holds no reference to the file's bytes afterwards.

        Raises :class:`KeyError` when ``name`` is not stored and
        :class:`~repro.runtime.errors.StoreCorruptError` on any integrity
        failure.  ``store.load`` is a fault site: an armed injection fires
        here, before the file is opened.
        """
        faults.check("store.load")
        start = time.perf_counter()
        path, blob = self._read(name)
        try:
            tree, epoch, _ = _decode(blob, path.name)
        except StoreCorruptError:
            obs.counter("store_loads_total", event="corrupt").inc()
            raise
        obs.counter("store_loads_total", event="ok").inc()
        obs.histogram("store_load_seconds").observe(time.perf_counter() - start)
        return tree, epoch

    def verify(self, name: str) -> dict:
        """Fully check one stored tree; a report dict on success.

        Runs every frame check *and* a structural reconstruction through
        the same reader path as :meth:`load`, so a passing verify means
        the file will serve.  Raises :class:`StoreCorruptError` on any
        failure and :class:`KeyError` when absent.
        """
        path, blob = self._read(name)
        tree, epoch, sections = _decode(blob, path.name)
        return {
            "name": name,
            "file": path.name,
            "bytes": len(blob),
            "n": tree.size,
            "epoch": epoch,
            "sections": sections,
        }
