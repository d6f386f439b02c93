"""The service's wire surface: requests, results, and the tree registry.

A :class:`QueryRequest` names one operation against one document — an XPath
node evaluation (``eval``), a root-anchored path selection (``select``), an
FO(MTC) model check (``check``), a two-query equivalence test
(``equivalent``), or a live-document edit (``mutate``, publishing a new
epoch of a registered tree) — plus its resource envelope (per-request
``timeout`` / ``max_steps`` / ``max_nodes``).  The document is either a named entry in
the service's :class:`TreeRegistry` (the "many expressions, one document
collection" workload shape of the relation-algebra studies) or inline
``xml`` text parsed on the worker.

A :class:`QueryResult` is the structured outcome.  Exactly one is produced
per admitted request — the service's no-lost-requests invariant — and its
``status`` is one of:

* ``"ok"`` — ``value`` holds the JSON-safe answer;
* ``"error"`` — ``error`` holds the class name, message, and the
  PR 3 exit-code-contract code of the failure;
* ``"shed"`` — the request was never executed (deadline passed in the
  queue, or the service shut down without draining); ``error`` carries a
  :class:`~repro.runtime.errors.RequestShedError` rendering.

Both dataclasses round-trip through plain dicts (:meth:`QueryRequest.from_json`
/ :meth:`QueryResult.to_json`), which is what the CLI's ``repro batch``
JSONL framing uses.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass

from .. import obs
from ..runtime.errors import InjectedFaultError, StoreCorruptError, exit_code_for
from ..trees.index import tree_index
from ..trees.store import index_nbytes
from ..trees.tree import Tree

__all__ = [
    "OPS",
    "QueryRequest",
    "QueryResult",
    "TreePin",
    "TreeRegistry",
    "error_payload",
]

#: The operations the service executes.
OPS = ("eval", "select", "check", "equivalent", "mutate")

#: Which request fields each operation requires.
_REQUIRED_FIELDS = {
    "eval": ("query",),
    "select": ("query",),
    "check": ("formula",),
    "equivalent": ("left", "right"),
    "mutate": ("tree", "edit"),
}

#: Operations that run against a document (equivalence runs over corpora).
_NEEDS_DOCUMENT = ("eval", "select", "check")

#: Fields that, when present, must be strings (they name documents, carry
#: query text, and key the process-wide prepared-plan cache).
_TEXT_FIELDS = ("tree", "xml", "query", "formula", "left", "right", "alphabet")

_auto_ids = itertools.count(1)


@dataclass
class QueryRequest:
    """One unit of work for the query service (see module docstring)."""

    op: str
    id: str = ""
    tree: str | None = None
    xml: str | None = None
    query: str | None = None
    formula: str | None = None
    left: str | None = None
    right: str | None = None
    alphabet: str = "ab"
    timeout: float | None = None
    max_steps: int | None = None
    max_nodes: int | None = None
    edit: dict | None = None
    min_epoch: int | None = None

    def __post_init__(self) -> None:
        if not self.id:
            self.id = f"req-{next(_auto_ids)}"

    def validate(self) -> None:
        """Raise ``ValueError`` for structurally unusable requests.

        Ill-formed *query text* is not checked here — parsing happens on the
        worker under the request budget; this rejects only requests whose
        shape makes dispatch impossible.
        """
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {OPS}")
        for name in _TEXT_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(
                    f"field {name!r} must be a string, got {type(value).__name__}"
                )
        for name in _REQUIRED_FIELDS[self.op]:
            if getattr(self, name) is None:
                raise ValueError(f"op {self.op!r} requires field {name!r}")
        if self.op in _NEEDS_DOCUMENT and self.tree is None and self.xml is None:
            raise ValueError(f"op {self.op!r} requires 'tree' or inline 'xml'")
        if self.op == "mutate":
            if self.xml is not None:
                raise ValueError("op 'mutate' edits a registered tree; 'xml' is not allowed")
            if not isinstance(self.edit, dict):
                raise ValueError(
                    f"op 'mutate' requires 'edit' to be a JSON object, "
                    f"got {type(self.edit).__name__}"
                )
        elif self.edit is not None:
            raise ValueError(f"op {self.op!r} does not take an 'edit'")
        if self.min_epoch is not None and (
            not isinstance(self.min_epoch, int) or self.min_epoch < 0
        ):
            raise ValueError(f"min_epoch must be a non-negative int, got {self.min_epoch!r}")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout!r}")

    @classmethod
    def from_json(cls, payload: dict) -> "QueryRequest":
        """Build a request from a decoded JSONL object (unknown keys rejected)."""
        if not isinstance(payload, dict):
            raise ValueError(f"request must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown request field(s): {sorted(unknown)}")
        if "op" not in payload:
            raise ValueError("request is missing the 'op' field")
        request = cls(**{key: payload[key] for key in payload})
        request.validate()
        return request


def error_payload(exc: BaseException, exit_code: int | None = None) -> dict:
    """The structured rendering of a failure (class, message, contract code).

    ``exit_code`` overrides the code of ``exc``'s class: the service
    reports an engine bug (an exception outside the taxonomy) with the
    engine code.
    """
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "exit_code": exit_code_for(exc) if exit_code is None else exit_code,
    }


@dataclass
class QueryResult:
    """The structured outcome of exactly one request."""

    id: str
    op: str
    status: str  # "ok" | "error" | "shed"
    value: object = None
    error: dict | None = None
    retries: int = 0
    routed: str = "bitset"  # engine family that produced the answer
    latency: float = 0.0
    worker: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def exit_code(self) -> int:
        """The PR 3 contract code: 0 for success, the error's code otherwise."""
        if self.status == "ok":
            return 0
        return int((self.error or {}).get("exit_code", 2))

    def to_json(self) -> dict:
        """A JSON-safe dict (the ``repro batch`` output line)."""
        payload = {
            "id": self.id,
            "op": self.op,
            "status": self.status,
            "retries": self.retries,
            "routed": self.routed,
            "latency": round(self.latency, 6),
        }
        if self.status == "ok":
            payload["value"] = self.value
        else:
            payload["error"] = self.error
        return payload


class TreePin:
    """A reader's hold on one epoch of a named tree (snapshot isolation).

    Pinning costs one dict lookup — trees are immutable, so the "snapshot"
    is simply the ``Tree`` object that was current at pin time; mutations
    publish *new* objects and never touch pinned ones.  The pin exists to
    make the reader's view explicit: the ``(tree, epoch)`` pair taken
    atomically under the registry lock, plus a live-readers gauge
    (``snapshot_pins``) for observability.  ``release()`` is idempotent;
    the pin is also a context manager.
    """

    __slots__ = ("name", "tree", "epoch", "_released", "_registry")

    def __init__(self, name: str, tree: Tree, epoch: int, registry=None):
        self.name = name
        self.tree = tree
        self.epoch = epoch
        self._released = False
        # Set by store-backed registries: eviction defers to live pins, so
        # release() must report back to the per-name pin counts.
        self._registry = registry

    def release(self) -> None:
        if not self._released:
            self._released = True
            obs.gauge("snapshot_pins").dec()
            if self._registry is not None:
                self._registry._unpin(self.name)

    def __enter__(self) -> "TreePin":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class TreeRegistry:
    """Named, shared :class:`~repro.trees.tree.Tree` instances with epochs.

    The registry is the service's document collection: trees are loaded
    once, their :class:`~repro.trees.index.TreeIndex` and compiled plans
    warm up on first use, and every subsequent request against the same
    name reuses them.  Registration is thread-safe; lookups return the
    live ``Tree`` object (trees are immutable once built).

    Live documents add an **epoch** per name: every (re)registration bumps
    it, and :meth:`mutate` publishes an edited copy-on-write snapshot under
    the next epoch.  Readers take a :class:`TreePin` — an atomic
    ``(tree, epoch)`` view — so a request in flight keeps answering against
    the exact snapshot it started with while writers race ahead.

    A disk-backed :class:`~repro.trees.store.TreeStore` (via
    :meth:`attach_store`) lifts the RAM cap: lookups fall back to the
    store on a miss (single-flight — concurrent cold touches share one
    load), and an optional resident-byte budget evicts least-recently-used
    trees back to disk (pinned trees are exempt; eviction only drops the
    registry's reference, so in-flight readers keep their snapshot).

    One ordering rule ties the store to the epochs: with a writable store
    attached, every (re)registration and mutation **packs the new
    generation before it publishes the epoch**, under the mutation lock.
    The stored file is therefore never older than a published epoch — a
    resident is always evictable, a reload never regresses, and a process
    that only reads the store (a shard) can catch up with any epoch it has
    been told about.  A failed pack aborts with the registry untouched.
    Evicting never loses the name's epoch: the result-cache guard
    ``registry.epoch(pin.name) == pin.epoch`` holds across an evict/reload
    cycle because the store file carries the epoch it re-publishes with.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._mutation_lock = threading.Lock()
        self._trees: dict[str, Tree] = {}
        self._epochs: dict[str, int] = {}
        self._listeners: list = []
        self._wal = None
        # Disk-backed tier (attach_store): the store, its write mode, the
        # resident-byte budget, LRU costs (name -> serialized bytes, oldest
        # first), per-name pin counts, and in-flight single-flight loads.
        self._store = None
        self._store_readonly = False
        self._resident_budget: int | None = None
        self._resident_bytes = 0
        self._lru: "OrderedDict[str, int]" = OrderedDict()
        self._pins: dict[str, int] = {}
        self._loads: dict[str, threading.Event] = {}

    @property
    def wal(self):
        """The attached :class:`~repro.trees.wal.WriteAheadLog`, or ``None``."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Make every future (re)registration and mutation durable.

        From this point on, :meth:`register` and :meth:`mutate` append to
        ``wal`` *before* publishing (log-ahead), and each logged publish
        lets ``wal`` checkpoint the generation it made current.  Resident
        trees unknown to the log (e.g. loaded before a fresh WAL directory
        was opened) are baselined immediately with full ``register``
        records; a cold one is baselined by its first :meth:`mutate`.
        Either way a ``mutate`` record is never the first mention of its
        tree in the durable history.  ``wal`` checkpoints its rolls' idle
        trees from :meth:`_published`.
        """
        with self._mutation_lock:
            self._wal = wal
            wal.checkpoint_source = self._published
            with self._lock:
                baseline = [
                    (name, self._trees[name], self._epochs[name])
                    for name in sorted(self._trees)
                    if name not in wal.known_trees
                ]
            for name, tree, epoch in baseline:
                wal.append_register(name, epoch, tree)

    def _published(self, name: str) -> tuple[Tree, int] | None:
        """``name``'s published ``(tree, epoch)``, or ``None`` if unknown or
        unreadable: the WAL's checkpoint source, called under the mutation
        lock.  A cold tree is read from the store without becoming
        resident."""
        with self._lock:
            tree = self._trees.get(name)
            if tree is not None:
                return tree, self._epochs[name]
        store = self._store
        if store is None:
            return None
        try:
            return store.load(name)
        except (KeyError, OSError, StoreCorruptError, InjectedFaultError):
            return None

    # -- disk-backed store ---------------------------------------------------

    @property
    def store(self):
        """The attached :class:`~repro.trees.store.TreeStore`, or ``None``."""
        return self._store

    @property
    def store_readonly(self) -> bool:
        return self._store_readonly

    @property
    def resident_budget(self) -> int | None:
        return self._resident_budget

    @property
    def resident_bytes(self) -> int:
        """The priced bytes of the currently resident trees."""
        return self._resident_bytes

    def resident_names(self) -> list[str]:
        """The names resident in memory right now (a subset of names())."""
        with self._lock:
            return sorted(self._trees)

    def attach_store(self, store, *, resident_budget: int | None = None,
                     readonly: bool = False) -> None:
        """Back this registry with ``store`` (and optionally a byte budget).

        Residents the store does not hold at their current epoch are packed
        immediately (unless ``readonly``), so every registered tree is
        evictable from the start; every resident is then priced (via
        :func:`~repro.trees.store.index_nbytes`) into the LRU accounting
        and the registry evicts down to ``resident_budget`` if one is set.

        ``readonly`` marks a registry that must never write store files —
        the shard processes attach this way, reading the parent's files
        directly while the parent remains the single writer.  All packing
        happens under the mutation lock, so writers never race on a file.
        """
        if resident_budget is not None and resident_budget <= 0:
            raise ValueError(
                f"resident_budget must be positive, got {resident_budget!r}"
            )
        with self._mutation_lock:
            with self._lock:
                residents = [
                    (name, self._trees[name], self._epochs[name])
                    for name in sorted(self._trees)
                ]
            if not readonly:
                for name, tree, epoch in residents:
                    if store.epoch(name) != epoch:
                        store.pack(name, tree, epoch=epoch)
            costs = {
                name: index_nbytes(tree_index(tree)) for name, tree, _ in residents
            }
            with self._lock:
                self._store = store
                self._store_readonly = readonly
                self._resident_budget = resident_budget
                for name, tree, _ in residents:
                    if self._trees.get(name) is tree and name not in self._lru:
                        self._lru[name] = costs[name]
                        self._resident_bytes += costs[name]
                obs.gauge("registry_resident_bytes").set(self._resident_bytes)
        self._evict_over_budget()

    def detach_store(self):
        """Detach the store and return it (``None`` if none was attached).

        Cold trees are loaded back first, so the registry keeps serving
        every name at its epoch from memory alone; the store's files are
        left as they are.  The sharded service uses this before removing
        the scratch store it attached.
        """
        with self._mutation_lock:
            store = self._store
            if store is None:
                return None
            self._resident_budget = None  # reloading must not evict
            for name in store.names():
                self._lookup(name)
            with self._lock:
                self._store = None
                self._store_readonly = False
                self._lru.clear()
                self._resident_bytes = 0
                obs.gauge("registry_resident_bytes").set(0)
        return store

    def _next_epoch(self, name: str) -> int:
        """The epoch a fresh registration of ``name`` should publish at.

        With a store attached, a cold name's stored generation counts:
        re-registering over an evicted (or never-loaded) tree must still
        move the epoch forward, never reuse one the store already holds.
        """
        with self._lock:
            current = self._epochs.get(name, 0)
        store = self._store
        if store is not None:
            stored = store.epoch(name)
            if stored is not None and stored > current:
                current = stored
        return current + 1

    def _lookup(self, name: str, *, pin: bool = False) -> tuple[Tree, int]:
        """The resident ``(tree, epoch)`` for ``name``, loading on a miss.

        Single-flight: the first thread to miss becomes the loader; every
        concurrent miss waits on its event and then re-checks, so one cold
        touch costs one store read no matter the fan-in.  A failed load
        (corrupt file, injected ``store.load`` fault) propagates to the
        loader and wakes the waiters, the first of which retries as the
        next loader — counted faults therefore self-heal.  With ``pin``
        the per-name pin count is incremented atomically with the hit, so
        eviction can never slip between lookup and pin.
        """
        while True:
            with self._lock:
                tree = self._trees.get(name)
                if tree is not None:
                    if name in self._lru:
                        self._lru.move_to_end(name)
                    if pin:
                        self._pins[name] = self._pins.get(name, 0) + 1
                    return tree, self._epochs[name]
                store = self._store
                if store is None:
                    raise ValueError(
                        f"unknown tree {name!r}; registered: "
                        f"{sorted(self._trees) or '(none)'}"
                    )
                event = self._loads.get(name)
                leader = event is None
                if leader:
                    event = threading.Event()
                    self._loads[name] = event
            if not leader:
                event.wait()
                continue
            published = advanced = False
            try:
                try:
                    # Not ``tree``: a stale load that is not published must
                    # not be freed by the rebinding under the lock above.
                    loaded, epoch = store.load(name)
                except KeyError:
                    raise ValueError(
                        f"unknown tree {name!r}; registered: "
                        f"{self.names() or '(none)'}"
                    ) from None
                cost = index_nbytes(tree_index(loaded))
                with self._lock:
                    # Publish only a generation at least as new as the one
                    # the registry already knows (epochs survive eviction
                    # exactly for this check): a load that raced an eviction
                    # may have read the file *before* the newer generation
                    # was packed, and publishing it would regress the epoch.
                    # Stale loads retry; every generation is packed before
                    # its epoch is published, so the re-read is guaranteed
                    # to see the current one.
                    known = self._epochs.get(name, 0)
                    if name not in self._trees and epoch >= known:
                        advanced = epoch > known
                        self._trees[name] = loaded
                        self._epochs[name] = epoch
                        self._lru[name] = cost
                        self._resident_bytes += cost
                        obs.gauge("registry_resident_bytes").set(
                            self._resident_bytes
                        )
                        if pin:
                            self._pins[name] = self._pins.get(name, 0) + 1
                        published = True
            finally:
                with self._lock:
                    self._loads.pop(name, None)
                event.set()
            if published:
                # Return the loaded snapshot directly rather than re-probing
                # the resident map: under pin pressure the budget sweep may
                # evict this very tree immediately, and re-probing would
                # load it again forever.  The caller's reference (and its
                # pin, taken atomically with the publish above) stays valid
                # either way.  A generation newer than any this registry
                # published (a shard catching up with its parent) is a
                # re-registration to listeners: result caches must drop
                # values computed from the older one.
                if advanced:
                    self._notify(name)
                else:
                    self._evict_over_budget()
                return loaded, epoch

    def _account(self, name: str, tree: Tree, cost: int) -> None:
        """Re-price ``name`` after a (re)registration published ``tree``."""
        with self._lock:
            if self._trees.get(name) is not tree:
                return  # republished while we were pricing; theirs counts
            previous = self._lru.pop(name, 0)
            self._lru[name] = cost
            self._resident_bytes += cost - previous
            obs.gauge("registry_resident_bytes").set(self._resident_bytes)

    def _drop_resident(self, name: str) -> int:
        """Forget the resident tree (caller holds ``_lock``); bytes freed.

        Only the registry's reference is dropped — the epoch survives (the
        stored generation carries it) and the tree object itself stays
        valid for any reader still holding it.  The caller must hold its
        own reference to the tree until it has released ``_lock``: trees
        are freed by reference counting, and freeing a generation (index,
        plans, tables) must not stall every pin and lookup.
        """
        del self._trees[name]
        cost = self._lru.pop(name, 0)
        self._resident_bytes -= cost
        obs.gauge("registry_resident_bytes").set(self._resident_bytes)
        return cost

    def _evict_over_budget(self) -> None:
        """Evict LRU-first until resident bytes fit the budget.

        A victim is only evictable once the store holds its epoch (or a
        newer one) and no reader pins it.  A writable store always does —
        generations are packed before they publish — so this skips only a
        read-only registry's residents that never reached the store.  When
        everything left is pinned or unevictable the loop gives up — a
        burst of pinned readers may overshoot the budget transiently rather
        than fail.
        """
        store, budget = self._store, self._resident_budget
        if store is None or budget is None:
            return
        skip: set[str] = set()
        while True:
            tree = None  # the last victim's last reference goes here, unlocked
            with self._lock:
                if self._resident_bytes <= budget:
                    return
                victim = None
                for name in self._lru:  # oldest first
                    if name not in skip and not self._pins.get(name, 0):
                        victim = name
                        break
                if victim is None:
                    return  # every resident is pinned or unevictable
                tree = self._trees[victim]
                epoch = self._epochs[victim]
            stored = store.epoch(victim)
            with self._lock:
                if (
                    stored is None
                    or stored < epoch
                    or self._pins.get(victim, 0)
                    or self._trees.get(victim) is not tree
                ):
                    skip.add(victim)  # unstored, pinned, or republished
                    continue
                self._drop_resident(victim)
            obs.counter("store_evictions_total").inc()

    def evict(self, name: str) -> int:
        """Explicitly demote ``name`` to the store; the bytes freed.

        Refuses with ``ValueError`` while any reader pins the tree (the
        caller should retry after the pins drain), and for a resident a
        read-only store does not hold.  Evicting an already-cold name
        returns 0; an unknown name raises.
        """
        store = self._store
        if store is None:
            raise ValueError("no store attached; evict() requires attach_store()")
        with self._lock:
            tree = self._trees.get(name)
            epoch = self._epochs.get(name)
        if tree is None:
            if epoch is not None or store.contains(name):
                return 0
            raise ValueError(
                f"unknown tree {name!r}; registered: {self.names() or '(none)'}"
            )
        stored = store.epoch(name)
        if stored is None or stored < epoch:
            raise ValueError(
                f"tree {name!r} is newer than its stored generation "
                "and the store is read-only"
            )
        with self._lock:
            pins = self._pins.get(name, 0)
            if pins:
                raise ValueError(
                    f"tree {name!r} is pinned by {pins} reader(s); refusing to evict"
                )
            if self._trees.get(name) is not tree:
                return 0  # republished meanwhile; the new generation stays
            freed = self._drop_resident(name)
        obs.counter("store_evictions_total").inc()
        return freed

    def refresh(self, name: str, epoch: int) -> None:
        """Drop a resident older than ``epoch`` so the next touch reloads.

        How a shard catches up with a mutation published by its parent: the
        parent packs each generation before publishing its epoch, so a
        reload from the store sees at least any epoch the parent has
        reported.  In-flight pins keep their snapshot — only the registry's
        reference drops.  A no-op without a store (there would be nothing
        to reload) and for cold or already-current names.
        """
        with self._lock:
            dropped = self._trees.get(name)
            if (
                dropped is not None
                and self._store is not None
                and self._epochs.get(name, 0) < epoch
            ):
                self._drop_resident(name)
        # ``dropped`` holds the old generation until after the lock is
        # released, so freeing it never happens under the lock.

    def _unpin(self, name: str) -> None:
        with self._lock:
            count = self._pins.get(name, 0) - 1
            if count <= 0:
                self._pins.pop(name, None)
            else:
                self._pins[name] = count
        budget = self._resident_budget
        if budget is not None and self._resident_bytes > budget:
            self._evict_over_budget()

    def subscribe(self, listener) -> None:
        """Call ``listener(name)`` whenever ``name``'s tree (re)registers.

        That includes loading a stored generation newer than any this
        registry has published.  The result cache subscribes here: a
        re-registration bumps the tree's cache epoch so stale values are
        never served.  Listeners run on the registering thread, outside
        the registry's locks, and are exception-isolated: a raising
        listener is counted (``registry_listener_errors_total``) and
        skipped, never aborting the registration or starving later
        listeners.
        """
        with self._lock:
            self._listeners.append(listener)

    def register(self, name: str, tree: Tree, *, epoch: int | None = None) -> int:
        """Publish ``tree`` under ``name`` and return the new epoch.

        ``epoch`` pins the published epoch explicitly (WAL recovery replays
        logged epochs this way); by default the epoch moves one past both
        the registry's and the store's.  Under the mutation lock, an
        attached WAL logs the registration and a writable store packs it
        *before* the epoch is published; either failing aborts with the
        registry and the log untouched.
        """
        if not name:
            raise ValueError("tree name must be non-empty")
        with self._mutation_lock:
            if epoch is None:
                epoch = self._next_epoch(name)
            seq = None
            if self._wal is not None:
                seq = self._wal.append_register(name, epoch, tree)
            replaced = self._publish(name, tree, epoch, seq)
        self._notify(name)
        del replaced  # freed here, outside both locks
        return epoch

    def _publish(
        self, name: str, tree: Tree, epoch: int, seq: int | None
    ) -> Tree | None:
        """Pack, then make ``(tree, epoch)`` current (mutation lock held).

        ``seq`` is the WAL record logged for this publish; a failed pack
        retracts it, so the log stays untouched like the registry.
        Returns the replaced resident (or ``None``) for the caller to drop
        once it holds no lock.
        """
        store = self._store
        if store is not None and not self._store_readonly:
            try:
                store.pack(name, tree, epoch=epoch)
            except OSError:
                if seq is not None:
                    self._wal.retract(seq)
                raise
        with self._lock:
            replaced = self._trees.get(name)
            self._trees[name] = tree
            self._epochs[name] = epoch
        if self._wal is not None:
            self._wal.maybe_checkpoint(name, tree, epoch)
        if store is not None:
            self._account(name, tree, index_nbytes(tree_index(tree)))
        return replaced

    def _notify(self, name: str) -> None:
        """Run listeners and the budget sweep after a publish.

        Both run outside the mutation lock, so a listener may call back
        into the registry (even re-register) without deadlocking.
        """
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(name)
            except Exception:
                obs.counter("registry_listener_errors_total").inc()
        self._evict_over_budget()

    def get(self, name: str) -> Tree:
        tree, _ = self._lookup(name)
        return tree

    def epoch(self, name: str) -> int:
        """The current epoch of ``name`` (0 if never registered).

        An evicted name keeps its epoch — the entry outlives residency, so
        the result-cache guard compares against the live generation even
        while the tree itself is cold.  A stored name this registry has
        never loaded reports the epoch in its file's header.
        """
        with self._lock:
            epoch = self._epochs.get(name)
        store = self._store
        if epoch is None and store is not None:
            epoch = store.epoch(name)
        return epoch or 0

    def snapshot(self, name: str) -> tuple[Tree, int]:
        """The current ``(tree, epoch)`` pair, taken atomically.

        With a store attached, a cold name is loaded (single-flight) and
        re-published first — callers never see "unknown" for a stored tree.
        """
        return self._lookup(name)

    def pin(self, name: str) -> TreePin:
        """Pin the current snapshot of ``name`` for a reader.

        Store-backed registries count the pin, making the tree
        eviction-exempt until :meth:`TreePin.release`.
        """
        store_backed = self._store is not None
        tree, epoch = self._lookup(name, pin=store_backed)
        obs.gauge("snapshot_pins").inc()
        return TreePin(name, tree, epoch, registry=self if store_backed else None)

    def mutate(self, name: str, edit) -> tuple[Tree, int]:
        """Apply ``edit`` to ``name``'s tree and publish the result.

        The edit is an :mod:`repro.trees.mutate` edit object (or a JSON
        dict in its wire format).  The new snapshot is built copy-on-write
        with its ``TreeIndex`` maintained incrementally, then published
        atomically under the next epoch; concurrent readers holding pins
        (or plain ``get()`` results) keep their pre-edit snapshot.  Writers
        serialize on a mutation lock so edits never interleave; with a
        writable store the new generation is packed before it publishes,
        and a failed pack (``OSError``) aborts with the registry, the
        resident tree and the stored generation untouched.  Returns the
        published ``(tree, epoch)``.
        """
        from ..runtime import faults
        from ..trees.mutate import apply_edit_indexed, edit_from_json, edit_to_json

        if isinstance(edit, dict):
            edit = edit_from_json(edit)
        with self._mutation_lock:
            old, current = self._lookup(name)
            faults.check("trees.mutate")
            new_tree = apply_edit_indexed(old, edit)
            epoch = current + 1
            seq = None
            if self._wal is not None:
                if name not in self._wal.known_trees:
                    # Cold when the log was attached (or packed offline):
                    # the log's first record of a tree is a full one.
                    self._wal.append_register(name, current, old)
                # Log-ahead: the record is durable before the epoch is
                # visible.  A failed append (wal.append fault, disk error)
                # aborts here with the registry untouched.
                seq = self._wal.append_mutate(
                    name, epoch, edit_to_json(edit), new_tree
                )
            self._publish(name, new_tree, epoch, seq)
        self._notify(name)
        obs.counter("tree_mutations_total", kind=edit.kind).inc()
        return new_tree, epoch

    def names(self) -> list[str]:
        """Every servable name: residents plus (with a store) stored trees."""
        with self._lock:
            known = set(self._trees)
        store = self._store
        if store is not None:
            known.update(store.names())
        return sorted(known)

    def __len__(self) -> int:
        if self._store is not None:
            return len(self.names())
        with self._lock:
            return len(self._trees)
