"""The cross-request result cache (admission + LRU + epochs + single-flight).

The service's request mix is heavily skewed — a few hot queries against a
few hot documents dominate (the Zipfian workload in bench_service.py) — and
the canonicalizer maps every rewriting-equivalent variant of a query to one
*canonical key* (:func:`repro.xpath.optimizer.canonical_key`).  This module
caches finished ``ok`` values under ``(op, tree, canonical_key)`` so the
whole variant class evaluates once per tree generation.  Every
:class:`~repro.service.workers.QueryService` builds one with the
constructor's defaults (512 entries, 8 MiB):

* **Admission on the second sighting** — :meth:`ResultCache.admit` records
  each read's raw request text in a bounded set (4 × ``max_entries`` texts,
  cleared when full: the doorkeeper of TinyLFU, Einziger, Friedman and
  Manes, ACM ToS 2017).  Only a text seen before takes the cached path, so
  a stream that never repeats pays one set insert per request — no
  canonical key, no size estimate, no store.  Each variant text needs its
  own second sighting; after that, all variants share one entry.
* **Hits at admission** — :meth:`ResultCache.lookup` answers a stored value
  without opening a flight, so the service resolves a hit inside
  ``submit()``, on the caller's thread; a miss goes to a worker, which
  runs the :meth:`~ResultCache.begin` protocol below.
* **LRU + size bounds** — entries are kept in access order and evicted
  past ``max_entries`` or ``max_total_bytes`` (values are JSON-safe by
  construction; sizes are estimated structurally, see :func:`measure`).
  Oversized single values are simply not admitted.
* **Per-tree epochs** — :meth:`invalidate` bumps the named tree's epoch
  and drops its entries.  A flight records the epoch it started under and
  a result is stored *only if the epoch is unchanged at completion*, so a
  re-registration racing an in-flight evaluation can never publish a value
  computed against the stale tree.  The service wires this to
  :meth:`TreeRegistry.subscribe <repro.service.api.TreeRegistry.subscribe>`.
* **Epoch stamps** — the registry publishes a new tree epoch before its
  listeners run, so an entry is also stamped with the *tree* epoch its
  value was computed at, and a caller that passes ``epoch`` (the tree's
  current one) is served only an entry, or a flight's value, with that
  stamp.  A read racing into the window between publish and invalidation
  evaluates afresh instead of seeing the pre-edit value.
* **Copies** — the store keeps its own copy of a value and every hit, and
  every follower, gets a fresh one: a caller that edits its answer never
  edits anyone else's.  Flat lists and dicts copy at C speed; values stay
  lists and dicts.  Size and copier are worked out before the lock is
  taken, an id list's from one C-speed scan of its element types.
* **Single-flight** — concurrent requests for one key collapse onto a
  leader; followers block on the flight and reuse the leader's published
  value.  A leader that fails (error, shed, budget trip) *abandons* the
  flight: followers wake and evaluate independently, so a transient fault
  never fans out, and nothing but a completed ``ok`` value is ever served
  from the cache.

Only successful values enter the cache; errors and sheds are never stored.
Counters land in ``service_result_cache_total{event=...}`` with events
``hit`` (served from store), ``miss`` (leader evaluates), ``wait_hit``
(follower reused a leader's value), ``store``, ``evict``, ``invalidate``,
and ``reject`` (value over the single-entry size bound).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from .. import obs

__all__ = ["CacheKey", "Flight", "ResultCache"]

#: A cache key: (operation, tree name, canonical query key).
CacheKey = tuple[str, str, str]

#: Sentinel distinguishing "no published value" from a cached ``None``.
_MISS = object()

#: Admission texts kept per entry the cache can hold (see :meth:`admit`).
ADMISSION_FACTOR = 4


def approx_size(value) -> int:
    """A structural byte estimate for a JSON-safe value: the walk.

    One Python call per item, recursive, so :func:`measure` calls it only
    for values a type scan cannot size: verdict dicts, ``check``'s pair
    lists, strings, tuples and lists of scalar subclasses.
    """
    if isinstance(value, str):
        return 48 + len(value)
    if isinstance(value, (list, tuple)):
        return 56 + sum(approx_size(item) for item in value)
    if isinstance(value, dict):
        return 64 + sum(
            approx_size(k) + approx_size(v) for k, v in value.items()
        )
    return 32  # ints, floats, bools, None


def _keep(value):
    """A value returned as is: scalars, which nobody can edit."""
    return value


def _copy_nested(value):
    """A copy of a JSON-safe value with containers inside containers."""
    if isinstance(value, list):
        return [_copy_nested(item) for item in value]
    if isinstance(value, dict):
        return {key: _copy_nested(item) for key, item in value.items()}
    return value


def copier(value):
    """How to copy ``value`` fresh for each reader, chosen once at store time.

    A flat list or dict (the service's id lists and verdicts) copies with
    ``list.copy`` / ``dict.copy`` — on a 193-id answer 0.4 µs, against
    3.1 µs for a Python-level loop, about a sixth of an admission hit —
    and only containers of containers (``check``'s pair lists) walk item
    by item.  Choosing looks at every item in Python; :func:`measure`
    skips the choice for id lists.
    """
    if isinstance(value, list):
        items = value
        flat = list.copy
    elif isinstance(value, dict):
        items = value.values()
        flat = dict.copy
    else:
        return _keep
    if any(isinstance(item, (list, dict)) for item in items):
        return _copy_nested
    return flat


#: The exact element types of a list :func:`measure` sizes by its length:
#: every non-string JSON scalar.  Subclasses (an ``IntEnum``, say) are
#: left to the walk.
_SCALARS = frozenset((int, float, bool, type(None)))


def measure(value) -> tuple[int, Callable]:
    """``(approx_size(value), copier(value))`` without walking an id list.

    A plain list whose elements are all non-string scalars — every eval
    and select answer and every ``check`` node set — is sized ``56 + 32 ·
    len`` and copied with ``list.copy``, the figures the walk gives, read
    off one C-speed scan, ``set(map(type, value))``.  On a 550-id answer
    the scan takes about 12 µs, against 155–204 µs for the walk and the
    copier's choice.  Every other value is walked.
    """
    if type(value) is list and set(map(type, value)) <= _SCALARS:
        return 56 + 32 * len(value), list.copy
    return approx_size(value), copier(value)


class Flight:
    """One in-progress evaluation of a cache key (the single-flight unit).

    ``epoch`` is the cache's invalidation epoch when the flight opened;
    ``stamp`` is the tree epoch the leader computes at (``None`` for a
    caller that passes none), which a follower must match to reuse it.
    """

    __slots__ = ("key", "tree", "epoch", "stamp", "_event", "_value", "_copy")

    def __init__(self, key: CacheKey, tree: str, epoch: int, stamp=None) -> None:
        self.key = key
        self.tree = tree
        self.epoch = epoch
        self.stamp = stamp
        self._event = threading.Event()
        self._value = _MISS
        self._copy = _keep

    def wait(self, timeout: float | None):
        """Block for the leader; a copy of the published value, or ``_MISS``.

        Returns ``_MISS`` when the leader abandoned the flight (failed) or
        the timeout elapsed — either way the caller must evaluate itself.
        """
        self._event.wait(timeout)
        value = self._value
        return value if value is _MISS else self._copy(value)

    @staticmethod
    def is_miss(value) -> bool:
        return value is _MISS


class _Entry:
    __slots__ = ("value", "stamp", "nbytes", "copy")

    def __init__(self, value, stamp, nbytes: int, copy) -> None:
        self.value = value
        self.stamp = stamp
        self.nbytes = nbytes
        self.copy = copy


class ResultCache:
    """The result cache (see module docstring).

    Thread-safe; one instance per :class:`~repro.service.workers.QueryService`
    (in the parent for the sharded tier too: a hit never crosses a pipe).
    """

    def __init__(
        self,
        *,
        max_entries: int = 512,
        max_total_bytes: int = 8 << 20,
        max_value_bytes: int = 1 << 20,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = max_entries
        self.max_total_bytes = max_total_bytes
        self.max_value_bytes = max_value_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        self._total_bytes = 0
        self._epochs: dict[str, int] = {}
        self._flights: dict[CacheKey, Flight] = {}
        self._seen: set = set()
        self._seen_limit = ADMISSION_FACTOR * max_entries
        # Per-instance counts (what snapshot() reports) alongside the
        # process-wide obs counters (what the metrics export aggregates) —
        # two services in one process must not see each other's hit rates.
        events = ("hit", "miss", "wait_hit", "store", "evict", "invalidate", "reject")
        self._counts = {event: 0 for event in events}
        self._metrics = {
            event: obs.counter("service_result_cache_total", event=event)
            for event in events
        }

    def _count(self, event: str, amount: int = 1) -> None:
        # Most callers hold self._lock; the int add is GIL-atomic anyway,
        # and the obs counter locks itself.
        self._counts[event] += amount
        self._metrics[event].inc(amount)

    # -- admission ---------------------------------------------------------

    def admit(self, text) -> bool:
        """Record one sighting of a request ``text``; true from its second.

        ``text`` is any hashable rendering of the raw request, taken before
        parsing.  The set of texts seen holds at most 4 × ``max_entries``
        and is cleared when full, so a stream that never repeats costs one
        insert per request and bounded memory.  Unlocked: each set
        operation is atomic, and two threads racing on a new text cost at
        most one more first sighting.
        """
        seen = self._seen
        if text in seen:
            return True
        if len(seen) >= self._seen_limit:
            seen.clear()
        seen.add(text)
        return False

    def lookup(self, key: CacheKey, epoch=None):
        """A stored value as a fresh copy, or the miss sentinel
        (:meth:`Flight.is_miss`); opens no flight.

        With ``epoch`` — the tree's current epoch — only an entry stamped
        with it is served.  A miss counts nothing: the worker that then
        runs :meth:`begin` counts it.
        """
        with self._lock:
            entry = self._hit_locked(key, epoch)
        return _MISS if entry is None else entry.copy(entry.value)

    def _hit_locked(self, key: CacheKey, epoch):
        """The entry that serves ``key`` at ``epoch`` (LRU-touched and
        counted as a hit), or ``None``."""
        entry = self._entries.get(key)
        if entry is None or (epoch is not None and entry.stamp != epoch):
            return None
        self._entries.move_to_end(key)
        self._count("hit")
        return entry

    # -- epochs ------------------------------------------------------------

    def epoch(self, tree: str) -> int:
        with self._lock:
            return self._epochs.get(tree, 0)

    def invalidate(self, tree: str) -> int:
        """Bump ``tree``'s epoch and drop its entries; the new epoch.

        In-flight evaluations that started under the old epoch will refuse
        to store (the completion-time epoch check), so callers may mutate
        the registry at any time.
        """
        with self._lock:
            epoch = self._epochs.get(tree, 0) + 1
            self._epochs[tree] = epoch
            stale = [key for key in self._entries if key[1] == tree]
            for key in stale:
                entry = self._entries.pop(key)
                self._total_bytes -= entry.nbytes
            if stale:
                self._count("invalidate", len(stale))
        return epoch

    # -- the lookup protocol ----------------------------------------------

    def begin(self, key: CacheKey, tree: str, *, epoch=None) -> tuple[str, object]:
        """One cache interaction: ``("hit", value)``, ``("leader", flight)``,
        or ``("follower", flight)``.

        With ``epoch`` (the tree epoch the caller reads at), an entry
        stamped otherwise is no hit, and a leader's flight carries the
        stamp; a follower must check ``flight.stamp`` itself.  A leader
        MUST end its flight with :meth:`complete` or :meth:`abandon` (use
        ``try/finally``); a follower calls ``flight.wait(...)``.
        """
        with self._lock:
            entry = self._hit_locked(key, epoch)
            if entry is not None:
                return ("hit", entry.copy(entry.value))
            flight = self._flights.get(key)
            if flight is not None:
                return ("follower", flight)
            flight = Flight(key, tree, self._epochs.get(tree, 0), epoch)
            self._flights[key] = flight
            self._count("miss")
            return ("leader", flight)

    def complete(self, flight: Flight, value, *, epoch=None) -> bool:
        """Leader finished OK: publish to followers, store if still fresh.

        The entry is stamped with ``epoch`` when given (the tree epoch the
        value was computed at, known only after :meth:`begin` on the
        sharded tier), else with the flight's stamp.  The store keeps its
        own copy of ``value``, measured before the lock is taken.
        """
        stamp = flight.stamp if epoch is None else epoch
        nbytes, copy = measure(value)
        kept = copy(value)
        stored = False
        with self._lock:
            self._flights.pop(flight.key, None)
            if self._epochs.get(flight.tree, 0) == flight.epoch:
                stored = self._store_locked(flight.key, kept, stamp, nbytes, copy)
                # Publish to followers only when the value is still fresh;
                # on an epoch race they re-evaluate against the new tree.
                flight._value = kept
                flight._copy = copy
                flight.stamp = stamp
        flight._event.set()
        return stored

    def abandon(self, flight: Flight) -> None:
        """Leader failed: wake followers empty-handed (they evaluate)."""
        with self._lock:
            self._flights.pop(flight.key, None)
        flight._event.set()

    def record_follower_reuse(self) -> None:
        self._count("wait_hit")

    # -- store internals ---------------------------------------------------

    def _store_locked(self, key: CacheKey, value, stamp, nbytes: int, copy) -> bool:
        if nbytes > self.max_value_bytes:
            self._count("reject")
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._total_bytes -= old.nbytes
        self._entries[key] = _Entry(value, stamp, nbytes, copy)
        self._total_bytes += nbytes
        self._count("store")
        while len(self._entries) > self.max_entries or (
            self._total_bytes > self.max_total_bytes and len(self._entries) > 1
        ):
            _, evicted = self._entries.popitem(last=False)
            self._total_bytes -= evicted.nbytes
            self._count("evict")
        return True

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """JSON-safe stats for ``--stats`` / ``stats_snapshot()``."""
        with self._lock:
            entries = len(self._entries)
            total_bytes = self._total_bytes
            in_flight = len(self._flights)
        counts = dict(self._counts)
        lookups = counts["hit"] + counts["miss"]
        return {
            "entries": entries,
            "bytes": total_bytes,
            "in_flight": in_flight,
            "events": counts,
            "hit_rate": (counts["hit"] / lookups) if lookups else 0.0,
        }
