"""The multiprocess execution tier: a shard pool reading trees from a store.

:class:`ShardedQueryService` presents the same surface as
:class:`~repro.service.workers.QueryService` — ``submit`` / ``run_batch`` /
``map_stream`` / ``shutdown`` / ``stats_snapshot`` / context manager — but
executes reads in **shard processes**, so the bitset engines' single-core
wins compound across cores instead of serializing on the GIL.

How the pieces fit:

* **Trees reach shards only through a store** — the registry's own
  :class:`~repro.trees.store.TreeStore`, or, when it has none, a scratch
  store the service attaches in a fresh ``repro-shards-*`` directory under
  ``/dev/shm`` (the platform temp dir where that is missing) and removes at
  shutdown, close and interpreter exit.  Each shard attaches the store
  read-only and reads a tree's RSTR file (about 0.1 MB at n=2048) on first
  touch: no pickled trees cross a pipe.
* **Routing** — requests naming a registered tree go to
  ``crc32(tree) % shards`` (all requests for one document hit one shard, so
  its compiled-plan caches stay hot); inline-``xml`` and ``equivalent``
  requests round-robin.  Only the small request dict crosses the pipe —
  plan *keys*, never plans: each shard parses a hot query once (the local
  service's plan cache) and compiles it once per tree (the structural
  caches on the loaded ``TreeIndex``).
* **Per-shard PR 3–5 semantics** — each shard process runs a full local
  :class:`QueryService`: per-request
  :class:`~repro.runtime.budget.ExecutionBudget` deadlines (the parent
  ships the *remaining* timeout at dispatch, so cross-process clock skew
  cannot extend a deadline), bounded queue, retries with jitter,
  per-engine-family circuit breakers, and fault injection (``REPRO_FAULTS``
  propagates through the environment under both ``fork`` and ``spawn``;
  :meth:`arm_faults` broadcasts mid-run arms for chaos drills).
* **Admission stays in the parent** — a
  :class:`~repro.service.queue.BoundedRequestQueue` per shard gives the
  same backpressure/shedding behaviour at submit time, and an in-flight
  cap per shard keeps the pipe from buffering unboundedly.
* **Live documents** — ``mutate`` requests never leave the parent: they
  run on a one-worker in-parent :class:`QueryService` over the same
  registry, whose :meth:`~repro.service.api.TreeRegistry.mutate` packs the
  new generation into the store *before* it publishes the epoch.  Reads
  against named trees are stamped with the registry epoch at dispatch
  (``min_epoch``); a shard whose resident copy is older drops it and
  reloads the file inside ``QueryService._resolve_tree``, so no shard ever
  answers from a generation older than the one published when the read
  was dispatched.  In-flight requests pinned to a pre-edit copy keep their
  snapshot.
* **Stats reconciliation** — shards ship their
  :class:`~repro.service.stats.ServiceStats` snapshot plus a metrics-
  registry *delta* (:func:`repro.obs.diff_state`, so ``fork``-inherited
  counts are not double-reported) back to the parent, which merges raw
  histogram reservoirs — never percentiles — via
  :func:`repro.obs.merge_states` /
  :meth:`~repro.service.stats.ServiceStats.merge_snapshots`, together with
  the in-parent mutator's snapshot.

Failure containment: a shard process that dies mid-run resolves every
request routed to it with a structured
:class:`~repro.runtime.errors.ShardCrashedError` result (the no-lost-
requests invariant, cross-process), and later requests for that shard fail
fast.  No IPC lock is ever shared between a killable shard and anyone who
must survive it: each shard reads its own request ``SimpleQueue`` (swapped
on respawn) and writes its own single-writer result pipe, so a SIGKILL
landing mid-send tears at most that shard's final frame — read as EOF by
the parent's collector, which multiplexes all pipes with
:func:`multiprocessing.connection.wait` — and can never wedge a sibling
or a replacement on a lock the corpse still holds.  Shard processes are daemons, the service registers an ``atexit``
kill, and :meth:`close` (non-graceful) terminates children immediately —
no orphan survives a ``KeyboardInterrupt`` or test teardown.

**Supervision** (``max_restarts=N``): instead of marking a crashed shard
dead forever, a :class:`~repro.service.supervisor.ShardSupervisor` monitor
thread detects the death (liveness poll + optional heartbeat staleness),
respawns the process with exponential backoff under a rolling restart
budget, re-delivers the tracked fault arms (the replacement reads trees
from the store like any shard, so there is no tree state to resync), and
re-dispatches the requests that were in flight on the casualty — callers
see one slower answer, not an error.  Requests arriving while the
replacement spawns wait (bounded by their own deadlines) rather than
failing fast.  Only when the budget is exhausted does the shard degrade
terminally: everything routed to it resolves with
:class:`~repro.runtime.errors.ShardUnavailableError`.

**Durability**: attach a :class:`~repro.trees.wal.WriteAheadLog` to the
parent registry (``registry.attach_wal``) and every mutation appends its
edit record — log-ahead, inside the mutation lock, before the pack and
the epoch publish — so ``repro recover DIR`` folds the history back after
a crash of the *parent* itself.
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
import tempfile
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from multiprocessing import get_context

from .. import obs
from ..runtime import faults
from ..runtime.errors import (
    RequestShedError,
    ServiceClosedError,
    ShardCrashedError,
    ShardUnavailableError,
)
from ..trees.store import TreeStore
from .api import QueryRequest, QueryResult, TreeRegistry, error_payload
from .queue import BoundedRequestQueue
from .retry import RetryPolicy
from .stats import ServiceStats
from .workers import PendingResult, QueryService

__all__ = ["ShardConfig", "ShardedQueryService"]

#: Fields of the request dict shipped to a shard (QueryRequest dataclass).
_REQUEST_FIELDS = tuple(QueryRequest.__dataclass_fields__)


@dataclass(frozen=True)
class ShardConfig:
    """Picklable per-shard configuration (crosses the ``spawn`` boundary)."""

    shard_id: int
    service_name: str
    #: The store every shard reads trees from (read-only; the parent packs).
    store_dir: str
    workers: int = 1
    queue_limit: int = 64
    retry: RetryPolicy | None = None
    breaker_threshold: int = 5
    breaker_cooldown: float = 0.25
    default_max_steps: int | None = None
    default_max_nodes: int | None = None
    optimize: bool = False
    result_cache: bool = False
    cache_entries: int = 512
    cache_bytes: int = 8 << 20
    heartbeat_interval: float = 0.5
    resident_budget: int | None = None


def _scratch_root() -> str:
    """Where scratch stores go: tmpfs when the platform has one."""
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        return "/dev/shm"
    return tempfile.gettempdir()


def _wire_result(result: QueryResult, shard_id: int) -> dict:
    payload = result.to_json()
    payload["worker"] = f"shard-{shard_id}/{result.worker}"
    return payload


def _shard_main(shard_id, request_q, result_conn, config) -> None:
    """Entry point of one shard process (module-level for ``spawn``).

    ``result_conn`` is this shard's *private* result pipe: no IPC lock is
    shared with any other process, so a SIGKILL landing mid-send can only
    tear this shard's own frame (the parent reads the tear as EOF), never
    wedge a lock a sibling or a respawned replacement would need.  The
    send lock below is an ordinary in-process :class:`threading.Lock` —
    it serializes this shard's own threads (workers' done-callbacks, the
    heartbeat) and dies with the process.
    """
    import signal

    send_lock = threading.Lock()

    def emit(message) -> None:
        with send_lock:
            result_conn.send(message)

    # The parent coordinates shutdown (stop message, then SIGTERM): a
    # terminal Ctrl-C hits the whole process group, and a shard that dies
    # on the interrupt before the parent resolves its requests would turn
    # a clean close into a crash report.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    # Everything recorded before this instant (fork-inherited counters
    # included) belongs to the parent; the shard reports only its delta.
    base_state = obs.REGISTRY.snapshot()

    # Read-only: the parent is the single store writer (it packs before it
    # publishes an epoch), so a shard never races it on a file; trees load
    # straight from the store on first touch, under this shard's own
    # resident budget, and stamped reads refresh stale copies from it.
    registry = TreeRegistry()
    registry.attach_store(
        TreeStore(config.store_dir),
        resident_budget=config.resident_budget,
        readonly=True,
    )

    # Liveness heartbeat: a cheap periodic "hb" on the result queue lets
    # the parent's supervisor distinguish a hung shard (alive but silent)
    # from a merely busy one — workers run queries, this thread only beats.
    hb_stop = threading.Event()

    def heartbeat_loop() -> None:
        while not hb_stop.wait(config.heartbeat_interval):
            try:
                emit(("hb", shard_id))
            except Exception:  # parent is gone
                return

    heartbeat = None
    if config.heartbeat_interval and config.heartbeat_interval > 0:
        heartbeat = threading.Thread(
            target=heartbeat_loop, name=f"repro-shard-{shard_id}-hb", daemon=True
        )
        heartbeat.start()

    service = None
    try:
        service = QueryService(
            registry,
            workers=config.workers,
            # Sized so the parent's in-flight cap (queue_limit + workers)
            # can never block the intake thread on a full local queue.
            queue_limit=config.queue_limit + config.workers,
            retry=config.retry,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
            default_max_steps=config.default_max_steps,
            default_max_nodes=config.default_max_nodes,
            service_name=config.service_name,
            plan_cache=True,
            # Tree-affine routing means every key's traffic lands on one
            # shard, so shard-local caches see the full hit-rate benefit.
            optimize=config.optimize,
            result_cache=config.result_cache,
            cache_entries=config.cache_entries,
            cache_bytes=config.cache_bytes,
        )

        def on_done(seq: int):
            def callback(result: QueryResult) -> None:
                emit(("res", shard_id, seq, _wire_result(result, shard_id)))

            return callback

        def send_stats(token) -> None:
            emit(
                (
                    "stats",
                    shard_id,
                    token,
                    service.stats_snapshot(),
                    obs.diff_state(base_state, obs.REGISTRY.snapshot()),
                )
            )

        while True:
            try:
                message = request_q.get()
            except (EOFError, OSError):  # parent is gone: nothing to serve
                return
            kind = message[0]
            if kind == "req":
                seq, payload = message[1], message[2]
                try:
                    request = QueryRequest(**payload)
                    handle = service.submit(request)
                except BaseException as exc:
                    emit(
                        (
                            "res",
                            shard_id,
                            seq,
                            {
                                "id": payload.get("id", ""),
                                "op": payload.get("op", "?"),
                                "status": "error",
                                "error": error_payload(exc),
                                "routed": "none",
                                "worker": f"shard-{shard_id}/intake",
                            },
                        )
                    )
                    continue
                handle.add_done_callback(on_done(seq))
            elif kind == "faults":
                faults.arm(message[1], message[2])
            elif kind == "disarm":
                faults.disarm(message[1])
            elif kind == "stats":
                send_stats(message[1])
            elif kind == "stop":
                service.shutdown(drain=message[1])
                send_stats(None)
                emit(("bye", shard_id))
                return
    finally:
        hb_stop.set()
        if service is not None:
            try:
                service.shutdown(drain=False)
            except Exception:  # pragma: no cover - defensive
                pass


class _ShardJob:
    """One admitted request in the parent (mirrors ``workers._Job``)."""

    __slots__ = ("request", "deadline", "submitted_at", "pending", "shard")

    def __init__(self, request, deadline, submitted_at, shard):
        self.request = request
        self.deadline = deadline
        self.submitted_at = submitted_at
        self.shard = shard
        self.pending = PendingResult()


class ShardedQueryService:
    """A pool of shard processes serving queries from a tree store."""

    def __init__(
        self,
        registry: TreeRegistry | None = None,
        *,
        shards: int = 2,
        start_method: str | None = None,
        workers_per_shard: int = 1,
        queue_limit: int = 64,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 0.25,
        default_timeout: float | None = None,
        default_max_steps: int | None = None,
        default_max_nodes: int | None = None,
        optimize: bool = False,
        result_cache: bool = False,
        cache_entries: int = 512,
        cache_bytes: int = 8 << 20,
        shutdown_timeout: float = 10.0,
        max_restarts: int | None = None,
        restart_window: float = 30.0,
        restart_backoff: float = 0.05,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float | None = None,
        clock=time.monotonic,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        if workers_per_shard < 1:
            raise ValueError(
                f"workers_per_shard must be >= 1, got {workers_per_shard!r}"
            )
        if max_restarts is not None and max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts!r}")
        self.registry = registry if registry is not None else TreeRegistry()
        if self.registry.store_readonly:
            raise ValueError(
                "ShardedQueryService packs every published generation; "
                "the registry's store is read-only"
            )
        self.shards = shards
        self.start_method = start_method
        self.stats = ServiceStats()
        self._clock = clock
        self._defaults = (default_timeout, default_max_steps, default_max_nodes)
        self._shutdown_timeout = shutdown_timeout
        self._inflight_cap = queue_limit + workers_per_shard

        ctx = get_context(start_method)
        self._ctx = ctx
        self._scratch: TreeStore | None = None
        self._processes: list = []
        self._request_qs: list = []
        #: Per-shard result-pipe read ends; ``None`` marks a slot retired by
        #: the collector (EOF seen) until a respawn installs a fresh pipe.
        self._result_readers: list = []
        self._reader_lock = threading.Lock()
        self._queues: list[BoundedRequestQueue] = []
        self._feeders: list[threading.Thread] = []
        self._inflight: list[threading.Semaphore] = []
        self._pending: dict[int, _ShardJob] = {}
        self._pending_lock = threading.Lock()
        self._seq = itertools.count()
        self._rr = itertools.count()
        self._closed = False
        self._lifecycle = threading.Lock()
        self._dead = [False] * shards
        self._dead_lock = threading.Lock()
        self._done = [False] * shards
        self._failed = [False] * shards
        self._supervised = max_restarts is not None
        self._supervisor = None
        self._heartbeats: dict[int, float] = {}
        self._fault_arms: dict[str, int | None] = {}
        self._fault_lock = threading.Lock()
        self._collector_stop = False
        self._stats_cond = threading.Condition()
        self._shard_stats: dict[int, tuple[dict, dict]] = {}
        self._stats_tokens: dict[int, object] = {}
        self._stats_token = itertools.count(1)
        self._config_kwargs = dict(
            workers=workers_per_shard,
            queue_limit=queue_limit,
            retry=retry,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            default_max_steps=default_max_steps,
            default_max_nodes=default_max_nodes,
            optimize=optimize,
            result_cache=result_cache,
            cache_entries=cache_entries,
            cache_bytes=cache_bytes,
            heartbeat_interval=heartbeat_interval,
        )

        try:
            if self.registry.store is None:
                # No store of its own: serve from a scratch one on tmpfs.
                # Attaching packs every resident; from here on the registry
                # packs each generation before publishing it.
                self._scratch = TreeStore(
                    tempfile.mkdtemp(prefix="repro-shards-", dir=_scratch_root())
                )
                self.registry.attach_store(self._scratch)

            # One private result pipe per shard (not a shared queue): a
            # queue shared by every shard keeps its writer lock in shared
            # memory, and a shard SIGKILLed between ``send_bytes`` and the
            # release would wedge that lock for every surviving sibling and
            # every respawned replacement.  With a single-writer pipe the
            # worst a kill can do is tear the dying shard's own last frame,
            # which the collector reads as EOF — a death signal, not a hang.
            result_writers = []
            for shard_id in range(shards):
                request_q = ctx.SimpleQueue()
                result_reader, result_writer = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_shard_main,
                    args=(
                        shard_id,
                        request_q,
                        result_writer,
                        self._make_config(shard_id),
                    ),
                    name=f"repro-shard-{shard_id}",
                    daemon=True,
                )
                self._request_qs.append(request_q)
                self._result_readers.append(result_reader)
                result_writers.append(result_writer)
                self._processes.append(process)
            # Start children before any parent-side thread exists: forking
            # a multi-threaded parent can clone held locks into the child.
            for shard_id, process in enumerate(self._processes):
                process.start()
                # Drop the parent's copy of the write end: the child holds
                # the only writer, so its death — even mid-frame — surfaces
                # as EOF on the reader instead of a silent pipe.
                result_writers[shard_id].close()
                # Seed the heartbeat clock at spawn so a hung-from-birth
                # shard still trips the staleness check.
                self._heartbeats[shard_id] = time.monotonic()
        except BaseException:
            for process in self._processes:
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
            self._remove_scratch()
            raise

        for shard_id in range(shards):
            self._queues.append(
                BoundedRequestQueue(
                    queue_limit,
                    clock=clock,
                    depth_gauge=obs.gauge(
                        "service_queue_depth",
                        service=self.stats.service,
                        shard=str(shard_id),
                    ),
                )
            )
            self._inflight.append(threading.Semaphore(self._inflight_cap))
            feeder = threading.Thread(
                target=self._feeder_loop,
                args=(shard_id,),
                name=f"repro-shard-feeder-{shard_id}",
                daemon=True,
            )
            self._feeders.append(feeder)
        # Writes never cross a pipe: one in-parent worker runs them through
        # the registry, which packs each generation before publishing it.
        self._mutator = QueryService(
            self.registry,
            workers=1,
            queue_limit=queue_limit,
            retry=retry,
            default_timeout=default_timeout,
            service_name=f"{self.stats.service}.mutator",
            clock=clock,
        )
        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-shard-collector", daemon=True
        )
        for feeder in self._feeders:
            feeder.start()
        self._collector.start()
        if self._supervised:
            from .supervisor import ShardSupervisor

            self._supervisor = ShardSupervisor(
                self,
                max_restarts=max_restarts,
                window=restart_window,
                backoff_base=restart_backoff,
                heartbeat_timeout=heartbeat_timeout,
                clock=clock,
            )
            self._supervisor.start()
        atexit.register(self._atexit_close)

    def _make_config(self, shard_id: int) -> ShardConfig:
        return ShardConfig(
            shard_id=shard_id,
            service_name=f"{self.stats.service}.shard{shard_id}",
            store_dir=str(self.registry.store.directory),
            resident_budget=self.registry.resident_budget,
            **self._config_kwargs,
        )

    def _remove_scratch(self) -> None:
        """Detach and delete the scratch store, if this service made one."""
        scratch, self._scratch = self._scratch, None
        if scratch is None:
            return
        if self.registry.store is scratch:
            self.registry.detach_store()
        shutil.rmtree(scratch.directory, ignore_errors=True)

    def register(self, name: str, tree) -> int:
        """Register a tree after startup; returns its epoch.

        The registry packs the tree into the store before publishing the
        epoch, so shards find the file on their first stamped read.
        """
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        return self.registry.register(name, tree)

    # -- admission ---------------------------------------------------------

    def _route(self, request: QueryRequest) -> int:
        if request.op != "equivalent" and request.tree is not None:
            return zlib.crc32(request.tree.encode("utf-8")) % self.shards
        return next(self._rr) % self.shards

    def submit(
        self,
        request: QueryRequest,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> PendingResult:
        """Admit one request (same contract as ``QueryService.submit``)."""
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        self.stats.record_submitted()
        if request.op == "mutate":
            # Counted here like every admission; the mutator's own stats
            # carry the outcome (merged in stats_snapshot).
            return self._mutator.submit(request, block=block, timeout=timeout)
        now = self._clock()
        default_timeout = self._defaults[0]
        per_request = (
            request.timeout if request.timeout is not None else default_timeout
        )
        shard = self._route(request)
        job = _ShardJob(
            request,
            None if per_request is None else now + per_request,
            now,
            shard,
        )
        try:
            request.validate()
        except ValueError as exc:
            self._finish_local(job, self._error_result(job, exc, "admission"))
            return job.pending
        if self._failed[shard]:
            self._finish_local(job, self._unavailable_result(job))
            return job.pending
        if self._dead[shard] and not self._supervised:
            self._finish_local(job, self._crashed_result(job))
            return job.pending
        # Supervised + dead: admit normally — the feeder waits (bounded by
        # the job's own deadline) for the supervisor to respawn the shard.
        for expired in self._queues[shard].put(job, block=block, timeout=timeout):
            self._finish_local(
                job=expired,
                result=self._shed_result(expired, "deadline passed while queued"),
            )
        return job.pending

    def run_batch(self, requests) -> list[QueryResult]:
        """Submit every request (blocking) and wait; results in input order."""
        handles = [self.submit(request) for request in requests]
        return [handle.result() for handle in handles]

    def map_stream(self, requests):
        """Lazily submit a request stream, yielding results in input order."""
        pending: deque[PendingResult] = deque()
        for request in requests:
            pending.append(self.submit(request))
            while pending and pending[0].done():
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    # -- feeder / collector threads ----------------------------------------

    def _feeder_loop(self, shard: int) -> None:
        bounded = self._queues[shard]
        while True:
            job = bounded.get()
            if job is None:
                return  # queue closed and drained
            self._feed_one(shard, job)

    def _feed_one(self, shard: int, job: _ShardJob) -> None:
        """Dispatch one job to its shard, surviving a death-and-respawn.

        The loop re-evaluates shard state on every pass: a supervised dead
        shard means *wait* (the supervisor is respawning it; bounded by the
        job's deadline and service shutdown), an unsupervised one means the
        classic fail-fast crashed result, and a failed shard resolves with
        the terminal unavailable error.

        The last aliveness check, the ``_pending`` insert and the read of
        the request queue are one critical section under ``_pending_lock``,
        the lock ``_mark_dead``'s sweep takes after setting ``_dead``:
        either the sweep collects this job, or this sees the shard dead.
        A queue read while the shard is alive is the current one, because
        a respawn swaps the queue before it clears ``_dead``.
        """
        semaphore = self._inflight[shard]
        while True:
            if job.deadline is not None and self._clock() >= job.deadline:
                self._finish_local(
                    job, self._shed_result(job, "deadline passed while queued")
                )
                return
            if self._failed[shard]:
                self._finish_local(job, self._unavailable_result(job))
                return
            if self._dead[shard]:
                if not self._supervised:
                    self._finish_local(job, self._crashed_result(job))
                    return
                if self._closed:
                    self._finish_local(
                        job, self._shed_result(job, "service shut down before execution")
                    )
                    return
                time.sleep(0.01)  # the supervisor is (re)spawning it
                continue
            if not semaphore.acquire(timeout=0.05):
                continue
            if self._dead[shard]:  # died while we waited for a slot
                semaphore.release()
                continue
            payload = self._wire_payload(job)
            seq = next(self._seq)
            with self._pending_lock:
                dead = self._dead[shard]
                if not dead:
                    self._pending[seq] = job
                    request_q = self._request_qs[shard]
            if dead:  # died while the payload was built
                semaphore.release()
                continue
            try:
                request_q.put(("req", seq, payload))
            except Exception:
                with self._pending_lock:
                    swept = self._pending.pop(seq, None) is None
                if swept:
                    return  # the death sweep took the job and its slot
                semaphore.release()
                self._mark_dead(shard)
                continue  # supervised: retry after respawn; else resolve above
            return

    def _wire_payload(self, job: _ShardJob) -> dict:
        """The request dict shipped to a shard, re-stamped at dispatch time.

        The remaining timeout is refreshed (queue wait already spent), and
        named-tree reads are stamped with the registry's *current* epoch as
        ``min_epoch`` — the freshness floor the shard must meet.  The store
        already holds that generation (packed before publish), so a shard
        whose copy is older refreshes it instead of answering stale.
        """
        request = job.request
        payload = {field: getattr(request, field) for field in _REQUEST_FIELDS}
        if job.deadline is not None:
            payload["timeout"] = max(0.0, job.deadline - self._clock())
        if request.op != "equivalent" and request.tree is not None and request.xml is None:
            payload["min_epoch"] = max(
                request.min_epoch or 0, self.registry.epoch(request.tree)
            )
        return payload

    def _collector_loop(self) -> None:
        """Multiplex every shard's private result pipe onto one thread.

        The wait set is rebuilt each pass from ``_result_readers`` so a
        respawn's fresh pipe joins (and a retired one leaves) within one
        iteration.  EOF on a pipe — including the torn last frame of a
        shard SIGKILLed mid-send — is the fastest death signal we have:
        the slot is retired (compare-and-swap against a racing respawn)
        and the crash path runs immediately instead of waiting for the
        next liveness poll.
        """
        while True:
            with self._reader_lock:
                readers = {
                    conn: shard
                    for shard, conn in enumerate(self._result_readers)
                    if conn is not None
                }
            try:
                ready = _mp_connection.wait(list(readers), timeout=0.1)
            except OSError:  # pragma: no cover - reader closed mid-wait
                continue
            if not ready:
                if self._collector_stop:
                    return
                self._check_shards()
                continue
            for conn in ready:
                shard = readers[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    with self._reader_lock:
                        stale = self._result_readers[shard] is not conn
                        if not stale:
                            self._result_readers[shard] = None
                    # A swapped slot means a respawn already handled this
                    # death; a done shard simply closed its end cleanly.
                    if not stale and not self._done[shard]:
                        self._mark_dead(shard)
                    continue
                kind = message[0]
                try:
                    if kind == "res":
                        self._on_result(message[1], message[2], message[3])
                    elif kind == "stats":
                        with self._stats_cond:
                            self._shard_stats[message[1]] = (message[3], message[4])
                            self._stats_tokens[message[1]] = message[2]
                            self._stats_cond.notify_all()
                    elif kind == "hb":
                        self._heartbeats[message[1]] = time.monotonic()
                    elif kind == "bye":
                        self._done[message[1]] = True
                except Exception:  # pragma: no cover - backstop; a dead
                    # collector would strand every in-flight request, so the
                    # loop survives anything one message's handling throws.
                    obs.counter("service_loop_errors_total", loop="collector").inc()

    def _on_result(self, shard: int, seq: int, payload: dict) -> None:
        with self._pending_lock:
            job = self._pending.pop(seq, None)
        if job is None:
            # Already resolved elsewhere (stranded at a crash, re-dispatched
            # under a new seq): its in-flight slot was released then — a
            # second release here would quietly inflate the cap.
            return
        self._inflight[shard].release()
        result = QueryResult(
            id=payload.get("id", job.request.id),
            op=payload.get("op", job.request.op),
            status=payload.get("status", "error"),
            value=payload.get("value"),
            error=payload.get("error"),
            retries=payload.get("retries", 0),
            fallback=payload.get("fallback", False),
            routed=payload.get("routed", "none"),
            # Caller-visible latency is end-to-end (queue + pipe + shard);
            # the shard's own histogram records its local execution view.
            latency=self._clock() - job.submitted_at,
            worker=payload.get("worker", f"shard-{shard}"),
        )
        job.pending.resolve(result)

    def _check_shards(self) -> None:
        for shard, process in enumerate(self._processes):
            if not self._dead[shard] and not self._done[shard]:
                try:
                    alive = process.is_alive()
                except ValueError:  # closed handle racing a respawn swap
                    continue
                if not alive:
                    self._mark_dead(shard)

    def _mark_dead(self, shard: int) -> None:
        """Contain a crashed shard: strand-collect its in-flight requests.

        Unsupervised (or failed/shutting-down), the stranded requests
        resolve immediately with crashed results — the PR 6 behaviour.
        Supervised, they are handed to the supervisor intact and re-dispatch
        once the replacement process is live.
        """
        with self._dead_lock:
            if self._dead[shard]:
                return
            self._dead[shard] = True
        with self._pending_lock:
            stranded = [
                (seq, job)
                for seq, job in self._pending.items()
                if job.shard == shard
            ]
            for seq, _ in stranded:
                del self._pending[seq]
        jobs = [job for _, job in stranded]
        for _ in jobs:
            self._inflight[shard].release()
        if (
            self._supervised
            and not self._failed[shard]
            and not self._closed
            and self._supervisor is not None
            and self._supervisor.notify_death(shard, jobs)
        ):
            return
        for job in jobs:
            self._finish_local(job, self._crashed_result(job))

    # -- result shaping ----------------------------------------------------

    def _finish_local(self, job: _ShardJob, result: QueryResult) -> None:
        """Resolve a request the parent itself decided (never ran remotely)."""
        # Same order as the worker tier: count before resolve, so a caller
        # that has the result never reads a snapshot missing it.
        self.stats.record_result(result)
        job.pending.resolve(result)

    def _shed_result(self, job: _ShardJob, reason: str) -> QueryResult:
        waited = self._clock() - job.submitted_at
        exc = RequestShedError(f"{reason} (waited {waited:.3f}s)")
        return QueryResult(
            id=job.request.id,
            op=job.request.op,
            status="shed",
            error=error_payload(exc),
            routed="none",
            latency=waited,
            worker="parent",
        )

    def _crashed_result(self, job: _ShardJob) -> QueryResult:
        # The handle may be closed (already reaped), swapped by a respawn,
        # or never started — ``.exitcode`` raises ValueError on a closed
        # handle; report None rather than crash the resolving thread.
        try:
            exitcode = self._processes[job.shard].exitcode
        except (ValueError, IndexError, AttributeError):
            exitcode = None
        exc = ShardCrashedError(
            f"shard {job.shard} died (exitcode {exitcode}) with the request "
            "outstanding"
        )
        return QueryResult(
            id=job.request.id,
            op=job.request.op,
            status="error",
            error=error_payload(exc),
            routed="none",
            latency=self._clock() - job.submitted_at,
            worker="parent",
        )

    def _unavailable_result(self, job: _ShardJob) -> QueryResult:
        exc = ShardUnavailableError(
            f"shard {job.shard} exhausted its restart budget; trees routed "
            "to it are unavailable until the service restarts"
        )
        return QueryResult(
            id=job.request.id,
            op=job.request.op,
            status="error",
            error=error_payload(exc),
            routed="none",
            latency=self._clock() - job.submitted_at,
            worker="parent",
        )

    def _error_result(
        self, job: _ShardJob, exc, worker: str, retries: int = 0
    ) -> QueryResult:
        return QueryResult(
            id=job.request.id,
            op=job.request.op,
            status="error",
            error=error_payload(exc),
            retries=retries,
            routed="none",
            latency=self._clock() - job.submitted_at,
            worker=worker,
        )

    # -- supervision hooks (called by ShardSupervisor) -----------------------

    def _respawn_shard(self, shard: int) -> float:
        """Replace a dead shard with a fresh process; seconds spent.

        The replacement reads trees from the store like any shard (stamped
        reads refresh anything published while it was down), so the only
        state to re-deliver is the tracked fault arms.
        """
        start = time.perf_counter()
        old = self._processes[shard]
        try:
            old.join(timeout=1.0)  # reap the zombie
        except Exception:  # pragma: no cover - closed handle
            pass
        request_q = self._ctx.SimpleQueue()
        self._request_qs[shard] = request_q
        # A fresh result pipe too: the dead shard's pipe may hold a torn
        # frame, and single-writer isolation is the whole point — the
        # replacement never shares an IPC lock with the corpse.
        result_reader, result_writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shard_main,
            args=(shard, request_q, result_writer, self._make_config(shard)),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        process.start()
        result_writer.close()
        self._processes[shard] = process
        with self._reader_lock:
            self._result_readers[shard] = result_reader
        # Re-arm tracked fault state at the originally requested counts
        # (fires already consumed by the dead shard are not subtracted).
        with self._fault_lock:
            arms = dict(self._fault_arms)
        for site, times in arms.items():
            request_q.put(("faults", site, times))
        self._heartbeats[shard] = time.monotonic()
        with self._dead_lock:
            self._dead[shard] = False
        return time.perf_counter() - start

    def _redispatch_job(self, shard: int, job: _ShardJob) -> None:
        """Re-submit one stranded casualty to the freshly respawned shard."""
        if job.deadline is not None and self._clock() >= job.deadline:
            self._finish_local(
                job, self._shed_result(job, "deadline passed during shard restart")
            )
            return
        if not self._inflight[shard].acquire(blocking=False):
            # Feeders raced every slot away already; requeue at the back
            # (waiting out a momentarily full queue — the shard is alive
            # again, so the backlog is draining).  Still saturated after
            # the grace period, or closing: overload semantics (shed),
            # never a phantom crash.
            try:
                expired = self._queues[shard].put(job, block=True, timeout=1.0)
            except Exception:
                self._finish_local(
                    job,
                    self._shed_result(
                        job, "request queue at capacity during shard restart"
                    ),
                )
                return
            for stale in expired:
                self._finish_local(
                    stale, self._shed_result(stale, "deadline passed while queued")
                )
            return
        payload = self._wire_payload(job)
        seq = next(self._seq)
        with self._pending_lock:  # one critical section with the sweep
            dead = self._dead[shard]
            if not dead:
                self._pending[seq] = job
                request_q = self._request_qs[shard]
        if not dead:
            try:
                request_q.put(("req", seq, payload))
                return
            except Exception:  # pragma: no cover - replacement died instantly
                with self._pending_lock:
                    if self._pending.pop(seq, None) is None:
                        return  # the death sweep took the job and its slot
        self._inflight[shard].release()
        self._mark_dead(shard)
        # The job is not in _pending, so no sweep can strand-collect it:
        # hand it back explicitly so it is never silently dropped.
        supervisor = self._supervisor
        if not (supervisor is not None and supervisor.notify_death(shard, [job])):
            self._finish_local(job, self._crashed_result(job))

    # -- chaos -------------------------------------------------------------

    def arm_faults(self, site: str, times: int | None = None) -> dict[int, bool]:
        """Broadcast a fault arm to every shard; per-shard delivery outcome.

        Returns ``{shard: delivered}`` — ``False`` for shards that are
        dead, finished, or failed (they never see the arm), so chaos soaks
        can assert fault state instead of guessing.  Delivered arms are
        also tracked for the supervisor's re-arm-on-respawn: a replacement
        shard receives every tracked ``(site, times)`` at spawn.
        """
        with self._fault_lock:
            self._fault_arms[site] = times
        outcome: dict[int, bool] = {}
        for shard, request_q in enumerate(self._request_qs):
            if self._dead[shard] or self._done[shard] or self._failed[shard]:
                outcome[shard] = False
                continue
            try:
                request_q.put(("faults", site, times))
            except Exception:  # pragma: no cover - racing a crash
                outcome[shard] = False
            else:
                outcome[shard] = True
        return outcome

    def disarm_faults(self, site: str | None = None) -> dict[int, bool]:
        """Broadcast a disarm (one site, or all); per-shard delivery outcome."""
        with self._fault_lock:
            if site is None:
                self._fault_arms.clear()
            else:
                self._fault_arms.pop(site, None)
        outcome: dict[int, bool] = {}
        for shard, request_q in enumerate(self._request_qs):
            if self._dead[shard] or self._done[shard] or self._failed[shard]:
                outcome[shard] = False
                continue
            try:
                request_q.put(("disarm", site))
            except Exception:  # pragma: no cover - racing a crash
                outcome[shard] = False
            else:
                outcome[shard] = True
        return outcome

    # -- stats -------------------------------------------------------------

    def _shard_snapshots(self, timeout: float = 5.0) -> dict[int, tuple[dict, dict]]:
        """Fresh per-shard (stats, registry-delta) pairs; cached if stopped."""
        live = [
            shard
            for shard in range(self.shards)
            if not self._dead[shard] and not self._done[shard] and not self._closed
        ]
        if live:
            token = next(self._stats_token)
            for shard in live:
                try:
                    self._request_qs[shard].put(("stats", token))
                except Exception:  # pragma: no cover - racing a crash
                    continue
            deadline = time.monotonic() + timeout
            with self._stats_cond:
                while any(
                    self._stats_tokens.get(shard) != token
                    for shard in live
                    if not self._dead[shard]
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._stats_cond.wait(remaining):
                        break
        with self._stats_cond:
            return dict(self._shard_stats)

    def merged_registry(
        self, snapshots: dict[int, tuple[dict, dict]] | None = None
    ) -> obs.MetricsRegistry:
        """Parent registry + every shard's delta, as one standalone registry."""
        if snapshots is None:
            snapshots = self._shard_snapshots()
        states = [obs.REGISTRY.snapshot()]
        states.extend(delta for _, delta in snapshots.values())
        return obs.registry_from_state(obs.merge_states(*states))

    def stats_snapshot(self) -> dict:
        """The cross-shard aggregate view (``repro batch --stats``)."""
        snapshots = self._shard_snapshots()
        registry = self.merged_registry(snapshots)
        parent = self.stats.snapshot()
        shard_stats = {
            f"shard-{shard}": snap for shard, (snap, _) in sorted(snapshots.items())
        }
        mutator = self._mutator.stats.snapshot()
        merged = ServiceStats.merge_snapshots(
            [parent, *(snap for snap, _ in snapshots.values()), mutator],
            submitted=parent["submitted"],
            latency=obs.merged_histogram(registry, "service_latency_seconds"),
        )
        merged["parent"] = parent
        merged["mutator"] = mutator
        merged["shards"] = shard_stats
        caches = [
            snap["result_cache"]
            for snap, _ in snapshots.values()
            if "result_cache" in snap
        ]
        if caches:
            events: dict[str, int] = {}
            for cache in caches:
                for event, count in cache["events"].items():
                    events[event] = events.get(event, 0) + int(count)
            lookups = events.get("hit", 0) + events.get("miss", 0)
            merged["result_cache"] = {
                "entries": sum(cache["entries"] for cache in caches),
                "bytes": sum(cache["bytes"] for cache in caches),
                "in_flight": sum(cache["in_flight"] for cache in caches),
                "events": events,
                "hit_rate": (events.get("hit", 0) / lookups) if lookups else 0.0,
            }
        optimizers = [
            snap["optimizer"] for snap, _ in snapshots.values() if "optimizer" in snap
        ]
        if optimizers:
            choices: dict[str, int] = {}
            for opt in optimizers:
                for backend, count in opt.get("choices", {}).items():
                    choices[backend] = choices.get(backend, 0) + int(count)
            merged["optimizer"] = {
                # Rates are per-shard EWMAs; report each shard's calibration
                # rather than a meaningless cross-process average.
                "rates": {
                    f"shard-{shard}": snap["optimizer"]["rates"]
                    for shard, (snap, _) in sorted(snapshots.items())
                    if "optimizer" in snap
                },
                "choices": choices,
            }
        return merged

    def metrics_snapshot(self) -> dict:
        """The merged metrics registry as ``repro-metrics/1`` JSON."""
        return self.merged_registry().to_json()

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admissions, stop shards, reap processes.  Idempotent.

        ``drain=True`` lets every shard finish (or shed, per its own
        queue's deadline policy) everything already admitted; ``drain=False``
        sheds the parent-side remainder and tells shards to shed theirs.
        Processes that outlive ``timeout`` (default: the construction-time
        ``shutdown_timeout``) are terminated, then killed — a deadlocked
        shard cannot hang its parent.
        """
        self._shutdown(drain=drain, timeout=timeout, kill=False)

    def close(self) -> None:
        """Non-graceful shutdown: kill shard processes immediately.

        Queued and in-flight requests resolve with structured shed/crash
        results; no child process survives this call.
        """
        self._shutdown(drain=False, timeout=0.0, kill=True)

    def _shutdown(self, *, drain: bool, timeout: float | None, kill: bool) -> None:
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        timeout = self._shutdown_timeout if timeout is None else timeout
        if self._supervisor is not None:
            # Stop self-healing first: a respawn racing the kill loop below
            # would resurrect a shard mid-shutdown.  Any still-stashed
            # casualties resolve as shed inside stop().
            self._supervisor.stop()
        for bounded in self._queues:
            bounded.close()
        if not drain:
            for bounded in self._queues:
                for job in bounded.drain():
                    self._finish_local(
                        job,
                        self._shed_result(job, "service shut down before execution"),
                    )
        if kill:
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
        for feeder in self._feeders:
            feeder.join(timeout=max(timeout, 1.0))
        self._mutator.shutdown(drain=drain, timeout=max(timeout, 1.0))
        if not kill:
            for shard, request_q in enumerate(self._request_qs):
                if not self._dead[shard]:
                    try:
                        request_q.put(("stop", drain))
                    except Exception:  # pragma: no cover - racing a crash
                        self._mark_dead(shard)
        deadline = time.monotonic() + timeout
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stuck in the kernel
                process.kill()
                process.join(timeout=1.0)
        self._check_shards()
        self._collector_stop = True
        self._collector.join(timeout=5.0)
        # Anything still unresolved (e.g. killed before its result was
        # read) gets the structured no-lost-requests treatment.
        with self._pending_lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for job in leftovers:
            self._finish_local(
                job, self._shed_result(job, "service shut down before execution")
            )
        self._remove_scratch()
        try:
            atexit.unregister(self._atexit_close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def _atexit_close(self) -> None:  # pragma: no cover - interpreter exit
        for process in self._processes:
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:
                pass
        if self._scratch is not None:
            shutil.rmtree(self._scratch.directory, ignore_errors=True)

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and issubclass(exc_type, KeyboardInterrupt):
            self.close()
        else:
            self.shutdown(drain=True)

    @property
    def processes(self) -> list:
        """The shard process handles (read-only; for tests and operators)."""
        return list(self._processes)

    @property
    def restart_counts(self) -> list[int]:
        """Per-shard supervisor restarts so far (all zeros unsupervised)."""
        if self._supervisor is None:
            return [0] * self.shards
        return list(self._supervisor.restart_counts)
