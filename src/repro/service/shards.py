"""The multiprocess tier: a :class:`QueryService` whose shards only evaluate.

:class:`ShardedQueryService` *is* a
:class:`~repro.service.workers.QueryService`: admission, deadlines,
retries, the result cache, mutations and stats run once, in the parent,
exactly as in the threaded tier — a repeated read whose answer the
parent's cache holds resolves inside ``submit()`` and never reaches a
shard.  Only the runner differs.  Where
the threaded tier runs a prepared plan on the worker's own thread, a
sharded read is a round trip to the **shard process** that owns its
document, so the bitset engines' single-core wins compound across cores
instead of serializing on the GIL.

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
  plan *keys*, never plans: each shard parses a hot query once (the
  process's prepared-plan cache) and compiles it once per tree (the
  structural caches on the loaded ``TreeIndex``).
* **A shard only evaluates** — its loop reads one request, resolves the
  document from the store, prepares the plan, runs it on the bitset engine
  (``service.worker`` fires there before the run, so :meth:`arm_faults`
  reaches it) and writes the value or a typed error on the reply channel
  the request names.  The parent ships the *remaining* timeout, so
  cross-process clock skew cannot extend a deadline.  An error crosses as
  its class and message, and the parent rebuilds an exception that renders
  the same payload and is classified as it would be in-thread: a transient
  fault, a ``store.load`` fault resolving the document included, is
  retried under the parent's one retry policy.
* **Core workers and reply channels** — ``4 * shards * workers_per_shard``
  parent threads, and ``4 * workers_per_shard`` reply pipes per shard.  A
  worker checks out one of the owning shard's channels, sends, and reads
  the reply itself, so a round trip wakes no other parent thread; a
  shard's request pipe holds its next request while it evaluates, and one
  FIFO feeding fewer workers would let one shard's backlog hold them all
  while another shard idles (the factor is a measurement; see DESIGN
  "Sharded execution").
* **Live documents** — ``mutate`` requests never leave the parent: the
  core's ``_mutate`` runs them through the registry, whose
  :meth:`~repro.service.api.TreeRegistry.mutate` packs the new generation
  into the store *before* it publishes the epoch.  Each read is stamped
  with the registry epoch when it is sent (``min_epoch``, taken after the
  result cache's ``begin``, so the cache's epoch check covers a racing
  edit); a shard whose resident copy is older drops it and reloads the
  file, so no shard ever answers from a generation older than the one
  published when the read was sent.  The cache stamps the answer with
  that send-time epoch.
* **One ledger** — the core's :class:`~repro.service.stats.ServiceStats`
  counts every request once.  Shards run no service, so they record no
  ``service_*`` series; their engine, store and epoch-lag metrics come back
  as registry *deltas* (:func:`repro.obs.diff_state`, so ``fork``-inherited
  counts are not double-reported), merged with the parent's registry in
  :meth:`merged_registry`.

Failure containment: no IPC lock is ever shared between a killable shard
and anyone who must survive it.  Each shard reads its own request pipe
and writes its own single-writer result pipe (heartbeats and stats) and
reply channels, all swapped on respawn, so a SIGKILL landing mid-send
tears at most one of that shard's frames — read as EOF, by the parent's
collector, which multiplexes the result pipes on one poll selector, or
by the worker reading the reply channel — and can never wedge a sibling
or a replacement on a lock the corpse still holds.  A request in flight
on a dying shard is owned by the core worker waiting for it:
unsupervised, that worker raises
:class:`~repro.runtime.errors.ShardCrashedError`, and requests for the dead
shard fail fast.  Shard processes are daemons that ignore SIGINT, the
service registers an ``atexit`` kill, and :meth:`close` (non-graceful)
terminates children immediately — no orphan survives a
``KeyboardInterrupt`` or test teardown.

**Supervision** (``max_restarts=N``): a
:class:`~repro.service.supervisor.ShardSupervisor` monitor thread detects
the death (liveness poll + optional heartbeat staleness), respawns the
process with exponential backoff under a rolling restart budget and
re-delivers the tracked fault arms (the replacement reads trees from the
store like any shard, so there is no tree state to resync).  A worker whose
request was on the casualty, or that routes a request to it, waits for the
respawn (bounded by the request's deadline and by shutdown) and re-sends:
callers see one slower answer, not an error.  Only when the budget is
exhausted does the shard degrade terminally: everything routed to it
resolves with :class:`~repro.runtime.errors.ShardUnavailableError`.

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
import pickle
import queue
import selectors
import shutil
import struct
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from multiprocessing import get_context

from .. import obs
from ..runtime import faults
from ..runtime.budget import ExecutionBudget
from ..runtime.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ShardCrashedError,
    ShardUnavailableError,
)
from ..trees.store import TreeStore
from .api import QueryRequest, TreeRegistry
from .workers import QueryService, prepare, resolve_tree, run_plan

__all__ = ["ShardedQueryService"]

#: Core workers per shard and ``workers_per_shard`` (see module docstring).
_WORKERS_PER_SLOT = 4

#: The length prefix of a reply frame.
_FRAME = struct.Struct("!I")


@dataclass(frozen=True)
class ShardConfig:
    """Picklable per-shard configuration (crosses the ``spawn`` boundary)."""

    shard_id: int
    #: The store every shard reads trees from (read-only; the parent packs).
    store_dir: str
    resident_budget: int | None = None
    heartbeat_interval: float = 0.5


def _scratch_root() -> str:
    """Where scratch stores go: tmpfs when the platform has one."""
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        return "/dev/shm"
    return tempfile.gettempdir()


class _RequestPipe:
    """A shard's request queue: the parent's end of a pipe the shard reads.

    Parent threads serialize on an in-process lock, and messages pickle
    with the plain pickler, which costs less than ``SimpleQueue.put``.  The
    parent keeps the read end open, as ``SimpleQueue`` does, so a write to
    a dead shard never raises ``EPIPE``.
    """

    def __init__(self, ctx):
        self.reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = threading.Lock()

    def put(self, message) -> None:
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._writer.send_bytes(data)


def _send_reply(conn, reply) -> None:
    """Write one reply frame — length prefix, then pickle — in one write."""
    try:
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # e.g. an error class pickle cannot name
        data = pickle.dumps(("run", RuntimeError, repr(exc)), pickle.HIGHEST_PROTOCOL)
    view = memoryview(_FRAME.pack(len(data)) + data)
    while view:
        view = view[os.write(conn.fileno(), view) :]


def _read_reply(conn):
    """Read one reply frame, usually in a single read.

    A reply channel holds at most one frame, so a read never takes in part
    of the next.  Every read releases the GIL, and with many workers each
    release costs a thread switch: ``Connection.recv``, which reads the
    header and the body separately, cost about 20 us more parent CPU per
    round trip (DESIGN "Sharded execution").
    """
    fd = conn.fileno()
    frame = bytearray(os.read(fd, 1 << 16))
    while len(frame) < _FRAME.size or len(frame) - _FRAME.size < _FRAME.unpack_from(frame)[0]:
        more = os.read(fd, 1 << 16)
        if not more:
            raise EOFError("reply channel closed mid-frame")
        frame += more
    return pickle.loads(memoryview(frame)[_FRAME.size :])


def _serve(registry: TreeRegistry, payload: dict) -> tuple:
    """One attempt for the parent: ``("ok", value)`` or
    ``("error", error class, message)``."""
    request = QueryRequest(**payload)
    pin = None
    try:
        budget = None
        if (
            request.timeout is not None
            or request.max_steps is not None
            or request.max_nodes is not None
        ):
            budget = ExecutionBudget(
                request.timeout, request.max_steps, request.max_nodes
            )
        tree, pin = resolve_tree(registry, request)
        return "ok", run_plan(prepare(request), tree, budget)
    except Exception as exc:
        return "error", type(exc), str(exc)
    finally:
        if pin is not None:
            pin.release()


def _shard_main(shard_id, request_conn, result_conn, reply_conns, config) -> None:
    """Entry point of one shard process (module-level for ``spawn``).

    ``result_conn`` (heartbeats and stats) and ``reply_conns`` (one per
    reply channel; a request names the channel its answer goes back on)
    are this shard's *private* pipes: no IPC lock is shared with any other
    process, so a SIGKILL landing mid-send can only tear this shard's own
    frame (the parent reads the tear as EOF), never wedge a lock a sibling
    or a respawned replacement would need.  The send lock below is an
    ordinary in-process :class:`threading.Lock` — it serializes the
    evaluation loop and the heartbeat on the result pipe and dies with the
    process; only the loop writes the reply channels.
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

    # Liveness heartbeat: a cheap periodic "hb" on the result pipe lets the
    # parent's supervisor distinguish a hung shard (alive but silent) from
    # a merely busy one — the loop runs queries, this thread only beats.
    hb_stop = threading.Event()

    def heartbeat_loop() -> None:
        while not hb_stop.wait(config.heartbeat_interval):
            try:
                emit(("hb", shard_id))
            except Exception:  # parent is gone
                return

    if config.heartbeat_interval and config.heartbeat_interval > 0:
        threading.Thread(
            target=heartbeat_loop, name=f"repro-shard-{shard_id}-hb", daemon=True
        ).start()

    def send_stats(token) -> None:
        delta = obs.diff_state(base_state, obs.REGISTRY.snapshot())
        emit(("stats", shard_id, token, delta))

    try:
        while True:
            try:
                message = request_conn.recv()
            except (EOFError, OSError):  # parent is gone: nothing to serve
                return
            kind = message[0]
            if kind == "req":
                _, channel, payload = message
                _send_reply(reply_conns[channel], _serve(registry, payload))
            elif kind == "faults":
                faults.arm(message[1], message[2])
            elif kind == "disarm":
                faults.disarm(message[1])
            elif kind == "stats":
                send_stats(message[1])
            elif kind == "stop":
                send_stats(None)
                return
    finally:
        hb_stop.set()


class ShardedQueryService(QueryService):
    """A :class:`QueryService` whose reads run in shard processes.

    Takes every :class:`QueryService` option except ``workers``, which it
    derives from ``shards`` and ``workers_per_shard``.
    """

    def __init__(
        self,
        registry: TreeRegistry | None = None,
        *,
        shards: int = 2,
        start_method: str | None = None,
        workers_per_shard: int = 1,
        shutdown_timeout: float = 10.0,
        max_restarts: int | None = None,
        restart_window: float = 30.0,
        restart_backoff: float = 0.05,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float | None = None,
        **options,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        if workers_per_shard < 1:
            raise ValueError(
                f"workers_per_shard must be >= 1, got {workers_per_shard!r}"
            )
        if max_restarts is not None and max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts!r}")
        registry = registry if registry is not None else TreeRegistry()
        if registry.store_readonly:
            raise ValueError(
                "ShardedQueryService packs every published generation; "
                "the registry's store is read-only"
            )
        self.registry = registry
        self.shards = shards
        self.start_method = start_method
        self._shutdown_timeout = shutdown_timeout
        self._heartbeat_interval = heartbeat_interval
        self._ctx = get_context(start_method)
        self._scratch: TreeStore | None = None
        #: Reply channels per shard: at most this many round trips are
        #: outstanding on one shard, each read by the worker that sent it.
        self._channels = _WORKERS_PER_SLOT * workers_per_shard
        self._free = [queue.SimpleQueue() for _ in range(shards)]
        for free in self._free:
            for channel in range(self._channels):
                free.put(channel)
        # A shard's generation — its process, request queue, result pipe
        # and reply pipes — is installed by a respawn, and its death
        # recorded, under _shard_lock.
        self._shard_lock = threading.Lock()
        self._processes: list = []
        self._request_qs: list = []
        #: Per-shard result-pipe read ends; ``None`` marks a slot retired by
        #: the collector (EOF seen) until a respawn installs a fresh pipe.
        self._result_readers: list = []
        #: Per-shard reply-channel read ends, indexed by channel.
        self._replies: list[list] = []
        self._rr = itertools.count()
        self._dead = [False] * shards
        self._failed = [False] * shards
        self._supervised = max_restarts is not None
        self._supervisor = None
        self._heartbeats: dict[int, float] = {}
        self._fault_arms: dict[str, int | None] = {}
        self._fault_lock = threading.Lock()
        self._collector_stop = False
        self._stats_cond = threading.Condition()
        self._shard_deltas: dict[int, dict] = {}
        self._stats_tokens: dict[int, object] = {}
        self._stats_token = itertools.count(1)

        try:
            if registry.store is None:
                # No store of its own: serve from a scratch one on tmpfs.
                # Attaching packs every resident; from here on the registry
                # packs each generation before publishing it.
                self._scratch = TreeStore(
                    tempfile.mkdtemp(prefix="repro-shards-", dir=_scratch_root())
                )
                registry.attach_store(self._scratch)
            # Start children before any parent-side thread exists: forking
            # a multi-threaded parent can clone held locks into the child.
            for shard_id in range(shards):
                process, request_q, reader, replies, writers = self._spawn(shard_id)
                self._processes.append(process)
                self._request_qs.append(request_q)
                self._result_readers.append(reader)
                self._replies.append(replies)
                process.start()
                # Drop the parent's copies of the write ends before the next
                # fork: the child holds the only writers, so its death —
                # even mid-frame — surfaces as EOF on the readers instead of
                # silent pipes.
                for writer in writers:
                    writer.close()
                # Seed the heartbeat clock at spawn so a hung-from-birth
                # shard still trips the staleness check.
                self._heartbeats[shard_id] = time.monotonic()
            super().__init__(
                registry,
                workers=_WORKERS_PER_SLOT * shards * workers_per_shard,
                **options,
            )
        except BaseException:
            for process in self._processes:
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
            self._remove_scratch()
            raise

        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-shard-collector", daemon=True
        )
        self._collector.start()
        if self._supervised:
            from .supervisor import ShardSupervisor

            self._supervisor = ShardSupervisor(
                self,
                max_restarts=max_restarts,
                window=restart_window,
                backoff_base=restart_backoff,
                heartbeat_timeout=heartbeat_timeout,
                clock=self._clock,
            )
            self._supervisor.start()
        atexit.register(self._atexit_close)

    def _spawn(self, shard: int) -> tuple:
        """An unstarted shard process with a fresh request queue, result
        pipe and reply channels: ``(process, queue, result reader, reply
        readers, write ends)``; the caller closes the write ends once the
        process has started."""
        request_q = _RequestPipe(self._ctx)
        reader, writer = self._ctx.Pipe(duplex=False)
        replies = [self._ctx.Pipe(duplex=False) for _ in range(self._channels)]
        config = ShardConfig(
            shard_id=shard,
            store_dir=str(self.registry.store.directory),
            resident_budget=self.registry.resident_budget,
            heartbeat_interval=self._heartbeat_interval,
        )
        process = self._ctx.Process(
            target=_shard_main,
            args=(shard, request_q.reader, writer, [end for _, end in replies], config),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        writers = [writer, *(end for _, end in replies)]
        return process, request_q, reader, [end for end, _ in replies], writers

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

    # -- the sharded runner ------------------------------------------------

    def _route(self, request: QueryRequest) -> int:
        if request.op != "equivalent" and request.tree is not None:
            return zlib.crc32(request.tree.encode("utf-8")) % self.shards
        return next(self._rr) % self.shards

    def _resolve_tree(self, request: QueryRequest) -> tuple:
        """No tree in the parent: the owning shard resolves the document."""
        return None, None

    def _run(self, job, plan, tree, budget):
        """One attempt on the shard that owns the request, as a round trip.

        A shard that dies with the request outstanding (or before it is
        sent) is this worker's to handle: supervised, it waits for the
        respawn, bounded by the request's deadline and by shutdown, and
        re-sends; unsupervised, it raises :class:`ShardCrashedError`; once
        the restart budget is spent, :class:`ShardUnavailableError`.
        """
        shard = self._route(job.request)
        job.shard = shard
        while True:
            if self._failed[shard]:
                raise ShardUnavailableError(
                    f"shard {shard} exhausted its restart budget; trees "
                    "routed to it are unavailable until the service restarts"
                )
            if self._dead[shard]:
                if not self._supervised or self._closed:
                    raise self._crashed(shard)
                if job.deadline is not None and self._clock() >= job.deadline:
                    raise DeadlineExceededError(
                        f"deadline passed while shard {shard} restarted"
                    )
                time.sleep(0.01)  # the supervisor is (re)spawning it
                continue
            reply = self._send(shard, job)
            if reply is not None:
                break
        if reply[0] == "ok":
            return reply[1]
        _, cls, message = reply
        # Rebuilt without __init__ (StaleEpochError's does not take its own
        # message), so type, str() and exit code match the shard's error.
        raise cls.__new__(cls, message)

    def _send(self, shard: int, job):
        """Send one attempt to ``shard`` and read the reply on one of its
        reply channels; ``None`` when the shard died first.

        The worker that sends reads its own answer, so a round trip wakes
        no other parent thread.
        """
        payload = self._wire_payload(job)
        channel = self._free[shard].get()
        try:
            # The dead check and the reads of the request queue and the
            # channel's pipe are one critical section against a respawn,
            # which installs both before it clears _dead: the request goes
            # to the process that writes this pipe, or this sees it dead.
            with self._shard_lock:
                if self._dead[shard]:
                    return None
                request_q = self._request_qs[shard]
                reader = self._replies[shard][channel]
            try:
                request_q.put(("req", channel, payload))
            except Exception:
                self._mark_dead(shard, reader)
                return None
            try:
                return _read_reply(reader)
            except (EOFError, OSError):
                # The shard died with the request outstanding: the pipe's
                # only writer was the shard.
                self._mark_dead(shard, reader)
                return None
        finally:
            self._free[shard].put(channel)

    def _wire_payload(self, job) -> dict:
        """The request dict shipped to a shard, stamped at send time.

        The remaining timeout is refreshed (time already spent counts), the
        service's default step and node caps fill the request's gaps, and
        named-tree reads are stamped with the registry's *current* epoch as
        ``min_epoch`` — the freshness floor the shard must meet, and the
        epoch the result cache stamps the answer with.  The store already
        holds that generation (packed before publish), so a shard whose
        copy is older refreshes it instead of answering stale.
        """
        request = job.request
        payload = dict(vars(request))
        _, max_steps, max_nodes = self._defaults
        if request.max_steps is None:
            payload["max_steps"] = max_steps
        if request.max_nodes is None:
            payload["max_nodes"] = max_nodes
        if job.deadline is not None:
            payload["timeout"] = max(0.0, job.deadline - self._clock())
        if request.op != "equivalent" and request.tree is not None and request.xml is None:
            payload["min_epoch"] = job.epoch = max(
                request.min_epoch or 0, self.registry.epoch(request.tree)
            )
        return payload

    def _crashed(self, shard: int) -> ShardCrashedError:
        # The handle may be closed (already reaped), swapped by a respawn,
        # or never started — ``.exitcode`` raises ValueError on a closed
        # handle; report None rather than crash the worker.
        try:
            exitcode = self._processes[shard].exitcode
        except (ValueError, IndexError, AttributeError):
            exitcode = None
        return ShardCrashedError(
            f"shard {shard} died (exitcode {exitcode}) with the request outstanding"
        )

    def _finish(self, job, result) -> None:
        if job.shard is not None:
            result.worker = f"shard-{job.shard}/{result.worker}"
        super()._finish(job, result)

    # -- collector ---------------------------------------------------------

    def _collector_loop(self) -> None:
        """Multiplex every shard's private result pipe (heartbeats and
        stats) onto one thread.

        The poll selector is re-registered whenever ``_result_readers``
        changes, so a respawn's fresh pipe joins (and a retired one leaves)
        within one iteration.  EOF on a pipe — including the torn last frame of a
        shard SIGKILLed mid-send — is the fastest death signal we have
        for an idle shard (a busy one's death reaches the workers reading
        its reply channels as EOF too): the death is marked immediately
        instead of waiting for the next liveness poll.
        """
        selector = selectors.PollSelector()
        registered: dict = {}
        while True:
            with self._shard_lock:
                readers = {
                    conn: shard
                    for shard, conn in enumerate(self._result_readers)
                    if conn is not None
                }
            if readers.keys() != registered.keys():
                for conn in registered.keys() - readers.keys():
                    selector.unregister(conn)
                for conn in readers.keys() - registered.keys():
                    selector.register(conn, selectors.EVENT_READ)
                registered = readers
            try:
                ready = [key.fileobj for key, _ in selector.select(0.1)]
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
                    self._mark_dead(shard, conn)
                    continue
                kind = message[0]
                try:
                    if kind == "stats":
                        with self._stats_cond:
                            self._shard_deltas[message[1]] = message[3]
                            self._stats_tokens[message[1]] = message[2]
                            self._stats_cond.notify_all()
                    elif kind == "hb":
                        self._heartbeats[message[1]] = time.monotonic()
                except Exception:  # pragma: no cover - backstop; a dead
                    # collector would blind death detection and stats, so the
                    # loop survives anything one message's handling throws.
                    obs.counter("service_loop_errors_total", loop="collector").inc()

    def _check_shards(self) -> None:
        for shard, process in enumerate(self._processes):
            if not self._dead[shard]:
                try:
                    alive = process.is_alive()
                except ValueError:  # closed handle racing a respawn swap
                    continue
                if not alive:
                    self._mark_dead(shard, process)

    def _mark_dead(self, shard: int, seen=None) -> None:
        """Record a shard's death, ``seen`` through its process handle or
        one of its pipes.

        A handle or pipe of a generation a respawn has already replaced
        reports a death that was handled, so it changes nothing.  Workers
        waiting on the shard read EOF on their reply channels; the flag
        tells each to wait for the respawn and re-send, or raise (see
        :meth:`_run`).
        """
        with self._shard_lock:
            if seen is self._result_readers[shard]:
                self._result_readers[shard] = None  # retired until a respawn
            elif seen is not None and not (
                seen is self._processes[shard] or seen in self._replies[shard]
            ):
                return
            self._dead[shard] = True

    # -- supervision hook (called by ShardSupervisor) -----------------------

    def _respawn_shard(self, shard: int) -> float:
        """Replace a dead shard with a fresh process; seconds spent.

        The replacement reads trees from the store like any shard (stamped
        reads refresh anything published while it was down), so the only
        state to re-deliver is the tracked fault arms.
        """
        start = time.perf_counter()
        try:
            self._processes[shard].join(timeout=1.0)  # reap the zombie
        except Exception:  # pragma: no cover - closed handle
            pass
        # Fresh pipes too: the dead shard's may hold a torn frame, and
        # single-writer isolation is the whole point — the replacement
        # never shares an IPC lock with the corpse.
        process, request_q, reader, replies, writers = self._spawn(shard)
        process.start()
        for writer in writers:
            writer.close()
        # Re-arm tracked fault state at the originally requested counts
        # (fires already consumed by the dead shard are not subtracted),
        # ahead of any request.
        with self._fault_lock:
            arms = dict(self._fault_arms)
        for site, times in arms.items():
            request_q.put(("faults", site, times))
        self._heartbeats[shard] = time.monotonic()
        with self._shard_lock:
            self._processes[shard] = process
            self._request_qs[shard] = request_q
            self._result_readers[shard] = reader
            self._replies[shard] = replies
            self._dead[shard] = False
        return time.perf_counter() - start

    # -- chaos -------------------------------------------------------------

    def _broadcast(self, message) -> dict[int, bool]:
        """Put ``message`` on every live shard's queue; per-shard delivery."""
        outcome: dict[int, bool] = {}
        for shard, request_q in enumerate(self._request_qs):
            if self._dead[shard] or self._failed[shard]:
                outcome[shard] = False
                continue
            try:
                request_q.put(message)
            except Exception:  # pragma: no cover - racing a crash
                outcome[shard] = False
            else:
                outcome[shard] = True
        return outcome

    def arm_faults(self, site: str, times: int | None = None) -> dict[int, bool]:
        """Broadcast a fault arm to every shard; per-shard delivery outcome.

        Returns ``{shard: delivered}`` — ``False`` for shards that are
        dead, stopped, or failed (they never see the arm), so chaos soaks
        can assert fault state instead of guessing.  Arms are also tracked
        for the supervisor's re-arm-on-respawn: a replacement shard
        receives every tracked ``(site, times)`` at spawn.
        """
        with self._fault_lock:
            self._fault_arms[site] = times
        return self._broadcast(("faults", site, times))

    def disarm_faults(self, site: str | None = None) -> dict[int, bool]:
        """Broadcast a disarm (one site, or all); per-shard delivery outcome."""
        with self._fault_lock:
            if site is None:
                self._fault_arms.clear()
            else:
                self._fault_arms.pop(site, None)
        return self._broadcast(("disarm", site))

    # -- stats -------------------------------------------------------------

    def _shard_snapshots(self, timeout: float = 5.0) -> dict[int, dict]:
        """Every shard's registry delta, fresh from each live shard (one
        round trip each); the last ones received once the service stops."""
        if not self._closed:
            token = next(self._stats_token)
            sent = self._broadcast(("stats", token))
            live = [shard for shard, delivered in sent.items() if delivered]
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
            return dict(self._shard_deltas)

    def merged_registry(self) -> obs.MetricsRegistry:
        """Parent registry + every shard's delta, as one standalone registry."""
        deltas = self._shard_snapshots().values()
        return obs.registry_from_state(
            obs.merge_states(obs.REGISTRY.snapshot(), *deltas)
        )

    def stats_snapshot(self) -> dict:
        """The service's one ledger (``repro batch --stats``), taken after
        one round trip to each live shard."""
        self._shard_snapshots()
        return super().stats_snapshot()

    def metrics_snapshot(self) -> dict:
        """The merged metrics registry as ``repro-metrics/1`` JSON."""
        return self.merged_registry().to_json()

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admissions, stop shards, reap processes.  Idempotent.

        ``drain=True`` lets the core workers finish everything already
        admitted; ``drain=False`` sheds the queued remainder.  Workers and
        processes that outlive ``timeout`` (default: the construction-time
        ``shutdown_timeout``) are left behind and terminated, then killed —
        a deadlocked shard cannot hang its parent.
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
            # would resurrect a shard mid-shutdown.
            self._supervisor.stop()
        if kill:
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
        # The core stops its queue and joins its workers; one waiting on a
        # killed shard wakes to the crash (closed: no respawn is coming).
        super().shutdown(drain=drain, timeout=max(timeout, 1.0))
        if not kill:
            self._broadcast(("stop",))
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
        self._collector_stop = True
        self._collector.join(timeout=5.0)
        # Stopped shards are dead to any later round trip.
        for shard in range(self.shards):
            self._mark_dead(shard)
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
