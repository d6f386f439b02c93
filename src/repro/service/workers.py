"""The query service: one request pipeline for the threaded and sharded tiers.

:class:`QueryService` multiplexes many requests over a shared
:class:`~repro.service.api.TreeRegistry`.  The life of a request:

1. **Admission** (:meth:`QueryService.submit`, caller's thread) — the
   request is validated and stamped with an absolute deadline (its own
   ``timeout`` or the service default).  A read whose exact text was seen
   before is looked up in the result cache, and a stored value current
   for its tree resolves the handle right here (``routed="cache"``,
   ``worker="admission"``): no queue, no worker, no engine.  Everything
   else is enqueued on a bounded queue: ``mutate`` requests on the
   writer's, everything else on the workers'.
   ``queue_limit`` bounds each queue, so up to that many reads and as many
   writes wait at once, and writes run in order with each other but not
   with reads: a read may run before a write submitted ahead of it, even
   with one worker (a caller that needs the edit waits for its result).
   A full queue first sheds expired entries (each one resolves to
   a structured ``shed`` result — never a silent drop), then blocks the
   submitter (backpressure) or, non-blocking, raises
   :class:`~repro.runtime.errors.QueueFullError`.
2. **Dispatch** (worker thread; one writer thread applies every edit, in
   order, since edits serialize on the registry anyway) — a worker pops
   the request; if its deadline has already passed it is shed without
   touching an engine.  Otherwise the worker derives a per-request
   :class:`~repro.runtime.budget.ExecutionBudget` *from the admission-time
   deadline* (queue wait counts against the request, exactly as a caller
   experiences it) and parses the query text under that envelope.
3. **Execution** — eval, select and check run the bitset engines;
   ``equivalent`` runs the decision procedures, once per prepared plan:
   later requests get the memoized verdict.  The engine run itself is the
   service's *runner* (:meth:`QueryService._run`): here, one run of the
   prepared plan on the worker's thread; in
   :class:`~repro.service.shards.ShardedQueryService`, a round trip to the
   shard process that owns the document.  One rule covers every read: a
   transient :class:`~repro.runtime.errors.EngineFaultError`, whether it
   fired resolving the document or running the engine, is retried under
   the full-jitter :class:`~repro.service.retry.RetryPolicy` up to
   ``max_attempts`` in all; whatever outlasts the retries, and any other
   failure, resolves as a typed error with its exit code.  No second
   engine stands behind the first: the slow oracles (``sets``, ``table``)
   check the bitset engines in the tests and serve no request.  Everything above the runner — admission,
   deadlines, retries, the result cache, mutations and stats — is this one
   pipeline, for both tiers.
4. **Resolution** — exactly one :class:`~repro.service.api.QueryResult`
   per admitted request, always: the worker loop catches ``BaseException``
   around request processing, so even a service-layer bug resolves the
   request with a structured error instead of losing it.

Shutdown is graceful by default (:meth:`QueryService.shutdown` with
``drain=True``): the queue closes, workers finish everything already
queued, then exit.  ``drain=False`` sheds the un-run remainder — again as
structured results.  The service is a context manager; leaving the block
drains.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .. import obs
from ..runtime import faults
from ..runtime.budget import ExecutionBudget
from ..runtime.errors import (
    EXIT_CODES,
    DeadlineExceededError,
    EngineFaultError,
    ReproError,
    RequestShedError,
    ServiceClosedError,
    StaleEpochError,
    StoreCorruptError,
)
from .api import QueryRequest, QueryResult, TreePin, TreeRegistry, error_payload
from .cache import Flight, ResultCache
from .queue import BoundedRequestQueue
from .retry import RetryPolicy
from .stats import ServiceStats

__all__ = ["PendingResult", "QueryService"]

#: Epoch-lag histogram buckets: how many epochs behind a stamped read found
#: its tree after any refresh (0 = fresh; >0 only when the stamp runs ahead
#: of every published generation).
_EPOCH_LAG_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)

#: Set on a thread while it runs done-callbacks: a submit() made from one
#: is not answered at admission, so a client that submits its next request
#: from each callback never nests one callback inside another.
_in_callback = threading.local()

#: ``QueryService._tree_epoch`` for a read whose tree is older than its
#: ``min_epoch``: no cache entry answers it.
_BELOW_FLOOR = object()

#: Shared (per-alphabet) equivalence corpora; built once, read concurrently.
_corpus_cache: dict[tuple[str, ...], object] = {}
_corpus_lock = threading.Lock()


def _shared_corpus(alphabet: tuple[str, ...]):
    with _corpus_lock:
        corpus = _corpus_cache.get(alphabet)
        if corpus is None:
            from ..decision import standard_corpus

            corpus = standard_corpus(alphabet=alphabet)
            _corpus_cache[alphabet] = corpus
        return corpus


def _run_callback(callback, result) -> None:
    outer = getattr(_in_callback, "active", False)
    _in_callback.active = True
    try:
        callback(result)
    finally:
        _in_callback.active = outer


class PendingResult:
    """A one-shot, thread-safe slot for a request's eventual result."""

    __slots__ = ("_event", "_result", "_callbacks", "_lock")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: QueryResult | None = None
        self._callbacks: list = []
        self._lock = threading.Lock()

    def resolve(self, result: QueryResult) -> None:
        if self._event.is_set():  # pragma: no cover - defensive
            raise RuntimeError("result already resolved")
        with self._lock:
            self._result = result
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            _run_callback(callback, result)

    def add_done_callback(self, callback) -> None:
        """Invoke ``callback(result)`` once resolved (immediately if done).

        Callbacks run on the resolving thread — a service worker — or, when
        the result is already there (a hit answered inside ``submit()``),
        on the thread that adds them, which may be the submitting thread.
        Either way they must be quick and must not raise.  A ``submit()``
        made from a callback goes to a worker, so callbacks that submit
        never nest.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
            result = self._result
        _run_callback(callback, result)

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> QueryResult:
        if not self._event.wait(timeout):
            raise TimeoutError(f"no result within {timeout}s")
        assert self._result is not None
        return self._result


@dataclass
class _Job:
    """One admitted request and its bookkeeping."""

    request: QueryRequest
    deadline: float | None
    submitted_at: float
    pending: PendingResult = field(default_factory=PendingResult)
    #: The shard whose process ran the request (sharded tier only).
    shard: int | None = None
    #: The result cache key, set at admission from the second sighting of
    #: the request's text on (``None``: the read does not use the cache).
    key: tuple | None = None
    #: The tree epoch the answer is computed at: the pin's in-thread, the
    #: send-time stamp on the sharded tier (``None``: tree-independent).
    epoch: int | None = None


# -- per-operation runners --------------------------------------------------
#
# ``prepare(request)`` parses the request's query text once per process and
# distinct text (an LRU shared by every service in the process, and by a
# shard's evaluation loop) and returns a closure
# ``run(tree, budget) -> JSON-safe value``: the bitset engine for eval,
# select and check, the decision procedures for ``equivalent``.  Parse
# errors surface at prepare time and are charged to the request as input
# errors.
# Prepared runners close over parsed ASTs only (no per-request or per-tree
# state), so they are safe to share across requests and threads; compiled
# *plans* are cached structurally on the per-tree TreeIndex.  Runners carry
# the result cache's key material: ``run.expr`` (the parsed XPath AST for
# eval/select) and ``run.cache_text`` (a ready-made key for ops whose
# queries the canonicalizer does not cover; for eval/select, the canonical
# key of ``run.expr``, filled in by the first cached request).


def _parse_any(text: str):
    from ..xpath import XPathSyntaxError, parse_node, parse_path

    try:
        return parse_path(text)
    except XPathSyntaxError:
        return parse_node(text)


def _prepare_eval(request: QueryRequest):
    from ..xpath import BitsetEvaluator, parse_node
    from ..xpath.engine import to_ids

    expr = parse_node(request.query)

    def run(tree, budget):  # the sorted ids straight from the mask
        return to_ids(BitsetEvaluator(tree, budget=budget).node_mask(expr))

    run.expr = expr
    run.cache_text = None
    return run


def _prepare_select(request: QueryRequest):
    from ..xpath import BitsetEvaluator, parse_path
    from ..xpath.engine import to_ids

    expr = parse_path(request.query)

    def run(tree, budget):  # sources: the root's bit
        return to_ids(BitsetEvaluator(tree, budget=budget).image_mask(expr, 1))

    run.expr = expr
    run.cache_text = None
    return run


def _prepare_check(request: QueryRequest):
    from ..logic import parse_formula
    from ..logic.ast import free_variables
    from ..logic.modelcheck import ModelChecker

    formula = parse_formula(request.formula)
    free = tuple(sorted(free_variables(formula)))
    if len(free) > 2:
        raise ValueError(f"expected at most 2 free variables, got {free}")

    def run(tree, budget):
        checker = ModelChecker(tree, backend="bitset", budget=budget)
        if not free:
            return checker.holds(formula)
        if len(free) == 1:
            return sorted(checker.node_set(formula, free[0]))
        return [list(pair) for pair in sorted(checker.pairs(formula, free[0], free[1]))]

    run.expr = None
    # No canonicalizer for FO(MTC) yet: the raw formula text is the key
    # (still a win — the hot-set workload repeats formulas verbatim).
    run.cache_text = f"F:{request.formula}"
    return run


def _prepare_equivalent(request: QueryRequest):
    from ..trees import to_xml
    from ..xpath import ast as xp
    from ..xpath import is_downward

    left = _parse_any(request.left)
    right = _parse_any(request.right)
    if isinstance(left, xp.NodeExpr) != isinstance(right, xp.NodeExpr):
        raise ValueError("cannot compare a node query with a path query")
    alphabet = tuple(request.alphabet)
    node_sort = isinstance(left, xp.NodeExpr)

    def decide(budget) -> dict:
        from ..decision import (
            check_node_equivalence,
            check_path_equivalence,
            exact_equivalent,
            exact_path_equivalent,
        )

        if is_downward(left) and is_downward(right):
            exact = exact_equivalent if node_sort else exact_path_equivalent
            witness = exact(left, right, alphabet, budget)
            return {
                "equivalent": witness is None,
                "method": "exact",
                "witness": None if witness is None else to_xml(witness),
            }
        corpus = _shared_corpus(alphabet)
        compare = check_node_equivalence if node_sort else check_path_equivalence
        report = compare(left, right, corpus, budget)
        return {
            "equivalent": report.equivalent_on_corpus,
            "method": "corpus",
            "witness": (
                None
                if report.counterexample is None
                else str(report.counterexample)
            ),
        }

    # Both methods are deterministic in (left, right, alphabet), so the
    # first verdict is every later one's: it lives as long as this prepared
    # runner.  A budget or deadline error stores nothing, and two workers
    # racing on the first request both store the same verdict.
    verdict = None

    def run(tree, budget):
        nonlocal verdict
        if verdict is None:
            verdict = decide(budget)
        return dict(verdict)  # a copy: callers cannot edit a later answer

    run.expr = None
    # Equivalence answers are tree-independent (corpus/exact decision);
    # key on the normalized question.
    run.cache_text = f"E:{request.left}\x00{request.right}\x00{request.alphabet}"
    return run


_PREPARERS = {
    "eval": _prepare_eval,
    "select": _prepare_select,
    "check": _prepare_check,
    "equivalent": _prepare_equivalent,
}


class _PlanKey(NamedTuple):
    """The request fields a prepared runner depends on (the preparers read
    them by the same names as on :class:`QueryRequest`)."""

    op: str
    query: str | None
    formula: str | None
    left: str | None
    right: str | None
    alphabet: str


#: A request's ``_PlanKey`` fields as a plain tuple, read in one call: the
#: ``prepare`` LRU's key and, with the tree, the result cache's admission text.
_plan_fields = attrgetter(*_PlanKey._fields)


@lru_cache(maxsize=1024)
def _prepared(fields: tuple):
    key = _PlanKey._make(fields)
    return _PREPARERS[key.op](key)


def prepare(request: QueryRequest):
    """The prepared runner for ``request`` (parsed once per distinct text)."""
    return _prepared(_plan_fields(request))


def run_plan(plan, tree, budget):
    """One engine run of a prepared plan: the in-thread runner, and the
    body of a shard's attempt.

    ``service.worker`` fires here, at the start of every engine run, so an
    arm reaches the process whose engine runs.
    """
    faults.check("service.worker")
    return plan(tree, budget)


def resolve_tree(registry: TreeRegistry, request: QueryRequest) -> tuple:
    """The request's document as ``(tree, pin)``.

    Named trees are *pinned* — the worker holds an atomic ``(tree, epoch)``
    snapshot for the request's whole execution, so a concurrent mutation
    never tears its view.  A snapshot older than a positive ``min_epoch`` (a
    client's freshness floor, or the sharded tier's send-time stamp) is
    refreshed once: with a store attached, the copy is dropped and the
    current generation reloaded, which is how a shard catches up with its
    parent's mutations (the parent packs each generation before publishing
    its epoch, so a load begun after the stamp sees at least the stamped
    one).  A snapshot still older raises :class:`StaleEpochError`, the
    structured retryable signal.
    """
    if request.op == "equivalent":
        return None, None
    if request.xml is not None:
        from ..trees import parse_xml

        return parse_xml(request.xml), None
    try:
        pin = registry.pin(request.tree)
        if request.min_epoch and pin.epoch < request.min_epoch:
            pin.release()
            registry.refresh(request.tree, request.min_epoch)
            pin = registry.pin(request.tree)
    except ValueError:
        if request.min_epoch:
            # Someone has seen this epoch published, so the tree exists
            # upstream and has not reached us yet: retryable staleness.
            # A floor of 0 demands nothing — that miss is "unknown tree".
            raise StaleEpochError(request.tree, 0, request.min_epoch)
        raise
    if request.min_epoch is not None:
        lag = request.min_epoch - pin.epoch
        obs.histogram("tree_epoch_lag", buckets=_EPOCH_LAG_BUCKETS).observe(
            float(max(0, lag))
        )
        if lag > 0:
            pin.release()
            raise StaleEpochError(request.tree, pin.epoch, request.min_epoch)
    return pin.tree, pin


class QueryService:
    """A pool of workers serving queries over a tree registry (see above)."""

    def __init__(
        self,
        registry: TreeRegistry | None = None,
        *,
        workers: int = 4,
        queue_limit: int = 64,
        retry: RetryPolicy | None = None,
        default_timeout: float | None = None,
        default_max_steps: int | None = None,
        default_max_nodes: int | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        _result_cache: bool = True,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.registry = registry if registry is not None else TreeRegistry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = ServiceStats()
        # Finished ok values, cross-request, under canonical keys.  The
        # private ``_result_cache=False`` builds a service in which every
        # read reaches an engine: for gates that price the engine path and
        # for engine-fault tests, never for serving.
        self.result_cache: ResultCache | None = (
            ResultCache() if _result_cache else None
        )
        if self.result_cache is not None:
            # Re-registering a tree bumps its epoch and drops its entries.
            self.registry.subscribe(self.result_cache.invalidate)
        self._clock = clock
        self._sleep = sleep
        self._queue = BoundedRequestQueue(
            queue_limit,
            clock=clock,
            depth_gauge=obs.gauge("service_queue_depth", service=self.stats.service),
        )
        self._defaults = (default_timeout, default_max_steps, default_max_nodes)
        self._closed = False
        self._lifecycle = threading.Lock()
        # Writes serialize on the registry's mutation lock, so one writer
        # thread takes them, in order, from a queue of their own: a second
        # worker would only wait on that lock and contend for the GIL with
        # the writer holding it (DESIGN "Service architecture").
        self._writes = BoundedRequestQueue(
            queue_limit,
            clock=clock,
            depth_gauge=obs.gauge(
                "service_queue_depth", service=self.stats.service, lane="writes"
            ),
        )
        lanes = [(self._queue, f"worker-{i}") for i in range(workers)]
        lanes.append((self._writes, "writer"))
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-{name}",
                args=(queue, name, random.Random(2008 + i)),
                daemon=True,
            )
            for i, (queue, name) in enumerate(lanes)
        ]
        for thread in self._threads:
            thread.start()

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        request: QueryRequest,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> PendingResult:
        """Admit one request; returns the handle its result will arrive on.

        Structural problems with the request itself (unknown op, missing
        fields) resolve the handle immediately with an ``error`` result —
        the exception surface is reserved for *service* conditions
        (:class:`ServiceClosedError`, and :class:`QueueFullError` on
        non-blocking submission against a full queue).  A repeated read
        whose answer is in the result cache resolves before this returns
        (see :meth:`_admit`).
        """
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        tracer = obs.current_tracer()
        started = tracer.clock() if tracer is not None else 0.0
        now = self._clock()
        default_timeout = self._defaults[0]
        per_request = request.timeout if request.timeout is not None else default_timeout
        job = _Job(
            request,
            None if per_request is None else now + per_request,
            now,
        )
        self.stats.record_submitted()
        try:
            request.validate()
        except ValueError as exc:
            self._finish(job, self._error_result(job, exc, worker="admission"))
            return job.pending
        if request.op == "mutate":
            queue = self._writes
        else:
            queue = self._queue
            if self.result_cache is not None and self._admit(job):
                if tracer is not None:
                    # Opened after the fact: a miss goes on to a worker,
                    # whose queue-wait span already covers this path.
                    tracer.record(
                        "service.request",
                        wall=tracer.clock() - started,
                        op=request.op,
                        worker="admission",
                        status="ok",
                        routed="cache",
                    )
                return job.pending
        for expired in queue.put(job, block=block, timeout=timeout):
            self._shed(expired, "deadline passed while queued")
        return job.pending

    def _admit(self, job: _Job) -> bool:
        """Answer a repeated read from the result cache on this thread.

        True when ``job`` resolved here.  Otherwise it goes to a worker:
        a first sighting of its text, an expired deadline, inline ``xml``
        or a query that does not parse, with no key; a miss, a key in
        flight, an entry from another tree epoch or a read submitted from
        a done-callback, with its key.  A hit runs no engine, so the
        request's step and node caps do not apply to it.
        """
        request = job.request
        if request.xml is not None or (
            job.deadline is not None and job.submitted_at >= job.deadline
        ):
            return False
        cache = self.result_cache
        fields = _plan_fields(request)
        if not cache.admit((request.tree, fields)):
            return False
        try:
            plan = _prepared(fields)
        except Exception:  # the worker parses it again and reports it
            return False
        key = job.key = self._cache_key(request, plan)
        if getattr(_in_callback, "active", False):
            return False  # a hit here would nest its callbacks in this one
        epoch = self._tree_epoch(request)
        if epoch is _BELOW_FLOOR:
            return False
        value = cache.lookup(key, epoch)
        if Flight.is_miss(value):
            return False
        self._finish(
            job,
            self._ok_result(job, value, worker="admission", retries=0, routed="cache"),
        )
        return True

    def _tree_epoch(self, request: QueryRequest):
        """The epoch a cache entry must carry to answer ``request``: its
        tree's current one (``None`` for ``equivalent``, whose answer
        depends on no tree), or ``_BELOW_FLOOR`` when that is older than
        the request's ``min_epoch`` and the cache is not consulted (the
        worker refreshes the tree or reports it stale)."""
        if request.op == "equivalent":
            return None
        epoch = self.registry.epoch(request.tree)
        if request.min_epoch and epoch < request.min_epoch:
            return _BELOW_FLOOR
        return epoch

    def run_batch(self, requests) -> list[QueryResult]:
        """Submit every request (blocking) and wait; results in input order."""
        handles = [self.submit(request) for request in requests]
        return [handle.result() for handle in handles]

    def map_stream(self, requests):
        """Lazily submit a request stream, yielding results in input order.

        Submission runs ahead of consumption only as far as the bounded
        queue allows, so an unbounded stream gets natural backpressure.
        """
        pending: deque[PendingResult] = deque()
        for request in requests:
            pending.append(self.submit(request))
            while pending and pending[0].done():
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admissions and wind the pool down.

        ``drain=True`` (the default, and what ``with QueryService(...)``
        does) lets workers finish everything already queued; ``drain=False``
        sheds the un-run remainder with structured results.  ``timeout``
        bounds the wait for the whole pool.  Idempotent.
        """
        with self._lifecycle:
            self._closed = True
        for queue in (self._queue, self._writes):
            queue.close()
            if not drain:
                for job in queue.drain():
                    self._shed(job, "service shut down before execution")
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            thread.join(timeout)

    def close(self) -> None:
        """Non-graceful shutdown: shed the un-run remainder immediately."""
        self.shutdown(drain=False)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    def stats_snapshot(self) -> dict:
        snapshot = self.stats.snapshot()
        if self.result_cache is not None:
            snapshot["result_cache"] = self.result_cache.snapshot()
        return snapshot

    # -- worker side -------------------------------------------------------

    def _worker_loop(self, queue, name: str, rng: random.Random) -> None:
        while True:
            job = queue.get()
            if job is None:
                return
            with obs.span(
                "service.request", op=job.request.op, worker=name
            ) as span:
                tracer = obs.current_tracer()
                if tracer is not None:
                    # Queue wait starts on the submitter's thread, so a
                    # context manager cannot bracket it; attach the already-
                    # elapsed duration as a closed child span.
                    tracer.record(
                        "service.queue.wait",
                        wall=self._clock() - job.submitted_at,
                    )
                try:
                    result = self._process(job, name, rng)
                except BaseException as exc:  # the no-lost-requests backstop
                    result = self._error_result(job, exc, worker=name)
                span.set(status=result.status, routed=result.routed)
            self._finish(job, result)

    def _process(self, job: _Job, worker: str, rng: random.Random) -> QueryResult:
        now = self._clock()
        if job.deadline is not None and now >= job.deadline:
            return self._shed_result(job, "deadline passed while queued", worker)
        request = job.request
        _, default_steps, default_nodes = self._defaults
        max_steps = request.max_steps if request.max_steps is not None else default_steps
        max_nodes = request.max_nodes if request.max_nodes is not None else default_nodes
        budget = None
        if job.deadline is not None or max_steps is not None or max_nodes is not None:
            budget = ExecutionBudget.from_deadline(
                job.deadline, max_steps, max_nodes, clock=self._clock
            )
        if request.op == "mutate":
            return self._mutate(job, budget, worker, rng)
        retries = 0
        while True:
            pin = None
            try:
                tree, pin = self._resolve_tree(request)
                plan = prepare(request)
                return self._execute(job, plan, tree, budget, worker, pin, retries)
            except EngineFaultError as exc:
                # A transient fault — an armed engine, ``service.worker`` or
                # ``store.load`` site — is retried: a failed load published
                # nothing, and a failed leader abandoned its cache flight.
                # A stale epoch is not, because retrying here cannot cure it.
                if (
                    isinstance(exc, StaleEpochError)
                    or retries + 1 >= self.retry.max_attempts
                ):
                    return self._error_result(job, exc, worker=worker, retries=retries)
            except (ValueError, TypeError, StoreCorruptError) as exc:
                # Input errors and corrupt files: no engine ran.
                return self._error_result(job, exc, worker=worker, retries=retries)
            finally:
                if pin is not None:
                    pin.release()
            retries += 1
            self._backoff(retries, budget, rng)

    def _resolve_tree(self, request: QueryRequest) -> tuple:
        """The request's document as ``(tree, pin)`` (see :func:`resolve_tree`)."""
        return resolve_tree(self.registry, request)

    def _backoff(self, attempt: int, budget, rng: random.Random) -> None:
        """Sleep the retry policy's jittered delay, never past the deadline."""
        delay = self.retry.delay(attempt, rng)
        if budget is not None and budget.remaining_time is not None:
            delay = min(delay, max(0.0, budget.remaining_time))
        if delay > 0:
            with obs.span("service.retry.backoff", delay=delay):
                self._sleep(delay)

    def _mutate(self, job: _Job, budget, worker: str, rng: random.Random) -> QueryResult:
        """Apply one live-document edit, with transient-fault retries.

        Mutations bypass the result cache — nothing is cacheable — but keep
        the retry policy: an injected (or real) :class:`EngineFaultError` at
        the ``trees.mutate`` boundary is transient by contract, and the
        registry's mutation lock guarantees a failed attempt published
        nothing, so re-applying is safe.
        """
        from ..trees.mutate import edit_from_json

        request = job.request
        try:
            edit = edit_from_json(request.edit)
        except (ValueError, TypeError) as exc:
            return self._error_result(job, exc, worker=worker)
        attempts = 0
        retries = 0
        while True:
            attempts += 1
            if (
                budget is not None
                and budget.remaining_time is not None
                and budget.remaining_time <= 0
            ):
                exc: BaseException = DeadlineExceededError(
                    f"deadline passed before mutation of {request.tree!r} applied"
                )
                return self._error_result(job, exc, worker=worker, retries=retries)
            try:
                with obs.span(
                    "service.mutate", tree=request.tree, attempt=attempts
                ):
                    new_tree, epoch = self.registry.mutate(request.tree, edit)
            except (ValueError, TypeError, OSError) as exc:
                # Bad edits, and a store that failed to pack the new
                # generation: neither is transient by contract.
                return self._error_result(job, exc, worker=worker, retries=retries)
            except EngineFaultError as exc:
                if attempts < self.retry.max_attempts:
                    self._backoff(attempts, budget, rng)
                    retries += 1
                    continue
                return self._error_result(job, exc, worker=worker, retries=retries)
            return self._ok_result(
                job,
                {
                    "tree": request.tree,
                    "epoch": epoch,
                    "kind": edit.kind,
                    "size": new_tree.size,
                },
                worker=worker,
                retries=retries,
                routed="mutate",
            )

    def _execute(
        self, job, plan, tree, budget, worker, pin: TreePin | None, retries: int
    ) -> QueryResult:
        """One attempt at a read, through the result cache.

        A request admitted with a cache key collapses with every other
        request for that key at the same tree epoch: a stored value is
        served directly (``routed="cache"``), concurrent identical requests
        single-flight behind a leader, and a leader whose attempt fails
        abandons the flight so followers evaluate independently (a transient
        fault never fans out through the cache).  The epoch is the pin's
        in-thread; on the sharded tier, which pins nothing here, the
        registry's current one.  ``retries`` counts the attempts this read
        has already spent.
        """
        cache = self.result_cache
        key = job.key
        if cache is None or key is None:
            return self._attempt(job, plan, tree, budget, worker, retries)
        request = job.request
        if pin is not None:
            epoch = job.epoch = pin.epoch
        else:
            epoch = self._tree_epoch(request)
            if epoch is _BELOW_FLOOR:
                return self._attempt(job, plan, tree, budget, worker, retries)
        kind, payload = cache.begin(key, request.tree or "", epoch=epoch)
        if kind == "hit":
            return self._ok_result(
                job, payload, worker=worker, retries=retries, routed="cache"
            )
        if kind == "leader":
            flight = payload
            settled = False
            try:
                result = self._attempt(job, plan, tree, budget, worker, retries)
                # Store only if the tree is still at the pinned epoch: a
                # mutation landing between pin and cache.begin() would
                # otherwise let this pre-edit value slip in under the
                # post-edit epoch (cache.complete's own epoch check only
                # covers mutations after begin()).
                if result.status == "ok" and (
                    pin is None or self.registry.epoch(pin.name) == pin.epoch
                ):
                    cache.complete(flight, result.value, epoch=job.epoch)
                    settled = True
                return result
            finally:
                if not settled:
                    cache.abandon(flight)
        # Follower: wait for a leader at our epoch (bounded by our own
        # deadline), then either reuse its published value or evaluate
        # independently.
        flight = payload
        if flight.stamp == epoch:
            timeout = budget.remaining_time if budget is not None else None
            value = flight.wait(timeout)
            if not Flight.is_miss(value) and flight.stamp == epoch:
                cache.record_follower_reuse()
                return self._ok_result(
                    job, value, worker=worker, retries=retries, routed="cache"
                )
        return self._attempt(job, plan, tree, budget, worker, retries)

    def _cache_key(self, request: QueryRequest, plan) -> tuple:
        """The result cache key for ``request``: op, tree and query key."""
        text = plan.cache_text
        if text is None:
            from ..xpath.optimizer import canonical_key

            # Once per prepared runner; racing workers store the same key.
            text = plan.cache_text = canonical_key(plan.expr)
        return (request.op, request.tree or "", text)

    def _attempt(self, job, plan, tree, budget, worker, retries: int) -> QueryResult:
        """One engine run: the answer, or a typed error.

        An :class:`EngineFaultError` propagates, for :meth:`_process` to
        retry.  Every other failure resolves here and is never retried:
        budgets, deadlines, input errors and the service's own errors (a
        dead shard, a corrupt file) with their codes, and an engine bug —
        any other exception — with the engine code, 8, under its own class
        name.  No other engine remains to answer it.
        """
        try:
            with obs.span("service.attempt", budget=budget, attempt=retries + 1):
                value = self._run(job, plan, tree, budget)
        except EngineFaultError:
            raise
        except (ReproError, OSError, ValueError, TypeError) as exc:
            return self._error_result(job, exc, worker=worker, retries=retries)
        except Exception as exc:
            return self._error_result(
                job, exc, worker=worker, retries=retries, exit_code=EXIT_CODES["engine"]
            )
        routed = "decision" if job.request.op == "equivalent" else "bitset"
        return self._ok_result(job, value, worker=worker, retries=retries, routed=routed)

    def _run(self, job: _Job, plan, tree, budget):
        """The runner: one engine run of ``plan`` on this thread.

        The sharded tier overrides this with a round trip to the shard that
        owns the document.
        """
        return run_plan(plan, tree, budget)

    # -- result shaping ----------------------------------------------------

    def _finish(self, job: _Job, result: QueryResult) -> None:
        # Stats first, then resolve: resolution runs done-callbacks, and
        # anyone who has *seen* the result must find it already counted in
        # a snapshot.
        self.stats.record_result(result)
        job.pending.resolve(result)

    def _shed(self, job: _Job, reason: str) -> None:
        self._finish(job, self._shed_result(job, reason, worker="queue"))

    def _shed_result(self, job: _Job, reason: str, worker: str) -> QueryResult:
        waited = self._clock() - job.submitted_at
        exc = RequestShedError(f"{reason} (waited {waited:.3f}s)")
        return QueryResult(
            id=job.request.id,
            op=job.request.op,
            status="shed",
            error=error_payload(exc),
            routed="none",
            latency=waited,
            worker=worker,
        )

    def _error_result(
        self,
        job: _Job,
        exc: BaseException,
        *,
        worker: str,
        retries: int = 0,
        exit_code: int | None = None,
    ) -> QueryResult:
        return QueryResult(
            id=job.request.id,
            op=job.request.op,
            status="error",
            error=error_payload(exc, exit_code),
            retries=retries,
            routed="none",
            latency=self._clock() - job.submitted_at,
            worker=worker,
        )

    def _ok_result(
        self,
        job: _Job,
        value,
        *,
        worker: str,
        retries: int,
        routed: str,
    ) -> QueryResult:
        return QueryResult(
            id=job.request.id,
            op=job.request.op,
            status="ok",
            value=value,
            retries=retries,
            routed=routed,
            latency=self._clock() - job.submitted_at,
            worker=worker,
        )
