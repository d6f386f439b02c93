"""repro.service — the concurrent query-serving subsystem.

Everything below :mod:`repro.service` exists to turn the single-call
engines (XPath evaluation, FO(MTC) model checking, equivalence decision)
into a *workload* surface: many requests, shared documents, bounded
resources, and structured outcomes even when individual runs fail.  A run
that fails ends in a typed error with its exit code, after retries when
the fault is transient.  The subsystem is built on the governance
primitives of :mod:`repro.runtime` (budgets, the error taxonomy, fault
injection).

The pieces, each in its own module:

* :class:`QueryRequest` / :class:`QueryResult` / :class:`TreeRegistry`
  (:mod:`~repro.service.api`) — the wire surface;
* :class:`BoundedRequestQueue` (:mod:`~repro.service.queue`) —
  backpressure and deadline-aware load shedding;
* :class:`RetryPolicy` (:mod:`~repro.service.retry`) — exponential
  backoff with full jitter for transient engine faults;
* :class:`ResultCache` (:mod:`~repro.service.cache`) — every service's
  cross-request result cache (second-sighting admission, hits answered
  inside ``submit()``, LRU + per-tree epochs + single-flight), keyed on
  canonical query forms (:func:`repro.xpath.optimizer.canonical_key`);
* :class:`ServiceStats` (:mod:`~repro.service.stats`) — aggregate
  telemetry;
* :class:`QueryService` (:mod:`~repro.service.workers`) — the worker
  pool tying it together;
* :class:`ShardedQueryService` (:mod:`~repro.service.shards`) — the
  multiprocess tier: a :class:`QueryService` whose engine runs in shard
  processes that load trees read-only from the registry's store (a
  scratch one on tmpfs when it has none) and only evaluate (pass
  ``--shards`` to ``repro batch``);
* :class:`ShardSupervisor` (:mod:`~repro.service.supervisor`) — parent-
  side self-healing for the shard pool: liveness/heartbeat detection,
  budgeted exponential-backoff respawn with fault re-arming, and terminal
  :class:`~repro.runtime.errors.ShardUnavailableError` degradation
  (enabled with ``max_restarts=N``; pair with a
  :class:`~repro.trees.wal.WriteAheadLog` on the registry for durable
  mutations and ``repro recover``).

Quickstart::

    from repro import parse_xml
    from repro.service import QueryRequest, QueryService, TreeRegistry

    registry = TreeRegistry()
    registry.register("doc", parse_xml("<a><b/><c><b/></c></a>"))
    with QueryService(registry, workers=4) as service:
        results = service.run_batch([
            QueryRequest(op="eval", query="<descendant[b]>", tree="doc"),
            QueryRequest(op="check", formula="exists x. b(x)", tree="doc"),
        ])

The CLI exposes the same machinery as ``repro batch`` (JSONL in, JSONL
out; see :mod:`repro.cli`).
"""

from .api import OPS, QueryRequest, QueryResult, TreePin, TreeRegistry
from .cache import ResultCache
from .queue import BoundedRequestQueue
from .retry import RetryPolicy
from .shards import ShardedQueryService
from .stats import ServiceStats
from .supervisor import RestartBudget, ShardSupervisor
from .workers import PendingResult, QueryService

__all__ = [
    "OPS",
    "BoundedRequestQueue",
    "PendingResult",
    "QueryRequest",
    "QueryResult",
    "QueryService",
    "RestartBudget",
    "ResultCache",
    "RetryPolicy",
    "ServiceStats",
    "ShardSupervisor",
    "ShardedQueryService",
    "TreePin",
    "TreeRegistry",
]
