"""Aggregate service telemetry: counters and latency percentiles.

One :class:`ServiceStats` instance per service, but the numbers themselves
live in the process-wide :data:`repro.obs.REGISTRY` as labelled instruments
(``service_submitted_total{service=svc3}``, ...): each instance tags its
series with a unique ``service`` label, so per-service snapshots stay exact
while ``REGISTRY.total("service_submitted_total")`` reconciles across every
service in the process (the chaos soak asserts this equals the request
count).  All mutation goes through the instruments' own locks, so workers
recording concurrently never lose increments.

Counters follow the request lifecycle — every admitted request increments
``submitted`` and exactly one of ``ok`` / ``errors`` / ``shed`` (the
zero-lost invariant is checkable as ``submitted == ok + errors + shed``
after drain); ``retries`` counts events, not requests, so it can exceed
``submitted``.  The snapshot's ``fallbacks`` is always 0: no second engine
answers a failed read (the key stays for readers of the ledger).

Latencies are recorded per completed request (sheds too — their latency is
pure queue wait) into a fixed-bucket histogram and summarized as p50/p90 in
:meth:`snapshot`, matching the committed-benchmark schema's percentile
choice (the histogram percentiles are upper bounds, clamped to the observed
maximum).  The snapshot reads only this service's own series, never another
service's in the same process.

There is one ledger per service, whichever tier: a sharded service counts
each request once, in the parent, because its shard processes run no
service and record no ``service_*`` series.
"""

from __future__ import annotations

import itertools

from .. import obs

__all__ = ["ServiceStats"]

#: Distinguishes the instruments of concurrently live services.
_service_ids = itertools.count()


class ServiceStats:
    """Registry-backed aggregate counters for one service (see above)."""

    def __init__(
        self,
        registry: obs.MetricsRegistry | None = None,
        service: str | None = None,
    ) -> None:
        self.registry = registry if registry is not None else obs.REGISTRY
        self.service = (
            service if service is not None else f"svc{next(_service_ids)}"
        )
        reg, svc = self.registry, self.service
        self._submitted = reg.counter("service_submitted_total", service=svc)
        self._ok = reg.counter("service_results_total", service=svc, status="ok")
        self._errors = reg.counter(
            "service_results_total", service=svc, status="error"
        )
        self._shed = reg.counter(
            "service_results_total", service=svc, status="shed"
        )
        self._retries = reg.counter("service_retries_total", service=svc)
        self._latency = reg.histogram("service_latency_seconds", service=svc)

    # -- recording ---------------------------------------------------------

    def record_submitted(self, count: int = 1) -> None:
        self._submitted.inc(count)

    def record_result(self, result) -> None:
        """Fold one finished :class:`~repro.service.api.QueryResult` in."""
        if result.status == "ok":
            self._ok.inc()
        elif result.status == "shed":
            self._shed.inc()
        else:
            self._errors.inc()
        if result.retries:
            self._retries.inc(result.retries)
        self._latency.observe(result.latency)

    # -- reading -----------------------------------------------------------

    @property
    def submitted(self) -> int:
        return self._submitted.value

    @property
    def ok(self) -> int:
        return self._ok.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def shed(self) -> int:
        return self._shed.value

    @property
    def retries(self) -> int:
        return self._retries.value

    @property
    def completed(self) -> int:
        return self.ok + self.errors + self.shed

    def snapshot(self) -> dict:
        """A JSON-safe view (what ``repro batch --stats`` prints)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "ok": self.ok,
            "errors": self.errors,
            "shed": self.shed,
            "retries": self.retries,
            "fallbacks": 0,
            "latency_p50": round(self._latency.percentile(0.50), 6),
            "latency_p90": round(self._latency.percentile(0.90), 6),
        }
