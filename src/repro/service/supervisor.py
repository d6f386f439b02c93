"""Self-healing for the shard pool: liveness, respawn, restart budgets.

:class:`ShardSupervisor` is a parent-side monitor thread attached to a
:class:`~repro.service.shards.ShardedQueryService` constructed with
``max_restarts``.  Each poll tick it:

* **detects death** — ``Process.is_alive()`` per shard, plus an optional
  heartbeat staleness check (shards emit ``("hb", shard)`` messages on their
  result pipe every ``heartbeat_interval``; a shard that is alive but
  silent past ``heartbeat_timeout`` is presumed hung and killed, which
  turns a livelock into the crash path the rest of the machinery handles);
* **respawns under a budget** — restarts are capped at ``max_restarts``
  per rolling ``window`` seconds per shard, with exponential backoff
  (``backoff_base * 2^k``, capped) between consecutive attempts, so a
  crash-looping shard cannot melt the host;
* **re-arms faults** — the replacement process reads trees from the
  service's store like any shard (stamped reads refresh whatever was
  published while it was down), so the only state it needs is the
  service's tracked fault arms, re-delivered at their originally requested
  counts (already-consumed fires on the dead shard are not subtracted);
* **degrades gracefully** — once the budget is exhausted the shard is
  marked *failed* (terminal): every request routed to it resolves with a
  structured :class:`~repro.runtime.errors.ShardUnavailableError` (exit
  code 10) instead of retrying forever.

The supervisor holds no requests.  A request in flight on a dying shard is
owned by the service worker reading its reply: the death closes that
reply channel, and the worker waits for the respawn (bounded by the
request's deadline and by shutdown) and re-sends — the caller sees one
slightly slower answer instead of a
:class:`~repro.runtime.errors.ShardCrashedError` — or, once the shard is
failed, raises the unavailability error.

Chaos hooks: the ``service.shard_kill`` fault site, checked once per poll
tick, SIGKILLs one live shard per armed fire — the soak arms it mid-burst
and asserts ``shard_restarts_total`` reconciles exactly with the injected
kills.  Metrics: ``shard_restarts_total{shard}`` and ``shard_resync_seconds``
(spawn + fault re-arm wall time).
"""

from __future__ import annotations

import threading
import time

from .. import obs
from ..runtime import faults
from ..runtime.errors import InjectedFaultError

__all__ = ["RestartBudget", "ShardSupervisor"]


class RestartBudget:
    """At most ``max_restarts`` restarts inside a rolling ``window`` seconds."""

    def __init__(self, max_restarts: int, window: float):
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts!r}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        self.max_restarts = max_restarts
        self.window = window
        self._times: list[float] = []

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        self._times = [stamp for stamp in self._times if stamp > cutoff]

    def allow(self, now: float) -> bool:
        """Whether one more restart fits the budget right now."""
        self._prune(now)
        return len(self._times) < self.max_restarts

    def record(self, now: float) -> None:
        self._prune(now)
        self._times.append(now)

    def spent(self, now: float) -> int:
        """Restarts currently counted against the window."""
        self._prune(now)
        return len(self._times)


class ShardSupervisor:
    """The monitor thread (see module docstring).  One per sharded service."""

    def __init__(
        self,
        service,
        *,
        max_restarts: int = 3,
        window: float = 30.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        poll_interval: float = 0.05,
        heartbeat_timeout: float | None = None,
        clock=time.monotonic,
    ):
        self._service = service
        self._poll = poll_interval
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._heartbeat_timeout = heartbeat_timeout
        self._clock = clock
        self._budgets = [RestartBudget(max_restarts, window) for _ in range(service.shards)]
        #: Restarts performed per shard (test/operator visibility).
        self.restart_counts = [0] * service.shards
        #: Shards killed through the ``service.shard_kill`` fault site.
        self.kills = 0
        self._eligible_at: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-shard-supervisor", daemon=True
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop monitoring (the service's shutdown path calls this first)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)

    # -- the monitor loop ------------------------------------------------------

    def _loop(self) -> None:
        service = self._service
        while not self._stop.wait(self._poll):
            if service._closed:
                return
            try:
                faults.check("service.shard_kill")
            except InjectedFaultError:
                self._inject_kill()
            for shard in range(service.shards):
                try:
                    self._tick_shard(shard)
                except Exception:  # pragma: no cover - the supervisor dying
                    # would silently disable self-healing; survive anything
                    # one shard's handling throws.
                    obs.counter("service_loop_errors_total", loop="supervisor").inc()

    def _tick_shard(self, shard: int) -> None:
        service = self._service
        if service._failed[shard]:
            return
        if not service._dead[shard]:
            self._check_liveness(shard)
            if not service._dead[shard]:
                return
        now = self._clock()
        if shard not in self._eligible_at:
            budget = self._budgets[shard]
            if not budget.allow(now):
                self._fail(shard)
                return
            delay = min(self._backoff_cap, self._backoff_base * (2 ** budget.spent(now)))
            budget.record(now)
            self._eligible_at[shard] = now + delay
        if now >= self._eligible_at[shard] and not service._closed:
            del self._eligible_at[shard]
            try:
                elapsed = service._respawn_shard(shard)
            except Exception:
                # Spawn itself failed (fd exhaustion, racing shutdown…):
                # leave the shard dead and retry after a full backoff —
                # the next death-detection pass re-enters the budget.
                self._eligible_at[shard] = self._clock() + self._backoff_cap
                return
            self.restart_counts[shard] += 1
            obs.counter("shard_restarts_total", shard=str(shard)).inc()
            obs.histogram("shard_resync_seconds").observe(elapsed)

    def _check_liveness(self, shard: int) -> None:
        service = self._service
        process = service._processes[shard]
        try:
            alive = process.is_alive()
        except ValueError:  # closed handle
            alive = False
        if not alive:
            service._mark_dead(shard, process)
            return
        if self._heartbeat_timeout is not None:
            last = service._heartbeats.get(shard)
            if last is not None and time.monotonic() - last > self._heartbeat_timeout:
                # Alive but silent: presumed hung.  Kill it and let the
                # next pass take the ordinary crash-and-respawn path.
                obs.counter("shard_hangs_total", shard=str(shard)).inc()
                try:
                    process.kill()
                except Exception:  # pragma: no cover - racing its own exit
                    pass

    def _inject_kill(self) -> None:
        """``service.shard_kill`` chaos: SIGKILL one live shard."""
        service = self._service
        for shard in range(service.shards):
            if service._dead[shard] or service._failed[shard]:
                continue
            try:
                process = service._processes[shard]
                process.kill()
                process.join(timeout=2.0)
            except Exception:  # pragma: no cover - racing its own exit
                pass
            self.kills += 1
            return

    def _fail(self, shard: int) -> None:
        """Budget exhausted: terminal degradation to ShardUnavailableError
        (the workers routing to the shard see the flag and raise it)."""
        self._service._failed[shard] = True
        self._eligible_at.pop(shard, None)
