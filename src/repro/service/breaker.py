"""Per-backend circuit breaker: closed → open → half-open → closed.

Retries handle *transient* fast-path failures; a breaker handles the
*persistent* ones.  If the bitset engine family serving a request class
fails ``failure_threshold`` times consecutively, the breaker **opens**:
requests stop touching the broken engine at all and route straight to the
row-wise oracle backend (correct, slower — the PR 3 degradation direction),
which both protects latency (no doomed attempt + retry storm per request)
and gives the fast path quiet time.  After ``cooldown`` seconds the breaker
goes **half-open** and admits exactly one *probe* request to the fast path:
success closes the breaker (normal routing resumes), failure re-opens it
and restarts the cooldown.

The state machine is driven entirely by its users' calls — there is no
timer thread.  :meth:`acquire` is the single routing decision point and
returns a route string rather than a bool so callers can distinguish the
probe (whose outcome *must* be reported back, or the probe handed back
with :meth:`cancel_probe` when no engine ran) from ordinary fast-path
traffic:

======================  ================================================
``"fast"``              closed; run the bitset engine, report the outcome
``"probe"``             half-open; as above, but this is the one probe
``"fallback"``          open (or a probe is already in flight); use the
                        oracle and do **not** report into the breaker
======================  ================================================

All methods are thread-safe; transition counts are exposed for the service
stats (``snapshot()``).
"""

from __future__ import annotations

import threading
import time

from .. import obs

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One engine family's health latch (see module docstring)."""

    def __init__(
        self,
        name: str = "",
        *,
        failure_threshold: int = 5,
        cooldown: float = 0.25,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown!r}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.open_count = 0
        self.recovery_count = 0

    # -- routing -----------------------------------------------------------

    def acquire(self) -> str:
        """The routing decision for one request: fast, probe, or fallback."""
        with self._lock:
            if self._state == CLOSED:
                return "fast"
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.cooldown:
                    self._state = HALF_OPEN
                    self._probe_in_flight = True
                    return "probe"
                return "fallback"
            # HALF_OPEN: one probe at a time; everyone else stays safe.
            if not self._probe_in_flight:
                self._probe_in_flight = True
                return "probe"
            return "fallback"

    # -- outcome reports (fast/probe routes only) --------------------------

    def record_success(self) -> None:
        with self._lock:
            recovered = self._state == HALF_OPEN
            if recovered:
                self.recovery_count += 1
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False
        if recovered:
            obs.counter(
                "breaker_transitions_total",
                breaker=self.name,
                transition="recovery",
            ).inc()

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                # The probe failed: back to open, restart the cooldown.
                self._trip_locked()
                return
            self._consecutive_failures += 1
            if self._state == CLOSED and (
                self._consecutive_failures >= self.failure_threshold
            ):
                self._trip_locked()

    def cancel_probe(self) -> None:
        """The probe never reached the engine: the next request probes."""
        with self._lock:
            self._probe_in_flight = False

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._probe_in_flight = False
        self._consecutive_failures = 0
        self.open_count += 1
        obs.counter(
            "breaker_transitions_total", breaker=self.name, transition="open"
        ).inc()

    # -- inspection --------------------------------------------------------

    @property
    def state(self) -> str:
        """The current state (open flips to half-open lazily on acquire)."""
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "open_count": self.open_count,
                "recovery_count": self.recovery_count,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"
