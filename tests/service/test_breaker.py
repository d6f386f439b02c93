"""Circuit breaker: closed → open → half-open → closed, unit and in vivo.

The unit half drives the state machine directly on a fake clock; the
integration half routes real requests through a QueryService while the
fault-injection registry breaks the bitset engines, covering the exact
transition sequence the ISSUE names — including the half-open recovery
probe succeeding (close) and failing (re-open).
"""

import pytest

from repro.runtime import faults
from repro.service import CircuitBreaker, QueryRequest, QueryService, RetryPolicy, TreeRegistry
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.trees import chain


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker("test", failure_threshold=3, cooldown=1.0, clock=clock)


class TestStateMachine:
    def test_starts_closed_and_routes_fast(self, breaker):
        assert breaker.state == CLOSED
        assert breaker.acquire() == "fast"

    def test_failures_below_threshold_stay_closed(self, breaker):
        for _ in range(2):
            breaker.acquire()
            breaker.record_failure()
        assert breaker.state == CLOSED

    def test_success_resets_the_consecutive_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never 3 consecutive

    def test_threshold_consecutive_failures_open(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.open_count == 1
        assert breaker.acquire() == "fallback"

    def test_cooldown_grants_a_single_probe(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.acquire() == "probe"
        assert breaker.state == HALF_OPEN
        # While the probe is in flight everyone else falls back.
        assert breaker.acquire() == "fallback"
        assert breaker.acquire() == "fallback"

    def test_probe_success_closes(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.acquire() == "probe"
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.recovery_count == 1
        assert breaker.acquire() == "fast"

    def test_probe_failure_reopens_with_fresh_cooldown(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.acquire() == "probe"
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.open_count == 2
        # Not yet: the cooldown restarted at the probe failure.
        clock.advance(0.5)
        assert breaker.acquire() == "fallback"
        clock.advance(0.6)
        assert breaker.acquire() == "probe"

    def test_cancelled_probe_lets_the_next_request_probe(self, breaker, clock):
        # A probe whose request never reached the engine (its shard died)
        # reports nothing; handing it back must not wedge the half-open state.
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.acquire() == "probe"
        breaker.cancel_probe()
        assert breaker.state == HALF_OPEN
        assert breaker.acquire() == "probe"

    def test_threshold_one_opens_immediately(self, clock):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_snapshot_shape(self, breaker):
        snap = breaker.snapshot()
        assert snap == {
            "state": CLOSED,
            "consecutive_failures": 0,
            "open_count": 0,
            "recovery_count": 0,
        }

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0, clock=clock)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0, clock=clock)


@pytest.fixture()
def service():
    registry = TreeRegistry()
    registry.register("doc", chain(32, labels=("a", "b")))
    svc = QueryService(
        registry,
        workers=1,  # serial routing makes the transition sequence deterministic
        retry=RetryPolicy(max_attempts=1),  # isolate the breaker from retries
        breaker_threshold=3,
        breaker_cooldown=0.05,
        _result_cache=False,  # every request must reach the faulted engine
    )
    yield svc
    svc.shutdown()


def _eval_request():
    return QueryRequest(op="eval", query="<descendant[b]>", tree="doc")


class TestBreakerUnderInjectedFaults:
    def test_full_cycle_closed_open_halfopen_closed(self, service):
        breaker = service.breakers["xpath"]

        # Phase 1: persistent bitset faults → threshold failures → open.
        with faults.scoped("xpath.bitset"):
            results = service.run_batch([_eval_request() for _ in range(4)])
        assert breaker.snapshot()["state"] == OPEN
        assert breaker.open_count == 1
        # Every request still produced a correct answer via the oracle.
        assert all(r.status == "ok" for r in results)
        assert {tuple(r.value) for r in results} == {tuple(results[0].value)}
        # Once open, requests route around the broken engine.
        assert results[-1].routed == "oracle"

        # Phase 2: faults cleared, cooldown passes → probe → closed.
        import time

        time.sleep(0.06)
        probe = service.run_batch([_eval_request()])[0]
        assert probe.status == "ok"
        assert probe.routed == "bitset"  # the probe itself ran the fast path
        assert breaker.snapshot()["state"] == CLOSED
        assert breaker.recovery_count == 1

    def test_failed_probe_reopens(self, service):
        breaker = service.breakers["xpath"]
        with faults.scoped("xpath.bitset"):
            service.run_batch([_eval_request() for _ in range(3)])
            assert breaker.snapshot()["state"] == OPEN
            import time

            time.sleep(0.06)
            # Probe runs with the fault still armed: fails, re-opens.
            result = service.run_batch([_eval_request()])[0]
        assert result.status == "ok"  # served by the oracle fallback
        assert breaker.snapshot()["state"] == OPEN
        assert breaker.open_count == 2
        assert breaker.recovery_count == 0

    def test_logic_breaker_is_independent(self, service):
        with faults.scoped("xpath.bitset"):
            service.run_batch([_eval_request() for _ in range(3)])
        assert service.breakers["xpath"].snapshot()["state"] == OPEN
        assert service.breakers["logic"].snapshot()["state"] == CLOSED
        check = service.run_batch(
            [QueryRequest(op="check", formula="exists x. b(x)", tree="doc")]
        )[0]
        assert check.status == "ok"
        assert check.routed == "bitset"  # logic family unaffected
