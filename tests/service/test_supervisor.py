"""Shard self-healing: crash detection, budgeted respawn, re-dispatch,
terminal degradation, and fault re-arming.

Companion to ``tests/service/test_shards.py`` (the unsupervised tier, where
a dead shard's requests resolve as ``ShardCrashedError``).  Everything here
runs with ``max_restarts`` set, which changes the contract: a SIGKILLed
shard is respawned with its fault arms re-delivered, its in-flight
requests are re-dispatched (no caller-visible crash), and only an
exhausted restart budget degrades to the structured
:class:`ShardUnavailableError` (exit code 10).
"""

from __future__ import annotations

import os
import random
import signal
import time
import zlib

import pytest

from repro import obs
from repro.runtime import faults
from repro.runtime.errors import ShardUnavailableError, exit_code_for
from repro.service import (
    QueryRequest,
    RestartBudget,
    RetryPolicy,
    ShardedQueryService,
    TreeRegistry,
)
from repro.service.workers import _Job
from repro.trees import parse_xml

START_METHOD = os.environ.get("REPRO_START_METHOD", "fork")

DOC = "<a><b/><c><b/></c></a>"


def shard_for(name: str, shards: int) -> int:
    """Mirror of the service's tree-affinity routing."""
    return zlib.crc32(name.encode("utf-8")) % shards


def make_service(registry, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("start_method", START_METHOD)
    kwargs.setdefault("workers_per_shard", 1)
    kwargs.setdefault("max_restarts", 3)
    return ShardedQueryService(registry, **kwargs)


def wait_until(predicate, timeout: float = 20.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.fixture
def registry():
    reg = TreeRegistry()
    reg.register("doc", parse_xml(DOC))
    return reg


# -- RestartBudget -----------------------------------------------------------


def test_restart_budget_window():
    budget = RestartBudget(2, window=10.0)
    assert budget.allow(0.0) and budget.spent(0.0) == 0
    budget.record(0.0)
    budget.record(1.0)
    assert not budget.allow(2.0) and budget.spent(2.0) == 2
    # The window rolls: the t=0 restart ages out just past t=10.
    assert budget.allow(10.5) and budget.spent(10.5) == 1
    assert not budget.allow(10.5) or budget.max_restarts > 1


def test_restart_budget_zero_never_allows():
    budget = RestartBudget(0, window=5.0)
    assert not budget.allow(0.0)


@pytest.mark.parametrize(
    "kwargs", [dict(max_restarts=-1, window=1.0), dict(max_restarts=1, window=0.0)]
)
def test_restart_budget_validation(kwargs):
    with pytest.raises(ValueError):
        RestartBudget(kwargs["max_restarts"], kwargs["window"])


def test_service_rejects_negative_max_restarts(registry):
    with pytest.raises(ValueError, match="max_restarts"):
        ShardedQueryService(
            registry, shards=2, start_method=START_METHOD, max_restarts=-1
        )


# -- kill -> respawn -> heal -------------------------------------------------


@pytest.mark.soak
def test_killed_shard_respawns_and_serves_again(registry):
    service = make_service(registry)
    try:
        shard = shard_for("doc", 2)
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        warm = service.run_batch([request])
        assert warm[0].status == "ok" and warm[0].value == [0, 2]

        before = obs.REGISTRY.total("shard_restarts_total")
        service.processes[shard].kill()
        # Submitted *while dead*: the feeder waits out the respawn instead
        # of failing over to ShardCrashedError.
        results = service.run_batch([request] * 8)
        assert [r.status for r in results] == ["ok"] * 8
        assert all(r.value == [0, 2] for r in results)
        assert service.restart_counts[shard] == 1
        assert obs.REGISTRY.total("shard_restarts_total") - before == 1
        # The replacement reads the store like any shard: a fresh mutation
        # round-trips through it too.  The read waits for the mutation's
        # result — sent alongside it, its floor of epoch 2 could outrun the
        # publish and fail as retryable staleness, in either tier.
        mutated = service.run_batch(
            [
                QueryRequest(
                    op="mutate",
                    tree="doc",
                    edit={"kind": "relabel", "node": 1, "label": "z"},
                )
            ]
        )
        assert mutated[0].status == "ok" and mutated[0].value["epoch"] == 2
        fresh = service.run_batch(
            [QueryRequest(op="eval", query="<child[z]>", tree="doc", min_epoch=2)]
        )
        assert fresh[0].status == "ok" and fresh[0].value == [0]
    finally:
        service.shutdown()
    # Counts are stable across shutdown (the supervisor stops first).
    assert service.restart_counts[shard] == 1


@pytest.mark.soak
def test_in_flight_requests_redispatch_not_crash(registry):
    service = make_service(registry, workers_per_shard=2)
    try:
        shard = shard_for("doc", 2)
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        handles = [service.submit(request) for _ in range(24)]
        service.processes[shard].kill()  # mid-burst: some are in flight
        results = [h.result(timeout=60.0) for h in handles]
        assert [r.status for r in results] == ["ok"] * 24, [
            r.error for r in results if r.status != "ok"
        ]
        assert service.restart_counts[shard] >= 1
    finally:
        service.shutdown()


@pytest.mark.soak
def test_repeated_kills_within_budget(registry):
    # Every round must reach the killed shard: a cache hit never would.
    service = make_service(registry, max_restarts=5, _result_cache=False)
    try:
        shard = shard_for("doc", 2)
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        for round_number in range(1, 4):
            service.processes[shard].kill()
            results = service.run_batch([request] * 3)
            assert [r.status for r in results] == ["ok"] * 3
            assert service.restart_counts[shard] == round_number
    finally:
        service.shutdown()


@pytest.mark.soak
def test_death_while_dispatching_loses_no_request(registry, monkeypatch):
    # The feeder checks the shard alive, builds the wire payload, then
    # registers the job and puts it on the shard's queue.  A death marked
    # inside that window (its stranded-job sweep already run, the respawn
    # not yet done) must not leave the job on the dead shard's old queue.
    service = make_service(registry, restart_backoff=1.0)
    try:
        shard = shard_for("doc", 2)
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        assert service.run_batch([request])[0].status == "ok"
        build = service._wire_payload
        killed = []

        def kill_then_build(job):
            if not killed:
                killed.append(shard)
                service.processes[shard].kill()
                wait_until(lambda: service._dead[shard], what="death marked")
            return build(job)

        monkeypatch.setattr(service, "_wire_payload", kill_then_build)
        result = service.submit(request).result(timeout=30.0)
        assert result.status == "ok" and result.value == [0, 2]
        assert killed and service.restart_counts[shard] == 1
    finally:
        service.shutdown()


@pytest.mark.soak
def test_hung_shard_is_killed_and_respawned(registry):
    # Alive but silent: a stopped shard sends no heartbeats, so the
    # supervisor kills it after heartbeat_timeout and the crash path
    # respawns it; the read sent to the stopped shard is answered after all.
    service = make_service(registry, max_restarts=3, heartbeat_timeout=1.0)
    try:
        shard = shard_for("doc", 2)
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        assert service.run_batch([request])[0].status == "ok"
        hangs = obs.REGISTRY.total("shard_hangs_total")
        os.kill(service.processes[shard].pid, signal.SIGSTOP)
        result = service.submit(request).result(timeout=30.0)
        assert result.status == "ok" and result.value == [0, 2]
        assert service.restart_counts[shard] == 1
        assert obs.REGISTRY.total("shard_hangs_total") - hangs == 1
    finally:
        service.shutdown()


# -- budget exhaustion: graceful degradation ---------------------------------


@pytest.mark.soak
def test_exhausted_budget_degrades_to_unavailable(registry):
    service = make_service(registry, max_restarts=0)
    try:
        shard = shard_for("doc", 2)
        other = next(n for n in "xyzw" if shard_for(n, 2) != shard)
        service.register(other, parse_xml("<r><b/></r>"))

        service.processes[shard].kill()
        wait_until(
            lambda: service._failed[shard], what="terminal unavailability"
        )
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        result = service.submit(request).result(timeout=30.0)
        assert result.status == "error"
        assert result.error["type"] == "ShardUnavailableError"
        assert result.error["exit_code"] == 10
        assert service.restart_counts[shard] == 0
        # The *other* shard keeps serving: degradation is per-shard.
        healthy = service.submit(
            QueryRequest(op="eval", query="<descendant[b]>", tree=other)
        ).result(timeout=30.0)
        assert healthy.status == "ok"
    finally:
        service.shutdown()


def test_unavailable_error_contract():
    exc = ShardUnavailableError("shard 0 exhausted its restart budget")
    assert exit_code_for(exc) == 10


# -- fault arming: outcomes and re-arm-on-respawn ----------------------------


@pytest.mark.soak
def test_arm_faults_reports_dead_shard_and_respawn_rearms(registry):
    service = make_service(
        registry, retry=RetryPolicy(max_attempts=1), workers_per_shard=1
    )
    try:
        shard = shard_for("doc", 2)
        outcome = service.arm_faults("service.worker")
        assert outcome == {0: True, 1: True}

        service.processes[shard].kill()
        wait_until(
            lambda: service.restart_counts[shard] == 1, what="respawn after kill"
        )
        # While dead (or once failed) the arm is reported undelivered —
        # here, after respawn, delivery is clean again.
        outcome = service.arm_faults("service.worker")
        assert outcome == {0: True, 1: True}

        # The respawned shard inherited the tracked arm: the fault fires
        # at the start of its engine run, and with one attempt allowed the
        # read ends in the typed error, proving respawn re-delivers fault
        # injection.
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        result = service.submit(request).result(timeout=60.0)
        assert result.status == "error"
        assert result.error["type"] == "InjectedFaultError"
        assert result.exit_code == 8

        disarm = service.disarm_faults("service.worker")
        assert disarm == {0: True, 1: True}
        result = service.submit(request).result(timeout=60.0)
        assert result.status == "ok"
    finally:
        faults.disarm()
        service.shutdown()


def test_arm_faults_outcome_false_for_dead_shard_unsupervised(registry):
    service = ShardedQueryService(
        registry, shards=2, start_method=START_METHOD, workers_per_shard=1
    )
    try:
        shard = shard_for("doc", 2)
        service.processes[shard].kill()
        wait_until(
            lambda: service.processes[shard].is_alive() is False,
            what="kill to land",
        )
        # Let the collector notice the death before asserting the outcome.
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        service.submit(request).result(timeout=30.0)
        outcome = service.arm_faults("service.worker", times=1)
        assert outcome[shard] is False
        assert outcome[1 - shard] is True
        service.disarm_faults()
    finally:
        faults.disarm()
        service.shutdown()


# -- the service.shard_kill chaos site ---------------------------------------


@pytest.mark.soak
def test_shard_kill_fault_site_reconciles(registry):
    service = make_service(registry, max_restarts=6)
    try:
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        assert service.run_batch([request])[0].status == "ok"
        before = obs.REGISTRY.total("shard_restarts_total")
        faults.arm("service.shard_kill", times=2)
        wait_until(
            lambda: service._supervisor.kills == 2, what="both injected kills"
        )
        wait_until(
            lambda: sum(service.restart_counts) == 2,
            what="both respawns",
        )
        # Exact reconciliation: every injected kill produced one restart.
        assert obs.REGISTRY.total("shard_restarts_total") - before == 2
        results = service.run_batch([request] * 6)
        assert [r.status for r in results] == ["ok"] * 6
    finally:
        faults.disarm()
        service.shutdown()


# -- satellite: the closed-handle crash result -------------------------------


def test_crashed_result_survives_closed_process_handle(registry):
    service = ShardedQueryService(
        registry, shards=1, start_method=START_METHOD, workers_per_shard=1
    )
    try:
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="doc")
        assert service.run_batch([request])[0].status == "ok"
    finally:
        service.shutdown()
    # Close the (already joined) handle: ``.exitcode`` now raises
    # ValueError.  A request meeting the dead shard must still resolve with
    # ``exitcode None`` instead of raising from the worker.
    process = service._processes[0]
    process.join(timeout=10.0)
    process.close()
    result = service._process(_Job(request, None, 0.0), "worker-0", random.Random(0))
    assert result.status == "error"
    assert result.error["type"] == "ShardCrashedError"
    assert "exitcode None" in result.error["message"]
