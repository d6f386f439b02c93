"""Cross-process chaos soak: 300 mixed requests through the shard pool.

The multiprocess restatement of ``test_soak.py``'s acceptance contract:

* every admitted request ends in exactly one structured outcome — zero
  lost, zero duplicated, across process boundaries and a mid-run fault
  burst broadcast to every shard;
* ``ok`` answers are correct against oracle-engine ground truth computed
  outside the service;
* every other result is a typed error with its retries spent, and the
  faults fired in the shards pay for all of them (``errors *
  max_attempts <= faults_injected_total``, merged across the shards).
  That bound replaces an ok floor: 2 shards × 60 armed counts can fail 40
  of the 300 reads, more than a 90% floor allows;
* the merged stats balance (``submitted == ok + errors + shed``) and the
  merged metrics registry reconciles **to the unit**: summing the
  ``service_results_total`` series across the parent and every shard's
  delta yields exactly the request count.

The start method comes from ``REPRO_START_METHOD`` (default ``fork``), so
CI runs the same soak under both ``fork`` and ``spawn``.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.service import QueryRequest, RetryPolicy, ShardedQueryService, TreeRegistry
from repro.trees import chain, parse_xml

from .test_soak import _WORKLOAD, _ground_truth, _request, assert_typed_errors, DOC

START_METHOD = os.environ.get("REPRO_START_METHOD", "fork")
TOTAL = 300


@pytest.mark.soak
def test_cross_process_chaos_soak_zero_lost_requests():
    registry = TreeRegistry()
    registry.register("talk", parse_xml(DOC))
    registry.register("chain", chain(48, labels=("a", "b")))
    truth = _ground_truth(registry)

    retry = RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004)
    fired_before = obs.REGISTRY.total("faults_injected_total")
    service = ShardedQueryService(
        registry,
        shards=2,
        start_method=START_METHOD,
        workers_per_shard=2,
        queue_limit=48,
        retry=retry,
        _result_cache=False,  # every request reaches the faulted shards
    )
    results = {}
    try:
        handles = {}
        for i in range(TOTAL):
            if i == TOTAL // 3:
                # Mid-run chaos, broadcast over the control channel so the
                # burst lands inside every shard process.
                service.arm_faults("xpath.bitset", times=30)
                service.arm_faults("logic.bitset", times=20)
                service.arm_faults("service.worker", times=10)
            request = _request(i)
            handles[request.id] = service.submit(request)
        for request_id, handle in handles.items():
            results[request_id] = handle.result(timeout=120.0)

        # -- zero lost, zero duplicated --------------------------------------
        assert set(results) == {f"soak-{i}" for i in range(TOTAL)}

        # -- exactly one structured outcome each -----------------------------
        for request_id, result in results.items():
            assert result.status in ("ok", "error", "shed"), request_id
            if result.status == "ok":
                assert result.error is None
            else:
                assert result.error is not None

        # -- ok results are correct, whichever shard served them -------------
        checked = 0
        for i in range(TOTAL):
            result = results[f"soak-{i}"]
            if result.status != "ok":
                continue
            op, _, text, tree_name = _WORKLOAD[i % len(_WORKLOAD)]
            if op == "equivalent":
                assert result.value["equivalent"] is (
                    text == ("W(<descendant[b]>)", "<descendant[b]>")
                )
            else:
                assert result.value == truth[(op, str(text), tree_name)], (
                    f"wrong answer from {result.worker} for {text!r}"
                )
            checked += 1
        assert checked >= 1

        # -- every error is typed, and the shards' fires pay for it ----------
        fired = (
            service.merged_registry().total("faults_injected_total") - fired_before
        )
        assert_typed_errors(results.values(), retry.max_attempts, fired)

        # -- merged stats balance --------------------------------------------
        snapshot = service.stats_snapshot()
        assert snapshot["submitted"] == TOTAL
        assert snapshot["ok"] + snapshot["errors"] + snapshot["shed"] == TOTAL
        assert snapshot["completed"] == TOTAL
        # Both shards actually served (the workload names two documents
        # that hash to different shards, plus round-robin equivalence).
        served = {
            result.worker.split("/")[0]
            for result in results.values()
            if result.worker.startswith("shard-")
        }
        assert served == {"shard-0", "shard-1"}
        # The broadcast burst left a trace in some shard.
        assert snapshot["retries"] >= 1

        # -- the merged registry reconciles to the unit ----------------------
        metrics = service.metrics_snapshot()
        results_total = sum(
            value
            for series, value in metrics["counters"].items()
            if series.startswith("service_results_total")
        )
        assert results_total == TOTAL
        latency_counts = sum(
            payload["count"]
            for series, payload in metrics["histograms"].items()
            if series.startswith("service_latency_seconds")
        )
        assert latency_counts == TOTAL
    finally:
        service.shutdown(drain=True)

    # -- teardown leaves no orphans ------------------------------------------
    assert all(not process.is_alive() for process in service.processes)
