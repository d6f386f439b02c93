"""The multiprocess shard pool: correctness, stats merging, containment.

Everything here runs with small shard counts and batches — the scale soak
lives in ``test_shard_soak.py`` — but covers every behaviour the tentpole
promises:

* answers are identical to the in-process :class:`QueryService` (same
  engines, same documents, different transport);
* tree-affine routing is deterministic;
* merged stats reconcile to the unit (``submitted == completed`` over the
  parent + shard parts, registry results total == request count);
* fault broadcast reaches shards mid-run;
* a crashed shard resolves its outstanding requests with structured
  :class:`~repro.runtime.errors.ShardCrashedError` results and the other
  shards keep serving;
* no child process survives :meth:`close` (the orphan regression), the
  ``KeyboardInterrupt`` context-manager path included, and the scratch
  store a registry without its own store is served from is removed;
* the ``spawn`` start method works (nothing relies on fork inheritance).
"""

from __future__ import annotations

import sys
import time
import zlib

import pytest

from repro.service import (
    QueryRequest,
    QueryService,
    RetryPolicy,
    ShardedQueryService,
    TreeRegistry,
)
from repro.trees import chain, parse_xml

DOC = "<talk><speaker/><title><i/></title><location><i/><b/></location></talk>"


def make_registry() -> TreeRegistry:
    registry = TreeRegistry()
    registry.register("talk", parse_xml(DOC))
    registry.register("chain", chain(48, labels=("a", "b")))
    return registry


def mixed_requests(count: int) -> list[QueryRequest]:
    template = [
        ("eval", {"query": "<descendant[b]>", "tree": "chain"}),
        ("eval", {"query": "<child[i]>", "tree": "talk"}),
        ("select", {"query": "descendant[i]", "tree": "talk"}),
        ("check", {"formula": "exists x. b(x)", "tree": "chain"}),
        ("equivalent", {"left": "<child[b]>", "right": "<descendant[b]>"}),
    ]
    requests = []
    for i in range(count):
        op, kwargs = template[i % len(template)]
        requests.append(QueryRequest(op=op, id=f"mix-{i}", **kwargs))
    return requests


def wait_until(predicate, timeout=10.0, interval=0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def assert_no_survivors(processes) -> None:
    assert wait_until(
        lambda: all(not process.is_alive() for process in processes)
    ), f"orphaned shard processes: {[p.pid for p in processes if p.is_alive()]}"


class TestCorrectness:
    def test_matches_in_process_service(self):
        registry = make_registry()
        requests = mixed_requests(20)
        with QueryService(registry, workers=2) as reference_service:
            reference = {
                r.id: r for r in reference_service.run_batch(mixed_requests(20))
            }
        with ShardedQueryService(registry, shards=2) as service:
            results = service.run_batch(requests)
        assert len(results) == 20
        for result in results:
            expected = reference[result.id]
            assert result.status == expected.status == "ok"
            assert result.value == expected.value

    def test_reply_larger_than_one_read_arrives_whole(self):
        # About 90 KB of pickled node ids: more than the first read of a
        # reply channel takes in.
        registry = TreeRegistry()
        registry.register("long", chain(30000, labels=("a", "b")))
        with ShardedQueryService(registry, shards=1) as service:
            result = service.submit(
                QueryRequest(op="select", query="descendant", tree="long")
            ).result(timeout=60)
        assert result.status == "ok"
        assert result.value == list(range(1, 30000))

    def test_reply_channels_never_cross_under_contention(self):
        # 16 workers on two shards and a tiny switch interval: a reply
        # channel shared by two round trips at once would swap answers
        # between requests whose values differ.
        registry = TreeRegistry()
        for i in range(6):
            registry.register(f"c{i}", chain(10 + i, labels=("a", "b")))
        requests = [
            QueryRequest(op="select", query="descendant", tree=f"c{i % 6}")
            for i in range(240)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            service = ShardedQueryService(registry, shards=2, workers_per_shard=2)
            with service:
                handles = [service.submit(request) for request in requests]
                results = [handle.result(timeout=60) for handle in handles]
                free = [channels.qsize() for channels in service._free]
        finally:
            sys.setswitchinterval(interval)
        for request, result in zip(requests, results):
            size = 10 + int(request.tree[1:])
            assert result.status == "ok"
            assert result.value == list(range(1, size))
        assert free == [service._channels] * 2

    def test_routing_is_tree_affine(self):
        registry = make_registry()
        # Every request must reach a shard: a cache hit answers in the parent.
        with ShardedQueryService(registry, shards=2, _result_cache=False) as service:
            results = service.run_batch(
                [
                    QueryRequest(op="eval", query="<child[i]>", tree="talk")
                    for _ in range(6)
                ]
            )
        expected_shard = zlib.crc32(b"talk") % 2
        workers = {result.worker.split("/")[0] for result in results}
        assert workers == {f"shard-{expected_shard}"}

    def test_inline_xml_and_equivalent_round_robin(self):
        registry = make_registry()
        with ShardedQueryService(registry, shards=2) as service:
            results = service.run_batch(
                [
                    QueryRequest(op="eval", query="<child[b]>", xml=DOC)
                    for _ in range(8)
                ]
            )
        assert all(result.status == "ok" for result in results)
        workers = {result.worker.split("/")[0] for result in results}
        assert workers == {"shard-0", "shard-1"}

    def test_validation_error_resolves_parent_side(self):
        with ShardedQueryService(make_registry(), shards=2) as service:
            result = service.submit(QueryRequest(op="bogus")).result(timeout=10)
        assert result.status == "error"
        assert result.error["type"] == "ValueError"

    def test_late_register_reaches_shards(self):
        registry = make_registry()
        with ShardedQueryService(registry, shards=2) as service:
            service.register("late", parse_xml("<x><b/></x>"))
            result = service.submit(
                QueryRequest(op="eval", query="<child[b]>", tree="late")
            ).result(timeout=10)
        assert result.status == "ok"
        assert result.value == [0]  # the root has a b-child

    @pytest.mark.parametrize("service_cls", [QueryService, ShardedQueryService])
    def test_unknown_tree_is_an_input_error_in_both_tiers(self, service_cls):
        # Not retryable staleness: the sharded parent stamps min_epoch=0 for
        # a name it never published, and a floor of 0 demands nothing.
        with service_cls(make_registry()) as service:
            result = service.submit(
                QueryRequest(op="eval", query="<child[b]>", tree="ghost")
            ).result(timeout=10)
        assert result.status == "error"
        assert result.error["type"] == "ValueError"
        assert "unknown tree 'ghost'" in result.error["message"]
        assert result.exit_code == 2

    def test_stale_reads_match_across_tiers(self):
        # A shard's StaleEpochError crosses the pipe as class and message
        # (its constructor does not take its own message back), and a
        # document that did not resolve is not retried on either tier.
        def stale_reads(service_cls):
            registry = make_registry()
            floor = registry.epoch("talk") + 3
            with service_cls(registry) as service:
                return service.run_batch(
                    [
                        QueryRequest(
                            op="eval", query="<child[b]>", tree="talk", min_epoch=floor
                        ),
                        QueryRequest(
                            op="eval", query="<child[b]>", tree="ghost", min_epoch=1
                        ),
                    ]
                )

        threaded = stale_reads(QueryService)
        sharded = stale_reads(ShardedQueryService)
        for local, remote in zip(threaded, sharded):
            assert local.status == remote.status == "error"
            assert local.error["type"] == remote.error["type"] == "StaleEpochError"
            assert local.error["message"] == remote.error["message"]
            assert local.exit_code == remote.exit_code == 8
            assert local.retries == remote.retries == 0
        assert "requires >= 4" in sharded[0].error["message"]
        assert "epoch 0" in sharded[1].error["message"]

    def test_deadline_crosses_the_pipe(self):
        # A zero timeout must come back shed/timed out, not hang.
        with ShardedQueryService(make_registry(), shards=1) as service:
            result = service.submit(
                QueryRequest(
                    op="eval", query="<descendant[b]>", tree="chain", timeout=0.0
                )
            ).result(timeout=10)
        assert result.status in ("shed", "error")
        assert result.error is not None


class TestStatsMerging:
    def test_merged_snapshot_reconciles(self):
        registry = make_registry()
        requests = mixed_requests(30)
        with ShardedQueryService(registry, shards=2) as service:
            results = service.run_batch(requests)
            snapshot = service.stats_snapshot()
        assert all(result.status == "ok" for result in results)
        assert snapshot["submitted"] == 30
        assert snapshot["completed"] == 30
        assert snapshot["ok"] == 30

    def test_registry_results_total_equals_requests(self):
        registry = make_registry()
        with ShardedQueryService(registry, shards=2) as service:
            service.run_batch(mixed_requests(25))
            metrics = service.metrics_snapshot()
        results_total = sum(
            value
            for series, value in metrics["counters"].items()
            if series.startswith("service_results_total")
        )
        assert results_total == 25

    def test_merged_percentiles_come_from_combined_population(self):
        registry = make_registry()
        with ShardedQueryService(registry, shards=2) as service:
            service.run_batch(mixed_requests(20))
            snapshot = service.stats_snapshot()
        # Percentile keys exist and are plausible (positive, p50 <= p90) —
        # the algebra itself is proven in tests/obs/test_merge.py.
        assert snapshot["latency_p50"] > 0
        assert snapshot["latency_p50"] <= snapshot["latency_p90"]

    def test_latency_percentiles_are_the_services_own(self):
        # Another service in the same process leaves slow latencies in the
        # process registry (20 queued selects on a long chain); the sharded
        # snapshot must summarize only its own requests.
        other = TreeRegistry()
        other.register("long", chain(3000))
        with QueryService(other, workers=1) as service:
            service.run_batch(
                [QueryRequest(op="select", query="descendant", tree="long")] * 20
            )
        pair = TreeRegistry()
        pair.register("pair", parse_xml("<a><b/></a>"))
        with ShardedQueryService(pair, shards=1) as service:
            results = service.run_batch(
                [QueryRequest(op="eval", query="<child[b]>", tree="pair")] * 10
            )
            snapshot = service.stats_snapshot()
        assert all(result.status == "ok" for result in results)
        slowest = max(result.latency for result in results)
        assert snapshot["latency_p90"] <= round(slowest, 6)

    def test_stats_after_shutdown_serve_from_final_snapshots(self):
        registry = make_registry()
        service = ShardedQueryService(registry, shards=2)
        try:
            service.run_batch(mixed_requests(10))
        finally:
            service.shutdown(drain=True)
        snapshot = service.stats_snapshot()
        assert snapshot["submitted"] == snapshot["completed"] == 10


class TestFaultBroadcast:
    def test_armed_faults_reach_shards(self):
        registry = make_registry()
        with ShardedQueryService(
            registry,
            shards=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004),
        ) as service:
            service.arm_faults("xpath.bitset", times=4)
            results = service.run_batch(
                [
                    QueryRequest(op="eval", query="<descendant[b]>", tree="chain")
                    for _ in range(10)
                ]
            )
            snapshot = service.stats_snapshot()
        assert all(result.status == "ok" for result in results)
        assert snapshot["retries"] >= 1


class TestFailureContainment:
    def test_crashed_shard_resolves_outstanding_requests(self):
        registry = make_registry()
        with ShardedQueryService(registry, shards=2) as service:
            victim = zlib.crc32(b"chain") % 2
            service.processes[victim].kill()
            assert wait_until(
                lambda: not service.processes[victim].is_alive()
            )
            crashed = service.submit(
                QueryRequest(op="eval", query="<descendant[b]>", tree="chain")
            ).result(timeout=15)
            assert crashed.status == "error"
            assert crashed.error["type"] == "ShardCrashedError"
            # The surviving shard keeps serving.
            other_tree = "talk" if victim != zlib.crc32(b"talk") % 2 else "chain"
            if zlib.crc32(other_tree.encode()) % 2 != victim:
                healthy = service.submit(
                    QueryRequest(op="eval", query="<child[i]>", tree="talk")
                ).result(timeout=15)
                assert healthy.status == "ok"


class TestLifecycle:
    def test_close_kills_children(self):
        service = ShardedQueryService(make_registry(), shards=2)
        processes = service.processes
        assert all(process.is_alive() for process in processes)
        service.close()
        assert_no_survivors(processes)

    def test_close_with_queued_work_sheds_structurally(self):
        registry = make_registry()
        service = ShardedQueryService(registry, shards=1, workers_per_shard=1)
        handles = [
            service.submit(
                QueryRequest(op="eval", query="<descendant[b]>", tree="chain")
            )
            for _ in range(20)
        ]
        service.close()
        assert_no_survivors(service.processes)
        statuses = {handle.result(timeout=10).status for handle in handles}
        assert statuses <= {"ok", "shed", "error"}
        assert len([h for h in handles if h.result(timeout=1)]) == 20

    def test_keyboard_interrupt_context_kills_children(self):
        processes = []
        with pytest.raises(KeyboardInterrupt):
            with ShardedQueryService(make_registry(), shards=2) as service:
                processes = service.processes
                raise KeyboardInterrupt
        assert processes
        assert_no_survivors(processes)

    def test_shutdown_is_idempotent(self):
        service = ShardedQueryService(make_registry(), shards=1)
        service.shutdown(drain=True)
        service.shutdown(drain=True)
        service.close()
        assert_no_survivors(service.processes)

    def test_submit_after_close_raises(self):
        from repro.runtime.errors import ServiceClosedError

        service = ShardedQueryService(make_registry(), shards=1)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(QueryRequest(op="eval", query="<a>", tree="talk"))

    def test_scratch_root_falls_back_to_the_temp_dir(self, monkeypatch):
        import tempfile

        from repro.service import shards

        assert shards._scratch_root() in ("/dev/shm", tempfile.gettempdir())
        monkeypatch.setattr(shards.os.path, "isdir", lambda path: False)
        assert shards._scratch_root() == tempfile.gettempdir()

    def test_scratch_store_removed_after_shutdown_and_close(self):
        for stop in ("shutdown", "close"):
            registry = make_registry()
            service = ShardedQueryService(registry, shards=1)
            scratch = registry.store.directory
            assert scratch.name.startswith("repro-shards-")
            assert sorted(registry.store.names()) == ["chain", "talk"]
            getattr(service, stop)()
            assert not scratch.exists(), stop
            # The registry keeps serving from memory, store detached.
            assert registry.store is None
            assert registry.get("talk").labels[0] == "talk"


class TestSpawnStartMethod:
    def test_spawn_smoke(self):
        registry = make_registry()
        with ShardedQueryService(
            registry, shards=1, start_method="spawn"
        ) as service:
            results = service.run_batch(mixed_requests(5))
            snapshot = service.stats_snapshot()
        assert [result.status for result in results] == ["ok"] * 5
        assert snapshot["submitted"] == snapshot["completed"] == 5
