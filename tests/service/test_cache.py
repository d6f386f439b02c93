"""The semantic result cache: bounds, epochs, single-flight, and safety.

Three layers of coverage:

* **unit** — LRU/byte eviction, oversize rejection, per-tree epoch
  invalidation, and the completion-time epoch check on the bare
  :class:`~repro.service.cache.ResultCache`;
* **concurrency** — single-flight leader election and follower wake-up
  under real threads, both on the bare cache and through the
  :class:`~repro.service.workers.QueryService` worker pool;
* **safety** — the acceptance criteria: a service with the result cache
  on answers exactly like the uncached oracle configuration (the sharded
  tier included), and a fault-poisoned evaluation is never served from
  the cache (failed leaders abandon; only ``ok`` values are stored).
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.runtime import faults
from repro.service import (
    QueryRequest,
    QueryService,
    ResultCache,
    RetryPolicy,
    ShardedQueryService,
    TreeRegistry,
)
from repro.service.cache import Flight
from repro.trees import chain, parse_xml

DOC = "<talk><speaker/><title><i/></title><location><i/><b/></location></talk>"


def make_registry() -> TreeRegistry:
    registry = TreeRegistry()
    registry.register("talk", parse_xml(DOC))
    registry.register("chain", chain(48, labels=("a", "b")))
    return registry


def store(cache: ResultCache, key, tree: str, value) -> None:
    """Drive one leader flight to completion (the only way values enter)."""
    kind, flight = cache.begin(key, tree)
    assert kind == "leader"
    cache.complete(flight, value)


class TestResultCacheUnit:
    def test_round_trip_and_hit(self):
        cache = ResultCache()
        store(cache, ("eval", "doc", "N:<child>"), "doc", [1, 2])
        kind, value = cache.begin(("eval", "doc", "N:<child>"), "doc")
        assert (kind, value) == ("hit", [1, 2])
        snap = cache.snapshot()
        assert snap["events"]["hit"] == 1
        assert snap["events"]["miss"] == 1
        assert snap["hit_rate"] == pytest.approx(0.5)

    def test_cached_none_is_distinguishable_from_miss(self):
        cache = ResultCache()
        store(cache, ("check", "doc", "F:f"), "doc", None)
        kind, value = cache.begin(("check", "doc", "F:f"), "doc")
        assert kind == "hit" and value is None

    def test_lru_eviction_by_entry_count(self):
        cache = ResultCache(max_entries=2)
        for i in range(3):
            store(cache, ("eval", "doc", f"k{i}"), "doc", i)
        assert len(cache) == 2
        assert cache.begin(("eval", "doc", "k0"), "doc")[0] == "leader"  # evicted
        assert cache.snapshot()["events"]["evict"] == 1

    def test_lru_order_follows_hits(self):
        cache = ResultCache(max_entries=2)
        store(cache, ("eval", "doc", "k0"), "doc", 0)
        store(cache, ("eval", "doc", "k1"), "doc", 1)
        assert cache.begin(("eval", "doc", "k0"), "doc")[0] == "hit"  # refresh k0
        store(cache, ("eval", "doc", "k2"), "doc", 2)  # evicts k1, not k0
        assert cache.begin(("eval", "doc", "k0"), "doc")[0] == "hit"
        assert cache.begin(("eval", "doc", "k1"), "doc")[0] == "leader"

    def test_byte_bound_evicts_down(self):
        cache = ResultCache(max_total_bytes=400)
        for i in range(4):
            store(cache, ("eval", "doc", f"k{i}"), "doc", list(range(i, i + 4)))
        snap = cache.snapshot()
        assert snap["bytes"] <= 400
        assert snap["events"]["evict"] >= 1

    def test_oversize_value_rejected(self):
        cache = ResultCache(max_value_bytes=64)
        store(cache, ("eval", "doc", "big"), "doc", list(range(100)))
        assert len(cache) == 0
        assert cache.snapshot()["events"]["reject"] == 1

    def test_invalidate_bumps_epoch_and_drops_entries(self):
        cache = ResultCache()
        store(cache, ("eval", "doc", "k"), "doc", 1)
        store(cache, ("eval", "other", "k"), "other", 2)
        assert cache.invalidate("doc") == 1
        assert cache.epoch("doc") == 1
        assert cache.begin(("eval", "doc", "k"), "doc")[0] == "leader"
        # Other trees' entries survive.
        assert cache.begin(("eval", "other", "k"), "other")[0] == "hit"

    def test_stale_flight_is_not_stored(self):
        cache = ResultCache()
        kind, flight = cache.begin(("eval", "doc", "k"), "doc")
        assert kind == "leader"
        cache.invalidate("doc")  # the tree changed mid-evaluation
        assert cache.complete(flight, [1]) is False
        assert len(cache) == 0
        # Followers get no value either: it was computed on the stale tree.
        assert Flight.is_miss(flight.wait(0))

    def test_abandon_wakes_followers_empty_handed(self):
        cache = ResultCache()
        _, leader = cache.begin(("eval", "doc", "k"), "doc")
        kind, follower = cache.begin(("eval", "doc", "k"), "doc")
        assert kind == "follower" and follower is leader
        cache.abandon(leader)
        assert Flight.is_miss(follower.wait(0))
        # The key is free again: the next request leads a fresh flight.
        assert cache.begin(("eval", "doc", "k"), "doc")[0] == "leader"


class TestSingleFlightThreads:
    def test_one_leader_many_followers(self):
        cache = ResultCache()
        key = ("eval", "doc", "k")
        release = threading.Event()
        values = []

        def lead():
            kind, flight = cache.begin(key, "doc")
            assert kind == "leader"
            release.wait(5.0)
            cache.complete(flight, [42])

        def follow():
            kind, flight = cache.begin(key, "doc")
            if kind == "hit":
                values.append(flight)
                return
            assert kind == "follower"
            value = flight.wait(5.0)
            assert not Flight.is_miss(value)
            values.append(value)

        leader = threading.Thread(target=lead)
        leader.start()
        followers = [threading.Thread(target=follow) for _ in range(8)]
        for t in followers:
            t.start()
        release.set()
        for t in [leader, *followers]:
            t.join(timeout=10.0)
        assert values == [[42]] * 8
        assert cache.snapshot()["events"]["miss"] == 1

    def test_concurrent_begin_elects_exactly_one_leader(self):
        cache = ResultCache()
        key = ("eval", "doc", "k")
        barrier = threading.Barrier(8)
        kinds = []
        lock = threading.Lock()

        def race():
            barrier.wait(5.0)
            kind, flight = cache.begin(key, "doc")
            with lock:
                kinds.append(kind)
            if kind == "leader":
                cache.complete(flight, [1])

        threads = [threading.Thread(target=race) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert kinds.count("leader") == 1
        assert set(kinds) <= {"leader", "follower", "hit"}


class TestServiceIntegration:
    def test_semantic_collapse_across_requests(self):
        registry = make_registry()
        with QueryService(
            registry, workers=1, result_cache=True
        ) as service:
            first, second = service.run_batch(
                [
                    QueryRequest(op="eval", query="<descendant[b]>", tree="chain"),
                    QueryRequest(op="eval", query="<child/child*[b]>", tree="chain"),
                ]
            )
            snap = service.stats_snapshot()
        assert first.status == second.status == "ok"
        assert first.value == second.value
        assert second.routed == "cache"
        assert snap["result_cache"]["events"]["hit"] == 1

    def test_reregistration_invalidates_via_subscription(self):
        registry = make_registry()
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="chain")
        with QueryService(
            registry, workers=1, result_cache=True
        ) as service:
            stale = service.run_batch([request])[0]
            registry.register("chain", chain(6, labels=("b",)))
            fresh = service.run_batch([request])[0]
        assert stale.value != fresh.value
        assert fresh.routed != "cache"
        # On the 6-node all-b chain every non-leaf has a b-descendant.
        assert fresh.value == [0, 1, 2, 3, 4]

    def test_check_and_equivalent_ops_are_cached(self):
        registry = make_registry()
        requests = [
            QueryRequest(op="check", formula="exists x. b(x)", tree="chain"),
            QueryRequest(op="check", formula="exists x. b(x)", tree="chain"),
            QueryRequest(op="equivalent", left="<child[b]>", right="<descendant[b]>"),
            QueryRequest(op="equivalent", left="<child[b]>", right="<descendant[b]>"),
        ]
        with QueryService(
            registry, workers=1, result_cache=True
        ) as service:
            results = service.run_batch(requests)
            events = service.stats_snapshot()["result_cache"]["events"]
        assert [r.status for r in results] == ["ok"] * 4
        assert results[0].value == results[1].value
        assert results[2].value == results[3].value
        assert events["hit"] == 2

    def test_identical_burst_evaluates_once(self):
        registry = make_registry()
        requests = [
            QueryRequest(
                op="eval", query="<(child[a] | child[b])*[b]>", tree="chain", id=f"r{i}"
            )
            for i in range(16)
        ]
        with QueryService(
            registry, workers=4, result_cache=True
        ) as service:
            results = service.run_batch(requests)
            events = service.stats_snapshot()["result_cache"]["events"]
        assert all(r.status == "ok" for r in results)
        assert len({tuple(r.value) for r in results}) == 1
        # Single-flight: one leader no matter how the 4 workers interleave
        # (everyone else hits the store or reuses the leader's flight).
        assert events["miss"] == 1

    def test_cache_off_by_default(self):
        registry = make_registry()
        with QueryService(registry, workers=1) as service:
            service.run_batch(
                [QueryRequest(op="eval", query="<child[b]>", tree="chain")]
            )
            snap = service.stats_snapshot()
        # No cache section, and nothing else beyond the service's own stats.
        assert sorted(snap) == [
            "breakers",
            "completed",
            "errors",
            "fallbacks",
            "latency_p50",
            "latency_p90",
            "ok",
            "retries",
            "shed",
            "submitted",
        ]


class TestSafety:
    """Acceptance: cached answers are oracle answers, even under faults."""

    WORKLOAD = [
        ("eval", {"query": "<descendant[b]>", "tree": "chain"}),
        ("eval", {"query": "<child/child*[b]>", "tree": "chain"}),
        ("eval", {"query": "<descendant[i]>", "tree": "talk"}),
        ("select", {"query": "descendant[i]", "tree": "talk"}),
        ("select", {"query": "child/child*[i]", "tree": "talk"}),
        ("check", {"formula": "exists x. b(x)", "tree": "chain"}),
        ("equivalent", {"left": "<child[b]>", "right": "<descendant[b]>"}),
    ]

    def _requests(self, repeats: int = 3) -> list[QueryRequest]:
        return [
            QueryRequest(op=op, id=f"w{r}-{i}", **kwargs)
            for r in range(repeats)
            for i, (op, kwargs) in enumerate(self.WORKLOAD)
        ]

    def _values(self, results) -> list:
        assert all(r.status == "ok" for r in results)
        return [r.value for r in results]

    def test_optimized_cached_matches_plain_service(self):
        registry = make_registry()
        requests = self._requests()
        with QueryService(registry, workers=2) as plain:
            expected = self._values(plain.run_batch(requests))
        with QueryService(
            registry, workers=2, result_cache=True
        ) as tuned:
            got = self._values(tuned.run_batch(requests))
            snap = tuned.stats_snapshot()
        assert got == expected
        assert snap["result_cache"]["events"]["hit"] >= len(self.WORKLOAD)

    def test_sharded_optimized_cached_matches_plain_service(self):
        registry = make_registry()
        requests = self._requests()
        with QueryService(registry, workers=2) as plain:
            expected = self._values(plain.run_batch(requests))
        with ShardedQueryService(
            registry,
            shards=2,
            workers_per_shard=1,
            result_cache=True,
        ) as sharded:
            got = self._values(sharded.run_batch(requests))
            snap = sharded.stats_snapshot()
        assert got == expected
        assert snap["result_cache"]["events"]["hit"] >= 1

    def test_poisoned_evaluations_never_enter_the_cache(self):
        # A counted fault burst fails fast-path runs mid-flight.  Failed
        # leaders must abandon (nothing stored), retries reroute, and every
        # value served — cached or not — must equal the clean oracle answer.
        registry = make_registry()
        requests = self._requests(repeats=4)
        with QueryService(registry, workers=2) as plain:
            expected = self._values(plain.run_batch(requests))
        service = QueryService(
            registry,
            workers=2,
            result_cache=True,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0001, max_delay=0.001),
            breaker_threshold=4,
            breaker_cooldown=0.01,
        )
        try:
            faults.arm("xpath.bitset", times=6)
            try:
                got = self._values(service.run_batch(requests))
            finally:
                faults.disarm()
            # The burst really hit evaluations (a dead arm would pass too);
            # how many of the six fire depends on cache hits and the breaker.
            fired = obs.counter("faults_injected_total", site="xpath.bitset")
            assert fired.value >= 1
            assert got == expected
            # The cache converged on clean values: replay with faults gone
            # is served largely from the store and still matches.
            replay = self._values(service.run_batch(requests))
            assert replay == expected
        finally:
            service.shutdown()


class TestMutationEpochRaces:
    """Satellite coverage: a mutation landing between compute-start and
    store must drop the entry, whichever window it lands in."""

    def test_registry_mutation_mid_flight_drops_the_entry(self):
        # The registry-wired variant of the completion-time epoch check:
        # the invalidation arrives via TreeRegistry.mutate -> subscribe,
        # not a manual invalidate() call.
        registry = make_registry()
        cache = ResultCache()
        registry.subscribe(cache.invalidate)
        kind, flight = cache.begin(("eval", "talk", "k"), "talk")
        assert kind == "leader"
        registry.mutate("talk", {"kind": "relabel", "node": 0, "label": "z"})
        assert cache.complete(flight, ["stale"]) is False
        assert len(cache) == 0
        assert Flight.is_miss(flight.wait(0))

    def test_mutation_between_pin_and_begin_drops_the_entry(self):
        # The other window: the worker pins the pre-edit tree, the mutation
        # (and its cache invalidation) lands, and only then does the worker
        # reach cache.begin().  The flight's epoch is already post-edit, so
        # the completion-time check alone would store the pre-edit value;
        # the worker's pin-epoch guard must refuse instead.
        registry = make_registry()
        service = QueryService(registry, workers=1, result_cache=True)
        cache = service.result_cache
        real_begin = cache.begin
        raced = threading.Event()

        def racing_begin(key, tree):
            if not raced.is_set():
                raced.set()
                registry.mutate(
                    "talk", {"kind": "relabel", "node": 0, "label": "z"}
                )
            return real_begin(key, tree)

        cache.begin = racing_begin
        try:
            first = service.run_batch(
                [QueryRequest(op="eval", query="talk", tree="talk")]
            )[0]
            # The answer itself is the pinned (pre-edit) snapshot's: id 0
            # was still labeled "talk" when this request resolved its tree.
            assert first.status == "ok" and first.value == [0]
            assert len(cache) == 0  # ... but it never entered the cache
            assert cache.snapshot()["events"]["store"] == 0
            second = service.run_batch(
                [QueryRequest(op="eval", query="talk", tree="talk")]
            )[0]
            assert second.routed != "cache"
            assert second.value == []  # post-edit truth, freshly computed
        finally:
            cache.begin = real_begin
            service.shutdown()
