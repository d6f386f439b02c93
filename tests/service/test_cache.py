"""The semantic result cache: bounds, epochs, single-flight, and safety.

Four layers of coverage:

* **unit** — LRU/byte eviction, oversize rejection, per-tree epoch
  invalidation, epoch stamps, copies, the measure of each answer shape,
  the bounded admission set, and the completion-time epoch check on the
  bare :class:`~repro.service.cache.ResultCache`;
* **concurrency** — single-flight leader election and follower wake-up
  under real threads, both on the bare cache and through the
  :class:`~repro.service.workers.QueryService` worker pool;
* **admission** — second-sighting admission and hits answered inside
  ``submit()``, and what still takes the worker path;
* **safety** — the acceptance criteria: a service with the result cache
  on answers exactly like the engine-path configuration (the sharded
  tier included), a fault-poisoned evaluation is never served from
  the cache (failed leaders abandon; only ``ok`` values are stored), and
  no read sees a value from before the tree epoch it asked for.
"""

from __future__ import annotations

import copy
import sys
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
from repro.service.cache import Flight, approx_size, copier, measure
from repro.trees import chain, parse_xml

from .test_soak import assert_typed_errors

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
        # Each variant text is admitted on its own second sighting; the
        # second sighting of the rewriting variant then hits the entry
        # its canonical twin stored.
        registry = make_registry()
        with QueryService(registry, workers=1) as service:
            results = service.run_batch(
                [
                    QueryRequest(op="eval", query=query, tree="chain")
                    for query in ("<descendant[b]>",) * 2 + ("<child/child*[b]>",) * 2
                ]
            )
            snap = service.stats_snapshot()
        assert [r.status for r in results] == ["ok"] * 4
        assert all(r.value == results[0].value for r in results)
        assert [r.routed for r in results] == ["bitset", "bitset", "bitset", "cache"]
        assert snap["result_cache"]["events"]["hit"] == 1
        assert snap["result_cache"]["entries"] == 1

    def test_reregistration_invalidates_via_subscription(self):
        registry = make_registry()
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="chain")
        with QueryService(registry, workers=1) as service:
            # The second sighting stores the entry re-registration must drop.
            stale = service.run_batch([request, request])[1]
            assert len(service.result_cache) == 1
            registry.register("chain", chain(6, labels=("b",)))
            assert len(service.result_cache) == 0
            fresh = service.run_batch([request])[0]
            events = service.stats_snapshot()["result_cache"]["events"]
        assert events["invalidate"] == 1
        assert stale.value != fresh.value
        assert fresh.routed != "cache"
        # On the 6-node all-b chain every non-leaf has a b-descendant.
        assert fresh.value == [0, 1, 2, 3, 4]

    def test_check_and_equivalent_ops_are_cached(self):
        # Three sightings each: the first evaluates, the second stores,
        # the third hits.
        registry = make_registry()
        requests = [
            QueryRequest(op="check", formula="exists x. b(x)", tree="chain")
            for _ in range(3)
        ] + [
            QueryRequest(op="equivalent", left="<child[b]>", right="<descendant[b]>")
            for _ in range(3)
        ]
        with QueryService(registry, workers=1) as service:
            results = service.run_batch(requests)
            events = service.stats_snapshot()["result_cache"]["events"]
        assert [r.status for r in results] == ["ok"] * 6
        assert results[0].value == results[1].value == results[2].value
        assert results[3].value == results[4].value == results[5].value
        assert results[2].routed == results[5].routed == "cache"
        assert events["store"] == 2
        assert events["hit"] == 2

    def test_identical_burst_evaluates_once(self):
        registry = make_registry()
        requests = [
            QueryRequest(
                op="eval", query="<(child[a] | child[b])*[b]>", tree="chain", id=f"r{i}"
            )
            for i in range(16)
        ]
        with QueryService(registry, workers=4) as service:
            results = service.run_batch(requests)
            events = service.stats_snapshot()["result_cache"]["events"]
        assert all(r.status == "ok" for r in results)
        assert len({tuple(r.value) for r in results}) == 1
        # Single-flight: one leader no matter how the 4 workers interleave
        # (everyone else hits the store or reuses the leader's flight).
        # The first sighting evaluates outside the cache and counts nothing.
        assert events["miss"] == 1

    def test_cache_on_by_default(self):
        registry = make_registry()
        request = QueryRequest(op="eval", query="<child[b]>", tree="chain")
        with QueryService(registry, workers=1) as service:
            service.run_batch([request])
            snap = service.stats_snapshot()
        assert isinstance(service.result_cache, ResultCache)
        # The service's own stats plus the cache section.
        assert sorted(snap) == [
            "completed",
            "errors",
            "fallbacks",
            "latency_p50",
            "latency_p90",
            "ok",
            "result_cache",
            "retries",
            "shed",
            "submitted",
        ]
        # The private hook for gates and engine-fault tests: no cache.
        with QueryService(registry, workers=1, _result_cache=False) as engines:
            results = engines.run_batch([request] * 3)
            snap = engines.stats_snapshot()
        assert engines.result_cache is None
        assert "result_cache" not in snap
        assert [r.routed for r in results] == ["bitset"] * 3


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
        with QueryService(registry, workers=2, _result_cache=False) as plain:
            expected = self._values(plain.run_batch(requests))
        with QueryService(registry, workers=2) as tuned:
            got = self._values(tuned.run_batch(requests))
            snap = tuned.stats_snapshot()
        assert got == expected
        assert snap["result_cache"]["events"]["hit"] >= len(self.WORKLOAD)

    def test_sharded_optimized_cached_matches_plain_service(self):
        registry = make_registry()
        requests = self._requests()
        with QueryService(registry, workers=2, _result_cache=False) as plain:
            expected = self._values(plain.run_batch(requests))
        with ShardedQueryService(
            registry,
            shards=2,
            workers_per_shard=1,
        ) as sharded:
            got = self._values(sharded.run_batch(requests))
            snap = sharded.stats_snapshot()
        assert got == expected
        assert snap["result_cache"]["events"]["hit"] >= 1

    def test_poisoned_evaluations_never_enter_the_cache(self):
        # A counted fault burst fails engine runs mid-flight.  Failed
        # leaders must abandon (nothing stored), retries run again, and
        # every value served — cached or not — must equal the clean oracle
        # answer.  A read whose every attempt faulted is a typed error.
        registry = make_registry()
        requests = self._requests(repeats=4)
        with QueryService(registry, workers=2, _result_cache=False) as plain:
            expected = self._values(plain.run_batch(requests))
        retry = RetryPolicy(max_attempts=3, base_delay=0.0001, max_delay=0.001)
        service = QueryService(registry, workers=2, retry=retry)
        try:
            fired = obs.counter("faults_injected_total", site="xpath.bitset")
            before = fired.value
            faults.arm("xpath.bitset", times=6)
            try:
                results = service.run_batch(requests)
            finally:
                faults.disarm()
            # The burst really hit evaluations (a dead arm would pass too);
            # how many of the six fire depends on cache hits.
            assert fired.value > before
            assert_typed_errors(results, retry.max_attempts, fired.value - before)
            for result, value in zip(results, expected):
                if result.status == "ok":
                    assert result.value == value
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
        # the worker's pin-epoch guard must refuse instead.  The request is
        # sighted once first: only a second sighting reaches cache.begin().
        registry = make_registry()
        service = QueryService(registry, workers=1)
        cache = service.result_cache
        real_begin = cache.begin
        raced = threading.Event()

        def racing_begin(key, tree, **kwargs):
            if not raced.is_set():
                raced.set()
                registry.mutate(
                    "talk", {"kind": "relabel", "node": 0, "label": "z"}
                )
            return real_begin(key, tree, **kwargs)

        cache.begin = racing_begin
        try:
            sighted = service.run_batch(
                [QueryRequest(op="eval", query="talk", tree="talk")]
            )[0]
            assert sighted.value == [0] and not raced.is_set()
            first = service.run_batch(
                [QueryRequest(op="eval", query="talk", tree="talk")]
            )[0]
            assert raced.is_set()
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

    def test_read_from_a_listener_sees_the_published_epoch(self):
        # The registry publishes a new epoch before it tells the cache, and
        # a listener subscribed before the service runs in between.  A read
        # it issues with the new epoch as its floor must not be served the
        # pre-edit entry.
        registry = TreeRegistry()
        registry.register("chain", chain(4, labels=("a",)))
        seen = []

        def read_after_publish(name):
            epoch = registry.epoch(name)
            request = QueryRequest(op="eval", query="a", tree=name, min_epoch=epoch)
            seen.append(service.submit(request).result(timeout=10.0))

        registry.subscribe(read_after_publish)
        service = QueryService(registry, workers=1)
        try:
            warm = service.run_batch(
                [QueryRequest(op="eval", query="a", tree="chain") for _ in range(3)]
            )
            assert [r.value for r in warm] == [[0, 1, 2, 3]] * 3
            assert warm[2].routed == "cache"
            registry.mutate("chain", {"kind": "relabel", "node": 0, "label": "b"})
            assert len(seen) == 1
            assert seen[0].status == "ok"
            assert seen[0].routed != "cache"
            assert seen[0].value == [1, 2, 3]
        finally:
            service.shutdown()


def _eval(service, query="<descendant[b]>", tree="chain", **fields):
    return service.submit(QueryRequest(op="eval", query=query, tree=tree, **fields))


class TestAdmission:
    """Second-sighting admission and hits answered inside submit()."""

    def test_first_sighting_stores_nothing_second_stores_third_hits(self):
        registry = make_registry()
        with QueryService(registry, workers=1) as service:
            cache = service.result_cache
            first = _eval(service).result(timeout=10.0)
            assert first.routed == "bitset"
            assert len(cache) == 0
            assert cache.snapshot()["events"]["miss"] == 0  # no lookup at all
            second = _eval(service).result(timeout=10.0)
            assert second.routed == "bitset"
            assert len(cache) == 1
            third = _eval(service).result(timeout=10.0)
        assert third.routed == "cache"
        assert first.value == second.value == third.value
        events = cache.snapshot()["events"]
        assert (events["miss"], events["store"], events["hit"]) == (1, 1, 1)

    def test_hit_resolves_inside_submit_without_the_queue(self):
        registry = make_registry()
        with QueryService(registry, workers=1) as service:
            for _ in range(2):
                _eval(service).result(timeout=10.0)
            queued = []
            real_put = service._queue.put

            def counting_put(job, **kwargs):
                queued.append(job)
                return real_put(job, **kwargs)

            service._queue.put = counting_put
            handle = _eval(service)
            assert handle.done()  # resolved before submit() returned
            result = handle.result(timeout=0)
            snap = service.stats_snapshot()
        assert queued == []
        assert (result.status, result.routed, result.worker) == (
            "ok", "cache", "admission",
        )
        assert snap["submitted"] == snap["ok"] == 3

    def test_sharded_hit_never_reaches_a_shard(self):
        registry = make_registry()
        with ShardedQueryService(registry, shards=2) as service:
            for _ in range(2):
                _eval(service).result(timeout=30.0)
            hit = _eval(service).result(timeout=30.0)
        assert (hit.routed, hit.worker) == ("cache", "admission")

    def test_expired_deadline_is_still_shed(self):
        registry = make_registry()
        with QueryService(registry, workers=1) as service:
            for _ in range(2):
                _eval(service).result(timeout=10.0)
            assert len(service.result_cache) == 1
            late = _eval(service, timeout=0.0).result(timeout=10.0)
        assert late.status == "shed"
        assert late.worker != "admission"

    def test_inline_xml_is_never_cached(self):
        registry = make_registry()
        with QueryService(registry, workers=1) as service:
            results = service.run_batch(
                [QueryRequest(op="eval", query="<child[b]>", xml=DOC) for _ in range(3)]
            )
            snap = service.stats_snapshot()["result_cache"]
        assert [r.routed for r in results] == ["bitset"] * 3
        assert snap["entries"] == 0
        assert snap["events"]["miss"] == 0

    def test_admission_set_stays_bounded(self):
        cache = ResultCache(max_entries=2)  # room for 8 texts
        assert cache.admit("t0") is False
        assert cache.admit("t0") is True
        for i in range(1, 9):  # the ninth text finds the set full
            cache.admit(f"t{i}")
        assert cache.admit("t0") is False  # forgotten with the rest
        for i in range(1000):
            cache.admit(f"u{i}")
        assert len(cache._seen) <= 4 * cache.max_entries

    def test_callbacks_chained_over_hits_do_not_recurse(self):
        registry = make_registry()
        total = 5000
        done = threading.Event()
        results = []

        def chain_next(result):
            results.append(result)
            if len(results) < total:
                _eval(service).add_done_callback(chain_next)
            else:
                done.set()

        with QueryService(registry, workers=2) as service:
            for _ in range(2):
                _eval(service).result(timeout=10.0)
            _eval(service).add_done_callback(chain_next)
            assert done.wait(60.0)
        assert len(results) == total
        assert all(r.status == "ok" for r in results)
        assert all(r.routed == "cache" for r in results)
        # The first answers at admission; each one submitted from a
        # callback goes to a worker.
        assert results[0].worker == "admission"
        assert all(r.worker != "admission" for r in results[1:])


class TestCopies:
    """Every reader owns its answer: editing it edits no later answer."""

    def test_store_and_hits_hand_out_copies(self):
        cache = ResultCache()
        value = [0, 1, 2, 3]
        store(cache, ("eval", "doc", "k"), "doc", value)
        value.append(98)  # the leader's own answer is not the stored one
        _, first = cache.begin(("eval", "doc", "k"), "doc")
        first.append(99)
        _, second = cache.begin(("eval", "doc", "k"), "doc")
        assert second == [0, 1, 2, 3]
        second.clear()
        assert cache.lookup(("eval", "doc", "k")) == [0, 1, 2, 3]

    def test_nested_values_and_followers_get_copies(self):
        cache = ResultCache()
        key = ("check", "doc", "F:child(x, y)")
        _, leader = cache.begin(key, "doc")
        _, follower = cache.begin(key, "doc")
        cache.complete(leader, [[0, 1], [1, 2]])
        reused = follower.wait(0)
        reused[0].append(7)
        assert follower.wait(0) == [[0, 1], [1, 2]]
        assert cache.lookup(key) == [[0, 1], [1, 2]]
        assert type(cache.lookup(key)) is list

    def test_service_answers_are_independent(self):
        registry = TreeRegistry()
        registry.register("chain", chain(4, labels=("a",)))
        with QueryService(registry, workers=1) as service:
            answers = [
                _eval(service, query="a").result(timeout=10.0) for _ in range(3)
            ]
            assert answers[1].routed == "bitset" and answers[2].routed == "cache"
            answers[1].value.append(98)  # the leader's answer
            answers[2].value.append(99)  # a hit's answer
            assert _eval(service, query="a").result(timeout=10.0).value == [0, 1, 2, 3]
            cleared = _eval(service, query="a").result(timeout=10.0)
            cleared.value.clear()
            again = _eval(service, query="a").result(timeout=10.0)
        assert again.routed == "cache"
        assert again.value == [0, 1, 2, 3]

    def test_verdicts_stay_dicts(self):
        registry = make_registry()
        request = QueryRequest(op="equivalent", left="<child[a]>", right="<child[a]/self>")
        with QueryService(registry, workers=1) as service:
            results = service.run_batch([request] * 3)
            assert results[2].routed == "cache"
            assert type(results[2].value) is dict
            results[2].value["equivalent"] = None
            again = service.run_batch([request])[0]
        assert again.routed == "cache"
        assert again.value == {"equivalent": True, "method": "exact", "witness": None}


class _Ids(list):
    """A list subclass, which only the walk may size and copy."""


#: Every shape the runners answer with, and lists the type scan must leave
#: to the walk.
ANSWERS = {
    "empty": [],
    "ids": [0, 3, 7, 11],
    "none": None,
    "holds": True,
    "verdict": {"equivalent": False, "method": "exact", "witness": "<a><b/></a>"},
    "pairs": [[0, 1], [1, 2], [1, 3]],
    "str-item": [0, "a", 2],
    "dict-item": [{"witness": "<a/>", "ids": [1, 2]}, 4],
    "list-subclass-item": [_Ids([1, 2]), 3],
}


def _scribble(value) -> None:
    """Edit every container in ``value``, nested ones included."""
    if isinstance(value, list):
        for item in value:
            _scribble(item)
        value.append("scribble")
    elif isinstance(value, dict):
        for item in value.values():
            _scribble(item)
        value["scribble"] = True


class TestMeasure:
    """An answer is sized and copied from its element types, not walked."""

    @pytest.mark.parametrize("name", list(ANSWERS))
    def test_stored_size_is_the_walks(self, name):
        value = ANSWERS[name]
        assert measure(value) == (approx_size(value), copier(value))
        cache = ResultCache()
        store(cache, ("eval", "doc", name), "doc", copy.deepcopy(value))
        assert cache.snapshot()["bytes"] == approx_size(value)

    @pytest.mark.parametrize("name", list(ANSWERS))
    def test_editing_a_readers_copy_edits_no_stored_value(self, name):
        cache = ResultCache()
        key = ("eval", "doc", name)
        _, leader = cache.begin(key, "doc")
        _, follower = cache.begin(key, "doc")
        answer = copy.deepcopy(ANSWERS[name])
        cache.complete(leader, answer)
        _scribble(answer)
        _scribble(follower.wait(0))
        _scribble(cache.lookup(key))
        _scribble(cache.begin(key, "doc")[1])
        assert cache.lookup(key) == ANSWERS[name]
        assert follower.wait(0) == ANSWERS[name]

    def test_a_long_id_list_costs_no_python_call_per_item(self):
        # The walk calls approx_size once per id, and choosing the copier
        # resumes a generator once per id: 200,000 calls here.
        cache = ResultCache(max_value_bytes=8 << 20)
        value = list(range(100_000))
        _, flight = cache.begin(("eval", "doc", "long"), "doc")
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            cache.complete(flight, value)
        finally:
            sys.setprofile(None)
        assert calls < 20
        assert cache.snapshot()["bytes"] == 56 + 32 * len(value)
