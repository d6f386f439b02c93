"""The eviction-hardened registry over a disk-backed store.

Covers the races the LRU tier must survive:

* cold trees load from the store on first touch, **single-flight** (one
  concurrent load per name, everyone gets the same snapshot);
* the resident set is bounded by the byte budget, least-recently-used
  unpinned trees evicted first, and ``registry_resident_bytes`` tracks it;
* ``evict`` refuses a pinned tree; an evict *between* a load and the
  query re-loads transparently; epochs survive eviction so the result
  cache's freshness guard holds across an evict/reload cycle;
* every generation is packed before its epoch is published (stored epoch
  == published epoch; a failed pack publishes nothing), and shards catch
  up by refreshing from the store on stamped reads.
"""

from __future__ import annotations

import os
import threading
import weakref

import pytest

from repro import obs
from repro.runtime import faults
from repro.service import (
    QueryRequest,
    QueryService,
    RetryPolicy,
    ShardedQueryService,
    TreeRegistry,
)
from repro.trees import TreeStore, index_nbytes, parse_xml, tree_index

START_METHOD = os.environ.get("REPRO_START_METHOD", "fork")

DOCS = {
    "alpha": "<a><b/><b/><c/></a>",
    "beta": "<a><c><b/></c><b/></a>",
    "gamma": "<a><b><c/><c/></b></a>",
    "delta": "<a><c/><c/><b/><b/></a>",
}


def make_registry(budget_trees: float = 2.5) -> "tuple[TreeRegistry, TreeStore]":
    """A registry over a tmp store whose budget holds ~``budget_trees`` trees."""
    registry = TreeRegistry()
    trees = {name: parse_xml(xml) for name, xml in DOCS.items()}
    for name, tree in trees.items():
        registry.register(name, tree)
    per_tree = max(index_nbytes(tree_index(t)) for t in trees.values())
    store = TreeStore(make_registry.tmp_path / "store")
    registry.attach_store(store, resident_budget=int(per_tree * budget_trees))
    return registry, store


@pytest.fixture(autouse=True)
def _tmp_store_dir(tmp_path):
    make_registry.tmp_path = tmp_path
    yield
    del make_registry.tmp_path


class TestColdLoads:
    def test_attach_packs_and_evicts_to_budget(self):
        registry, store = make_registry()
        assert sorted(store.names()) == sorted(DOCS)
        assert registry.names() == sorted(DOCS)
        assert len(registry.resident_names()) < len(DOCS)
        assert registry.resident_bytes <= registry.resident_budget
        assert obs.gauge("registry_resident_bytes").value == registry.resident_bytes

    def test_cold_tree_loads_on_first_touch(self):
        registry, _ = make_registry()
        cold = sorted(set(DOCS) - set(registry.resident_names()))[0]
        before = obs.counter("store_loads_total", event="ok").value
        tree = registry.get(cold)
        assert tree.labels[0] == "a"
        assert obs.counter("store_loads_total", event="ok").value == before + 1
        assert cold in registry.resident_names()
        assert registry.resident_bytes <= registry.resident_budget

    def test_unknown_tree_still_a_value_error(self):
        registry, _ = make_registry()
        with pytest.raises(ValueError, match="unknown tree"):
            registry.get("ghost")

    def test_single_flight_concurrent_cold_load(self):
        registry, _ = make_registry()
        cold = sorted(set(DOCS) - set(registry.resident_names()))[0]
        before = obs.counter("store_loads_total", event="ok").value
        results = []
        barrier = threading.Barrier(8)

        def touch():
            barrier.wait()
            results.append(registry.get(cold))

        threads = [threading.Thread(target=touch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(tree) for tree in results}) == 1
        assert obs.counter("store_loads_total", event="ok").value == before + 1

    def test_register_writes_through(self):
        registry, store = make_registry()
        registry.register("fresh", parse_xml("<a><b/></a>"))
        assert "fresh" in store
        assert store.epoch("fresh") == registry.epoch("fresh") == 1
        assert registry.resident_bytes <= registry.resident_budget


class TestEviction:
    def test_lru_order(self):
        registry, _ = make_registry(budget_trees=1.5)
        # Touch in a known order; the budget holds one tree, so each touch
        # evicts the previous one.
        for name in sorted(DOCS):
            registry.get(name)
            assert registry.resident_names() == [name]
        assert obs.counter("store_evictions_total").value >= len(DOCS) - 1

    def test_evict_while_pinned_refused(self):
        registry, _ = make_registry()
        name = registry.resident_names()[0]
        with registry.pin(name):
            with pytest.raises(ValueError, match="pinned"):
                registry.evict(name)
            assert name in registry.resident_names()
        freed = registry.evict(name)  # released: eviction proceeds
        assert freed > 0
        assert name not in registry.resident_names()

    def test_budget_pressure_skips_pinned_trees(self):
        registry, _ = make_registry(budget_trees=1.5)
        names = sorted(DOCS)
        with registry.pin(names[0]):
            for name in names[1:]:
                registry.get(name)
            assert names[0] in registry.resident_names()

    def test_evict_cold_tree_is_a_noop(self):
        registry, _ = make_registry()
        cold = sorted(set(DOCS) - set(registry.resident_names()))[0]
        assert registry.evict(cold) == 0

    def test_evict_unknown_tree_raises(self):
        registry, _ = make_registry()
        with pytest.raises(ValueError, match="unknown"):
            registry.evict("ghost")

    def test_evict_between_load_and_query_reloads_transparently(self):
        registry, _ = make_registry()
        name = sorted(DOCS)[0]
        first = registry.get(name)
        registry.evict(name)
        assert name not in registry.resident_names()
        again = registry.get(name)  # transparent reload
        assert again.labels == first.labels
        assert name in registry.resident_names()

    def test_epoch_survives_eviction(self):
        registry, _ = make_registry()
        name = sorted(DOCS)[0]
        registry.mutate(name, {"kind": "relabel", "node": 0, "label": "c"})
        epoch = registry.epoch(name)
        assert epoch == 2
        registry.evict(name)
        assert registry.epoch(name) == epoch  # epochs outlive residency
        _, loaded_epoch = registry.snapshot(name)
        assert loaded_epoch == epoch

    def test_cold_tree_reports_its_stored_epoch(self):
        registry, store = make_registry()
        for i, name in enumerate(sorted(DOCS)):
            for _ in range(i + 1):
                registry.mutate(name, {"kind": "relabel", "node": 0, "label": "c"})
        fresh = TreeRegistry()
        fresh.attach_store(store)
        loads = obs.counter("store_loads_total", event="ok").value
        assert [fresh.epoch(name) for name in sorted(DOCS)] == [2, 3, 4, 5]
        assert fresh.epoch("ghost") == 0
        # Read from the headers: nothing was loaded.
        assert fresh.resident_names() == []
        assert obs.counter("store_loads_total", event="ok").value == loads

    def test_pin_epoch_stable_across_evict_of_other_trees(self):
        registry, _ = make_registry(budget_trees=1.5)
        names = sorted(DOCS)
        pin = registry.pin(names[0])
        for name in names[1:]:  # pressure: everything else cycles through
            registry.get(name)
        assert registry.epoch(pin.name) == pin.epoch
        assert pin.tree.labels[0] == "a"  # snapshot still readable
        pin.release()


class TestWriteThrough:
    def test_mutate_packs_new_generation(self):
        registry, store = make_registry()
        name = sorted(DOCS)[0]
        before = store.epoch(name)
        _, epoch = registry.mutate(
            name, {"kind": "insert", "parent": 0, "index": 0, "xml": "<b/>"}
        )
        assert epoch == before + 1
        assert store.epoch(name) == epoch
        loaded, loaded_epoch = store.load(name)
        assert loaded_epoch == epoch
        assert loaded.labels.count("b") == parse_xml(DOCS[name]).labels.count("b") + 1

    def test_mutated_then_evicted_tree_reloads_current(self):
        registry, _ = make_registry()
        name = sorted(DOCS)[0]
        registry.mutate(name, {"kind": "relabel", "node": 0, "label": "z"})
        registry.evict(name)
        assert registry.get(name).labels[0] == "z"

    def test_failed_pack_aborts_mutation_untouched(self, monkeypatch):
        registry, store = make_registry()
        name = registry.resident_names()[0]
        tree, epoch = registry.snapshot(name)

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store, "pack", full_disk)
        with QueryService(registry, workers=1) as svc:
            result = svc.run_batch(
                [
                    QueryRequest(
                        op="mutate",
                        tree=name,
                        edit={"kind": "relabel", "node": 0, "label": "z"},
                    )
                ]
            )[0]
        assert result.status == "error"
        assert result.exit_code == 3
        # Pack comes before publish: nothing moved anywhere.
        assert registry.epoch(name) == epoch
        assert registry.get(name) is tree
        assert store.epoch(name) == epoch
        assert store.load(name)[0] == tree
        # Registrations follow the same rule.
        with pytest.raises(OSError):
            registry.register("fresh", parse_xml("<a/>"))
        assert registry.epoch("fresh") == 0
        assert "fresh" not in registry.names()

    def test_refresh_drops_stale_resident(self):
        registry, _ = make_registry()
        name = registry.resident_names()[0]
        registry.refresh(name, registry.epoch(name))  # current: no-op
        assert name in registry.resident_names()
        registry.refresh(name, registry.epoch(name) + 1)  # newer elsewhere
        assert name not in registry.resident_names()


class TestResultCacheGuard:
    def run(self, svc, query="descendant[b]", tree="alpha"):
        return svc.run_batch(
            [QueryRequest(op="select", query=query, tree=tree)]
        )[0]

    def test_cache_stays_fresh_across_evict_and_mutate(self):
        registry, _ = make_registry()
        with QueryService(
            registry, workers=2
        ) as svc:
            self.run(svc)  # first sighting: not stored
            first = self.run(svc)
            assert first.status == "ok"
            # Eviction does not bump the epoch: the cached result stays
            # valid and is still answered at admission.
            registry.evict("alpha")
            again = self.run(svc)
            assert again.routed == "cache"
            assert again.value == first.value
            # A mutation *does* bump the epoch — the changed answer must
            # be recomputed, never served from the pre-edit cache entry.
            registry.mutate(
                "alpha", {"kind": "insert", "parent": 0, "index": 0, "xml": "<b/>"}
            )
            registry.evict("alpha")
            fresh = self.run(svc)
            assert fresh.status == "ok"
            assert len(fresh.value) == len(first.value) + 1

    def test_store_load_fault_is_retried_transparently(self):
        registry, _ = make_registry()
        cold = sorted(set(DOCS) - set(registry.resident_names()))[0]
        with QueryService(
            registry, workers=1, retry=RetryPolicy(max_attempts=3, base_delay=0.0)
        ) as svc:
            faults.arm("store.load", times=1)
            result = self.run(svc, tree=cold)
            assert result.status == "ok"
            assert result.retries == 1


class TestShardedStoreMode:
    def test_reads_mutations_and_drop_invalidations(self):
        registry, store = make_registry()
        svc = ShardedQueryService(
            registry, shards=2, start_method=START_METHOD, workers_per_shard=1
        )
        try:
            for name in sorted(DOCS):
                result = svc.run_batch(
                    [QueryRequest(op="select", query="descendant[b]", tree=name)]
                )[0]
                assert result.status == "ok"
                expected = [
                    i
                    for i, lbl in enumerate(parse_xml(DOCS[name]).labels)
                    if lbl == "b"
                ]
                assert result.value == expected
            mutated = svc.run_batch(
                [
                    QueryRequest(
                        op="mutate",
                        tree="alpha",
                        edit={"kind": "insert", "parent": 0, "index": 0, "xml": "<b/>"},
                    )
                ]
            )[0]
            assert mutated.status == "ok"
            epoch = registry.epoch("alpha")
            assert store.epoch("alpha") == epoch  # packed before broadcast
            # Every shard must serve the new generation: min_epoch asserts
            # freshness, and the drop invalidation is what makes it pass.
            for _ in range(6):
                fresh = svc.run_batch(
                    [
                        QueryRequest(
                            op="select",
                            query="descendant[b]",
                            tree="alpha",
                            min_epoch=epoch,
                        )
                    ]
                )[0]
                assert fresh.status == "ok"
                assert len(fresh.value) == 3
        finally:
            svc.shutdown()

    def test_post_startup_register_reaches_shards_via_store(self):
        registry, store = make_registry()
        svc = ShardedQueryService(
            registry, shards=2, start_method=START_METHOD, workers_per_shard=1
        )
        try:
            svc.register("fresh", parse_xml("<a><b/><b/></a>"))
            assert "fresh" in store
            for _ in range(4):
                result = svc.run_batch(
                    [
                        QueryRequest(
                            op="select",
                            query="descendant[b]",
                            tree="fresh",
                            min_epoch=registry.epoch("fresh"),
                        )
                    ]
                )[0]
                assert result.status == "ok"
                assert result.value == [1, 2]
        finally:
            svc.shutdown()


class TestScratchStoreLifecycle:
    def test_detach_store_reloads_cold_trees(self):
        registry, store = make_registry()
        cold = sorted(set(DOCS) - set(registry.resident_names()))
        assert cold
        epochs = {name: registry.epoch(name) for name in DOCS}
        assert registry.detach_store() is store
        assert registry.store is None
        assert sorted(registry.resident_names()) == sorted(DOCS)
        assert {name: registry.epoch(name) for name in DOCS} == epochs
        assert registry.detach_store() is None

    def test_sharded_service_refuses_a_read_only_store(self):
        registry, store = make_registry()
        replica = TreeRegistry()
        replica.attach_store(TreeStore(store.directory), readonly=True)
        with pytest.raises(ValueError, match="read-only"):
            ShardedQueryService(replica, shards=1, start_method=START_METHOD)


class TestStampedRefresh:
    def test_stamped_reads_never_stale_under_concurrent_mutation(self):
        # A shard in miniature: a read-only registry over the store a
        # writable registry mutates.  Every read carries the writer's epoch
        # at submit time, as the sharded parent stamps it; more workers
        # than cores race each other's refreshes and the writer's packs.
        # Pack-before-publish plus one refresh per stale pin must make
        # every read fresh enough — a lost refresh shows as StaleEpochError.
        import sys

        writer, store = make_registry()
        shard = TreeRegistry()
        shard.attach_store(TreeStore(store.directory), readonly=True)
        name = sorted(DOCS)[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(
                shard, workers=6, retry=RetryPolicy(max_attempts=1)
            ) as svc:
                handles = []
                for i in range(40):
                    writer.mutate(
                        name, {"kind": "relabel", "node": 0, "label": "xyz"[i % 3]}
                    )
                    stamp = writer.epoch(name)
                    handles.extend(
                        svc.submit(
                            QueryRequest(
                                op="eval", query="x", tree=name, min_epoch=stamp
                            )
                        )
                        for _ in range(3)
                    )
                results = [handle.result(timeout=30) for handle in handles]
        finally:
            sys.setswitchinterval(interval)
        assert [r.error for r in results if r.status != "ok"] == []
        assert shard.epoch(name) <= writer.epoch(name) == 41


def _ignore() -> None:
    pass


def probe(tree, on_free=_ignore) -> weakref.finalize:
    """A finalizer probe on ``tree``'s index: alive until it is freed."""
    return weakref.finalize(tree_index(tree), on_free)


def probe_loads(monkeypatch, on_free=_ignore) -> list:
    """A :func:`probe` on every tree any store loads from here on."""
    probes = []
    real_load = TreeStore.load

    def load(self, name):
        tree, epoch = real_load(self, name)
        probes.append(probe(tree, on_free))
        return tree, epoch

    monkeypatch.setattr(TreeStore, "load", load)
    return probes


def resident_index_ids(registry) -> set:
    return {
        id(tree_index(registry._trees[name]))
        for name in registry.resident_names()
    }


def alive_index_ids(probes) -> set:
    return {id(probe.peek()[0]) for probe in probes if probe.alive}


class TestHandleHygiene:
    def test_no_handle_leak_after_evict_cycle(self, monkeypatch, gc_disabled):
        # Only resident trees keep a loaded index alive; evicted trees'
        # indexes die with their tree objects, without the collector.
        registry, _ = make_registry(budget_trees=1.5)
        probes = probe_loads(monkeypatch)
        for name in sorted(DOCS) * 3:
            registry.get(name)
        assert len(probes) > len(DOCS)  # the budget forced reloads
        assert alive_index_ids(probes) <= resident_index_ids(registry)

    def test_evicted_generations_close_without_collection(self, gc_disabled):
        # Trees hold no reference cycles, so an evicted or superseded
        # generation is freed as soon as its last holder lets go; the
        # cyclic collector is off to prove it is not needed.
        registry, _ = make_registry(budget_trees=1.5)
        probes = []
        for round_ in range(3):
            for name in sorted(DOCS):
                with registry.pin(name) as pin:
                    assert pin.tree.labels[0] == "a"
                    probes.append(probe(pin.tree))
                if round_ == 1:
                    registry.mutate(
                        name, {"kind": "relabel", "node": 1, "label": "c"}
                    )
                    probes.append(probe(registry.get(name)))
            del pin
        # Every generation still alive is a resident one.
        alive = alive_index_ids(probes)
        assert alive
        assert alive <= resident_index_ids(registry)
        assert sum(not probe.alive for probe in probes) >= len(DOCS)

    def test_last_reference_never_dropped_under_the_lock(
        self, monkeypatch, gc_disabled
    ):
        # Freeing a generation (index, plans, tables) happens wherever its
        # last reference goes; the registry must let it go after releasing
        # the lock every pin and lookup needs.
        registry, _ = make_registry(budget_trees=1.5)
        locked_at_free = []
        probes = probe_loads(
            monkeypatch, lambda: locked_at_free.append(registry._lock.locked())
        )
        for name in sorted(DOCS) * 2:  # evictions of store-loaded trees
            registry.get(name)
        for name in registry.resident_names():  # refresh drops
            registry.refresh(name, registry.epoch(name) + 1)
        cold = sorted(set(DOCS) - set(registry.resident_names()))[0]
        registry.get(cold)
        registry.register(cold, parse_xml("<a><b/></a>"))  # replaces it
        assert probes and locked_at_free and not any(locked_at_free)
