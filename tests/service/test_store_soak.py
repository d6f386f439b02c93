"""Disk-backed store acceptance soak: a corpus ≥ 10× the resident budget
served through a mixed read/mutate batch with zero wrong answers.

The acceptance contract (threaded and sharded variants):

* the stored corpus's total index bytes are at least **10× the resident
  byte budget**, so most trees are cold at any moment and almost every
  read crosses the mmap cold-load path;
* a 500-request mixed read/mutate batch resolves with **zero wrong
  answers**: reads on read-only trees equal the exact sets-backend
  oracle; reads on the live (mutated) trees equal the oracle of some
  epoch inside the request's observation window (the mutation-soak
  staleness contract);
* the write history reconciles — published epochs contiguous, the final
  tree equal to the structural fold of the applied edits — even though
  the live trees are evicted and reloaded from disk throughout;
* ``registry_resident_bytes`` never exceeds the budget at any drain
  point (pins held by in-flight requests may overshoot transiently, so
  the gauge is sampled whenever the service is quiescent);
* mid-run ``store.load`` fault bursts surface as retried-or-structured
  outcomes, never as wrong answers: every non-ok result is a typed error
  with its retries spent, and the fired faults (merged from the shards on
  the sharded tier) pay for all of them, ``errors * max_attempts <=
  fires``.
"""

from __future__ import annotations

import os

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
from repro.trees import TreeStore, index_nbytes, random_tree, tree_index
from repro.trees.mutate import apply_edit, edit_from_json
from repro.xpath import Evaluator, parse_node

from .test_soak import assert_typed_errors

START_METHOD = os.environ.get("REPRO_START_METHOD", "fork")

#: Net-growth edit cycle from the mutation soak: size never drops below 2,
#: so delete-of-node-1 stays legal forever.
_EDITS = [
    {"kind": "insert", "parent": 0, "index": 0, "xml": "<x/>"},
    {"kind": "insert", "parent": 0, "index": 1, "xml": "<b><x/></b>"},
    {"kind": "delete", "node": 1},
    {"kind": "relabel", "node": 0, "label": "r"},
    {"kind": "insert", "parent": 1, "index": 0, "xml": "<b/>"},
    {"kind": "relabel", "node": 0, "label": "a"},
]

_QUERIES = ["b", "x", "<descendant[b]>", "<child[x]>"]

READONLY = 26  # cold corpus trees
LIVE = ("live0", "live1")  # the mutated trees


def _oracle(tree, query: str):
    return sorted(Evaluator(tree, backend="sets").nodes(parse_node(query)))


def _build_corpus(tmp_path):
    """A registry + store whose corpus is >= 10x the resident budget."""
    import random

    registry = TreeRegistry()
    originals = {}
    for i in range(READONLY):
        name = f"doc{i:02d}"
        originals[name] = random_tree(40 + (i * 7) % 25, "abx", random.Random(i))
        registry.register(name, originals[name])
    for name in LIVE:
        originals[name] = random_tree(12, "abx", random.Random(hash(name) % 1000))
        registry.register(name, originals[name])
    total = sum(
        index_nbytes(tree_index(tree)) for tree in originals.values()
    )
    budget = total // 12
    assert budget >= max(
        index_nbytes(tree_index(tree)) for tree in originals.values()
    ), "budget must admit the largest single tree"
    store = TreeStore(tmp_path / "store")
    registry.attach_store(store, resident_budget=budget)
    assert store.total_bytes() >= 10 * budget, (
        f"corpus {store.total_bytes()} bytes must be >= 10x budget {budget}"
    )
    return registry, store, originals, budget


def _run_soak(tmp_path, make_service, *, sharded: bool, total: int) -> None:
    registry, store, originals, budget = _build_corpus(tmp_path)
    names = sorted(originals)
    fired_before = obs.REGISTRY.total("faults_injected_total")
    service = make_service(registry)
    edits: dict[str, tuple[str, dict]] = {}
    reads: dict[str, tuple[str, str]] = {}
    windows: dict[str, list] = {}
    results = {}
    gauge = obs.gauge("registry_resident_bytes")
    gauge_samples = []
    try:
        for chunk_start in range(0, total, 25):
            handles = {}
            for i in range(chunk_start, min(chunk_start + 25, total)):
                if i == total // 3 or i == 2 * total // 3:
                    # Chaos mid-run: cold loads fail transiently, workers
                    # fault, and (sharded) a shard's load or refresh fails.
                    faults.arm("store.load", times=3)
                    faults.arm("service.worker", times=4)
                    if sharded:
                        service.arm_faults("store.load", times=1)
                rid = f"mix-{i}"
                if i % 5 == 4:
                    live = LIVE[i % len(LIVE)]
                    edit = _EDITS[(i // 5) % len(_EDITS)]
                    edits[rid] = (live, edit)
                    request = QueryRequest(op="mutate", id=rid, tree=live, edit=edit)
                    windows[rid] = [registry.epoch(live), None]
                else:
                    name = names[i % len(names)]
                    query = _QUERIES[i % len(_QUERIES)]
                    reads[rid] = (name, query)
                    request = QueryRequest(op="eval", id=rid, query=query, tree=name)
                    windows[rid] = [registry.epoch(name), None]
                handle = service.submit(request)

                def _record(result, window=windows[rid], name=request.tree):
                    window[1] = registry.epoch(name)

                handle.add_done_callback(_record)
                handles[rid] = handle
            for rid, handle in handles.items():
                results[rid] = handle.result(timeout=120.0)
            # Quiescent: every pin released, so the budget must hold.
            gauge_samples.append(gauge.value)

        # Leftover armed faults must not leak into the verification phase
        # (its own registry touches cross the store.load site too).
        faults.disarm()

        # -- every request resolved exactly once, structurally ---------------
        assert set(results) == {f"mix-{i}" for i in range(total)}
        for rid, result in results.items():
            assert result.status in ("ok", "error", "shed"), rid
            if result.status != "ok":
                assert result.error is not None

        # -- resident bytes bounded at every drain point ---------------------
        assert gauge_samples and all(s <= budget for s in gauge_samples), (
            f"resident bytes exceeded budget {budget}: {gauge_samples}"
        )

        # -- write history reconciles per live tree --------------------------
        epoch_trees = {name: {1: originals[name]} for name in LIVE}
        max_epoch = {}
        for live in LIVE:
            ok_writes = sorted(
                (results[rid].value["epoch"], rid)
                for rid, (name, _) in edits.items()
                if name == live and results[rid].status == "ok"
            )
            assert [e for e, _ in ok_writes] == list(
                range(2, 2 + len(ok_writes))
            ), f"{live}: published epochs must be exactly contiguous"
            for epoch, rid in ok_writes:
                epoch_trees[live][epoch] = apply_edit(
                    epoch_trees[live][epoch - 1], edit_from_json(edits[rid][1])
                )
            max_epoch[live] = 1 + len(ok_writes)
            assert registry.epoch(live) == max_epoch[live]
            # The final tree survives an evict/reload round trip intact.
            assert store.epoch(live) == max_epoch[live]
            registry.evict(live)
            assert registry.get(live) == epoch_trees[live][max_epoch[live]]

        # -- zero wrong answers ----------------------------------------------
        answers: dict[tuple, list] = {}

        def answer(tree, key, query):
            if (key, query) not in answers:
                answers[(key, query)] = _oracle(tree, query)
            return answers[(key, query)]

        ok_reads = 0
        for rid, (name, query) in reads.items():
            result = results[rid]
            if result.status != "ok":
                continue
            ok_reads += 1
            if name not in epoch_trees:
                assert result.value == answer(originals[name], name, query), (
                    f"{rid}: wrong answer for read-only {name!r}"
                )
                continue
            e_lo, e_hi = windows[rid]
            assert e_hi is not None, rid
            window_epochs = range(e_lo, min(e_hi + 1, max_epoch[name]) + 1)
            assert any(
                result.value
                == answer(epoch_trees[name][epoch], (name, epoch), query)
                for epoch in window_epochs
            ), f"{rid}: torn or stale read of {name!r}"

        metrics = service.merged_registry() if sharded else obs.REGISTRY
        fired = metrics.total("faults_injected_total") - fired_before
        assert_typed_errors(results.values(), service.retry.max_attempts, fired)
        ok_total = sum(1 for r in results.values() if r.status == "ok")
        assert ok_total >= total * 0.9
        assert ok_reads >= 1 and len(edits) >= 1
        assert obs.counter("store_loads_total", event="ok").value > 0
        assert obs.counter("store_evictions_total").value > 0
    finally:
        faults.disarm()
        service.shutdown()


@pytest.mark.soak
def test_store_soak_threaded(tmp_path):
    _run_soak(
        tmp_path,
        lambda registry: QueryService(
            registry,
            workers=4,
            queue_limit=48,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004),
        ),
        sharded=False,
        total=500,
    )


@pytest.mark.soak
def test_store_soak_sharded(tmp_path):
    _run_soak(
        tmp_path,
        lambda registry: ShardedQueryService(
            registry,
            shards=2,
            start_method=START_METHOD,
            workers_per_shard=1,
            queue_limit=48,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004),
        ),
        sharded=True,
        total=250,
    )
