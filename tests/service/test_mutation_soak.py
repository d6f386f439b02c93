"""Mixed read/write chaos soak: live-document edits racing reads under
fault bursts, with the write history reconciled edit by edit.

The acceptance contract (threaded and sharded variants):

* **zero lost / duplicated** — every admitted request resolves exactly
  once, reads and writes alike;
* **zero torn** — every ``ok`` read equals the *exact* oracle answer of
  some published epoch (a value matching no epoch would mean a reader saw
  a half-applied edit);
* **zero stale-beyond-epoch** — that epoch lies inside the request's
  observation window: at least the epoch published when it was submitted
  (no going back in time), at most one past the epoch published when it
  resolved (the pack-before-publish handover means a shard can load an
  epoch the parent is nanoseconds from publishing);
* **write history reconciles** — the ``ok`` mutations' epochs are exactly
  contiguous (each published one epoch, none lost, none doubled), and the
  registry's final tree equals the structural fold of those edits in epoch
  order — computed with :func:`repro.trees.mutate.apply_edit`, never the
  incremental path, so the soak cross-checks delta maintenance end to end;
* faults burst *mid-mutation*: ``trees.mutate`` (writer retries),
  ``service.worker`` / ``xpath.bitset`` (reader retries), and — sharded —
  shard-side ``store.load`` (a shard's refresh of a mutated tree fails for
  a moment and must be retried, never served stale);
* every non-ok result, read or write, is a typed error with its retries
  spent, and the fired faults (merged from the shards on the sharded
  tier) pay for all of them: ``errors * max_attempts <= fires``.
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
from repro.trees import parse_xml
from repro.trees.mutate import apply_edit, edit_from_json
from repro.xpath import Evaluator, parse_node

from .test_soak import assert_typed_errors

START_METHOD = os.environ.get("REPRO_START_METHOD", "fork")

DOC = "<a><b/><c/></a>"

#: Always-valid edit cycle (size never drops below 2, node 0 is the root,
#: node 1 always exists): net growth keeps delete-of-node-1 legal forever.
_EDITS = [
    {"kind": "insert", "parent": 0, "index": 0, "xml": "<x/>"},
    {"kind": "insert", "parent": 0, "index": 1, "xml": "<b><x/></b>"},
    {"kind": "delete", "node": 1},
    {"kind": "relabel", "node": 0, "label": "r"},
    {"kind": "insert", "parent": 1, "index": 0, "xml": "<b/>"},
    {"kind": "relabel", "node": 0, "label": "a"},
]

_QUERIES = ["b", "x", "<descendant[b]>", "<child[x]>"]


def _oracle(tree, query: str):
    return sorted(Evaluator(tree, backend="sets").nodes(parse_node(query)))


def _run_soak(make_service, *, sharded: bool) -> None:
    registry = TreeRegistry()
    registry.register("live", parse_xml(DOC))
    total = 240
    fired_before = obs.REGISTRY.total("faults_injected_total")
    service = make_service(registry)
    edits: dict[str, dict] = {}
    reads: dict[str, str] = {}
    windows: dict[str, list] = {}
    handles = {}
    try:
        for i in range(total):
            if i == total // 3:
                # Chaos mid-run, bursting while mutations are in flight.
                faults.arm("trees.mutate", times=2)
                faults.arm("service.worker", times=8)
                faults.arm("xpath.bitset", times=12)
                if sharded:
                    service.arm_faults("store.load", times=2)
            if i == 2 * total // 3:
                faults.arm("trees.mutate", times=1)
                if sharded:
                    service.arm_faults("store.load", times=1)
            rid = f"mix-{i}"
            if i % 4 == 3:
                edit = _EDITS[(i // 4) % len(_EDITS)]
                edits[rid] = edit
                request = QueryRequest(op="mutate", id=rid, tree="live", edit=edit)
            else:
                query = _QUERIES[i % len(_QUERIES)]
                reads[rid] = query
                request = QueryRequest(op="eval", id=rid, query=query, tree="live")
            window = [registry.epoch("live"), None]
            windows[rid] = window
            handle = service.submit(request)

            def _record(result, window=window):
                window[1] = registry.epoch("live")

            handle.add_done_callback(_record)
            handles[rid] = handle
        results = {rid: h.result(timeout=120.0) for rid, h in handles.items()}

        # -- zero lost, zero duplicated, one structured outcome each ---------
        assert set(results) == {f"mix-{i}" for i in range(total)}
        for rid, result in results.items():
            assert result.status in ("ok", "error", "shed"), rid
            if result.status != "ok":
                assert result.error is not None
                assert result.error["exit_code"] in range(2, 10)

        # -- the write history reconciles, edit by edit ----------------------
        ok_writes = [
            (results[rid].value["epoch"], rid)
            for rid in edits
            if results[rid].status == "ok"
        ]
        ok_writes.sort()
        assert [epoch for epoch, _ in ok_writes] == list(
            range(2, 2 + len(ok_writes))
        ), "published epochs must be exactly contiguous"
        epoch_trees = {1: parse_xml(DOC)}
        for epoch, rid in ok_writes:
            # The structural (non-incremental) fold is the oracle here.
            epoch_trees[epoch] = apply_edit(
                epoch_trees[epoch - 1], edit_from_json(edits[rid])
            )
        max_epoch = 1 + len(ok_writes)
        assert registry.epoch("live") == max_epoch
        assert registry.get("live") == epoch_trees[max_epoch]

        # -- ok reads: exact answer of an epoch inside the window ------------
        answers: dict[tuple[int, str], list] = {}

        def answer(epoch: int, query: str):
            key = (epoch, query)
            if key not in answers:
                answers[key] = _oracle(epoch_trees[epoch], query)
            return answers[key]

        ok_reads = 0
        for rid, query in reads.items():
            result = results[rid]
            if result.status != "ok":
                continue
            ok_reads += 1
            e_lo, e_hi = windows[rid]
            assert e_hi is not None, rid
            window_epochs = range(e_lo, min(e_hi + 1, max_epoch) + 1)
            assert any(
                result.value == answer(epoch, query) for epoch in window_epochs
            ), (
                f"{rid}: value {result.value!r} for {query!r} matches no epoch "
                f"in window {list(window_epochs)} (torn or stale read)"
            )

        # -- every error is typed, and the fired faults pay for it ----------
        metrics = service.merged_registry() if sharded else obs.REGISTRY
        fired = metrics.total("faults_injected_total") - fired_before
        assert_typed_errors(results.values(), service.retry.max_attempts, fired)

        # The bursts cannot have killed the workload.
        ok_total = sum(1 for r in results.values() if r.status == "ok")
        assert ok_total >= total * 0.9
        assert ok_reads >= 1 and len(ok_writes) >= 1

        # -- convergence: post-chaos reads see exactly the final tree --------
        faults.disarm()
        final = service.run_batch(
            [QueryRequest(op="eval", query=q, tree="live") for q in _QUERIES]
        )
        for request_query, result in zip(_QUERIES, final):
            assert result.status == "ok"
            assert result.value == answer(max_epoch, request_query)
    finally:
        faults.disarm()
        service.shutdown()


@pytest.mark.soak
def test_mutation_soak_threaded():
    _run_soak(
        lambda registry: QueryService(
            registry,
            workers=4,
            queue_limit=48,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004),
        ),
        sharded=False,
    )


@pytest.mark.soak
def test_mutation_soak_sharded():
    _run_soak(
        lambda registry: ShardedQueryService(
            registry,
            shards=2,
            start_method=START_METHOD,
            workers_per_shard=1,
            queue_limit=48,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004),
        ),
        sharded=True,
    )
