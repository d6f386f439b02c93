"""Live documents across the shard pool: mutate end-to-end, epoch-stamped
reads that refresh a shard's copy from the store, and a store-load fault on
that refresh retried away."""

from __future__ import annotations

import os

from repro.runtime import faults
from repro.service import (
    QueryRequest,
    QueryService,
    ShardedQueryService,
    TreeRegistry,
)
from repro.trees import parse_xml

START_METHOD = os.environ.get("REPRO_START_METHOD", "fork")


def make_registry() -> TreeRegistry:
    registry = TreeRegistry()
    registry.register("doc", parse_xml("<a><b/><c/></a>"))
    registry.register("other", parse_xml("<a><b/></a>"))
    return registry


def _eval(svc, tree="doc", query="b", **extra):
    return svc.run_batch([QueryRequest(op="eval", query=query, tree=tree, **extra)])[0]


def _mutate(svc, edit, tree="doc"):
    return svc.run_batch([QueryRequest(op="mutate", tree=tree, edit=edit)])[0]


class TestShardedMutate:
    def test_mutate_end_to_end(self):
        registry = make_registry()
        with ShardedQueryService(
            registry, shards=2, start_method=START_METHOD
        ) as svc:
            assert _eval(svc).value == [1]
            result = _mutate(
                svc, {"kind": "insert", "parent": 0, "index": 0, "xml": "<b/>"}
            )
            assert result.status == "ok"
            assert result.routed == "mutate"
            assert result.value == {"tree": "doc", "epoch": 2, "kind": "insert", "size": 4}
            # The shard refreshes from the store and serves the post-edit answer.
            after = _eval(svc)
            assert after.status == "ok"
            assert after.value == [1, 2]
            # Other trees are untouched.
            assert _eval(svc, tree="other").value == [1]
        assert registry.epoch("doc") == 2

    def test_edit_script_matches_inprocess_service(self):
        script = [
            {"kind": "insert", "parent": 0, "index": 1, "xml": "<x><b/></x>"},
            {"kind": "relabel", "node": 1, "label": "x"},
            {"kind": "delete", "node": 4},
            {"kind": "insert", "parent": 2, "index": 0, "xml": "<b/>"},
        ]
        queries = ["b", "x", "<descendant[b]>", "<child[x]> and not <right[b]>"]

        def run(service_cls, **kwargs):
            registry = make_registry()
            answers = []
            with service_cls(registry, **kwargs) as svc:
                for edit in script:
                    assert _mutate(svc, edit).status == "ok"
                    answers.append([_eval(svc, query=q).value for q in queries])
            return answers

        sharded = run(ShardedQueryService, shards=2, start_method=START_METHOD)
        local = run(QueryService, workers=2)
        assert sharded == local

    def test_mutation_invalidates_shard_caches(self):
        registry = make_registry()
        with ShardedQueryService(
            registry, shards=2, start_method=START_METHOD
        ) as svc:
            assert _eval(svc).value == [1]  # first sighting: not stored
            assert _eval(svc).routed == "bitset"  # second: stored
            assert _eval(svc).routed == "cache"
            _mutate(svc, {"kind": "relabel", "node": 1, "label": "z"})
            fresh = _eval(svc)
            assert fresh.routed != "cache"
            assert fresh.value == []

    def test_store_load_fault_on_refresh_is_retried(self):
        registry = make_registry()
        with ShardedQueryService(
            registry, shards=2, start_method=START_METHOD
        ) as svc:
            assert _eval(svc).value == [1]  # the shard now holds epoch 1
            result = _mutate(
                svc, {"kind": "insert", "parent": 0, "index": 0, "xml": "<b/>"}
            )
            assert result.status == "ok"
            # The next read is stamped with epoch 2, so its shard drops its
            # copy and reloads from the store — and that load fails once.
            assert svc.arm_faults("store.load", times=1) == {0: True, 1: True}
            read = _eval(svc)
            assert read.status == "ok"
            assert read.value == [1, 2]  # the post-edit answer, never stale
            assert read.retries == 1
            snapshot = svc.stats_snapshot()
            assert snapshot["completed"] == snapshot["submitted"] == 3
            assert snapshot["errors"] == 0

    def test_mutate_fault_in_parent_is_retried(self):
        registry = make_registry()
        with ShardedQueryService(
            registry, shards=1, start_method=START_METHOD
        ) as svc:
            with faults.scoped(("trees.mutate", 1)):
                result = _mutate(svc, {"kind": "relabel", "node": 1, "label": "z"})
            assert result.status == "ok"
            assert result.retries == 1
            assert _eval(svc, query="z").value == [1]

    def test_mutate_validation_is_local(self):
        registry = make_registry()
        with ShardedQueryService(
            registry, shards=1, start_method=START_METHOD
        ) as svc:
            bad = _mutate(svc, {"kind": "warp"})
            assert bad.status == "error"
            assert "unknown edit kind" in bad.error["message"]
            assert registry.epoch("doc") == 1
