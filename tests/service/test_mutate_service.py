"""The ``mutate`` op through QueryService: epochs, retries, cache freshness,
and the min_epoch staleness contract."""

import pytest

from repro.runtime import faults
from repro.service import (
    QueryRequest,
    QueryService,
    RetryPolicy,
    TreeRegistry,
)
from repro.trees import parse_xml


def make_registry() -> TreeRegistry:
    registry = TreeRegistry()
    registry.register("doc", parse_xml("<a><b/><c/></a>"))
    return registry


def _eval(svc, query="b", tree="doc", **extra):
    return svc.run_batch([QueryRequest(op="eval", query=query, tree=tree, **extra)])[0]


def _mutate(svc, edit, tree="doc", **extra):
    return svc.run_batch([QueryRequest(op="mutate", tree=tree, edit=edit, **extra)])[0]


class TestMutateOp:
    def test_mutate_publishes_and_reports_epoch(self):
        registry = make_registry()
        with QueryService(registry, workers=2) as svc:
            before = _eval(svc)  # nodes labeled b
            assert before.value == [1]
            result = _mutate(
                svc, {"kind": "insert", "parent": 0, "index": 0, "xml": "<b/>"}
            )
            assert result.status == "ok"
            assert result.routed == "mutate"
            assert result.value == {"tree": "doc", "epoch": 2, "kind": "insert", "size": 4}
            after = _eval(svc)
            assert after.value == [1, 2]
        assert registry.epoch("doc") == 2

    def test_mutate_validation_errors(self):
        registry = make_registry()
        with QueryService(registry, workers=1) as svc:
            # Admission-time: mutate takes no inline xml document.
            bad = svc.run_batch(
                [
                    QueryRequest(
                        op="mutate",
                        tree="doc",
                        xml="<a/>",
                        edit={"kind": "relabel", "node": 0, "label": "z"},
                    )
                ]
            )[0]
            assert bad.status == "error"
            assert "'xml' is not allowed" in bad.error["message"]
            # Worker-time: malformed edit payloads and unknown trees.
            assert "unknown edit kind" in _mutate(svc, {"kind": "warp"}).error["message"]
            assert (
                "unknown tree"
                in _mutate(
                    svc, {"kind": "relabel", "node": 0, "label": "z"}, tree="ghost"
                ).error["message"]
            )
            # A rejected edit is not retried and publishes nothing.
            out_of_range = _mutate(svc, {"kind": "delete", "node": 99})
            assert out_of_range.status == "error"
            assert out_of_range.retries == 0
        assert registry.epoch("doc") == 1

    def test_injected_mutation_fault_is_retried(self):
        registry = make_registry()
        with QueryService(
            registry, workers=1, retry=RetryPolicy(max_attempts=3, base_delay=0.0)
        ) as svc:
            with faults.scoped(("trees.mutate", 1)):
                result = _mutate(svc, {"kind": "relabel", "node": 1, "label": "z"})
            assert result.status == "ok"
            assert result.retries == 1
            assert result.value["epoch"] == 2
        assert registry.get("doc").labels[1] == "z"

    def test_exhausted_mutation_fault_is_structured(self):
        registry = make_registry()
        with QueryService(
            registry, workers=1, retry=RetryPolicy(max_attempts=2, base_delay=0.0)
        ) as svc:
            with faults.scoped("trees.mutate"):
                result = _mutate(svc, {"kind": "relabel", "node": 1, "label": "z"})
            assert result.status == "error"
            assert result.error["type"] == "InjectedFaultError"
            assert result.exit_code == 8
            assert result.retries == 1
        # Nothing was published.
        assert registry.epoch("doc") == 1
        assert registry.get("doc").labels[1] == "b"

    def test_mutations_serialize_under_concurrency(self):
        registry = make_registry()
        with QueryService(registry, workers=4) as svc:
            edits = [
                QueryRequest(
                    op="mutate",
                    tree="doc",
                    edit={"kind": "insert", "parent": 0, "index": 0, "xml": "<x/>"},
                )
                for _ in range(8)
            ]
            results = svc.run_batch(edits)
        assert all(r.status == "ok" for r in results)
        # Each mutation published exactly one epoch: 8 edits -> epochs 2..9.
        assert sorted(r.value["epoch"] for r in results) == list(range(2, 10))
        assert registry.get("doc").size == 3 + 8


class TestMinEpoch:
    def test_fresh_read_passes_and_stale_read_is_structured(self):
        registry = make_registry()
        with QueryService(registry, workers=1) as svc:
            ok = _eval(svc, min_epoch=registry.epoch("doc"))
            assert ok.status == "ok"
            stale = _eval(svc, min_epoch=registry.epoch("doc") + 3)
            assert stale.status == "error"
            assert stale.error["type"] == "StaleEpochError"
            assert stale.exit_code == 8  # retryable, by the engine contract
            # Without a store there is nothing to refresh from: the stale
            # floor must not have dropped the only copy.
            assert _eval(svc).status == "ok"

    def test_min_epoch_validation(self):
        with pytest.raises(ValueError, match="min_epoch"):
            QueryRequest(op="eval", query="b", tree="doc", min_epoch=-1).validate()

    def test_stamped_read_on_missing_tree_is_stale_not_unknown(self):
        # A positive floor means the epoch was published somewhere: a
        # replica that cannot find the tree answers with the retryable
        # staleness signal, not an "unknown tree" dead end.
        registry = make_registry()
        with QueryService(registry, workers=1) as svc:
            plain = _eval(svc, tree="ghost")
            assert plain.error["type"] == "ValueError"
            stamped = _eval(svc, tree="ghost", min_epoch=1)
            assert stamped.error["type"] == "StaleEpochError"
            assert "epoch 0" in stamped.error["message"]


class TestCacheFreshness:
    def test_mutation_invalidates_result_cache(self):
        registry = make_registry()
        with QueryService(registry, workers=1) as svc:
            assert _eval(svc).value == [1]  # first sighting: not stored
            assert _eval(svc).routed == "bitset"  # second: stored
            cached = _eval(svc)
            assert cached.routed == "cache"
            _mutate(svc, {"kind": "relabel", "node": 1, "label": "x"})
            fresh = _eval(svc)
            assert fresh.routed != "cache"
            assert fresh.value == []
            assert _eval(svc, query="x").value == [1]
