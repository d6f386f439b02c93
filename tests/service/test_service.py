"""QueryService end-to-end: correctness, budgets, shedding, drain, streams."""

import os
import random
import sys
import threading

import pytest

from repro.logic import ModelChecker, parse_formula
from repro.runtime import ServiceClosedError, faults
from repro.service import (
    PendingResult,
    QueryRequest,
    QueryService,
    RetryPolicy,
    ShardedQueryService,
    TreeRegistry,
)
from repro.service import workers
from repro.service.workers import prepare, run_plan
from repro.trees import chain, parse_xml, random_tree
from repro.xpath import Evaluator, parse_node, parse_path

START_METHOD = os.environ.get("REPRO_START_METHOD", "fork")

DOC = "<talk><speaker/><title><i/></title><location><i/><b/></location></talk>"


@pytest.fixture()
def registry():
    reg = TreeRegistry()
    reg.register("talk", parse_xml(DOC))
    reg.register("chain", chain(48, labels=("a", "b")))
    return reg


@pytest.fixture()
def service(registry):
    svc = QueryService(registry, workers=3, queue_limit=32)
    yield svc
    svc.shutdown()


class TestCorrectness:
    def test_eval_matches_direct_evaluation(self, service, registry):
        result = service.run_batch(
            [QueryRequest(op="eval", query="<descendant[i]>", tree="talk")]
        )[0]
        expected = sorted(
            Evaluator(registry.get("talk")).nodes(parse_node("<descendant[i]>"))
        )
        assert result.status == "ok"
        assert result.value == expected
        assert result.routed == "bitset"

    def test_select_matches_direct_evaluation(self, service, registry):
        result = service.run_batch(
            [QueryRequest(op="select", query="descendant[i]", tree="talk")]
        )[0]
        expected = sorted(
            Evaluator(registry.get("talk")).image(parse_path("descendant[i]"), {0})
        )
        assert result.status == "ok"
        assert result.value == expected

    def test_check_sentence_nodes_and_pairs(self, service, registry):
        tree = registry.get("talk")
        results = service.run_batch(
            [
                QueryRequest(op="check", formula="exists x. i(x)", tree="talk"),
                QueryRequest(op="check", formula="i(x)", tree="talk"),
                QueryRequest(op="check", formula="child(x, y)", tree="talk"),
            ]
        )
        checker = ModelChecker(tree)
        assert results[0].value is True
        assert results[1].value == sorted(
            checker.node_set(parse_formula("i(x)"), "x")
        )
        assert results[2].value == [
            list(p) for p in sorted(checker.pairs(parse_formula("child(x, y)"), "x", "y"))
        ]

    def test_equivalent_exact_and_corpus(self, service):
        results = service.run_batch(
            [
                QueryRequest(
                    op="equivalent", left="W(<descendant[b]>)", right="<descendant[b]>"
                ),
                QueryRequest(op="equivalent", left="<parent[a]>", right="<parent[b]>"),
            ]
        )
        assert results[0].value["equivalent"] is True
        assert results[0].value["method"] == "exact"
        assert results[1].value["equivalent"] is False
        assert results[1].value["method"] == "corpus"  # parent is not downward

    def test_inline_xml_document(self, service):
        result = service.run_batch(
            [QueryRequest(op="eval", query="b", xml="<b><b/></b>")]
        )[0]
        assert result.status == "ok"
        assert result.value == [0, 1]

    def test_results_keep_input_order(self, service):
        requests = [
            QueryRequest(op="eval", query="<descendant[b]>", tree="chain", id=f"r{i}")
            for i in range(20)
        ]
        results = service.run_batch(requests)
        assert [r.id for r in requests] == [r.id for r in results]


class TestStructuredErrors:
    def test_unknown_op(self, service):
        result = service.run_batch([QueryRequest(op="mystery")])[0]
        assert result.status == "error"
        assert result.error["exit_code"] == 2

    def test_missing_required_field(self, service):
        result = service.run_batch([QueryRequest(op="eval", tree="talk")])[0]
        assert result.status == "error"
        assert "query" in result.error["message"]

    def test_unknown_tree(self, service):
        result = service.run_batch(
            [QueryRequest(op="eval", query="b", tree="nope")]
        )[0]
        assert result.status == "error"
        assert "unknown tree" in result.error["message"]

    def test_syntax_error_is_an_input_error(self, service):
        result = service.run_batch(
            [QueryRequest(op="eval", query="<<<", tree="talk")]
        )[0]
        assert result.status == "error"
        assert result.error["type"] == "XPathSyntaxError"
        assert result.error["exit_code"] == 2
        assert result.retries == 0  # input errors are never retried

    def test_step_budget_exhaustion(self, service):
        # A star query ticks the budget once per fixpoint iteration, so a
        # zero-step allowance trips on the first round.
        result = service.run_batch(
            [
                QueryRequest(
                    op="eval",
                    query="<(child[a])*[b]>",
                    tree="chain",
                    max_steps=0,
                )
            ]
        )[0]
        assert result.status == "error"
        assert result.error["exit_code"] == 5

    def test_too_many_free_variables(self, service):
        result = service.run_batch(
            [QueryRequest(op="check", formula="child(x,y) & child(y,z)", tree="talk")]
        )[0]
        assert result.status == "error"
        assert "free variables" in result.error["message"]

    def test_non_string_text_field_is_an_input_error(self, service):
        # JSONL input is not type-checked by the decoder: a list alphabet
        # must come back as a structured input error, not a TypeError from
        # deep inside the service.
        request = QueryRequest(
            op="equivalent", left="child", right="child/self", alphabet=["a", "b"]
        )
        result = service.run_batch([request])[0]
        assert result.status == "error"
        assert result.error["type"] == "ValueError"
        assert "'alphabet' must be a string" in result.error["message"]
        assert result.exit_code == 2


class TestMemoizedVerdicts:
    """An equivalence is decided once per prepared plan.  The plan cache is
    process-wide, so each test asks a question no other test asks."""

    @staticmethod
    def _ask(service, left, right, **budget):
        request = QueryRequest(op="equivalent", left=left, right=right, **budget)
        return service.run_batch([request])[0]

    def test_a_budget_error_is_not_a_verdict(self, service):
        question = (
            "<child[a]/child[b and <child[a]>]>",
            "<child[a and <child[b and <child[a]>]>]>",
        )
        for _ in range(2):  # the first failure stored nothing
            starved = self._ask(service, *question, max_steps=0)
            assert starved.status == "error"
            assert starved.error["exit_code"] == 5
        decided = self._ask(service, *question)
        assert decided.status == "ok"
        assert decided.value == {"equivalent": True, "method": "exact", "witness": None}
        memoized = self._ask(service, *question, max_steps=0)
        assert memoized.status == "ok"
        assert memoized.value == decided.value

    def test_a_caller_cannot_edit_a_later_answer(self, service):
        question = ("<child[b]/child[a and <child[b]>]>", "<child[b]/child[a]>")
        first = self._ask(service, *question)
        expected = dict(first.value)
        assert expected["equivalent"] is False
        first.value["equivalent"] = True
        first.value["witness"] = None
        assert self._ask(service, *question).value == expected

    def test_racing_first_requests_agree(self, registry):
        # More workers than cores race on one undecided plan: every one
        # answers, and with the same verdict.
        question = ("<child[a and <child[b]>]/child[b]>", "<child[a]/child[b]>")
        requests = [
            QueryRequest(op="equivalent", left=question[0], right=question[1])
            for _ in range(32)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(registry, workers=8, queue_limit=64) as svc:
                results = svc.run_batch(requests)
        finally:
            sys.setswitchinterval(interval)
        assert [r.status for r in results] == ["ok"] * 32
        assert all(r.value == results[0].value for r in results)
        assert results[0].value["equivalent"] is True


#: The eval and select requests of perfbench's hot-read pool.
HOT_READS = (
    ("eval", "<descendant[a and <right[b]>]>"),
    ("eval", "<child/child*[a and <right[b]>]>"),
    ("select", "descendant[a]"),
    ("select", "child/child*[a]"),
    ("eval", "<(child[a])*[b]>"),
    ("eval", "<descendant[b]>"),
    ("eval", "<child[a]/descendant[b]>"),
    ("select", "descendant[b]/child"),
    ("eval", "<parent*[c]>"),
)


class TestIdListsFromMasks:
    """eval and select build their sorted id lists straight from the mask."""

    @pytest.mark.parametrize("op, query", HOT_READS)
    def test_fast_path_matches_the_sets_oracle(self, op, query):
        plan = prepare(QueryRequest(op=op, query=query, tree="doc"))
        rng = random.Random(query)
        for size in (1, 40, 512):
            tree = random_tree(size, ("a", "b", "c", "d"), rng)
            fast = run_plan(plan, tree, None)
            assert type(fast) is list
            oracle = Evaluator(tree, backend="sets")
            if op == "eval":
                expected = oracle.nodes(plan.expr)
            else:
                expected = oracle.image(plan.expr, {0})
            assert fast == sorted(expected)

    @pytest.mark.parametrize(
        "op, query", [("eval", "<descendant[b]>"), ("select", "descendant[b]")]
    )
    def test_max_nodes_trips_on_the_fast_path(self, service, op, query):
        request = QueryRequest(op=op, query=query, tree="chain", max_nodes=3)
        result = service.run_batch([request])[0]
        assert result.status == "error"
        assert result.error["exit_code"] == 5


class TestSheddingAndDeadlines:
    def test_expired_deadline_is_shed_not_run(self, service):
        result = service.run_batch(
            [QueryRequest(op="eval", query="b", tree="talk", timeout=0.0)]
        )[0]
        assert result.status == "shed"
        assert result.error["type"] == "RequestShedError"
        assert result.error["exit_code"] == 4  # sheds follow the deadline code
        assert result.routed == "none"

    def test_default_timeout_applies(self, registry):
        with QueryService(registry, workers=1, default_timeout=0.0) as svc:
            result = svc.run_batch(
                [QueryRequest(op="eval", query="b", tree="talk")]
            )[0]
        assert result.status == "shed"

    def test_per_request_timeout_overrides_default(self, registry):
        with QueryService(registry, workers=1, default_timeout=0.0) as svc:
            result = svc.run_batch(
                [QueryRequest(op="eval", query="b", tree="talk", timeout=5.0)]
            )[0]
        assert result.status == "ok"


class TestStructuredErrorsAcrossThePipe(TestStructuredErrors):
    """The structured-error and shed cases on the sharded tier.

    A shard's error must reach the caller with the type, message and exit
    code the in-thread tier gives, and be classified the same way (no
    retries for input errors).  Subclassing reruns every case above with the
    ``service`` fixture swapped for a two-shard service.
    """

    @pytest.fixture()
    def service(self, registry):
        svc = ShardedQueryService(registry, shards=2, start_method=START_METHOD)
        yield svc
        svc.shutdown()

    test_expired_deadline_is_shed_not_run = (
        TestSheddingAndDeadlines.test_expired_deadline_is_shed_not_run
    )


class TestRetriesAndFallback:
    def test_transient_fault_is_retried_to_success(self, registry):
        svc = QueryService(
            registry,
            workers=1,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
        )
        try:
            with faults.scoped(("service.worker", 2)):
                result = svc.run_batch(
                    [QueryRequest(op="eval", query="<descendant[b]>", tree="chain")]
                )[0]
            assert result.status == "ok"
            assert result.retries == 2
            assert result.routed == "bitset"
        finally:
            svc.shutdown()

    def test_exhausted_retries_end_in_a_typed_error(self, registry):
        svc = QueryService(
            registry,
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )
        request = QueryRequest(op="eval", query="<descendant[b]>", tree="chain")
        try:
            with faults.scoped("xpath.bitset"):
                result = svc.run_batch([request])[0]
            assert result.status == "error"
            assert result.error["type"] == "InjectedFaultError"
            assert result.exit_code == 8
            assert result.retries == 1
            assert result.routed == "none"
            # Nothing of the fault outlives it: the next read is answered.
            healed = svc.run_batch([request])[0]
            assert healed.status == "ok"
            assert healed.value == sorted(
                Evaluator(registry.get("chain")).nodes(parse_node("<descendant[b]>"))
            )
        finally:
            svc.shutdown()

    @pytest.mark.parametrize(
        "request_fields",
        [
            {"op": "eval", "query": "<descendant[b]>", "tree": "chain"},
            {"op": "check", "formula": "exists x. b(x)", "tree": "chain"},
            {"op": "equivalent", "left": "<child[b]>", "right": "<descendant[b]>"},
        ],
        ids=["eval", "check", "equivalent"],
    )
    def test_an_engine_bug_ends_in_the_engine_code(
        self, registry, monkeypatch, request_fields
    ):
        # An exception outside the taxonomy, raised by an engine run: no
        # other engine answers it, and a retry would raise it again.
        runs = []

        def broken(plan, tree, budget):
            runs.append(plan)
            raise IndexError("mask bit out of range")

        monkeypatch.setattr(workers, "run_plan", broken)
        with QueryService(
            registry,
            workers=1,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
        ) as svc:
            result = svc.run_batch([QueryRequest(**request_fields)])[0]
        assert result.status == "error"
        assert result.error["type"] == "IndexError"
        assert result.error["message"] == "mask bit out of range"
        assert result.exit_code == 8
        assert result.retries == 0
        assert len(runs) == 1

    def test_stats_account_for_every_request(self, registry):
        svc = QueryService(registry, workers=2)
        try:
            svc.run_batch(
                [QueryRequest(op="eval", query="b", tree="talk") for _ in range(5)]
                + [QueryRequest(op="eval", query="b", tree="talk", timeout=0.0)]
                + [QueryRequest(op="bogus")]
            )
            snap = svc.stats_snapshot()
            assert snap["submitted"] == 7
            assert snap["completed"] == 7
            assert snap["ok"] == 5
            assert snap["shed"] == 1
            assert snap["errors"] == 1
            assert snap["fallbacks"] == 0
        finally:
            svc.shutdown()


class TestLifecycle:
    def test_context_manager_drains(self, registry):
        with QueryService(registry, workers=2) as svc:
            handles = [
                svc.submit(QueryRequest(op="eval", query="b", tree="talk"))
                for _ in range(10)
            ]
        # After the block every handle is resolved (drain completed them).
        assert all(handle.done() for handle in handles)
        assert all(handle.result().status == "ok" for handle in handles)

    def test_submit_after_shutdown_raises(self, registry):
        svc = QueryService(registry, workers=1)
        svc.shutdown()
        with pytest.raises(ServiceClosedError):
            svc.submit(QueryRequest(op="eval", query="b", tree="talk"))

    def test_nongraceful_shutdown_sheds_the_remainder(self, registry):
        svc = QueryService(registry, workers=1, queue_limit=128)
        handles = [
            svc.submit(
                QueryRequest(op="eval", query="<descendant[b]>", tree="chain")
            )
            for _ in range(40)
        ]
        svc.shutdown(drain=False)
        results = [handle.result(timeout=5.0) for handle in handles]
        # Zero lost: every request resolved, as a result or a structured shed.
        assert all(r.status in ("ok", "shed") for r in results)
        snap = svc.stats_snapshot()
        assert snap["completed"] == snap["submitted"] == 40

    def test_shutdown_is_idempotent(self, registry):
        svc = QueryService(registry, workers=1)
        svc.shutdown()
        svc.shutdown()

    def test_pending_result_timeout(self):
        pending = PendingResult()
        with pytest.raises(TimeoutError):
            pending.result(timeout=0.01)


class TestStreaming:
    def test_map_stream_yields_in_order(self, service):
        requests = [
            QueryRequest(op="eval", query="b", tree="talk", id=f"s{i}")
            for i in range(25)
        ]
        results = list(service.map_stream(iter(requests)))
        assert [r.id for r in results] == [f"s{i}" for i in range(25)]
        assert all(r.status == "ok" for r in results)

    def test_concurrent_submitters_all_resolve(self, registry):
        svc = QueryService(registry, workers=3, queue_limit=8)
        outcomes = []
        lock = threading.Lock()

        def submitter(n):
            batch = [
                QueryRequest(op="eval", query="<descendant[b]>", tree="chain")
                for _ in range(n)
            ]
            results = svc.run_batch(batch)
            with lock:
                outcomes.extend(results)

        threads = [
            threading.Thread(target=submitter, args=(15,), daemon=True)
            for _ in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert len(outcomes) == 60
            assert all(r.status == "ok" for r in outcomes)
        finally:
            svc.shutdown()
