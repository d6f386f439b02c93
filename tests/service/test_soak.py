"""Chaos soak: ≥500 mixed requests with faults armed mid-run, zero lost.

The acceptance contract this test enforces (and the CI chaos job re-runs
with ``REPRO_FAULTS`` armed in the environment on top):

* every admitted request ends in **exactly one** of {correct result,
  structured error/shed} — none lost, none duplicated, none resolved
  twice;
* ``ok`` results are *correct*, not just present: eval/select/check
  answers are compared against ground truth computed on the row-wise
  oracle engines outside the service;
* every other result is a **typed error** with its retries spent
  (``retries == max_attempts - 1``), and there are no more of them than
  the fired faults pay for: each failed attempt consumes one fire, so
  ``errors * max_attempts <= faults_injected_total``;
* the aggregate stats balance: ``submitted == ok + errors + shed``.

The fault burst is armed *mid-run* through the fault registry with counted
arms, so the engines break for a window and then heal, which is exactly the
transient-incident shape the retry machinery exists for.
"""

import pytest

from repro import obs
from repro.logic import ModelChecker, parse_formula
from repro.runtime import faults
from repro.service import QueryRequest, QueryService, RetryPolicy, TreeRegistry
from repro.trees import chain, parse_xml
from repro.xpath import Evaluator, parse_node, parse_path

DOC = "<talk><speaker/><title><i/></title><location><i/><b/></location></talk>"

#: (op, payload-field, text, tree) — the mixed workload template.
_WORKLOAD = [
    ("eval", "query", "<descendant[b]>", "chain"),
    ("eval", "query", "<child[i]>", "talk"),
    ("eval", "query", "<(child[a])*[b]>", "chain"),
    ("select", "query", "descendant[i]", "talk"),
    ("select", "query", "(child)*[b]", "chain"),
    ("check", "formula", "exists x. b(x)", "chain"),
    ("check", "formula", "i(x)", "talk"),
    ("check", "formula", "child(x, y)", "talk"),
    ("equivalent", None, ("<child[b]>", "<descendant[b]>"), None),
    ("equivalent", None, ("W(<descendant[b]>)", "<descendant[b]>"), None),
]


def _request(i: int) -> QueryRequest:
    op, fld, text, tree = _WORKLOAD[i % len(_WORKLOAD)]
    if op == "equivalent":
        return QueryRequest(op=op, id=f"soak-{i}", left=text[0], right=text[1])
    kwargs = {fld: text}
    return QueryRequest(op=op, id=f"soak-{i}", tree=tree, **kwargs)


def _ground_truth(registry: TreeRegistry) -> dict:
    """Oracle-engine answers for every (op, text, tree) workload entry."""
    truth = {}
    for op, _, text, tree_name in _WORKLOAD:
        if op == "equivalent":
            continue
        tree = registry.get(tree_name)
        if op == "eval":
            value = sorted(Evaluator(tree, backend="sets").nodes(parse_node(text)))
        elif op == "select":
            value = sorted(
                Evaluator(tree, backend="sets").image(parse_path(text), {0})
            )
        else:
            formula = parse_formula(text)
            from repro.logic.ast import free_variables

            free = tuple(sorted(free_variables(formula)))
            checker = ModelChecker(tree, backend="table")
            if not free:
                value = checker.holds(formula)
            elif len(free) == 1:
                value = sorted(checker.node_set(formula, free[0]))
            else:
                value = [
                    list(p) for p in sorted(checker.pairs(formula, free[0], free[1]))
                ]
        truth[(op, str(text), tree_name)] = value
    return truth


def assert_typed_errors(results, max_attempts: int, fired: int) -> int:
    """Every non-ok result is an injected fault that outlasted its retries,
    and ``fired`` faults pay for all of them; the number of errors."""
    errors = [result for result in results if result.status != "ok"]
    for result in errors:
        assert result.status == "error", result
        assert result.error["type"] == "InjectedFaultError", result.error
        assert result.exit_code == 8, result.error
        assert result.retries == max_attempts - 1, result
    assert len(errors) * max_attempts <= fired, (len(errors), fired)
    return len(errors)


def _run_with_chaos(service, total: int) -> dict:
    """Submit ``total`` workload requests with fault bursts armed mid-run;
    every result by request id."""
    handles = {}
    for i in range(total):
        if i == total // 3:
            # Mid-run chaos: a counted burst at every engine boundary the
            # service exercises, armed through the PR 3 fault registry.
            faults.arm("xpath.bitset", times=40)
            faults.arm("logic.bitset", times=25)
            faults.arm("service.worker", times=15)
        if i == 2 * total // 3:
            # A second, smaller aftershock while recovery is under way.
            faults.arm("xpath.bitset.star", times=5)
            faults.arm("logic.bitset.tc", times=5)
        request = _request(i)
        handles[request.id] = service.submit(request)
    return {request_id: handle.result(timeout=60.0) for request_id, handle in handles.items()}


def _assert_correct(results, truth, total: int) -> None:
    """Every ok answer equals the oracle's; ok results are the vast majority."""
    checked = 0
    for i in range(total):
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
                f"{result.routed} backend returned a wrong answer for {text!r}"
            )
        checked += 1
    # The burst cannot have killed the workload: an error spends
    # max_attempts fires, and the soak's and CI's arms hold at most 150,
    # so at most 50 of the 600 reads fail.
    assert checked >= total * 0.9


@pytest.mark.soak
def test_chaos_soak_zero_lost_requests():
    registry = TreeRegistry()
    registry.register("talk", parse_xml(DOC))
    registry.register("chain", chain(48, labels=("a", "b")))
    truth = _ground_truth(registry)

    total = 600
    retry = RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004)
    service = QueryService(
        registry,
        workers=4,
        queue_limit=48,
        retry=retry,
        _result_cache=False,  # every request reaches the faulted engines
    )
    fired_before = obs.REGISTRY.total("faults_injected_total")
    try:
        results = _run_with_chaos(service, total)

        # -- zero lost, zero duplicated --------------------------------------
        assert set(results) == {f"soak-{i}" for i in range(total)}
        assert len(results) == total

        # -- exactly one structured outcome each -----------------------------
        for request_id, result in results.items():
            assert result.status in ("ok", "error", "shed"), request_id
            if result.status == "ok":
                assert result.error is None
            else:
                assert result.error is not None
                assert result.error["exit_code"] in range(2, 10)

        # -- ok results are *correct* ----------------------------------------
        _assert_correct(results, truth, total)

        # -- every error is typed, with its retries spent --------------------
        fired = obs.REGISTRY.total("faults_injected_total") - fired_before
        errors = assert_typed_errors(results.values(), retry.max_attempts, fired)
        snap = service.stats_snapshot()
        assert snap["errors"] == errors
        assert snap["fallbacks"] == 0
        assert snap["retries"] >= 1
        assert snap["submitted"] == snap["completed"] == total
        assert snap["ok"] + snap["errors"] + snap["shed"] == total

        # -- the process-wide metrics registry reconciles exactly ------------
        # ServiceStats only *records into* obs.REGISTRY, so the labelled
        # series must agree with the per-service snapshot to the unit, even
        # after a chaos burst hammered them from four worker threads.
        svc = service.stats.service
        reg = obs.REGISTRY
        assert reg.counter("service_submitted_total", service=svc).value == total
        by_status = {
            status: reg.counter(
                "service_results_total", service=svc, status=status
            ).value
            for status in ("ok", "error", "shed")
        }
        assert by_status["ok"] == snap["ok"]
        assert by_status["error"] == snap["errors"]
        assert by_status["shed"] == snap["shed"]
        assert sum(by_status.values()) == total
        assert (
            reg.counter("service_retries_total", service=svc).value
            == snap["retries"]
        )
        # Every completed request contributed exactly one latency sample.
        assert (
            reg.histogram("service_latency_seconds", service=svc).count == total
        )
        assert fired >= 1
        assert reg.gauge("service_queue_depth", service=svc).value == 0

        # -- and recovered: healthy traffic once the burst is over -----------
        # Any counted arms the run did not drain are disarmed: the incident
        # is over, and the next reads are all answered.
        faults.disarm()
        recovery = service.run_batch(
            [
                QueryRequest(op="eval", query="<descendant[b]>", tree="chain"),
                QueryRequest(op="check", formula="exists x. b(x)", tree="chain"),
            ]
            * 3
        )
        assert all(r.status == "ok" for r in recovery)
    finally:
        service.shutdown()


@pytest.mark.soak
def test_chaos_soak_default_service_zero_lost_requests():
    # The same chaos against the default service, whose result cache
    # answers most repeats at admission: nothing is lost, every answer
    # (cached or not) is the oracle's, every error is typed, and the
    # ledger balances.
    registry = TreeRegistry()
    registry.register("talk", parse_xml(DOC))
    registry.register("chain", chain(48, labels=("a", "b")))
    truth = _ground_truth(registry)

    total = 600
    retry = RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004)
    service = QueryService(registry, workers=4, queue_limit=48, retry=retry)
    fired_before = obs.REGISTRY.total("faults_injected_total")
    try:
        results = _run_with_chaos(service, total)
        assert set(results) == {f"soak-{i}" for i in range(total)}
        for result in results.values():
            assert result.status in ("ok", "error", "shed")
        _assert_correct(results, truth, total)
        fired = obs.REGISTRY.total("faults_injected_total") - fired_before
        assert_typed_errors(results.values(), retry.max_attempts, fired)
        snap = service.stats_snapshot()
        assert snap["result_cache"]["events"]["hit"] >= 1
        assert snap["submitted"] == snap["completed"] == total
        assert snap["ok"] + snap["errors"] + snap["shed"] == total
    finally:
        faults.disarm()
        service.shutdown()
