"""Experiment S1 — concurrent service throughput and overhead.

Series: (a) end-to-end ``run_batch`` time for a fixed mixed workload as the
worker-pool width grows — the shape shows how far the GIL lets the pure-
Python engines scale before queue/dispatch overhead dominates; (b) the
per-request overhead the service layer adds over calling the evaluator
directly (queue hop, budget construction, stats); and (c) batch
throughput with a counted fault burst armed, measuring what the retries
cost while the burst lasts.  S1 repeats one batch,
so every S1 row builds its services with the private ``_result_cache=False``
hook: with the default result cache, the rows would time cache hits
answered at admission instead of the pool, the engines and the faults.

Experiment S2 rides in the same file: a Zipf-skewed batch — a few hot
(query, tree) pairs dominating a long tail, the distribution a serving tier
actually sees — run two ways: ``baseline`` (every read reaches an engine:
the hook) and ``cached`` (the default service, whose result cache is keyed
on canonical query forms and answers repeats inside ``submit()``).
The cached point's ``extra`` carries the measured hit rate and cache event
counts into the committed compact JSON; the CI gate
(``benchmarks/compare_backends.py --cache-only``) re-times the same shape.

Record results with::

    pytest benchmarks/bench_service.py --benchmark-json=BENCH_service.json

The committed BENCH_service.json uses the repro-bench-compact/1 schema
(see conftest.py / compact_json.py).
"""

import os
import random

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
from repro.trees import chain, random_tree
from repro.xpath import Evaluator, parse_node

BATCH = 64

#: Distinct documents for the shard sweep: routing is tree-affine
#: (crc32(name) % shards), so the mixed batch must name enough documents
#: to occupy every shard at the widest sweep point.
_SHARD_DOCS = 8

#: One template per op family; the batch cycles through them.
_TEMPLATES = (
    {"op": "eval", "query": "<descendant[a and <right[b]>]>", "tree": "bushy"},
    {"op": "eval", "query": "<(child[a])*[b]>", "tree": "chain"},
    {"op": "select", "query": "descendant[a]", "tree": "bushy"},
    {"op": "check", "formula": "exists x. a(x)", "tree": "bushy"},
)


def _batch(n=BATCH):
    return [
        QueryRequest(**_TEMPLATES[i % len(_TEMPLATES)], id=f"b{i}") for i in range(n)
    ]


#: The S2 request pool, hot-first.  Ranks 0-3 include syntactic variants of
#: one another (``child/child*`` vs ``descendant``), so canonical keys
#: collapse them onto shared entries; the tail keeps the cache honest with
#: genuinely distinct work.
_ZIPF_POOL = (
    {"op": "eval", "query": "<descendant[a and <right[b]>]>", "tree": "bushy"},
    {"op": "eval", "query": "<child/child*[a and <right[b]>]>", "tree": "bushy"},
    {"op": "select", "query": "descendant[a]", "tree": "bushy"},
    {"op": "select", "query": "child/child*[a]", "tree": "bushy"},
    {"op": "eval", "query": "<(child[a])*[b]>", "tree": "chain"},
    {"op": "check", "formula": "exists x. a(x)", "tree": "bushy"},
    {"op": "eval", "query": "<descendant[b]>", "tree": "chain"},
    {"op": "eval", "query": "<child[a]/descendant[b]>", "tree": "bushy"},
    {"op": "select", "query": "descendant[b]/child", "tree": "chain"},
    {"op": "eval", "query": "<parent*[a]>", "tree": "bushy"},
    {"op": "eval", "query": "<descendant[not <child>]>", "tree": "bushy"},
    {"op": "check", "formula": "exists x. b(x)", "tree": "chain"},
)

ZIPF_BATCH = 96
ZIPF_EXPONENT = 1.1


def zipf_batch(n=ZIPF_BATCH, seed=2008):
    """A Zipf(``ZIPF_EXPONENT``)-weighted sample of the S2 pool (deterministic)."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(_ZIPF_POOL))]
    return [
        QueryRequest(**rng.choices(_ZIPF_POOL, weights)[0], id=f"z{i}")
        for i in range(n)
    ]


def _sharded_batch(n=BATCH):
    """The same op mix as :func:`_batch`, spread over ``_SHARD_DOCS`` docs."""
    requests = []
    for i in range(n):
        template = dict(_TEMPLATES[i % len(_TEMPLATES)])
        base = template["tree"]
        template["tree"] = f"{base}{i % (_SHARD_DOCS // 2)}"
        requests.append(QueryRequest(**template, id=f"s{i}"))
    return requests


@pytest.fixture(scope="module")
def registry():
    reg = TreeRegistry()
    reg.register("bushy", random_tree(512, rng=random.Random(2008)))
    reg.register("chain", chain(512, labels=("a", "b")))
    for i in range(_SHARD_DOCS // 2):
        reg.register("bushy%d" % i, random_tree(512, rng=random.Random(2008 + i)))
        reg.register("chain%d" % i, chain(512, labels=("a", "b")))
    return reg


@pytest.mark.parametrize("workers", (1, 2, 4, 8))
def test_mixed_batch_throughput(benchmark, registry, workers):
    """S1 series proper: fixed mixed batch, growing worker pool."""
    benchmark.group = f"S1 batch of {BATCH}"
    with QueryService(
        registry, workers=workers, queue_limit=BATCH, _result_cache=False
    ) as service:
        results = benchmark(lambda: service.run_batch(_batch()))
    assert all(r.status == "ok" for r in results)


@pytest.mark.parametrize("mode", ("baseline", "cached"))
def test_zipf_cache_sweep(benchmark, registry, mode):
    """S2: the Zipf-skewed batch, cached vs uncached.

    ``baseline`` recomputes every result; ``cached`` is the default
    service.  The cache persists across benchmark rounds (by design — it
    measures the steady state a serving tier reaches), so the cached arm's
    hit rate approaches 1.0 and its p50 is the price of a batch of hits
    answered at admission.  The recorded ``extra`` carries the hit rate and
    event counts.
    """
    benchmark.group = f"S2 zipf batch of {ZIPF_BATCH}"
    with QueryService(
        registry,
        workers=4,
        queue_limit=ZIPF_BATCH,
        _result_cache=mode == "cached",
    ) as service:
        results = benchmark(lambda: service.run_batch(zipf_batch()))
        snap = service.stats_snapshot()
    assert all(r.status == "ok" for r in results)
    cache = snap.get("result_cache")
    if cache is not None:
        benchmark.extra_info["hit_rate"] = round(cache["hit_rate"], 4)
        benchmark.extra_info["cache_events"] = cache["events"]


@pytest.mark.parametrize(
    "shards", tuple(sorted({1, 2, 4, os.cpu_count() or 1}))
)
def test_sharded_batch_scaling(benchmark, registry, shards):
    """S1 shard sweep: the same mixed batch through the multiprocess tier.

    One point per shard count (1, 2, 4, and the machine's core count); the
    compact schema annotates each point with ``speedup`` over shards=1 and
    ``scaling_efficiency`` (speedup / shards).  The CI gate
    (``benchmarks/compare_scaling.py``) asserts shards=4 is at least twice
    as fast as shards=1 on machines with >= 4 cores.
    """
    benchmark.group = f"S1 shard scaling, batch of {BATCH}"
    with ShardedQueryService(
        registry,
        shards=shards,
        workers_per_shard=1,
        queue_limit=BATCH,
        _result_cache=False,
    ) as service:
        results = benchmark(lambda: service.run_batch(_sharded_batch()))
    assert all(r.status == "ok" for r in results)


def test_service_overhead_vs_direct_call(benchmark, registry):
    """Single-request round trip through the full service machinery."""
    benchmark.group = "S1 overhead"
    request = QueryRequest(op="eval", query="<descendant[a]>", tree="bushy")
    with QueryService(registry, workers=1, _result_cache=False) as service:
        result = benchmark(lambda: service.run_batch([request])[0])
    assert result.status == "ok"


def test_direct_call_baseline(benchmark, registry):
    """The same query without the service: the floor for S1 overhead."""
    benchmark.group = "S1 overhead"
    tree = registry.get("bushy")
    expr = parse_node("<descendant[a]>")
    result = benchmark(lambda: sorted(Evaluator(tree, backend="bitset").nodes(expr)))
    assert result


def test_batch_throughput_under_fault_burst(benchmark, registry):
    """Chaos cost: a counted burst forces retries, and a read that outlasts
    them ends in a typed error; the batch must still complete with every
    request resolved, and the burst's fires pay for every error."""
    benchmark.group = "S1 chaos"
    retry = RetryPolicy(max_attempts=2, base_delay=0.0001, max_delay=0.001)
    service = QueryService(
        registry,
        workers=4,
        queue_limit=BATCH,
        retry=retry,
        _result_cache=False,
    )

    def run():
        before = obs.REGISTRY.total("faults_injected_total")
        faults.arm("xpath.bitset", times=8)
        faults.arm("service.worker", times=4)
        try:
            results = service.run_batch(_batch())
        finally:
            faults.disarm()
        return results, obs.REGISTRY.total("faults_injected_total") - before

    try:
        results, fired = benchmark(run)
        errors = [r for r in results if r.status != "ok"]
        for result in errors:
            assert result.error["type"] == "InjectedFaultError"
            assert result.retries == retry.max_attempts - 1
        assert len(errors) * retry.max_attempts <= fired
        snap = service.stats_snapshot()
        assert snap["submitted"] == snap["completed"]
    finally:
        service.shutdown()
