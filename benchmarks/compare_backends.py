#!/usr/bin/env python
"""Reference-vs-bitset speedup tables for the C1 and C3 series.

Runs the C1 workloads (fixed Regular XPath queries, size-graded random
trees) on both *evaluation* backends and the C3 TC-heavy model-checking
workload on both *checker* backends, prints a speedup table, and exits
non-zero if a bitset engine falls below its regression gate:

* C1 node-evaluation rows: ``--min-speedup`` (default 2×; the headline
  target at size 2048 is ≥10×, recorded in BENCH_eval.json);
* C1 star-image rows — ``(child[a] | child[b]/right)*`` from the root, a
  fixpoint over frontiers of a few nodes: bitset at least
  ``MIN_STAR_SPEEDUP`` (1×) the sets backend, the regime the one-step
  kernels' node-by-node path exists for.  Timed in interleaved pairs
  (each arm's minimum, gated on the median per-pair ratio);
* C3 model-checking rows — the TC-heavy sentence on deep trees, and the
  serving pool's three ``check`` formulas (bench_modelcheck's
  ``SERVING_FORMULAS``) at n=2048 with a fresh checker per call, as the
  service runs them: ``--min-check-speedup`` (default 2×, recorded in
  BENCH_modelcheck.json);
* checkpoint-overhead rows: the same bitset workloads re-run with a
  permissive :class:`~repro.runtime.ExecutionBudget` attached must stay
  within ``--max-overhead`` percent (default 5%) of the unbudgeted run —
  the cooperative cancellation checkpoints are priced at batch boundaries
  precisely so that governance stays effectively free;
* tracing-overhead rows: the same bitset workloads re-run under an
  installed :class:`repro.obs.Tracer` must stay within
  ``--max-trace-overhead`` percent (default 3%) of the default
  tracing-disabled run — or, beside that bound, cost at most
  ``MAX_SPAN_US`` (10 µs) per span they open.  A span's cost is constant
  (about 3 µs on the 2-core box), so a percentage of a sub-millisecond
  workload bounds the workload's size more than the tracer; the absolute
  bound keeps the row meaningful once the work under its spans shrinks.
  The baseline rows above already *include* the
  disabled instrumentation (every ``obs.span`` call hits the no-op fast
  path), so the headline speedup gates price the disabled overhead, and
  this gate bounds the full cost of turning tracing on — an upper bound
  on what the disabled path could possibly cost.
* disk-backed store rows (PR 10): the same Zipf batch served by a plain
  in-memory registry vs a store-backed registry whose budget keeps every
  tree resident — warm hits must stay within ``--max-store-overhead``
  percent (default 10%) p50 of in-memory serving, since a warm hit is by
  construction the same dict lookup plus an LRU touch.  A cold
  ``TreeStore.load`` row is printed for scale but not gated (its cost is
  the budget trade-off itself, priced in BENCH_store.json);
* result-cache rows (PR 7): a Zipf-skewed batch through the service
  twice — every read reaching an engine (the private ``_result_cache=False``
  hook) vs the default service, whose cache answers repeats at admission —
  gated on
  ``--min-hit-rate`` (default 0.30; the skew guarantees repeats, so a
  lower rate means the canonical keying broke) and ``--min-cache-win``
  percent p50 improvement (default 10%).  The win gate is *skew-guarded*:
  it only applies when the hit-rate gate passed, since without repeats a
  timing win is unattainable by construction;
* live-document edit rows: bench_mutate's mid-tree edits on its n=2048
  tree and its front insert and delete, the splice
  (``apply_edit_indexed``) timed paired and interleaved against the
  structural edit plus a full index rebuild (``apply_edit`` then
  ``tree_index``).  The median per-repetition ratio must stay within
  ``MUTATE_GATES``: 0.05× for a relabel (it copies one label column and
  shares everything else), 0.55× for insert and delete (they shift only
  the parents, ``after`` and the masks past the splice).

Usage::

    PYTHONPATH=src python benchmarks/compare_backends.py           # full
    PYTHONPATH=src python benchmarks/compare_backends.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/compare_backends.py --cache-only
    PYTHONPATH=src python benchmarks/compare_backends.py --store-only
    PYTHONPATH=src python benchmarks/compare_backends.py --mutate-only
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro import obs
from repro.logic import ModelChecker, parse_formula
from repro.runtime import ExecutionBudget
from repro.service import QueryRequest, QueryService, TreeRegistry
from repro.trees import chain, random_deep_tree, random_tree
from repro.xpath import Evaluator, parse_node, parse_path

QUERY = parse_node("<descendant[a and <right[b]>]> and not <child[not <child>]>")
STAR_QUERY = parse_path("(child[a] | child[b]/right)*")
TC_HEAVY = parse_formula(
    "exists x. exists y. tc[u,v](child(u,v) | right(u,v))(x,y) & last(y) & leaf(y)"
)

#: Star-image rows: the bitset backend must at least tie the sets backend.
MIN_STAR_SPEEDUP = 1.0
#: Tracing rows past ``--max-trace-overhead`` still pass at or below this
#: many microseconds of tracing per span opened.
MAX_SPAN_US = 10.0

#: The cache-gate request pool (hot-first; ranks 0-3 are pairwise syntactic
#: variants, so canonical keying must collapse them for the hit-rate gate).
_CACHE_POOL = (
    {"op": "eval", "query": "<descendant[a and <right[b]>]>", "tree": "bushy"},
    {"op": "eval", "query": "<child/child*[a and <right[b]>]>", "tree": "bushy"},
    {"op": "select", "query": "descendant[a]", "tree": "bushy"},
    {"op": "select", "query": "child/child*[a]", "tree": "bushy"},
    {"op": "eval", "query": "<(child[a])*[b]>", "tree": "chain"},
    {"op": "eval", "query": "<descendant[b]>", "tree": "chain"},
    {"op": "eval", "query": "<child[a]/descendant[b]>", "tree": "bushy"},
    {"op": "eval", "query": "<descendant[not <child>]>", "tree": "bushy"},
)

_ZIPF_EXPONENT = 1.1


def _zipf_requests(n: int, seed: int = 2008) -> list[QueryRequest]:
    rng = random.Random(seed)
    weights = [
        1.0 / (rank + 1) ** _ZIPF_EXPONENT for rank in range(len(_CACHE_POOL))
    ]
    return [
        QueryRequest(**rng.choices(_CACHE_POOL, weights)[0], id=f"c{i}")
        for i in range(n)
    ]


def cache_effectiveness(quick: bool, reps: int) -> tuple[tuple, float]:
    """Time the Zipf batch uncached vs cached; a row plus the hit rate.

    Only the result cache differs between the arms (the uncached one is
    built with the private hook, the cached one is the default service),
    so the ratio isolates what cross-request reuse buys.  The cached
    service persists across repetitions — steady state is what the gate
    prices.
    """
    size = 256 if quick else 512
    batch = 48 if quick else 96
    registry = TreeRegistry()
    registry.register("bushy", random_tree(size, rng=random.Random(2008)))
    registry.register("chain", chain(size, labels=("a", "b")))
    requests = _zipf_requests(batch)
    with QueryService(
        registry, workers=4, queue_limit=batch, _result_cache=False
    ) as uncached, QueryService(registry, workers=4, queue_limit=batch) as cached:
        plain_t, cached_t, ratio = paired_seconds(
            lambda: uncached.run_batch(requests),
            lambda: cached.run_batch(requests),
            reps,
        )
        snapshot = cached.stats_snapshot()["result_cache"]
    row = (f"zipf batch of {batch}", plain_t, cached_t, ratio)
    return row, snapshot["hit_rate"]


def median_seconds(thunk, repetitions: int) -> float:
    thunk()  # warm caches (tree index, compiled plans) outside the timing
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        thunk()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def spans_per_call(thunk) -> int:
    """How many spans one traced call of ``thunk`` opens."""
    with obs.tracing() as tracer:
        thunk()
    return sum(1 for root in tracer.roots() for _ in root.walk())


def paired_seconds(baseline, variant, repetitions: int) -> tuple[float, float, float]:
    """Interleaved paired timing for the overhead gates.

    The overhead rows compare the *same* workload under two configurations,
    so the arms are timed back-to-back within each repetition (clock-speed
    drift between separately timed blocks otherwise dwarfs the few-percent
    effects being gated).  Returns each arm's minimum plus the **median of
    the per-repetition variant/baseline ratios** — drift cancels inside a
    repetition and the median discards repetitions where a GC pause or
    scheduler preemption hit one arm, so the ratio isolates the feature's
    own cost.
    """
    baseline()  # warm caches outside the timing
    variant()
    base_times, var_times = [], []
    for repetition in range(repetitions):
        # Alternate the order so ramping interference hits both arms alike.
        first, second = (
            (baseline, variant) if repetition % 2 == 0 else (variant, baseline)
        )
        start = time.perf_counter()
        first()
        middle = time.perf_counter()
        second()
        end = time.perf_counter()
        if repetition % 2 == 0:
            base_times.append(middle - start)
            var_times.append(end - middle)
        else:
            var_times.append(middle - start)
            base_times.append(end - middle)
    ratios = sorted(v / b for b, v in zip(base_times, var_times))
    return min(base_times), min(var_times), ratios[len(ratios) // 2]


def cache_section(args, reps: int) -> list[str]:
    """Print the result-cache rows; the list of gate-failure messages."""
    row, hit_rate = cache_effectiveness(args.quick, reps)
    header = (
        f"{'result cache':<22} {'uncached':>12} {'cached':>12} {'p50 win':>9}"
    )
    print(header)
    print("-" * len(header))
    name, plain_t, cached_t, ratio = row
    win_pct = (1.0 - ratio) * 100.0
    print(
        f"{name:<22} {plain_t * 1e3:>10.3f}ms {cached_t * 1e3:>10.3f}ms "
        f"{win_pct:>+8.1f}%"
    )
    print(f"{'hit rate':<22} {hit_rate:>36.2%}")
    failures = []
    if hit_rate < args.min_hit_rate:
        failures.append(
            f"FAIL: result cache hit rate {hit_rate:.2%} is below the "
            f"{args.min_hit_rate:.0%} gate (canonical keying is not "
            "collapsing the Zipf repeats)"
        )
    elif win_pct < args.min_cache_win:
        # Skew guard: a p50 win is only attainable once the hit-rate gate
        # confirmed the workload's repeats are actually being collapsed.
        failures.append(
            f"FAIL: cached p50 win {win_pct:+.1f}% is below the "
            f"{args.min_cache_win:.1f}% gate at hit rate {hit_rate:.2%}"
        )
    return failures


def store_section(args, reps: int) -> list[str]:
    """Print the disk-backed store rows; the list of gate-failure messages.

    Both arms run the same Zipf batch through identical services; only the
    registry differs — plain in-memory vs store-backed with an ample
    resident budget, every tree faulted in up front.  The ratio therefore
    isolates what the LRU bookkeeping costs on the hot path.  Both services
    are built with the private ``_result_cache=False`` hook: a cache hit
    never pins a tree, so a cached arm would time no store lookup at all.
    The cold-load row re-reads one tree from disk per repetition purely for
    scale.
    """
    import tempfile
    from pathlib import Path

    from repro.trees import TreeStore, tree_index

    size = 256 if args.quick else 512
    batch = 48 if args.quick else 96
    trees = {
        "bushy": random_tree(size, rng=random.Random(2008)),
        "chain": chain(size, labels=("a", "b")),
    }
    plain = TreeRegistry()
    backed = TreeRegistry()
    for name, tree in trees.items():
        tree_index(tree)  # prebuilt: neither arm times index construction
        plain.register(name, tree)
        backed.register(name, tree)
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-store-gate-")
    store = TreeStore(Path(tmpdir.name) / "store")
    backed.attach_store(store, resident_budget=1 << 30)
    for name in trees:
        backed.get(name)  # fault in: the gated arm serves warm hits only
    requests = _zipf_requests(batch)
    with QueryService(
        plain, workers=4, queue_limit=batch, _result_cache=False
    ) as base_svc, QueryService(
        backed, workers=4, queue_limit=batch, _result_cache=False
    ) as store_svc:
        plain_t, store_t, ratio = paired_seconds(
            lambda: base_svc.run_batch(requests),
            lambda: store_svc.run_batch(requests),
            reps,
        )

    cold_t = median_seconds(lambda: store.load("bushy"), reps)
    overhead_pct = (ratio - 1.0) * 100.0
    header = (
        f"{'disk-backed store':<22} {'in-memory':>12} {'store-warm':>12} "
        f"{'overhead':>9}"
    )
    print(header)
    print("-" * len(header))
    print(
        f"{f'zipf batch of {batch}':<22} {plain_t * 1e3:>10.3f}ms "
        f"{store_t * 1e3:>10.3f}ms {overhead_pct:>+8.1f}%"
    )
    print(f"{'cold load (1 tree)':<22} {cold_t * 1e3:>23.3f}ms {'(ungated)':>22}")
    tmpdir.cleanup()
    if overhead_pct > args.max_store_overhead:
        return [
            f"FAIL: store-backed warm serving is {overhead_pct:+.1f}% over "
            f"in-memory, beyond the {args.max_store_overhead:.1f}% gate"
        ]
    return []


#: Live-document edit gates: the largest splice/reindex time ratio per kind.
MUTATE_GATES = {"relabel": 0.05, "insert": 0.55, "delete": 0.55}


def mutate_section(reps: int) -> list[str]:
    """Print the live-document edit rows; the list of gate-failure messages.

    The tree and edits are bench_mutate's at n=2048 (the benchmarks'
    graded random trees): one edit of each kind at node ``size // 2``, then
    its front insert and delete, the index prebuilt so neither arm times
    the old generation's construction.  The size is fixed in quick mode
    too: the gates are defined at n=2048.
    """
    from bench_mutate import edit_for, front_edit_for
    from conftest import graded_random_trees
    from repro.trees import tree_index
    from repro.trees.mutate import apply_edit, apply_edit_indexed

    tree = graded_random_trees()[2048]
    tree_index(tree)
    rows = [(kind, tree, edit_for(tree, kind)) for kind in MUTATE_GATES]
    rows += [
        (f"front {kind}", *front_edit_for(tree, kind)) for kind in ("insert", "delete")
    ]
    header = (
        f"{'live edits n=2048':<22} {'reindex':>12} {'splice':>12} {'ratio':>9}"
    )
    print(header)
    print("-" * len(header))
    failures = []
    for row, base, edit in rows:
        gate = MUTATE_GATES[edit.kind]
        reindex_t, splice_t, ratio = paired_seconds(
            lambda: tree_index(apply_edit(base, edit)),
            lambda: apply_edit_indexed(base, edit),
            reps * 4,
        )
        print(
            f"{row:<22} {reindex_t * 1e3:>10.3f}ms {splice_t * 1e3:>10.3f}ms "
            f"{ratio:>8.3f}x"
        )
        if ratio > gate:
            failures.append(
                f"FAIL: {row} splice takes {ratio:.3f}x of a full reindex, "
                f"above the {gate:.2f}x gate"
            )
    return failures


def _mutate_gates_text() -> str:
    return ", ".join(f"{kind} {gate:.2f}x" for kind, gate in MUTATE_GATES.items())


def run_mutate_gate(reps: int) -> int:
    failures = mutate_section(reps)
    for message in failures:
        print(message, file=sys.stderr)
    if not failures:
        print(f"OK: edit splices within {_mutate_gates_text()} of a full reindex")
    return 1 if failures else 0


def run_store_gate(args, reps: int) -> int:
    failures = store_section(args, reps)
    for message in failures:
        print(message, file=sys.stderr)
    if not failures:
        print(
            "OK: store-backed warm serving within "
            f"{args.max_store_overhead:.1f}% of in-memory"
        )
    return 1 if failures else 0


def run_cache_gate(args, reps: int) -> int:
    failures = cache_section(args, reps)
    for message in failures:
        print(message, file=sys.stderr)
    if not failures:
        print(
            f"OK: cache hit rate at or above {args.min_hit_rate:.0%}, "
            f"cached p50 win at or above {args.min_cache_win:.1f}%"
        )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / few reps (CI smoke)"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="fail if the bitset backend is below this on any C1 node row",
    )
    parser.add_argument(
        "--min-check-speedup",
        type=float,
        default=2.0,
        help="fail if the bitset checker is below this on any C3 row",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=5.0,
        help="fail if attaching a (never-tripping) budget slows the bitset "
        "engines by more than this many percent",
    )
    parser.add_argument(
        "--max-trace-overhead",
        type=float,
        default=3.0,
        help="fail if installing a tracer slows the bitset engines by more "
        "than this many percent over the default tracing-disabled run",
    )
    parser.add_argument(
        "--min-hit-rate",
        type=float,
        default=0.30,
        help="fail if the result cache's hit rate on the Zipf "
        "workload falls below this fraction",
    )
    parser.add_argument(
        "--min-cache-win",
        type=float,
        default=10.0,
        help="fail if the cached arm's p50 is not at least this many "
        "percent faster than the uncached arm (applied only when the "
        "hit-rate gate passed)",
    )
    parser.add_argument(
        "--cache-only",
        action="store_true",
        help="run only the result-cache effectiveness rows and gates "
        "(the CI canonical keys + result cache job)",
    )
    parser.add_argument(
        "--max-store-overhead",
        type=float,
        default=10.0,
        help="fail if warm-hit serving through a store-backed registry is "
        "more than this many percent slower (p50) than in-memory serving",
    )
    parser.add_argument(
        "--store-only",
        action="store_true",
        help="run only the disk-backed store overhead rows and gate "
        "(the CI store job)",
    )
    parser.add_argument(
        "--mutate-only",
        action="store_true",
        help="run only the live-document edit rows and gates "
        "(the CI live documents job)",
    )
    args = parser.parse_args(argv)

    sizes = (128, 512) if args.quick else (128, 512, 2048)
    check_sizes = (64, 128) if args.quick else (64, 128, 256)
    reps = 5 if args.quick else 15

    if args.cache_only:
        return run_cache_gate(args, reps)
    if args.store_only:
        return run_store_gate(args, reps)
    if args.mutate_only:
        return run_mutate_gate(reps)

    rows = []
    gate_failures = []
    for size in sizes:
        tree = random_tree(size, rng=random.Random(size))
        sets_t = median_seconds(
            lambda: Evaluator(tree, backend="sets").nodes(QUERY), reps
        )
        bits_t = median_seconds(
            lambda: Evaluator(tree, backend="bitset").nodes(QUERY), reps
        )
        speedup = sets_t / bits_t
        rows.append((f"C1 nodes n={size}", sets_t, bits_t, speedup))
        if speedup < args.min_speedup:
            gate_failures.append((f"C1 nodes n={size}", speedup))

    for size in sizes:
        tree = random_tree(size, rng=random.Random(size * 3 + 1))
        sets_ev = Evaluator(tree, backend="sets")
        bits_ev = Evaluator(tree, backend="bitset")
        # Paired and interleaved: the gate is a ratio near 1.5x, which a
        # host changing speed between two separate blocks could flip.
        sets_t, bits_t, ratio = paired_seconds(
            lambda: sets_ev.image(STAR_QUERY, {0}),
            lambda: bits_ev.image(STAR_QUERY, {0}),
            reps * 4,
        )
        speedup = 1.0 / ratio
        rows.append((f"star image n={size}", sets_t, bits_t, speedup))
        if speedup < MIN_STAR_SPEEDUP:
            gate_failures.append((f"star image n={size}", speedup))

    for size in check_sizes:
        tree = random_deep_tree(size, rng=random.Random(size))
        table_t = median_seconds(
            lambda: ModelChecker(tree, backend="table").holds(TC_HEAVY), reps
        )
        bits_t = median_seconds(
            lambda: ModelChecker(tree, backend="bitset").holds(TC_HEAVY), reps
        )
        speedup = table_t / bits_t
        rows.append((f"C3 TC-heavy n={size}", table_t, bits_t, speedup))
        if speedup < args.min_check_speedup:
            gate_failures.append((f"C3 TC-heavy n={size}", speedup))

    from bench_modelcheck import SERVING_FORMULAS, check_once, serving_tree

    tree = serving_tree(2048)
    pool = [parse_formula(text) for text in SERVING_FORMULAS.values()]
    table_t = median_seconds(lambda: [check_once(tree, f, "table") for f in pool], reps)
    bits_t = median_seconds(lambda: [check_once(tree, f, "bitset") for f in pool], reps)
    speedup = table_t / bits_t
    rows.append(("C3 serving n=2048", table_t, bits_t, speedup))
    if speedup < args.min_check_speedup:
        gate_failures.append(("C3 serving n=2048", speedup))

    # Checkpoint-overhead rows: the same bitset workloads with a permissive
    # budget attached (never trips, but every cooperative checkpoint fires).
    overhead_rows = []
    ample = ExecutionBudget(max_steps=1 << 62)
    overhead_reps = reps * 4
    size = sizes[-1]
    tree = random_tree(size, rng=random.Random(size * 3 + 1))
    plain_ev = Evaluator(tree, backend="bitset")
    budget_ev = Evaluator(tree, backend="bitset", budget=ample)
    plain_t, budget_t, ratio = paired_seconds(
        lambda: plain_ev.image(STAR_QUERY, {0}),
        lambda: budget_ev.image(STAR_QUERY, {0}),
        overhead_reps,
    )
    overhead_rows.append((f"star image n={size}", plain_t, budget_t, ratio))

    size = check_sizes[-1]
    tree = random_deep_tree(size, rng=random.Random(size))
    plain_t, budget_t, ratio = paired_seconds(
        lambda: ModelChecker(tree, backend="bitset").holds(TC_HEAVY),
        lambda: ModelChecker(tree, backend="bitset", budget=ample).holds(TC_HEAVY),
        overhead_reps,
    )
    overhead_rows.append((f"C3 TC-heavy n={size}", plain_t, budget_t, ratio))

    # Tracing-overhead rows: same bitset workloads with a tracer installed
    # for the traced arm (the CLI ``--trace`` usage pattern).  Always
    # measured at the full sizes: the per-call span cost is constant, so
    # tiny quick-mode workloads would measure tracer setup, not tracing.
    trace_tracer = obs.Tracer()  # one tracer reused across repetitions:
    # installing is a global assignment, so the timed arm pays for spans,
    # not for tracer construction.

    def with_tracer(thunk):
        def run():
            obs.install(trace_tracer)
            try:
                thunk()
            finally:
                obs.uninstall()

        return run

    trace_rows = []
    size = 4096
    tree = random_tree(size, rng=random.Random(size * 3 + 1))
    trace_ev = Evaluator(tree, backend="bitset")

    def star():
        trace_ev.image(STAR_QUERY, {0})

    plain_t, traced_t, ratio = paired_seconds(star, with_tracer(star), overhead_reps)
    trace_rows.append(
        (f"star image n={size}", plain_t, traced_t, ratio, spans_per_call(star))
    )

    size = 512
    tree = random_deep_tree(size, rng=random.Random(size))

    def check():
        ModelChecker(tree, backend="bitset").holds(TC_HEAVY)

    plain_t, traced_t, ratio = paired_seconds(check, with_tracer(check), overhead_reps)
    trace_rows.append(
        (f"C3 TC-heavy n={size}", plain_t, traced_t, ratio, spans_per_call(check))
    )

    header = f"{'workload':<22} {'reference':>12} {'bitset':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, sets_t, bits_t, speedup in rows:
        print(
            f"{name:<22} {sets_t * 1e3:>10.3f}ms {bits_t * 1e3:>10.3f}ms "
            f"{speedup:>8.1f}x"
        )

    print()
    header = f"{'checkpoint overhead':<22} {'unbudgeted':>12} {'budgeted':>12} {'overhead':>9}"
    print(header)
    print("-" * len(header))
    for name, plain_t, budget_t, ratio in overhead_rows:
        overhead_pct = (ratio - 1.0) * 100.0
        print(
            f"{name:<22} {plain_t * 1e3:>10.3f}ms {budget_t * 1e3:>10.3f}ms "
            f"{overhead_pct:>+8.1f}%"
        )
        if overhead_pct > args.max_overhead:
            gate_failures.append((f"overhead {name}", overhead_pct))

    print()
    header = (
        f"{'tracing overhead':<22} {'disabled':>12} {'traced':>12} {'overhead':>9} "
        f"{'per span':>10}"
    )
    print(header)
    print("-" * len(header))
    for name, plain_t, traced_t, ratio, spans in trace_rows:
        overhead_pct = (ratio - 1.0) * 100.0
        span_us = (traced_t - plain_t) / spans * 1e6  # from the two minima
        print(
            f"{name:<22} {plain_t * 1e3:>10.3f}ms {traced_t * 1e3:>10.3f}ms "
            f"{overhead_pct:>+8.1f}% {span_us:>8.1f}us"
        )
        if overhead_pct > args.max_trace_overhead and span_us > MAX_SPAN_US:
            gate_failures.append((f"tracing {name}", overhead_pct))

    print()
    cache_failures = cache_section(args, reps)
    print()
    cache_failures += store_section(args, reps)
    print()
    cache_failures += mutate_section(reps)

    if gate_failures or cache_failures:
        for name, value in gate_failures:
            if name.startswith("overhead"):
                print(
                    f"FAIL: {name} checkpoint overhead {value:+.1f}% exceeds "
                    f"the {args.max_overhead:.1f}% gate",
                    file=sys.stderr,
                )
                continue
            if name.startswith("tracing"):
                print(
                    f"FAIL: {name} tracing overhead {value:+.1f}% exceeds "
                    f"the {args.max_trace_overhead:.1f}% gate and the "
                    f"{MAX_SPAN_US:.0f}us-per-span bound",
                    file=sys.stderr,
                )
                continue
            if name.startswith("C3"):
                gate = args.min_check_speedup
            elif name.startswith("star"):
                gate = MIN_STAR_SPEEDUP
            else:
                gate = args.min_speedup
            print(
                f"FAIL: {name} speedup {value:.2f}x is below the "
                f"{gate:.1f}x regression gate",
                file=sys.stderr,
            )
        for message in cache_failures:
            print(message, file=sys.stderr)
        return 1
    print(
        f"OK: C1 node rows at or above {args.min_speedup:.1f}x, "
        f"star image rows at or above {MIN_STAR_SPEEDUP:.1f}x, "
        f"C3 rows at or above {args.min_check_speedup:.1f}x, "
        f"checkpoint overhead within {args.max_overhead:.1f}%, "
        f"tracing overhead within {args.max_trace_overhead:.1f}% or "
        f"{MAX_SPAN_US:.0f}us per span, "
        f"cache hit rate at or above {args.min_hit_rate:.0%} with a "
        f">={args.min_cache_win:.1f}% p50 win, store warm hits within "
        f"{args.max_store_overhead:.1f}%, edit splices within "
        f"{_mutate_gates_text()} of a full reindex"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
