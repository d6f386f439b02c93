"""The per-layer ledger of a traced run.

Two sources, both read from outside ``src/``:

1. the spans the program already emits, collected with ``repro.obs.tracing()``
   (``service.request``, ``service.queue.wait``, ``service.attempt``,
   ``service.mutate``, ``xpath.*``, ``logic.*``) and the metrics registry
   (``store_*``, ``wal_*``, ``service_latency_seconds``, merged across shard
   processes for the sharded tier);
2. a replay of the same request stream through each layer's public
   functions (parsers, ``canonical_key``, ``ResultCache``, the exact
   equivalence procedure, result encoding, ``tree_index``,
   ``apply_edit_indexed``, ``WriteAheadLog`` appends, ``TreeStore`` loads),
   timed per call.

Shard-side spans are not shipped back to the parent, so on the sharded tier
the queue and dispatch metrics read 0 and the engine metrics come from an
in-process replay of the same reads.
"""

from __future__ import annotations

import json
import statistics
import time

from repro import obs
from repro.decision import exact_equivalent, exact_path_equivalent
from repro.logic import parse_formula
from repro.service import ResultCache
from repro.trees import Tree
from repro.trees.index import tree_index
from repro.trees.mutate import apply_edit_indexed, edit_from_json
from repro.trees.store import TreeStore
from repro.trees.wal import WriteAheadLog
from repro.xpath import is_downward, parse_node, parse_path
from repro.xpath import ast as xp
from repro.xpath.optimizer import canonical_key

from checks import bitset_answer, committed_edits, parse_any
from driver import percentile
from workloads import WAL_FSYNC

#: Replays time at most this many calls per layer (the stream prefix).
REPLAY_CAP = 2000
#: Documents packed and loaded by the store-load replay.
STORE_REPLAY_DOCS = 8

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("service.queue.wait_p50_ms", "ms", "lower"),
    ("service.queue.shed", "count", "lower"),
    ("service.workers.dispatch_p50_us", "us", "lower"),
    ("service.workers.retries", "count", "lower"),
    ("service.workers.fallbacks", "count", "lower"),
    ("xpath.parser.parse_p50_us", "us", "lower"),
    ("logic.parser.parse_p50_us", "us", "lower"),
    ("xpath.optimizer.key_p50_us", "us", "lower"),
    ("service.cache.hit_ratio", "1", "higher"),
    ("service.cache.lookup_p50_us", "us", "lower"),
    ("xpath.engine.eval_p50_ms", "ms", "lower"),
    ("xpath.engine.star_sweeps_per_req", "count/req", "lower"),
    ("logic.engine.check_p50_ms", "ms", "lower"),
    ("logic.engine.tc_sweeps_per_req", "count/req", "lower"),
    ("decision.exact.equiv_p50_ms", "ms", "lower"),
    ("service.api.encode_p50_us", "us", "lower"),
    ("service.api.mutate_p50_ms", "ms", "lower"),
    ("trees.index.build_ms", "ms", "lower"),
    ("trees.mutate.relabel_p50_ms", "ms", "lower"),
    ("trees.mutate.insert_p50_ms", "ms", "lower"),
    ("trees.mutate.delete_p50_ms", "ms", "lower"),
    ("trees.wal.append_p50_ms", "ms", "lower"),
    ("trees.wal.bytes_per_edit", "B/edit", "lower"),
    ("trees.wal.fsyncs", "count", "lower"),
    ("trees.store.cold_loads", "count", "lower"),
    ("trees.store.evictions", "count", "lower"),
    ("trees.store.load_p50_ms", "ms", "lower"),
    ("trees.store.hit_ratio", "1", "higher"),
    ("service.shards.overhead_p50_ms", "ms", "lower"),
    ("service.shards.restarts", "count", "lower"),
    ("ledger.unattributed_share", "1", "lower"),
    ("trace.overhead_ratio", "1", "higher"),
)

READ_OPS = ("eval", "select", "check", "equivalent")


def _timed(call, *args):
    started = time.perf_counter()
    value = call(*args)
    return value, time.perf_counter() - started


def _p50(seconds, scale: float) -> float:
    return percentile(seconds, 50) * scale


# -- spans -------------------------------------------------------------------


class SpanLedger:
    """Per-layer self time and counts folded from finished span trees."""

    def __init__(self, roots):
        self.queue_wait: list[float] = []
        self.dispatch_self: list[float] = []
        self.request_wall: list[float] = []
        self.engine = {"xpath": [], "logic": []}
        self.sweeps = {"xpath": 0, "logic": 0}
        self.requests = {"xpath": 0, "logic": 0}
        self.mutate: list[float] = []
        self.attempt_self: list[float] = []
        for root in roots:
            for span in root.walk():
                if span.name == "service.mutate":
                    self.mutate.append(span.wall)
            if root.name == "service.request":
                self._request(root)

    def _request(self, span) -> None:
        covered = 0.0
        for child in span.children:
            if child.name == "service.queue.wait":
                # Recorded as a closed child, but it precedes the request's
                # own interval: it is its own layer, not part of self time.
                self.queue_wait.append(child.wall)
                continue
            covered += child.wall
            if child.name == "service.attempt":
                self._attempt(child, span.attrs.get("op"))
        self.request_wall.append(span.wall)
        self.dispatch_self.append(max(0.0, span.wall - covered))

    def _attempt(self, span, op) -> None:
        family = {"eval": "xpath", "select": "xpath", "check": "logic"}.get(op)
        inner = 0.0
        for child in span.children:
            inner += child.wall
            if family and child.name.startswith(family + "."):
                self.engine[family].append(child.wall)
        if family:
            self.requests[family] += 1
            sweep = "xpath.star.sweep" if family == "xpath" else "logic.tc.sweep"
            self.sweeps[family] += sum(1 for s in span.walk() if s.name == sweep)
        self.attempt_self.append(max(0.0, span.wall - inner))

    def covered_seconds(self) -> float:
        return sum(self.queue_wait) + sum(self.request_wall)

    def summary(self, e2e_seconds: float) -> list[tuple[str, float, int]]:
        """``(layer, self seconds, count)`` rows for the printed ledger."""
        rows = [
            ("service.queue.wait", sum(self.queue_wait), len(self.queue_wait)),
            ("service.workers (dispatch self)", sum(self.dispatch_self), len(self.dispatch_self)),
            ("service.attempt (self: decision, encode)", sum(self.attempt_self), len(self.attempt_self)),
            ("xpath.engine", sum(self.engine["xpath"]), len(self.engine["xpath"])),
            ("logic.engine", sum(self.engine["logic"]), len(self.engine["logic"])),
        ]
        rows.append(("unattributed", max(0.0, e2e_seconds - self.covered_seconds()), 0))
        return rows


def engine_replay(records, docs) -> SpanLedger:
    """Trace the reads' engine calls in-process (for the sharded tier)."""
    seen = 0
    with obs.tracing() as tracer:
        for fields, result, _ in records:
            if fields["op"] not in ("eval", "select", "check") or result.status != "ok":
                continue
            tree = docs[fields["tree"]]
            tree_index(tree)  # shards serve from a built index too
            with obs.span("service.request", op=fields["op"]):
                with obs.span("service.attempt"):
                    bitset_answer(fields, tree)
            seen += 1
            if seen >= REPLAY_CAP // 4:
                break
    return SpanLedger(tracer.roots())


# -- replays -----------------------------------------------------------------


def _parse_for(fields):
    op = fields["op"]
    if op == "eval":
        return "xpath", parse_node, fields["query"]
    if op == "select":
        return "xpath", parse_path, fields["query"]
    if op == "check":
        return "logic", parse_formula, fields["formula"]
    return "xpath", parse_any, fields["left"]


def cache_key(fields, canonical: str | None = None) -> tuple:
    """The service's result-cache key for a read (see workers._cache_key);
    ``canonical`` is the query's ``canonical_key`` for eval/select."""
    op = fields["op"]
    if op == "check":
        text = f"F:{fields['formula']}"
    elif op == "equivalent":
        text = f"E:{fields['left']}\x00{fields['right']}\x00{fields.get('alphabet', 'ab')}"
    else:
        text = canonical
    return (op, fields.get("tree") or "", text)


def replay_front(records) -> dict:
    """Parsers, canonical keys, the result cache and encoding, replayed."""
    parse = {"xpath": [], "logic": []}
    keys: list[float] = []
    lookups: list[float] = []
    encode: list[float] = []
    cache = ResultCache()
    for index, (fields, result, _) in enumerate(records):
        if fields["op"] == "mutate":
            cache.invalidate(fields["tree"])
            continue
        if result.status != "ok":
            continue
        family, parser, text = _parse_for(fields)
        expr, seconds = _timed(parser, text)
        if index < REPLAY_CAP:
            parse[family].append(seconds)
            _, seconds = _timed(lambda: json.dumps(result.to_json()))
            encode.append(seconds)
        canonical = None
        if fields["op"] in ("eval", "select"):
            canonical, seconds = _timed(canonical_key, expr)
            if index < REPLAY_CAP:
                keys.append(seconds)
        key = cache_key(fields, canonical)
        started = time.perf_counter()
        kind, payload = cache.begin(key, fields.get("tree") or "")
        if kind == "leader":
            cache.complete(payload, result.value)
        lookups.append(time.perf_counter() - started)
    return {
        "xpath.parser.parse_p50_us": _p50(parse["xpath"], 1e6),
        "logic.parser.parse_p50_us": _p50(parse["logic"], 1e6),
        "xpath.optimizer.key_p50_us": _p50(keys, 1e6),
        "service.cache.hit_ratio": cache.snapshot()["hit_rate"],
        "service.cache.lookup_p50_us": _p50(lookups, 1e6),
        "service.api.encode_p50_us": _p50(encode, 1e6),
    }


def replay_exact(records) -> float:
    """p50 ms of the exact equivalence procedure over the stream's pairs."""
    seconds = []
    for fields, result, _ in records:
        if fields["op"] != "equivalent" or result.status != "ok":
            continue
        left, right = parse_any(fields["left"]), parse_any(fields["right"])
        if not (is_downward(left) and is_downward(right)):
            continue
        exact = exact_equivalent if isinstance(left, xp.NodeExpr) else exact_path_equivalent
        alphabet = tuple(fields.get("alphabet", "ab"))
        _, elapsed = _timed(exact, left, right, alphabet, None)
        seconds.append(elapsed)
        if len(seconds) >= 50:
            break
    return _p50(seconds, 1e3)


def replay_writes(tally, docs, workdir) -> dict:
    """``apply_edit_indexed`` and WAL appends over the committed edits."""
    by_kind = {"relabel": [], "insert": [], "delete": []}
    appends: list[float] = []
    wal = WriteAheadLog.open(workdir / "replay-wal", fsync=WAL_FSYNC, snapshot_every=None)
    try:
        budget = REPLAY_CAP // 4
        for name, entries in sorted(committed_edits(tally).items()):
            tree = docs[name]
            tree_index(tree)
            for epoch, edit_json in entries:
                edit = edit_from_json(edit_json)
                tree, seconds = _timed(apply_edit_indexed, tree, edit)
                by_kind[edit.kind].append(seconds)
                _, seconds = _timed(wal.append_mutate, name, epoch, edit_json, tree)
                appends.append(seconds)
                budget -= 1
                if budget <= 0:
                    break
            if budget <= 0:
                break
    finally:
        wal.close()
    metrics = {f"trees.mutate.{kind}_p50_ms": _p50(v, 1e3) for kind, v in by_kind.items()}
    metrics["trees.wal.append_p50_ms"] = _p50(appends, 1e3)
    return metrics


def replay_index_build(docs) -> float:
    """Median ms of a from-scratch ``tree_index`` per document."""
    seconds = []
    for tree in docs.values():
        copy = Tree(list(tree.labels), list(tree.parent))
        _, elapsed = _timed(tree_index, copy)
        seconds.append(elapsed)
    return statistics.median(seconds) * 1e3


def replay_store_loads(docs, workdir) -> float:
    """p50 ms of ``TreeStore.load`` for the workload's first documents."""
    store = TreeStore(workdir / "replay-store")
    names = sorted(docs)[:STORE_REPLAY_DOCS]
    for name in names:
        store.pack(name, docs[name], epoch=1)
    seconds = []
    for _ in range(3):
        for name in names:
            _, elapsed = _timed(store.load, name)
            seconds.append(elapsed)
    return _p50(seconds, 1e3)


# -- metrics registry --------------------------------------------------------


def _series(state: dict, name: str, **labels):
    """Instruments of ``name`` in a registry state whose labels match."""
    for (metric, label_key), (kind, value, _) in state.items():
        if metric != name:
            continue
        found = dict(label_key)
        if all(found.get(k) == v for k, v in labels.items()):
            yield found, kind, value


def counter_total(state: dict, name: str, **labels) -> float:
    return sum(value for _, kind, value in _series(state, name, **labels) if kind == "counter")


def _histograms(state: dict, name: str, shard_side: bool | None):
    """``(edges, state)`` of each ``name`` histogram; ``shard_side`` picks
    the shard processes' series (service label ``<parent>.shardN``) or the
    parent's."""
    for (metric, label_key), (kind, value, edges) in state.items():
        if metric != name or kind != "histogram":
            continue
        service = dict(label_key).get("service", "")
        if shard_side is None or (".shard" in service) == shard_side:
            yield edges, value


def histogram_totals(state: dict, name: str, shard_side: bool | None = None):
    """``(count, sum)`` over the matching series."""
    parts = [value for _, value in _histograms(state, name, shard_side)]
    return sum(p[1] for p in parts), sum(p[2] for p in parts)


def histogram_quantile(state: dict, name: str, q: float, shard_side: bool | None = None) -> float:
    """The ``q``-quantile of the merged series, interpolated linearly inside
    its bucket (bucket edges alone are too coarse to show a change)."""
    counts, edges, total = None, (), 0
    low, high = float("inf"), float("-inf")
    for bucket_edges, (part, count, _, minimum, maximum) in _histograms(state, name, shard_side):
        counts = list(part) if counts is None else [a + b for a, b in zip(counts, part)]
        edges, total = bucket_edges, total + count
        low, high = min(low, minimum), max(high, maximum)
    if not total:
        return 0.0
    target, seen = q * total, 0
    for index, count in enumerate(counts):
        if count and seen + count >= target:
            lower = max(edges[index - 1] if index else 0.0, low)
            upper = min(edges[index] if index < len(edges) else high, high)
            return lower + (upper - lower) * (target - seen) / count
        seen += count
    return high
