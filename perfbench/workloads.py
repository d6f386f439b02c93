"""The four workloads: seeded documents, request streams and service set-up.

Every input is derived from the ``--seed`` argument alone; the service only
ever sees the generated requests.  A stream is an iterator of request-field
dicts (``QueryRequest(**fields)``), produced in the order the closed loop
submits them.

* ``hot-read``    Zipf(1.1) over a 12-entry pool with syntactic variants,
                  4 random trees of n=512, in memory.
* ``scan-read``   templated star / TC queries, every (op, query, doc)
                  triple distinct, 16 docs of n=4096 (random, chain, comb).
* ``write-mix``   the hot pool plus 20% ``mutate`` on 8 docs of n=2048,
                  WAL attached with ``fsync=64``.
* ``cold-sharded`` light queries over 48 docs of n=2048 through
                  ``ShardedQueryService(shards=2)`` in store mode with a
                  resident budget of a quarter of the corpus bytes.
"""

from __future__ import annotations

import itertools
import random

from repro.service import QueryService, ShardedQueryService, TreeRegistry
from repro.trees import Tree, comb, random_tree
from repro.trees.index import tree_index
from repro.trees.store import TreeStore, index_nbytes
from repro.trees.wal import WriteAheadLog

WORKLOADS = ("hot-read", "scan-read", "write-mix", "cold-sharded")

ZIPF_EXPONENT = 1.1
#: WAL fsync policy (appends per fsync) wherever a WAL is attached.
WAL_FSYNC = 64
#: WAL snapshot cadence (the library default), used to fix the restart state.
WAL_SNAPSHOT_EVERY = 256
#: 3-node subtrees pre-seeded at the root's first child of each write doc.
STACK_DEPTH = 32
#: Share of write-mix requests that are ``mutate``.
WRITE_SHARE = 0.2

LABELS4 = ("a", "b", "c", "d")
LABELS6 = ("a", "b", "c", "d", "e", "f")

#: The hot pool, hot-first.  Ranks 0/1 and 2/3 are syntactic variants
#: (``descendant`` vs ``child/child*``) that one canonical key covers.
#: ``doc`` indexes the workload's document list.
HOT_POOL = (
    {"op": "eval", "query": "<descendant[a and <right[b]>]>", "doc": 0},
    {"op": "eval", "query": "<child/child*[a and <right[b]>]>", "doc": 0},
    {"op": "select", "query": "descendant[a]", "doc": 1},
    {"op": "select", "query": "child/child*[a]", "doc": 1},
    {"op": "eval", "query": "<(child[a])*[b]>", "doc": 2},
    {"op": "check", "formula": "a(x) & exists y. child(x,y) & b(y)", "doc": 0},
    {"op": "equivalent", "left": "descendant[a]", "right": "child/child*[a]"},
    {"op": "eval", "query": "<descendant[b]>", "doc": 3},
    {"op": "eval", "query": "<child[a]/descendant[b]>", "doc": 1},
    {"op": "select", "query": "descendant[b]/child", "doc": 3},
    {"op": "eval", "query": "<parent*[c]>", "doc": 2},
    {
        "op": "check",
        "formula": "exists x. exists y. tc[u,v](child(u,v) | right(u,v))(x,y) & c(x) & d(y)",
        "doc": 3,
    },
)

#: Light queries for cold-sharded: cheap engine work, so store loads show.
COLD_POOL = (
    {"op": "eval", "query": "<child[a]>"},
    {"op": "eval", "query": "a and <child[b]>"},
    {"op": "select", "query": "child[a]/child"},
    {"op": "check", "formula": "exists x. a(x) & leaf(x)"},
)
#: A tree-independent request (round-robin across shards), 1 in 20.
COLD_EQUIVALENT = {"op": "equivalent", "left": "descendant[b]", "right": "child/child*[b]"}
COLD_EQUIVALENT_SHARE = 0.05


# -- documents ---------------------------------------------------------------


def _relabelled(tree: Tree, rng: random.Random, alphabet) -> Tree:
    return Tree([rng.choice(alphabet) for _ in range(tree.size)], list(tree.parent))


def _chain(n: int, rng: random.Random, alphabet) -> Tree:
    return Tree([rng.choice(alphabet) for _ in range(n)], [-1] + list(range(n - 1)))


def _stacked(base: Tree, rng: random.Random, depth: int) -> Tree:
    """``base`` with ``depth`` 3-node subtrees as the root's first children.

    Node 1 is then always the root of a 3-node stack subtree, so the write
    stream's ``delete node 1`` / ``insert at (0, 0)`` edits stay valid in
    any commit order (see :class:`EditPlan`).
    """
    labels = [base.labels[0]]
    parents = [-1]
    for _ in range(depth):
        top = len(labels)
        labels.extend(rng.choice(LABELS4) for _ in range(3))
        parents.extend((0, top, top))
    shift = 3 * depth
    labels.extend(base.labels[1:])
    parents.extend(p + shift if p > 0 else 0 for p in base.parent[1:])
    return Tree(labels, parents)


def build_docs(workload: str, seed: int) -> dict[str, Tree]:
    """The workload's documents, named, deterministic in ``seed``."""
    rng = random.Random(f"{workload}/docs/{seed}")
    if workload == "hot-read":
        return {f"hot{i}": random_tree(512, LABELS4, rng) for i in range(4)}
    if workload == "scan-read":
        docs = {}
        for i in range(16):
            shape = i % 3
            if shape == 0:
                tree = random_tree(4096, LABELS6, rng)
            elif shape == 1:
                tree = _chain(4096, rng, LABELS6)
            else:
                tree = _relabelled(comb(2048), rng, LABELS6)
            docs[f"scan{i}"] = tree
        return docs
    if workload == "write-mix":
        return {
            f"live{i}": _stacked(
                random_tree(2048 - 3 * STACK_DEPTH, LABELS4, rng), rng, STACK_DEPTH
            )
            for i in range(8)
        }
    if workload == "cold-sharded":
        return {f"cold{i:02d}": random_tree(2048, LABELS4, rng) for i in range(48)}
    raise ValueError(f"unknown workload {workload!r}")


# -- services ----------------------------------------------------------------


class Deployment:
    """One started service over one workload's documents.

    Takes ownership of ``docs``: the registry is the only holder of the
    trees (and their indexes) afterwards, so an evicted tree is freed.
    """

    def __init__(self, workload: str, docs: dict[str, Tree], workdir):
        self.workdir = workdir
        self.registry = TreeRegistry()
        self.wal = None
        self.wal_dir = None
        if workload == "write-mix":
            self.wal_dir = workdir / "wal"
            self.wal = WriteAheadLog.open(
                self.wal_dir, fsync=WAL_FSYNC, snapshot_every=WAL_SNAPSHOT_EVERY
            )
            self.registry.attach_wal(self.wal)
        if workload == "cold-sharded":
            # Attach the store first, so registrations write through and the
            # budget evicts as the corpus loads: a quarter of the corpus.
            first = docs[min(docs)]
            budget = len(docs) * index_nbytes(tree_index(first)) // 4
            self.registry.attach_store(TreeStore(workdir / "store"), resident_budget=budget)
        for name in sorted(docs):
            tree = docs.pop(name)
            tree_index(tree)
            self.registry.register(name, tree)
        if workload == "cold-sharded":
            self.service = ShardedQueryService(self.registry, shards=2)
            # One stats round trip per shard: set-up ends when shards serve.
            self.service.stats_snapshot()
        else:
            self.service = QueryService(self.registry)

    @property
    def sharded(self) -> bool:
        return isinstance(self.service, ShardedQueryService)

    def attach_probe_wal(self, probe_docs) -> None:
        """Attach a fresh WAL for the post-window write probe.

        The probe documents are touched first, so a store-backed registry
        holds them resident and the WAL baselines them; every other
        resident tree is evicted, so the baseline (and ``recover_s``) does
        not depend on which documents the window left resident.
        """
        for name in probe_docs:
            self.registry.get(name)
        if self.registry.store is not None:
            for name in self.registry.resident_names():
                if name not in probe_docs:
                    self.registry.evict(name)
        self.wal_dir = self.workdir / "probe-wal"
        self.wal = WriteAheadLog.open(
            self.wal_dir, fsync=WAL_FSYNC, snapshot_every=WAL_SNAPSHOT_EVERY
        )
        self.registry.attach_wal(self.wal)

    def shutdown(self) -> None:
        self.service.shutdown()
        if self.wal is not None:
            self.wal.close()


# -- streams -----------------------------------------------------------------


class EditPlan:
    """Seeded edits that stay valid in any commit order of a 2-request window.

    Per document it tracks the *planned* depth of the 3-node stack at the
    root's first child.  A closed loop with two outstanding requests commits
    each edit with at most one neighbour reordered around it, so the real
    depth is within one of the plan: deletes (always of node 1) are planned
    only at depth >= 2, and the depth stays within ``[lo, hi]`` so sizes
    stay within ``3 * (hi - depth0)`` nodes of the seed document.
    """

    #: Edit kinds in rotation, so every run commits the same mix.
    KINDS = ("relabel", "insert", "delete")

    def __init__(self, rng: random.Random, docs, depth0: int, spread: int, relabel_below: int):
        self.rng = rng
        self.depth = {name: depth0 for name in docs}
        self.lo = max(2, depth0 - spread)
        self.hi = depth0 + spread
        self.relabel_below = relabel_below
        self.made = 0

    def edit(self, doc: str) -> dict:
        rng = self.rng
        kind = self.KINDS[self.made % len(self.KINDS)]
        self.made += 1
        depth = self.depth[doc]
        if kind == "delete" and depth <= self.lo:
            kind = "insert"
        elif kind == "insert" and depth >= self.hi:
            kind = "delete"
        if kind == "relabel":
            return {
                "kind": "relabel",
                "node": rng.randrange(1, self.relabel_below),
                "label": rng.choice(LABELS4),
            }
        if kind == "insert":
            self.depth[doc] = depth + 1
            x, y, z = (rng.choice(LABELS4) for _ in range(3))
            return {"kind": "insert", "parent": 0, "index": 0, "shape": [x, [y, z]]}
        self.depth[doc] = depth - 1
        return {"kind": "delete", "node": 1}


def _zipf_weights(size: int) -> list[float]:
    return [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)]


def _pool_request(entry: dict, names: list[str]) -> dict:
    fields = {key: value for key, value in entry.items() if key != "doc"}
    if "doc" in entry:
        fields["tree"] = names[entry["doc"] % len(names)]
    return fields


# Streams over a fixed pool yield the same dict object for the same request,
# so the driver can share repeated answers (see driver.drive).


def _hot_stream(rng, names):
    pool = [_pool_request(entry, names) for entry in HOT_POOL]
    weights = _zipf_weights(len(pool))
    while True:
        yield rng.choices(pool, weights)[0]


def _write_stream(rng, names):
    pool = [_pool_request(entry, names) for entry in HOT_POOL]
    weights = _zipf_weights(len(pool))
    plan = EditPlan(rng, names, STACK_DEPTH, STACK_DEPTH // 2, 1024)
    while True:
        if rng.random() < WRITE_SHARE:
            doc = rng.choice(names)
            yield {"op": "mutate", "tree": doc, "edit": plan.edit(doc)}
        else:
            yield rng.choices(pool, weights)[0]


def _cold_stream(rng, names):
    pool = [[{**query, "tree": name} for name in names] for query in COLD_POOL]
    equivalent = dict(COLD_EQUIVALENT)
    while True:
        if rng.random() < COLD_EQUIVALENT_SHARE:
            yield equivalent
        else:
            yield rng.choice(rng.choice(pool))


#: Label tests the scan templates combine: l, not l, and l or m.
def _tests():
    singles = [(label,) for label in LABELS6]
    negated = [("not", label) for label in LABELS6]
    pairs = list(itertools.combinations(LABELS6, 2))
    return singles + negated + pairs


def xpath_test(test: tuple) -> str:
    if test[0] == "not":
        return f"not {test[1]}"
    return " or ".join(test)


def logic_test(test: tuple, var: str) -> str:
    if test[0] == "not":
        return f"~{test[1]}({var})"
    if len(test) == 1:
        return f"{test[0]}({var})"
    return "(" + " | ".join(f"{label}({var})" for label in test) + ")"


TC_SENTENCE = (
    "exists x. exists y. tc[u,v](child(u,v) | right(u,v))(x,y) & {fx} & {fy}"
)


def scan_request(template: str, t1: tuple, t2: tuple, doc: str | None) -> dict:
    """One scan-read request; ``_id = (template, t1, t2, doc)`` is its
    identity, which the per-template oracle in checks.py reads."""
    x1, x2 = xpath_test(t1), xpath_test(t2)
    if template == "star":
        fields = {"op": "eval", "query": f"<(child[{x1}])*[{x2}]>", "tree": doc}
    elif template == "ancestor":
        fields = {"op": "eval", "query": f"({x2}) and <parent*[{x1}]>", "tree": doc}
    elif template == "image":
        fields = {"op": "select", "query": f"(child[{x1}])*[{x2}]", "tree": doc}
    elif template == "tc":
        formula = TC_SENTENCE.format(fx=logic_test(t1, "x"), fy=logic_test(t2, "y"))
        fields = {"op": "check", "formula": formula, "tree": doc}
    elif template == "unfold":
        # p*/q = q | p/p*/q: a star identity the exact procedure decides.
        fields = {
            "op": "equivalent",
            "left": f"(child[{x1}])*/child[{x2}]",
            "right": f"child[{x2}] | child[{x1}]/(child[{x1}])*/child[{x2}]",
            "alphabet": "".join(LABELS6),
        }
    else:
        raise ValueError(template)
    fields["_id"] = (template, t1, t2, doc)
    return fields


SCAN_TEMPLATES = ("star", "ancestor", "image", "tc")


def _scan_stream(rng, names):
    """Templates and documents in strict rotation, label tests in a seeded
    order without repeats: every (op, query, doc) triple is new, and the
    template mix is exactly even at any cut.  Every 50th request is also a
    tree-independent star-unfolding equivalence, each test pair once."""
    tests = _tests()
    pending = {}
    for template in SCAN_TEMPLATES:
        for doc in names:
            combos = [(t1, t2) for t1 in tests for t2 in tests]
            rng.shuffle(combos)
            pending[template, doc] = iter(combos)
    equivs = [(t1, t2) for t1 in tests for t2 in tests]
    rng.shuffle(equivs)
    for i in itertools.count():
        if i % 50 == 49 and equivs:
            yield scan_request("unfold", *equivs.pop(), None)
        template = SCAN_TEMPLATES[i % len(SCAN_TEMPLATES)]
        doc = names[(i // len(SCAN_TEMPLATES)) % len(names)]
        combo = next(pending[template, doc], None)
        if combo is None:
            return
        yield scan_request(template, *combo, doc)


def stream(workload: str, seed: int, names: list[str]):
    """The workload's request stream (an endless or very long iterator)."""
    rng = random.Random(f"{workload}/stream/{seed}")
    names = sorted(names)
    if workload == "hot-read":
        return _hot_stream(rng, names)
    if workload == "scan-read":
        return _scan_stream(rng, names)
    if workload == "write-mix":
        return _write_stream(rng, names)
    if workload == "cold-sharded":
        return _cold_stream(rng, names)
    raise ValueError(f"unknown workload {workload!r}")


#: The write probe's documents on the read-only workloads (random shapes:
#: a chain's mutations repair a 4096-node ancestor chain and dominate).
PROBE_DOCS = {
    "hot-read": ("hot0", "hot1"),
    "scan-read": ("scan0", "scan3"),
    "cold-sharded": ("cold00", "cold01"),
}
#: Extra snapshot cadences of probe mutations: each probe then commits at
#: least 382 writes (so the write p90 has dozens of samples beyond it) and
#: spans at most about eight seconds on the reference box.  Whole cadences
#: keep the WAL position that fixes ``recover_s``.
PROBE_EXTRA_CADENCES = {"hot-read": 7, "scan-read": 2, "cold-sharded": 1}


def probe_stream(workload: str, seed: int, docs: dict[str, Tree], probe_docs):
    """Mutations for the post-window write probe of a read-only workload,
    alternating between the probe documents so every run splits them alike."""
    rng = random.Random(f"{workload}/probe/{seed}")
    smallest = min(docs[name].size for name in probe_docs)
    plan = EditPlan(rng, probe_docs, 0, 16, smallest // 2)
    for doc in itertools.cycle(sorted(probe_docs)):
        yield {"op": "mutate", "tree": doc, "edit": plan.edit(doc)}
