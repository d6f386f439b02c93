"""Correctness checks, all run outside the timed window.

* hot-read: each distinct (op, query, doc) answer against the slow oracles
  (``repro.xpath.reference``, the ``table`` model checker, and brute-force
  corpus equivalence).
* scan-read: each answer against a direct per-template oracle written from
  the query's definition.  The reference semantics materializes O(n^2)
  relations, which at n=4096 on chains does not finish in a run.
* cold-sharded: each distinct answer against in-process ``bitset`` engines
  on the same documents.
* every workload with writes: final trees equal ``apply_edits`` folded over
  the committed edits in epoch order, and ``recover(wal_dir)`` digests equal
  the live registry.
"""

from __future__ import annotations

from repro.decision import check_node_equivalence, check_path_equivalence, standard_corpus
from repro.logic import parse_formula
from repro.logic.ast import free_variables
from repro.logic.modelcheck import ModelChecker
from repro.trees.mutate import apply_edits, edit_from_json
from repro.trees.wal import recover, tree_digest
from repro.xpath import XPathSyntaxError, parse_node, parse_path, reference
from repro.xpath import ast as xp
from repro.xpath.evaluator import Evaluator

from driver import fingerprint


def parse_any(text: str):
    try:
        return parse_path(text)
    except XPathSyntaxError:
        return parse_node(text)


def _check(tree, text: str, backend: str):
    formula = parse_formula(text)
    free = tuple(sorted(free_variables(formula)))
    checker = ModelChecker(tree, backend=backend)
    if not free:
        return checker.holds(formula)
    if len(free) == 1:
        return sorted(checker.node_set(formula, free[0]))
    return [list(pair) for pair in sorted(checker.pairs(formula, free[0], free[1]))]


def oracle_answer(fields: dict, tree):
    """The slow-oracle answer (reference semantics, table checker, corpus)."""
    op = fields["op"]
    if op == "eval":
        return sorted(reference.node_set(tree, parse_node(fields["query"])))
    if op == "select":
        pairs = reference.path_pairs(tree, parse_path(fields["query"]))
        return sorted({target for source, target in pairs if source == 0})
    if op == "check":
        return _check(tree, fields["formula"], "table")
    if op == "equivalent":
        left, right = parse_any(fields["left"]), parse_any(fields["right"])
        corpus = standard_corpus(alphabet=tuple(fields.get("alphabet", "ab")))
        compare = (
            check_node_equivalence if isinstance(left, xp.NodeExpr) else check_path_equivalence
        )
        return {"equivalent": compare(left, right, corpus).equivalent_on_corpus}
    raise ValueError(op)


def bitset_answer(fields: dict, tree):
    """The in-process fast-engine answer (cold-sharded's reference)."""
    op = fields["op"]
    if op == "eval":
        expr = parse_node(fields["query"])
        return sorted(Evaluator(tree, backend="bitset").nodes(expr))
    if op == "select":
        expr = parse_path(fields["query"])
        return sorted(Evaluator(tree, backend="bitset").image(expr, {0}))
    if op == "check":
        return _check(tree, fields["formula"], "bitset")
    raise ValueError(op)


def _matches(test: tuple, label: str) -> bool:
    if test[0] == "not":
        return label != test[1]
    return label in test


def template_answer(identity: tuple, tree):
    """Direct oracle for a scan-read template (see workloads.scan_request)."""
    template, t1, t2, _ = identity
    if template == "unfold":
        return {"equivalent": True}
    n, labels, parent = tree.size, tree.labels, tree.parent
    s1 = [_matches(t1, label) for label in labels]
    s2 = [_matches(t2, label) for label in labels]
    if template == "star":
        # <(child[t1])*[t2]>: v reaches a t2 node down a chain of t1 children.
        good = list(s2)
        for v in range(n - 1, 0, -1):  # descendants before ancestors
            if good[v] and s1[v]:
                good[parent[v]] = True
        return [v for v in range(n) if good[v]]
    if template == "ancestor":
        # t2 and <parent*[t1]>: some ancestor-or-self satisfies t1.
        up = [False] * n
        for v in range(n):
            up[v] = s1[v] or (v > 0 and up[parent[v]])
        return [v for v in range(n) if s2[v] and up[v]]
    if template == "image":
        # select (child[t1])*[t2] from the root.
        reach = [False] * n
        reach[0] = True
        for v in range(1, n):
            reach[v] = reach[parent[v]] and s1[v]
        return [v for v in range(n) if reach[v] and s2[v]]
    if template == "tc":
        # (child|right)+ from x reaches exactly the ids after x inside the
        # subtree of x's parent (the whole tree for the root).
        sizes = tree.subtree_sizes
        count = [0] * (n + 1)
        for v in range(n):
            count[v + 1] = count[v] + s2[v]
        for x in range(n):
            if not s1[x]:
                continue
            end = n if x == 0 else parent[x] + sizes[parent[x]]
            if count[end] - count[x + 1] > 0:
                return True
        return False
    raise ValueError(template)


def check_reads(tally, docs, mode: str) -> tuple[int, list[str]]:
    """Check every distinct ok read answer; ``(wrong answers, problems)``.

    ``mode`` is ``oracle`` (slow oracles), ``template`` (scan-read direct
    oracles) or ``bitset`` (in-process fast engines).  Each distinct read is
    checked once; every request that carried a wrong answer counts.
    """
    wrong = 0
    problems: list[str] = []
    for key, (fields, counts) in tally.reads.items():
        tree = docs.get(fields.get("tree"))
        if mode == "template":
            expected = template_answer(fields["_id"], tree)
        elif mode == "bitset" and fields["op"] != "equivalent":
            expected = bitset_answer(fields, tree)
        else:
            expected = oracle_answer(fields, tree)
        printed = fingerprint(fields["op"], expected)
        bad = sum(n for got, n in counts.items() if got != printed)
        if bad:
            wrong += bad
            if len(problems) < 5:
                problems.append(f"wrong answer for {key}")
    return wrong, problems


def committed_edits(tally) -> dict[str, list]:
    """Per document, the committed ``(epoch, edit)`` pairs in epoch order."""
    edits: dict[str, list] = {}
    for tree, epoch, edit in tally.committed:
        edits.setdefault(tree, []).append((epoch, edit))
    for entries in edits.values():
        entries.sort(key=lambda item: item[0])
    return edits


def check_writes(initial_docs, tally, registry) -> list[str]:
    """Final trees equal the epoch-ordered fold of the committed edits."""
    problems = []
    for name, edits in sorted(committed_edits(tally).items()):
        epochs = [epoch for epoch, _ in edits]
        if epochs != list(range(epochs[0], epochs[0] + len(epochs))):
            problems.append(f"{name}: committed epochs are not contiguous")
        expected = apply_edits(
            initial_docs[name], [edit_from_json(edit) for _, edit in edits]
        )
        live, epoch = registry.snapshot(name)
        if epoch != epochs[-1]:
            problems.append(f"{name}: live epoch {epoch} != last committed {epochs[-1]}")
        if tuple(live.labels) != tuple(expected.labels) or tuple(live.parent) != tuple(
            expected.parent
        ):
            problems.append(f"{name}: live tree differs from the folded edits")
    return problems


def check_recovery(wal_dir, registry) -> list[str]:
    """``recover(wal_dir)`` reproduces every logged tree's live digest."""
    recovered = recover(wal_dir)
    problems = []
    for name in recovered.names():
        live, epoch = registry.snapshot(name)
        again, again_epoch = recovered.snapshot(name)
        if tree_digest(again) != tree_digest(live) or again_epoch != epoch:
            problems.append(f"{name}: recovered tree differs from the live registry")
    if not recovered.names():
        problems.append("recovery produced no trees")
    return problems
