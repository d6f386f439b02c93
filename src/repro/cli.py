"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``eval QUERY [FILE.xml]`` — evaluate a node query against an XML document
  (stdin if no file) and list the matching nodes;
* ``select PATH [FILE.xml]`` — select nodes reachable from the root via a
  path expression;
* ``translate QUERY`` — print the FO(MTC) rendering (T1) and, when the
  query is W-free and in the compositional fragment, the round-tripped
  Regular XPath (T2);
* ``equivalent Q1 Q2`` — compare two queries: exactly when both are
  downward, corpus-based otherwise;
* ``satisfiable QUERY`` — exact satisfiability for downward queries with a
  witness document, corpus-based search otherwise;
* ``check FORMULA [FILE.xml]`` — model-check an FO(MTC) formula against an
  XML document: truth for sentences, satisfying nodes/pairs for formulas
  with one/two free variables (``--backend table|bitset``);
* ``simplify QUERY`` — apply the sound rewrite system;
* ``classify QUERY`` — dialect, axes, fragment memberships;
* ``batch [FILE.jsonl]`` — run many requests through the concurrent query
  service: one JSON request object per input line (stdin if no file), one
  JSON result object per output line, in input order.  Documents come from
  repeatable ``--tree NAME=FILE.xml`` registrations or inline ``"xml"``
  request fields; ``--workers`` / ``--queue-limit`` / ``--retries``
  shape the pool, finished answers are reused across requests from the
  second sighting of a request's text on, and ``--stats`` prints the
  aggregate counters to stderr as JSON.  Registered trees are *live*: a
  ``{"op": "mutate", "tree": NAME, "edit": {...}}`` request applies a
  subtree insert/delete/relabel and publishes a new epoch — later reads
  in the batch see the edited document (an optional ``"min_epoch"``
  field on reads asserts freshness).  ``--wal DIR`` makes
  those mutations *durable*: every registration and edit is appended to a
  write-ahead log before it is published, and a previous run's state is
  replayed from DIR before ``--tree`` registrations apply.  With
  ``--shards``, ``--max-restarts N`` arms the self-healing supervisor:
  crashed shard processes are respawned (at most N times per shard per
  rolling window) with their fault arms re-delivered, and a request in
  flight on one is re-sent to the replacement instead of failing.  ``--store DIR`` attaches the
  disk-backed index store: registered trees are packed to compact RSTR
  files, cold trees are read back in on first touch, and ``--resident-budget
  BYTES`` bounds the resident set with LRU eviction so a corpus much
  larger than memory stays serveable;
* ``store pack DIR --tree NAME=FILE.xml ...`` — pack XML documents into a
  store directory offline (the files ``batch --store`` serves from);
* ``store verify DIR [NAME]`` — check every section checksum of one or all
  stored trees and rebuild their indexes; corrupt files exit with code 3;
* ``recover DIR`` — validate and replay a write-ahead log directory
  offline: truncates a torn tail, loads each tree's checkpoint and folds
  the tree's later log records onto it, verifies every replayed tree
  against its recorded digest, and prints the per-tree epoch/size summary;
  a DIR that does not exist exits with code 3 and creates nothing.

Observability (``eval`` / ``select`` / ``check`` / ``batch``):

* ``--trace [FILE]`` — run under a tracer and emit the span tree as JSON
  (``repro-trace/1``) to FILE, or to stderr when no FILE is given;
* ``--metrics [FILE]`` (``batch`` only) — after the batch drains, dump the
  process metrics registry as JSON (``repro-metrics/1``) to FILE or stderr.

Queries sort themselves: input parseable as a node expression is treated as
one, otherwise as a path expression.

Resource governance (``eval`` / ``select`` / ``check``, budgets also on
``equivalent`` / ``satisfiable``):

* ``--timeout SECONDS`` — wall-clock deadline for the evaluation;
* ``--max-steps N`` — cooperative step/fuel cap;
* ``--max-nodes N`` — result-cardinality cap;
* ``--inject-fault SITE`` — arm a named fault site (a fired site exits
  with code 8, the engine code).

Exit codes: 0 success; 1 semantic "no" (NOT equivalent / UNSATISFIABLE /
FAILS); 2 syntax or usage error; 3 I/O error; 4 deadline exceeded; 5 budget
exhausted; 6 parser depth limit; 7 XML input limit; 8 engine fault;
9 service overload (queue full / closed); 10 shard permanently unavailable
(restart budget exhausted).  ``batch`` exits 0 when every
request succeeded, otherwise with the contract code of the first (in input
order) non-ok result — per-request failures are also reported structurally
on each output line, so one bad request never hides the others' results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import obs
from .decision import (
    NotDownward,
    check_node_equivalence,
    check_path_equivalence,
    exact_equivalent,
    exact_path_equivalent,
    exact_satisfiable,
    find_satisfying_node,
    standard_corpus,
)
from .logic.modelcheck import CHECKER_BACKENDS
from .runtime import ExecutionBudget, ReproError, exit_code_for, faults
from .trees import Tree, parse_xml, to_xml
from .xpath import (
    BACKENDS,
    Evaluator,
    XPathSyntaxError,
    ast as xp,
    axes_used,
    dialect,
    is_conditional_xpath,
    is_core_xpath,
    is_downward,
    parse_node,
    parse_path,
    simplify,
    unparse,
)

__all__ = ["main"]


def _parse_any(text: str) -> "xp.NodeExpr | xp.PathExpr":
    try:
        return parse_path(text)
    except XPathSyntaxError:
        return parse_node(text)


def _load_tree(path: str | None) -> Tree:
    if path is None or path == "-":
        return parse_xml(sys.stdin.read())
    with open(path) as handle:
        return parse_xml(handle.read())


def _budget_from(args: argparse.Namespace) -> ExecutionBudget | None:
    timeout = getattr(args, "timeout", None)
    max_steps = getattr(args, "max_steps", None)
    max_nodes = getattr(args, "max_nodes", None)
    if timeout is None and max_steps is None and max_nodes is None:
        return None
    return ExecutionBudget(timeout=timeout, max_steps=max_steps, max_nodes=max_nodes)


def _describe_nodes(tree: Tree, nodes) -> str:
    lines = []
    for node_id in sorted(nodes):
        lines.append(f"  node {node_id}: <{tree.labels[node_id]}> at depth {tree.depths[node_id]}")
    return "\n".join(lines) if lines else "  (none)"


def _make_evaluator(tree: Tree, args: argparse.Namespace):
    return Evaluator(tree, backend=args.backend, budget=_budget_from(args))


def cmd_eval(args: argparse.Namespace) -> int:
    expr = parse_node(args.query)
    tree = _load_tree(args.file)
    nodes = _make_evaluator(tree, args).nodes(expr)
    print(f"{len(nodes)} node(s) satisfy {unparse(expr)}:")
    print(_describe_nodes(tree, nodes))
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    expr = parse_path(args.query)
    tree = _load_tree(args.file)
    nodes = _make_evaluator(tree, args).image(expr, {0})
    print(f"{len(nodes)} node(s) reachable from the root via {unparse(expr)}:")
    print(_describe_nodes(tree, nodes))
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    from .logic import unparse_formula
    from .translations import (
        UnsupportedFormula,
        mtc_to_node_expr,
        mtc_to_path_expr,
        xpath_to_mtc,
    )

    expr = _parse_any(args.query)
    formula = xpath_to_mtc(expr)
    print(f"query:    {unparse(expr)}")
    print(f"FO(MTC):  {unparse_formula(formula)}")
    try:
        if isinstance(expr, xp.NodeExpr):
            back = mtc_to_node_expr(formula, "x")
        else:
            back = mtc_to_path_expr(formula, "x", "y")
        print(f"back:     {unparse(simplify(back))}")
    except UnsupportedFormula as exc:
        print(f"back:     (outside the compositional fragment: {exc})")
    return 0


def cmd_equivalent(args: argparse.Namespace) -> int:
    left = _parse_any(args.left)
    right = _parse_any(args.right)
    if isinstance(left, xp.NodeExpr) != isinstance(right, xp.NodeExpr):
        print("error: cannot compare a node query with a path query", file=sys.stderr)
        return 2
    alphabet = tuple(args.alphabet)
    budget = _budget_from(args)
    if is_downward(left) and is_downward(right):
        if isinstance(left, xp.NodeExpr):
            witness = exact_equivalent(left, right, alphabet, budget)
        else:
            witness = exact_path_equivalent(left, right, alphabet, budget)
        if witness is None:
            print(f"EQUIVALENT (exact, over alphabet {set(alphabet)})")
            return 0
        print("NOT equivalent; distinguishing document:")
        print(to_xml(witness, indent="  "))
        return 1
    corpus = standard_corpus(alphabet=alphabet)
    if isinstance(left, xp.NodeExpr):
        report = check_node_equivalence(left, right, corpus, budget)
    else:
        report = check_path_equivalence(left, right, corpus, budget)
    if report.equivalent_on_corpus:
        print(
            f"equivalent on the corpus ({report.trees_checked} trees, "
            f"exhaustive to size {report.exhaustive_to}) — not a proof"
        )
        return 0
    print(f"NOT equivalent: {report.counterexample}")
    return 1


def cmd_satisfiable(args: argparse.Namespace) -> int:
    expr = parse_node(args.query)
    alphabet = tuple(args.alphabet)
    budget = _budget_from(args)
    if is_downward(expr):
        witness = exact_satisfiable(expr, alphabet, budget)
        if witness is None:
            print(f"UNSATISFIABLE (exact, over alphabet {set(alphabet)})")
            return 1
        print("SATISFIABLE; witness document:")
        print(to_xml(witness, indent="  "))
        return 0
    found = find_satisfying_node(expr, standard_corpus(alphabet=alphabet), budget)
    if found is None:
        print("no satisfying node found on the corpus — not a proof of unsatisfiability")
        return 1
    print(f"SATISFIABLE: {found}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .logic import ModelChecker, parse_formula, unparse_formula
    from .logic.ast import free_variables

    formula = parse_formula(args.formula)
    tree = _load_tree(args.file)
    checker = ModelChecker(tree, backend=args.backend, budget=_budget_from(args))
    free = tuple(sorted(free_variables(formula)))
    if len(free) == 0:
        verdict = checker.holds(formula)
        print(f"{'HOLDS' if verdict else 'FAILS'}: {unparse_formula(formula)}")
        return 0 if verdict else 1
    if len(free) == 1:
        nodes = checker.node_set(formula, free[0])
        print(
            f"{len(nodes)} node(s) satisfy {unparse_formula(formula)} "
            f"(free variable {free[0]}):"
        )
        print(_describe_nodes(tree, nodes))
        return 0
    if len(free) == 2:
        pairs = checker.pairs(formula, free[0], free[1])
        print(
            f"{len(pairs)} pair(s) ({free[0]}, {free[1]}) satisfy "
            f"{unparse_formula(formula)}:"
        )
        for a, b in sorted(pairs):
            print(f"  ({a}, {b})")
        return 0
    print(
        f"error: expected at most 2 free variables, got {free}", file=sys.stderr
    )
    return 2


def cmd_batch(args: argparse.Namespace) -> int:
    from .service import QueryRequest, QueryService, RetryPolicy, TreeRegistry
    from .service.api import error_payload

    registry = TreeRegistry()
    wal = None
    if args.wal is not None:
        from .trees.wal import WriteAheadLog, recover

        # Opening first truncates a torn tail left by a crash mid-append;
        # recovery then folds checkpoints + later records into the registry
        # so a restarted batch resumes exactly where the last one stopped.
        wal = WriteAheadLog.open(args.wal)
        registry = recover(args.wal, registry=registry)
        registry.attach_wal(wal)
    if args.store is not None:
        from .trees.store import TreeStore

        # Attach before --tree registrations so new documents write through
        # to disk immediately and the resident budget applies from the start.
        registry.attach_store(
            TreeStore(args.store), resident_budget=args.resident_budget
        )
    elif args.resident_budget is not None:
        print("error: --resident-budget requires --store DIR", file=sys.stderr)
        return 2
    for spec in args.tree or ():
        name, eq, path = spec.partition("=")
        if not eq or not name or not path:
            print(f"error: --tree expects NAME=FILE.xml, got {spec!r}", file=sys.stderr)
            return 2
        with open(path) as handle:
            registry.register(name, parse_xml(handle.read()))

    if args.requests is None or args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.requests) as handle:
            lines = handle.read().splitlines()

    if args.shards:
        from .service import ShardedQueryService

        service = ShardedQueryService(
            registry,
            shards=args.shards,
            start_method=args.start_method,
            queue_limit=args.queue_limit,
            retry=RetryPolicy(max_attempts=args.retries + 1),
            default_timeout=args.timeout,
            default_max_steps=args.max_steps,
            default_max_nodes=args.max_nodes,
            max_restarts=args.max_restarts,
        )
    else:
        service = QueryService(
            registry,
            workers=args.workers,
            queue_limit=args.queue_limit,
            retry=RetryPolicy(max_attempts=args.retries + 1),
            default_timeout=args.timeout,
            default_max_steps=args.max_steps,
            default_max_nodes=args.max_nodes,
        )
    entries = []  # per input line: ("done", json-dict) | ("pending", handle)
    try:
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            payload = None
            try:
                payload = json.loads(line)
                request = QueryRequest.from_json(payload)
            except ValueError as exc:
                request_id = None
                if isinstance(payload, dict):
                    request_id = payload.get("id")
                entries.append(
                    (
                        "done",
                        {
                            "id": request_id or f"line-{number}",
                            "op": "?",
                            "status": "error",
                            "error": error_payload(exc),
                        },
                    )
                )
                continue
            entries.append(("pending", service.submit(request)))
        exit_code = 0
        for kind, entry in entries:
            payload = entry if kind == "done" else entry.result().to_json()
            print(json.dumps(payload))
            if exit_code == 0:
                code = (
                    payload.get("error", {}).get("exit_code", 2)
                    if payload["status"] != "ok"
                    else 0
                )
                exit_code = code
    finally:
        service.shutdown(drain=True)
        if wal is not None:
            wal.close()
    if args.stats:
        print(json.dumps(service.stats_snapshot()), file=sys.stderr)
    if args.metrics is not None:
        if args.shards:
            # Parent registry + every shard's delta: the merged registry is
            # what reconciles (one result series increment per request).
            _emit_json(service.metrics_snapshot(), args.metrics)
        else:
            _emit_json(obs.REGISTRY.to_json(), args.metrics)
    return exit_code


def cmd_store_pack(args: argparse.Namespace) -> int:
    from .trees.store import TreeStore

    store = TreeStore(args.directory)
    if not args.tree:
        print("error: store pack needs at least one --tree NAME=FILE.xml", file=sys.stderr)
        return 2
    total = 0
    for spec in args.tree:
        name, eq, path = spec.partition("=")
        if not eq or not name or not path:
            print(f"error: --tree expects NAME=FILE.xml, got {spec!r}", file=sys.stderr)
            return 2
        with open(path) as handle:
            tree = parse_xml(handle.read())
        nbytes = store.pack(name, tree, epoch=args.epoch)
        total += nbytes
        print(f"  {name}: {tree.size} node(s), {nbytes} bytes (epoch {args.epoch})")
    print(f"packed {len(args.tree)} tree(s), {total} bytes -> {args.directory}")
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    from .trees.store import TreeStore

    store = TreeStore(args.directory)
    names = [args.name] if args.name else store.names()
    if not names:
        print(f"no stored trees in {args.directory}")
        return 0
    for name in names:
        # A corrupt file raises StoreCorruptError -> exit code 3 via main().
        report = store.verify(name)
        print(
            f"  {report['name']}: OK — {report['n']} node(s), "
            f"epoch {report['epoch']}, {report['bytes']} bytes, "
            f"{report['sections']} section(s)"
        )
    print(f"verified {len(names)} tree(s) in {args.directory}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from .trees.wal import WriteAheadLog, recover

    # Opening a log creates its directory: a mistyped path must fail (exit
    # 3), not read as an empty log and leave a new directory behind.
    if not os.path.isdir(args.directory):
        raise FileNotFoundError(f"no WAL directory at {args.directory}")
    # Open/close first so a torn tail is truncated exactly as a restarted
    # writer would; recover() itself only *tolerates* one at the tail.
    WriteAheadLog.open(args.directory).close()
    registry = recover(args.directory)
    names = registry.names()
    print(f"recovered {len(names)} tree(s) from {args.directory}:")
    for name in names:
        tree, epoch = registry.snapshot(name)
        print(f"  {name}: epoch {epoch}, {tree.size} node(s)")
    return 0


def cmd_simplify(args: argparse.Namespace) -> int:
    expr = _parse_any(args.query)
    simplified = simplify(expr)
    print(unparse(simplified))
    if simplified.size < expr.size:
        print(f"(size {expr.size} -> {simplified.size})", file=sys.stderr)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    expr = _parse_any(args.query)
    sort = "node" if isinstance(expr, xp.NodeExpr) else "path"
    print(f"sort:        {sort} expression")
    print(f"dialect:     {dialect(expr).value}")
    print(f"axes:        {sorted(axis.value for axis in axes_used(expr)) or '(none)'}")
    print(f"size:        {expr.size}")
    print(f"core:        {is_core_xpath(expr)}")
    print(f"conditional: {is_conditional_xpath(expr)}")
    print(f"downward:    {is_downward(expr)}")
    return 0


def _emit_json(payload: dict, dest: str) -> None:
    """Write ``payload`` as JSON to ``dest`` ("-" means stderr)."""
    text = json.dumps(payload, indent=2)
    if dest == "-":
        print(text, file=sys.stderr)
    else:
        with open(dest, "w") as handle:
            handle.write(text + "\n")


def _add_trace_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        nargs="?",
        const="-",
        metavar="FILE",
        help="emit the execution span tree as JSON to FILE "
        "(stderr when no FILE is given)",
    )


def _add_budget_arguments(p: argparse.ArgumentParser, engine: bool = True) -> None:
    p.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock deadline; exceeding it exits with code 4",
    )
    p.add_argument(
        "--max-steps",
        type=int,
        metavar="N",
        help="cooperative step/fuel cap; exceeding it exits with code 5",
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        metavar="N",
        help="result-cardinality cap; exceeding it exits with code 5",
    )
    if engine:
        p.add_argument(
            "--inject-fault",
            action="append",
            choices=faults.SITES,
            metavar="SITE",
            help="arm a named fault-injection site (repeatable; for testing). "
            "Sites: " + ", ".join(faults.SITES),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Navigational XPath, FO(MTC) and tree walking automata "
        "(PODS 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a node query on an XML document")
    p.add_argument("query")
    p.add_argument("file", nargs="?", help="XML file (default: stdin)")
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default="bitset",
        help="evaluation engine (default: the compiled bitset backend)",
    )
    _add_budget_arguments(p)
    _add_trace_argument(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("select", help="select nodes from the root via a path")
    p.add_argument("query")
    p.add_argument("file", nargs="?")
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default="bitset",
        help="evaluation engine (default: the compiled bitset backend)",
    )
    _add_budget_arguments(p)
    _add_trace_argument(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("translate", help="FO(MTC) rendering and round trip")
    p.add_argument("query")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("equivalent", help="compare two queries")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--alphabet", default="ab", help="labels, e.g. 'abc'")
    _add_budget_arguments(p, engine=False)
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("satisfiable", help="satisfiability of a node query")
    p.add_argument("query")
    p.add_argument("--alphabet", default="ab")
    _add_budget_arguments(p, engine=False)
    p.set_defaults(func=cmd_satisfiable)

    p = sub.add_parser("check", help="model-check an FO(MTC) formula")
    p.add_argument("formula")
    p.add_argument("file", nargs="?", help="XML file (default: stdin)")
    p.add_argument(
        "--backend",
        choices=CHECKER_BACKENDS,
        default="bitset",
        help="model-checking engine (default: the columnar bitset backend)",
    )
    _add_budget_arguments(p)
    _add_trace_argument(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "batch", help="serve a JSONL request batch through the query service"
    )
    p.add_argument(
        "requests", nargs="?", help="JSONL request file (default: stdin)"
    )
    p.add_argument(
        "--tree",
        action="append",
        metavar="NAME=FILE",
        help="register an XML document under NAME (repeatable)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="worker threads (default 4); ignored with --shards, where the "
        "service runs 4 worker threads per shard",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="evaluate in N shard processes that load tree indexes from the "
        "--store DIR (or a scratch store under /dev/shm) instead of on the "
        "worker threads (0, the default, keeps the thread pool); the "
        "service then runs 4 worker threads per shard, each with at most "
        "one request in flight",
    )
    p.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for --shards (default: platform)",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        metavar="N",
        help="with --shards, supervise the shard processes: respawn a "
        "crashed shard up to N times per rolling window (with fault re-arm; "
        "a request in flight on it is re-sent) before degrading its requests to "
        "structured unavailability (exit code 10)",
    )
    p.add_argument(
        "--wal",
        metavar="DIR",
        help="durable mutation write-ahead log: replay DIR's checkpoints+log "
        "before --tree registrations, then append every registration and "
        "edit to it before publication (see 'repro recover')",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        help="disk-backed index store: pack registered trees to compact "
        "RSTR files in DIR and read cold trees back on demand "
        "(see 'repro store pack/verify')",
    )
    p.add_argument(
        "--resident-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="with --store, bound resident index bytes: least-recently-used "
        "unpinned trees are evicted to disk when the budget is exceeded",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="bounded request-queue capacity (default 64), for reads and "
        "for writes each: mutations queue separately",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="max retries per request for transient engine faults (default 2)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print aggregate service counters to stderr as JSON "
        "(with a result_cache section)",
    )
    p.add_argument(
        "--metrics",
        nargs="?",
        const="-",
        metavar="FILE",
        help="after the batch drains, dump the process metrics registry "
        "as JSON to FILE (stderr when no FILE is given)",
    )
    _add_budget_arguments(p)
    _add_trace_argument(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "recover", help="replay and summarize a mutation write-ahead log"
    )
    p.add_argument("directory", help="WAL directory (as passed to batch --wal)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "store", help="manage a disk-backed index store directory"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    sp = store_sub.add_parser(
        "pack", help="pack XML documents into RSTR store files"
    )
    sp.add_argument("directory", help="store directory (as passed to batch --store)")
    sp.add_argument(
        "--tree",
        action="append",
        metavar="NAME=FILE",
        help="pack an XML document under NAME (repeatable)",
    )
    sp.add_argument(
        "--epoch",
        type=int,
        default=0,
        metavar="N",
        help="epoch stamp recorded in each packed header (default 0)",
    )
    sp.set_defaults(func=cmd_store_pack)
    sp = store_sub.add_parser(
        "verify", help="checksum-verify stored trees and rebuild their indexes"
    )
    sp.add_argument("directory", help="store directory")
    sp.add_argument("name", nargs="?", help="verify one tree (default: all)")
    sp.set_defaults(func=cmd_store_verify)

    p = sub.add_parser("simplify", help="apply the sound rewrite system")
    p.add_argument("query")
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("classify", help="dialect and fragment membership")
    p.add_argument("query")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    armed = list(getattr(args, "inject_fault", None) or ())
    for site in armed:
        faults.arm(site)
    trace_dest = getattr(args, "trace", None)
    tracer = obs.Tracer() if trace_dest is not None else None
    try:
        if tracer is not None:
            with obs.tracing(tracer):
                return args.func(args)
        return args.func(args)
    except (ReproError, NotDownward, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        if tracer is not None:
            _emit_json(tracer.to_json(), trace_dest)
        for site in armed:
            faults.disarm(site)
