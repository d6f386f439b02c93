"""One end-to-end serving benchmark with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

Workloads: ``hot-read``, ``scan-read``, ``write-mix``, ``cold-sharded``
(see ``perfbench/workloads.py`` and ``perfbench/LEDGER.md``).  Each drives
the public service API (``QueryService`` / ``ShardedQueryService`` over a
``TreeRegistry``) from one driver thread as a closed loop with two requests
outstanding, in the services' default configuration.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced window and prints the per-layer ledger.  Every answer is
checked outside the timed window; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files live
under ``.perfbench_tmp/`` in the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every timing is scaled to the reference host speed (see host.py) by
#: samples taken right before and after it, so each timed piece is short:
#: ``setup_s`` and ``recover_s`` are medians over MIN_REPEATS (recovery:
#: MIN_RECOVERIES, a noisier, allocation-bound piece) to MAX_REPEATS repeats
#: spanning at least SPAN seconds; the timed window is a run of
#: SLICE_SECONDS slices; the write probe runs in PROBE_CHUNKS chunks.
SPAN = 3.0
MIN_REPEATS = 3
MIN_RECOVERIES = 5
MAX_REPEATS = 40
SLICE_SECONDS = 1.0
PROBE_CHUNKS = 4
#: Untimed closed-loop seconds before each measured window.
WARMUP_SECONDS = 1.0
#: Requests hashed to fingerprint the stream.
HASHED_PREFIX = 1000
#: Interpreter recursion limit for deep documents (see main).
RECURSION_LIMIT = 12000

END_TO_END = (
    ("throughput_rps", "req/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("recover_s", "s"),
)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha() -> str:
    """sha256 over ``src/`` (path + bytes): identifies code in a non-git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    from workloads import WAL_FSYNC

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_sha(),
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_context().get_start_method(),
        "wal_fsync": WAL_FSYNC,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def stream_hash(workload: str, seed: int, names) -> str:
    import workloads

    requests = workloads.stream(workload, seed, names)
    digest = hashlib.sha256()
    for _ in range(HASHED_PREFIX):
        fields = next(requests, None)
        if fields is None:
            break
        public = {k: v for k, v in fields.items() if not k.startswith("_")}
        digest.update(json.dumps(public, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(deployment) -> float:
    """Peak RSS of this process plus every live shard process."""
    total = _vm_hwm_kb("self")
    if deployment.sharded:
        total += sum(_vm_hwm_kb(p.pid) for p in deployment.service.processes)
    return total / 1024.0


class Run:
    """One benchmark run of one workload (set-up, windows, checks)."""

    def __init__(self, args, workdir: Path, host):
        from driver import Tally

        self.args = args
        self.workdir = workdir
        self.host = host
        self.tally = Tally(keep=bool(args.trace))
        self.problems: list[str] = []
        self.wrong = 0
        self.docs: dict = {}
        self.deployment = None

    def setup(self, repeats: int) -> float:
        """Set up at least ``repeats`` times (keeping the last); the median
        scaled seconds."""
        import workloads
        from repro.trees import Tree

        def once() -> float:
            if self.deployment is not None:
                self.deployment.shutdown()
                shutil.rmtree(self.deployment.workdir, ignore_errors=True)
                self.deployment = None
            gc.collect()
            started = time.perf_counter()
            docs = workloads.build_docs(self.args.workload, self.args.seed)
            built = time.perf_counter() - started
            # The checks keep index-free copies, so the benchmark holds no
            # index the registry has evicted (peak RSS is the program's own).
            self.docs = {n: Tree(list(t.labels), list(t.parent)) for n, t in docs.items()}
            started = time.perf_counter()
            self.deployment = workloads.Deployment(
                self.args.workload, docs, self.workdir / f"setup{time.perf_counter_ns()}"
            )
            return built + time.perf_counter() - started

        seconds = statistics.median(self.scaled_repeats(once, repeats))
        self.stream = workloads.stream(self.args.workload, self.args.seed, list(self.docs))
        return seconds

    def window(self, seconds: float):
        from driver import drive

        return drive(self.deployment.service, self.stream, self.tally, seconds=seconds)

    def timed_window(self, seconds: float) -> list:
        """``(slice, host speed)`` over ``seconds`` of SLICE_SECONDS slices."""
        count = max(1, round(seconds / SLICE_SECONDS))
        return self._bracketed(lambda _: self.window(SLICE_SECONDS), range(count))

    def _bracketed(self, measure, items) -> list:
        """``(measure(item), speed)`` per item, the speed being the mean of
        the host samples taken right before and after it.  The series starts
        from a collected heap, so no run inherits another's pending
        garbage-collector work."""
        gc.collect()
        speeds = [self.host.sample()]
        parts = []
        for item in items:
            parts.append(measure(item))
            speeds.append(self.host.sample())
        return [(part, (a + b) / 2) for part, a, b in zip(parts, speeds, speeds[1:])]

    def scaled_repeats(self, measure, repeats: int) -> list[float]:
        """Scaled seconds of ``measure()`` over at least ``repeats`` calls;
        with more than one, calls go on until SPAN seconds have passed (or
        MAX_REPEATS)."""
        started = time.perf_counter()

        def calls():
            count = 0
            while count < repeats or (
                repeats > 1 and count < MAX_REPEATS and time.perf_counter() - started < SPAN
            ):
                yield count
                count += 1

        return [seconds * speed for seconds, speed in self._bracketed(lambda _: measure(), calls())]

    def write_probe(self) -> list:
        """Mutations after the windows, ending at a fixed WAL position;
        ``(chunk, host speed)`` per chunk.

        write-mix keeps drawing its own stream (skipping reads) so edits stay
        valid; the read-only workloads attach a fresh WAL and mutate two
        documents.  Either way the probe ends with the WAL's last record half
        a snapshot cadence past a snapshot (or past the start), so
        ``recover_s`` replays the same number of records every run.
        """
        import workloads
        from driver import drive

        deployment = self.deployment
        if self.args.workload == "write-mix":
            mutations = (f for f in self.stream if f["op"] == "mutate")
        else:
            probe_docs = workloads.PROBE_DOCS[self.args.workload]
            deployment.attach_probe_wal(probe_docs)
            mutations = workloads.probe_stream(
                self.args.workload, self.args.seed, self.docs, probe_docs
            )
        cadence = workloads.WAL_SNAPSHOT_EVERY
        count = (cadence // 2 - deployment.wal.last_seq) % cadence
        # Whole cadences keep the WAL position.
        count += cadence * workloads.PROBE_EXTRA_CADENCES.get(self.args.workload, 0)
        chunks = [count * (i + 1) // PROBE_CHUNKS - count * i // PROBE_CHUNKS for i in range(PROBE_CHUNKS)]
        return self._bracketed(
            lambda size: drive(deployment.service, mutations, self.tally, count=size), chunks
        )

    def check(self) -> None:
        """Every correctness check; problems and wrong answers recorded."""
        import checks

        mode = {
            "hot-read": "oracle",
            "scan-read": "template",
            "cold-sharded": "bitset",
        }.get(self.args.workload)
        if mode is not None:
            wrong, problems = checks.check_reads(self.tally, self.docs, mode)
            self.wrong += wrong
            self.problems.extend(problems)
        registry = self.deployment.registry
        self.problems.extend(checks.check_writes(self.docs, self.tally, registry))
        self.problems.extend(checks.check_recovery(self.deployment.wal_dir, registry))
        if self.args.workload == "scan-read":
            self.problems.extend(scan_repeats(self.tally))
        if self.args.workload == "write-mix":
            self.problems.extend(size_drift(registry, self.docs))

    def recover_seconds(self) -> float:
        from repro.trees.wal import recover

        def once() -> float:
            gc.collect()
            started = time.perf_counter()
            recover(self.deployment.wal_dir)
            return time.perf_counter() - started

        # A restarting process does not carry this run's records: keep them
        # out of the collector's sweeps while recovery is timed.  The first
        # recovery pays one-time allocator growth and is not timed.
        gc.collect()
        gc.freeze()
        try:
            once()
            return statistics.median(self.scaled_repeats(once, MIN_RECOVERIES))
        finally:
            gc.unfreeze()

    def failures(self) -> int:
        return self.tally.failed + self.wrong + len(self.problems)


def scan_repeats(tally) -> list[str]:
    """scan-read self-check: no (op, canonical key, doc) triple repeats."""
    from checks import parse_any
    from ledger import cache_key
    from repro.xpath.optimizer import canonical_key

    seen = set()
    repeats = 0
    for fields, counts in tally.reads.values():
        query = fields.get("query")
        key = cache_key(fields, canonical_key(parse_any(query)) if query else None)
        repeats += sum(counts.values()) - (key not in seen)
        seen.add(key)
    return [f"scan-read repeated {repeats} (op, key, doc) triples"] if repeats else []


def size_drift(registry, docs) -> list[str]:
    """write-mix self-check: every document stays within 10% of its size."""
    problems = []
    for name, tree in docs.items():
        live = registry.get(name)
        if abs(live.size - tree.size) > tree.size // 10:
            problems.append(f"{name}: size {live.size} drifted from {tree.size}")
    return problems


def _latencies_ms(parts, writes: bool, prefix: str) -> dict:
    """p50 and p90 in ms of the scaled latencies pooled over ``parts``."""
    from driver import percentile

    scaled = [lat * speed for part, speed in parts for lat in part.latencies(writes)]
    return {f"{prefix}_p{pct}_ms": percentile(scaled, pct) * 1e3 for pct in (50, 90)}


def run_end_to_end(run: Run) -> dict:
    from driver import percentile

    setup_s = run.setup(MIN_REPEATS)
    run.window(WARMUP_SECONDS)
    slices = run.timed_window(run.args.seconds)
    peak = peak_rss_mb(run.deployment)
    probe = run.write_probe()
    run.deployment.shutdown()
    run.check()
    writes = slices if run.args.workload == "write-mix" else probe
    throughputs = [part.ok() / part.seconds / speed for part, speed in slices]
    metrics = {
        "throughput_rps": statistics.median(throughputs),
        **_latencies_ms(slices, False, "read"),
        **_latencies_ms(writes, True, "write"),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "recover_s": run.recover_seconds(),
    }
    # The raw figures behind the scaled ones, for the record.
    samples = {
        "reads": sum(len(part.latencies(False)) for part, _ in slices),
        "writes": sum(len(part.latencies(True)) for part, _ in writes),
        "host_speed": [round(speed, 3) for _, speed in slices],
        "raw_slice_rps": [round(part.ok() / part.seconds, 1) for part, _ in slices],
        "write_host_speed": [round(speed, 3) for _, speed in writes],
        "raw_write_p50_ms": [
            round(percentile(part.latencies(True), 50) * 1e3, 3) for part, _ in writes
        ],
    }
    print(json.dumps({"samples": samples}))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def _metrics_state(deployment) -> dict:
    from repro import obs

    if deployment.sharded:
        return deployment.service.merged_registry().snapshot()
    return obs.REGISTRY.snapshot()


def run_traced(run: Run) -> dict:
    import ledger
    from repro import obs

    run.setup(1)
    run.window(WARMUP_SECONDS)
    untraced = run.window(run.args.seconds)
    deployment = run.deployment
    before = _metrics_state(deployment)
    results = run.tally.results
    first = len(results)
    with obs.tracing() as tracer:
        traced = run.window(run.args.seconds)
    traced_results = results[first:]
    after = obs.diff_state(before, _metrics_state(deployment))
    with obs.tracing() as probe_tracer:
        run.write_probe()
    wal_state = obs.diff_state(before, _metrics_state(deployment))
    stats = deployment.service.stats_snapshot()
    restarts = sum(deployment.service.restart_counts) if deployment.sharded else 0
    deployment.shutdown()
    run.check()

    spans = ledger.SpanLedger(tracer.roots())
    engine = ledger.engine_replay(traced_results, run.docs) if deployment.sharded else spans
    mutate_spans = spans.mutate + ledger.SpanLedger(probe_tracer.roots()).mutate
    e2e = sum(traced.latency)
    client_p50 = ledger.percentile(traced.latencies(False), 50)
    if deployment.sharded:
        latency = "service_latency_seconds"
        covered = ledger.histogram_totals(after, latency, shard_side=True)[1]
        service_p50 = ledger.histogram_quantile(after, latency, 0.5, shard_side=True)
    else:
        covered = spans.covered_seconds()
        service_p50 = ledger.percentile(
            [r.latency for f, r, _ in traced_results if f["op"] in ledger.READ_OPS], 50
        )
    cold_loads = ledger.counter_total(after, "store_loads_total", event="ok")
    lookups = sum(1 for f, _, _ in traced_results if f.get("tree"))
    if deployment.sharded and cold_loads:
        load_p50_ms = ledger.histogram_quantile(after, "store_load_seconds", 0.5) * 1e3
    else:
        load_p50_ms = ledger.replay_store_loads(run.docs, run.workdir)
    wal_appends = ledger.counter_total(wal_state, "wal_appends_total")
    metrics = {
        "service.queue.wait_p50_ms": ledger.percentile(spans.queue_wait, 50) * 1e3,
        "service.queue.shed": stats["shed"],
        "service.workers.dispatch_p50_us": ledger.percentile(spans.dispatch_self, 50) * 1e6,
        "service.workers.retries": stats["retries"],
        "service.workers.fallbacks": stats["fallbacks"],
        **ledger.replay_front(results),
        "xpath.engine.eval_p50_ms": ledger.percentile(engine.engine["xpath"], 50) * 1e3,
        "xpath.engine.star_sweeps_per_req": engine.sweeps["xpath"]
        / max(1, engine.requests["xpath"]),
        "logic.engine.check_p50_ms": ledger.percentile(engine.engine["logic"], 50) * 1e3,
        "logic.engine.tc_sweeps_per_req": engine.sweeps["logic"]
        / max(1, engine.requests["logic"]),
        "decision.exact.equiv_p50_ms": ledger.replay_exact(results),
        "service.api.mutate_p50_ms": ledger.percentile(mutate_spans, 50) * 1e3,
        "trees.index.build_ms": ledger.replay_index_build(run.docs),
        **ledger.replay_writes(run.tally, run.docs, run.workdir),
        "trees.wal.bytes_per_edit": ledger.counter_total(wal_state, "wal_bytes")
        / max(1, wal_appends),
        "trees.wal.fsyncs": ledger.histogram_totals(wal_state, "wal_fsync_seconds")[0],
        "trees.store.cold_loads": cold_loads,
        "trees.store.evictions": ledger.counter_total(after, "store_evictions_total"),
        "trees.store.load_p50_ms": load_p50_ms,
        "trees.store.hit_ratio": 1.0 - cold_loads / max(1, lookups),
        "service.shards.overhead_p50_ms": (client_p50 - service_p50) * 1e3,
        "service.shards.restarts": restarts,
        "ledger.unattributed_share": max(0.0, 1.0 - covered / e2e) if e2e else 0.0,
        "trace.overhead_ratio": (traced.ok() / traced.seconds)
        / max(1e-9, untraced.ok() / untraced.seconds),
    }
    if deployment.sharded:
        rows = [
            ("service.shards (shard-side latency)", covered, 0),
            ("unattributed (parent queues, IPC)", max(0.0, e2e - covered), 0),
        ]
    else:
        rows = spans.summary(e2e)
    print("ledger (traced window, self time per layer):")
    for layer, seconds, count in rows:
        share = seconds / e2e if e2e else 0.0
        print(f"  {layer:44s} {seconds * 1e3:10.1f} ms  {share:6.1%}  n={count}")
    return {
        name: {"value": float(metrics[name]), "unit": unit}
        for name, unit, _ in ledger.LAYER_METRICS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The WAL's JSON codec recurses once per tree level; scan-read's chain
    # and comb documents are 2048-4096 levels deep.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    from host import HostMeter

    host = HostMeter()
    run = Run(args, workdir, host)
    try:
        print(json.dumps({"provenance": provenance(args)}))
        metrics = run_traced(run) if args.trace else run_end_to_end(run)
        print(json.dumps({"stream_sha256": stream_hash(args.workload, args.seed, list(run.docs))}))
    finally:
        if run.deployment is not None:
            run.deployment.shutdown()
        host.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    attempted = run.tally.attempted
    failed = run.failures()
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"failed_ratio {failed / max(1, attempted):.6f} 1 ({failed} of {attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
