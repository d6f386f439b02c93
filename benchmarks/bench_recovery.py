"""Experiment R1 — the durability tax and the recovery clock.

Two questions decide whether the WAL + supervisor machinery is usable in
the serving path:

* **WAL append overhead** — ``TreeRegistry.mutate`` with a WAL attached
  vs the bare registry, on the M1-style mid-tree insert/delete workload
  (n=2048).  One arm per fsync policy (``never``, batched ``64``,
  ``always``); all arms share a group with the bare baseline, so the
  compact schema's per-group p50 ratios read off the overhead directly.
  The acceptance gate is <= 10% for the batched policy.

* **MTTR** — SIGKILL one shard of a supervised pool and measure
  kill-to-first-ok-answer on a tree routed to that shard: liveness
  detection + budgeted respawn + fault re-arm + the replacement's first
  store load + the feeder's wait-out-the-restart path, end to end.

* **recovery replay** — :func:`repro.trees.wal.recover` folding a
  300-edit log (checkpoint cadence 64: the tree's checkpoint plus the
  records after it) back into a verified registry.

* **recovery over history length** — ``recover`` and ``WriteAheadLog.open``
  on logs of 2,000, 8,000 and 32,000 committed records with the live state
  fixed (8 trees of n=512, checkpoint cadence 256, the write-mix rotation
  of relabel / 3-node front insert / delete of node 1).  Those three end
  208, 64 and 0 records past a multiple of the cadence, and recovery's
  replay work follows that place, not the history; 8,144 and 32,720
  (2,000 plus 6 and 30 whole 1,024-record segments) end where 2,000 does
  on both the checkpoint and the roll grid, as matched-replay controls.
  Closed segments behind the checkpoints are deleted, so both times should
  stay flat as the history grows; the 1.5x bound between 2,000 and 32,000
  is judged from interleaved pairs, not from these separately timed
  blocks.

Record results with::

    pytest benchmarks/bench_recovery.py --benchmark-json=BENCH_recovery.json

The committed BENCH_recovery.json uses the repro-bench-compact/1 schema
(see conftest.py / compact_json.py).
"""

import random
import time
import zlib
from pathlib import Path

import pytest

from repro.service import ShardedQueryService, QueryRequest, TreeRegistry
from repro.trees import parse_xml, random_tree
from repro.trees.mutate import DeleteSubtree, InsertSubtree, Relabel
from repro.trees.wal import WriteAheadLog, recover

SIZE = 2048
_SUB = parse_xml("<b><a/><c/></b>")

#: Insert+delete at mid-tree: the tree returns to its starting size every
#: pair, so arms measure a steady-state edit mix, not a growing document.
def _edit_pair(registry):
    registry.mutate("doc", InsertSubtree(parent=SIZE // 2, index=0, subtree=_SUB))
    registry.mutate("doc", DeleteSubtree(node=SIZE // 2 + 1))


@pytest.fixture()
def registry_2048():
    registry = TreeRegistry()
    registry.register("doc", random_tree(SIZE, rng=random.Random(2008)))
    return registry


def test_mutate_no_wal_baseline(benchmark, registry_2048):
    """R1 baseline arm: the bare registry (PR 8 behaviour)."""
    benchmark.group = f"R1 wal append overhead n={SIZE}"
    benchmark(lambda: _edit_pair(registry_2048))
    assert registry_2048.get("doc").size == SIZE


@pytest.mark.parametrize("policy", ["never", 64, "always"])
def test_mutate_with_wal(benchmark, registry_2048, tmp_path, policy):
    """R1 durable arms: the same edits, logged ahead under each policy."""
    benchmark.group = f"R1 wal append overhead n={SIZE}"
    wal = WriteAheadLog.open(tmp_path / "wal", fsync=policy, snapshot_every=None)
    registry_2048.attach_wal(wal)
    try:
        benchmark(lambda: _edit_pair(registry_2048))
    finally:
        wal.close()
    benchmark.extra_info["fsync_policy"] = str(policy)
    assert registry_2048.get("doc").size == SIZE


def test_recovery_replay(benchmark, tmp_path):
    """R1 recovery arm: checkpoint + later records of a 300-edit history."""
    benchmark.group = "R1 recovery replay"
    registry = TreeRegistry()
    wal = WriteAheadLog.open(tmp_path / "wal", fsync="never", snapshot_every=64)
    registry.attach_wal(wal)
    registry.register("doc", random_tree(SIZE, rng=random.Random(2008)))
    for i in range(300):
        registry.mutate("doc", Relabel(node=(i * 37) % SIZE, label="zw"[i % 2]))
    wal.close()
    recovered = benchmark(lambda: recover(tmp_path / "wal"))
    assert recovered.epoch("doc") == registry.epoch("doc")
    assert recovered.get("doc") == registry.get("doc")
    benchmark.extra_info["edits"] = 300
    benchmark.extra_info["checkpoint_every"] = 64


#: The live state of the history-length series: trees, nodes, cadence.
HISTORY_TREES, HISTORY_SIZE, HISTORY_CADENCE = 8, 512, 256
#: The lengths the 1.5x bound names, then 2,000 plus 6 and 30 whole
#: segments (4 cadences each): the same replay work as 2,000.
HISTORY_LENGTHS = [2000, 8000, 32000] + [2000 + k * 4 * HISTORY_CADENCE for k in (6, 30)]
_FRONT = parse_xml("<b><a/><c/></b>")


def build_history(directory, records: int) -> TreeRegistry:
    """A WAL directory of ``records`` committed records (registers first)
    over the fixed live state; returns the registry that wrote it.

    Each tree cycles relabel, front insert, delete of node 1, so it is back
    at n=512 every third edit of its own, as write-mix's documents are.
    """
    rng = random.Random(2027)
    registry = TreeRegistry()
    wal = WriteAheadLog.open(directory, fsync="never", snapshot_every=HISTORY_CADENCE)
    registry.attach_wal(wal)
    names = [f"h{i}" for i in range(HISTORY_TREES)]
    for name in names:
        registry.register(name, random_tree(HISTORY_SIZE, ("a", "b", "c"), rng))
    made = dict.fromkeys(names, 0)
    for _ in range(records - HISTORY_TREES):
        name = rng.choice(names)
        kind = made[name] % 3
        made[name] += 1
        if kind == 0:
            edit = Relabel(rng.randrange(1, HISTORY_SIZE), rng.choice("abc"))
        elif kind == 1:
            edit = InsertSubtree(parent=0, index=0, subtree=_FRONT)
        else:
            edit = DeleteSubtree(node=1)
        registry.mutate(name, edit)
    wal.close()
    return registry


@pytest.fixture(scope="module")
def histories(tmp_path_factory):
    """One WAL directory per history length, built on first use."""
    built: dict[int, Path] = {}

    def get(records: int) -> Path:
        if records not in built:
            directory = tmp_path_factory.mktemp(f"history-{records}") / "wal"
            build_history(directory, records)
            built[records] = directory
        return built[records]

    return get


def _retained_records(directory: Path) -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in directory.glob("wal*.jsonl")
    )


@pytest.mark.parametrize("records", HISTORY_LENGTHS)
def test_recover_over_history(benchmark, histories, records):
    """R1 recovery over history length: recover() at a fixed live state."""
    benchmark.group = "R1 recovery over history length"
    directory = histories(records)
    recovered = benchmark.pedantic(
        recover, args=(directory,), rounds=15, warmup_rounds=1
    )
    assert len(recovered.names()) == HISTORY_TREES
    assert {recovered.get(name).size for name in recovered.names()} <= set(
        range(HISTORY_SIZE, HISTORY_SIZE + 4)
    )
    benchmark.extra_info["retained_records"] = _retained_records(directory)


@pytest.mark.parametrize("records", HISTORY_LENGTHS)
def test_open_over_history(benchmark, histories, records):
    """R1 writer reopen over history length: WriteAheadLog.open()."""
    benchmark.group = "R1 wal open over history length"
    directory = histories(records)
    opened = []
    benchmark.pedantic(
        lambda: opened.append(WriteAheadLog.open(directory, snapshot_every=HISTORY_CADENCE)),
        teardown=lambda: opened.pop().close(),
        rounds=15,
        warmup_rounds=1,
    )
    wal = WriteAheadLog.open(directory, snapshot_every=HISTORY_CADENCE)
    assert wal.last_seq == records
    wal.close()
    benchmark.extra_info["retained_records"] = _retained_records(directory)


def test_shard_kill_mttr(benchmark, registry_2048):
    """R1 MTTR: SIGKILL -> respawn -> resync -> first ok answer again."""
    benchmark.group = "R1 shard kill MTTR"
    shards = 2
    victim = zlib.crc32(b"doc") % shards
    request = QueryRequest(op="eval", query="<child[b]>", tree="doc")
    service = ShardedQueryService(
        registry_2048,
        shards=shards,
        workers_per_shard=1,
        max_restarts=50,
        restart_window=3600.0,
        restart_backoff=0.01,
        # Every read must reach the killed shard: the one repeated text
        # would otherwise be answered from the cache at admission.
        _result_cache=False,
    )

    last_killed = [None]

    def wait_alive():
        # A fresh Process object (not the last round's corpse, which can
        # report alive until reaped) + one warm ok round trip, so every
        # kill lands on a serving shard mid-steady-state.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            process = service.processes[victim]
            try:
                if process is not last_killed[0] and process.is_alive():
                    if service.run_batch([request])[0].status == "ok":
                        return
            except ValueError:
                pass
            time.sleep(0.01)
        raise AssertionError("victim shard never came back")

    def kill_to_first_ok():
        process = service.processes[victim]
        last_killed[0] = process
        process.kill()
        result = service.submit(request).result(timeout=60.0)
        assert result.status == "ok"

    def setup():
        wait_alive()
        return (), {}

    try:
        benchmark.pedantic(
            kill_to_first_ok, setup=setup, rounds=5, iterations=1, warmup_rounds=0
        )
        benchmark.extra_info["restarts"] = sum(service.restart_counts)
    finally:
        service.shutdown()
