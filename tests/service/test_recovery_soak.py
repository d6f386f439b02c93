"""End-to-end crash/recovery chaos soak: the ISSUE 9 acceptance gauntlet.

A mixed read/write sharded workload runs with a durable WAL attached and a
supervised shard pool while the soak:

* **SIGKILLs the serving shard mid-burst** (at 1/3 and 2/3 of the run) —
  in-flight and queued requests must re-dispatch through the respawned
  replacement, never resolve as crashed, and ``shard_restarts_total``
  must reconcile *exactly* with the injected kills;
* **bursts the ``wal.append`` fault site mid-edit-script** — the mutator
  retries; a fired append aborts with registry and log untouched, so the
  durable history stays torn-free and gapless;
* **tears the log tail after shutdown** (simulating a crash mid-append) —
  :func:`repro.trees.wal.recover` must fold each tree's checkpoint + its
  intact later records into a registry *bit-identical* to the live one:
  same epochs, same trees, same ``index_fingerprint`` as a from-scratch
  rebuild.

Zero lost, zero duplicated, zero torn — and availability restored without
operator action.
"""

from __future__ import annotations

import os
import time
import zlib

import pytest

from repro import obs
from repro.runtime import faults
from repro.service import (
    QueryRequest,
    RetryPolicy,
    ShardedQueryService,
    TreeRegistry,
)
from repro.trees import Tree, parse_xml, tree_index
from repro.trees.mutate import apply_edit, edit_from_json, index_fingerprint
from repro.trees.wal import WriteAheadLog, recover

START_METHOD = os.environ.get("REPRO_START_METHOD", "fork")

DOC = "<a><b/><c/></a>"

#: Always-valid edit cycle (net growth; node 1 always deletable), as in
#: the mutation soak.
_EDITS = [
    {"kind": "insert", "parent": 0, "index": 0, "xml": "<x/>"},
    {"kind": "insert", "parent": 0, "index": 1, "xml": "<b><x/></b>"},
    {"kind": "delete", "node": 1},
    {"kind": "relabel", "node": 0, "label": "r"},
    {"kind": "insert", "parent": 1, "index": 0, "xml": "<b/>"},
    {"kind": "relabel", "node": 0, "label": "a"},
]

_QUERIES = ["b", "x", "<descendant[b]>", "<child[x]>"]


def _wait_alive(service, shard, prev=None, timeout=30.0):
    """Wait for a live shard process that is NOT ``prev``.

    ``is_alive`` alone is not enough between two kills: a just-SIGKILLed
    process can still report alive until the kernel reaps it, and a second
    kill landing on that corpse would not produce a second restart.  The
    respawn swaps in a fresh ``Process`` object, so identity is the
    reliable signal that the supervisor has actually replaced the victim.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        process = service.processes[shard]
        try:
            if process is not prev and process.is_alive():
                return process
        except ValueError:
            pass
        time.sleep(0.02)
    raise AssertionError(f"shard {shard} never came (back) up")


@pytest.mark.soak
def test_recovery_soak_kill_and_wal(tmp_path):
    wal = WriteAheadLog.open(tmp_path / "wal", snapshot_every=8)
    registry = TreeRegistry()
    registry.attach_wal(wal)
    registry.register("live", parse_xml(DOC))

    shards = 2
    live_shard = zlib.crc32(b"live") % shards
    service = ShardedQueryService(
        registry,
        shards=shards,
        start_method=START_METHOD,
        workers_per_shard=1,
        queue_limit=48,
        retry=RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.004),
        max_restarts=4,
    )
    total = 180
    kill_points = {total // 3, 2 * total // 3}
    kills = 0
    restarts_before = obs.REGISTRY.total("shard_restarts_total")
    edits: dict[str, dict] = {}
    handles = {}
    last_victim = None
    try:
        for i in range(total):
            if i in kill_points:
                # Only a *fresh, live* victim counts: a second SIGKILL
                # landing on the previous (possibly not-yet-reaped) corpse
                # would not produce a second restart, and the
                # reconciliation below demands exactly one per kill.
                last_victim = _wait_alive(service, live_shard, prev=last_victim)
                last_victim.kill()
                kills += 1
                # Mid-edit-script WAL chaos: the next two appends fail and
                # must be retried by the mutator without torn/gapped
                # history (max_attempts=3 outlasts the burst).
                faults.arm("wal.append", times=2)
            rid = f"soak-{i}"
            if i % 4 == 3:
                edit = _EDITS[(i // 4) % len(_EDITS)]
                edits[rid] = edit
                request = QueryRequest(op="mutate", id=rid, tree="live", edit=edit)
            else:
                query = _QUERIES[i % len(_QUERIES)]
                request = QueryRequest(op="eval", id=rid, query=query, tree="live")
            handles[rid] = service.submit(request)
        results = {rid: h.result(timeout=120.0) for rid, h in handles.items()}

        # -- zero lost / duplicated / crashed --------------------------------
        assert set(results) == {f"soak-{i}" for i in range(total)}
        for rid, result in results.items():
            assert result.status in ("ok", "error", "shed"), rid
            assert result.error is None or result.error["type"] not in (
                "ShardCrashedError",
                "ShardUnavailableError",
            ), (rid, result.error)

        # -- availability restored without operator action -------------------
        # Reads answered at admission can resolve every result before the
        # supervisor's respawn of the second victim lands: wait for it.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and (
            service.restart_counts[live_shard] < kills
            or obs.REGISTRY.total("shard_restarts_total") - restarts_before < kills
        ):
            time.sleep(0.02)
        assert service.restart_counts[live_shard] == kills == 2
        assert (
            obs.REGISTRY.total("shard_restarts_total") - restarts_before == kills
        )
        faults.disarm()
        post = service.run_batch(
            [QueryRequest(op="eval", query=q, tree="live") for q in _QUERIES]
        )
        assert [r.status for r in post] == ["ok"] * len(_QUERIES)

        # -- the write history reconciles ------------------------------------
        ok_writes = sorted(
            (results[rid].value["epoch"], rid)
            for rid in edits
            if results[rid].status == "ok"
        )
        assert len(ok_writes) >= 1
        assert [epoch for epoch, _ in ok_writes] == list(
            range(2, 2 + len(ok_writes))
        ), "published epochs must be exactly contiguous (none lost/doubled)"
        oracle = parse_xml(DOC)
        for _epoch, rid in ok_writes:
            oracle = apply_edit(oracle, edit_from_json(edits[rid]))
        assert registry.epoch("live") == 1 + len(ok_writes)
        assert registry.get("live") == oracle
    finally:
        faults.disarm()
        service.shutdown()
        wal.close()

    # -- crash-and-recover: torn tail + bit-identical replay -----------------
    log_path = tmp_path / "wal" / "wal.jsonl"
    intact = log_path.read_bytes()
    log_path.write_bytes(intact + b"00000042 deadbeef {\"torn\": tr")  # crash mid-append
    recovered = recover(tmp_path / "wal")
    assert recovered.names() == registry.names()
    for name in registry.names():
        live_tree, live_epoch = registry.snapshot(name)
        got_tree, got_epoch = recovered.snapshot(name)
        assert got_epoch == live_epoch, name
        assert got_tree == live_tree, name
        assert index_fingerprint(tree_index(got_tree)) == index_fingerprint(
            tree_index(Tree(list(live_tree.labels), list(live_tree.parent)))
        ), name
    # The writer heals the tear on reopen; recovery is then idempotent.
    reopened = WriteAheadLog.open(tmp_path / "wal")
    assert reopened.truncated_bytes > 0
    reopened.close()
    assert log_path.read_bytes() == intact
    again = recover(tmp_path / "wal")
    assert again.snapshot("live") == recovered.snapshot("live")
