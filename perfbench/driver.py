"""The closed-loop client: one driver thread, a fixed number outstanding."""

from __future__ import annotations

import json
import queue
import statistics
import time
from array import array

from repro.service import QueryRequest

#: Requests kept in flight: ``repro batch`` callers wait for results, and
#: the reference machine has two cores.
OUTSTANDING = 2


def to_request(fields: dict, seq: int) -> QueryRequest:
    """A ``QueryRequest`` from stream fields (``_``-keys are benchmark-only)."""
    payload = {key: value for key, value in fields.items() if not key.startswith("_")}
    return QueryRequest(id=f"r{seq}", **payload)


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (1..99), interpolated; 0.0 when empty."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def answer_key(fields: dict) -> tuple:
    """The identity of a read's answer: same key, same answer (no writes)."""
    return (
        fields["op"],
        fields.get("tree"),
        fields.get("query"),
        fields.get("formula"),
        fields.get("left"),
        fields.get("right"),
        fields.get("alphabet", "ab"),
    )


def fingerprint(op: str, value) -> int:
    """A compact stand-in for a read's answer; equal answers, equal prints.

    An equivalence answer is reduced to its verdict (witnesses may differ
    between engines).  Lists of node ids, the common case, hash as tuples;
    anything else hashes as canonical JSON.
    """
    if op == "equivalent" and isinstance(value, dict):
        value = value.get("equivalent")
    try:
        return hash((type(value).__name__, tuple(value) if isinstance(value, list) else value))
    except TypeError:
        return hash(json.dumps(value, sort_keys=True))


class Tally:
    """What the checks need from every request, kept small.

    Per distinct read (see :func:`answer_key`) its fields and a count per
    distinct answer fingerprint; the committed edits; the numbers attempted
    and failed.  The benchmark's memory thus grows with the number of
    distinct reads and committed writes, not with throughput.  With
    ``keep`` it also keeps every ``(fields, QueryResult, latency)`` for the
    ledger's replays (the traced run, which reports no memory figure).
    """

    def __init__(self, keep: bool = False):
        self.attempted = 0
        self.failed = 0
        self.reads: dict[tuple, tuple[dict, dict]] = {}
        #: ``(tree, epoch, edit)`` of every committed ``mutate``.
        self.committed: list[tuple] = []
        self.results: list | None = [] if keep else None
        #: Last answer per shared stream dict, to skip re-printing repeats.
        self._last: dict[int, tuple] = {}

    def add(self, fields: dict, result, latency: float) -> None:
        self.attempted += 1
        if self.results is not None:
            self.results.append((fields, result, latency))
        if result.status != "ok":
            self.failed += 1
            return
        op = fields["op"]
        if op == "mutate":
            self.committed.append((fields["tree"], result.value["epoch"], fields["edit"]))
            return
        last = self._last.get(id(fields))
        if last is not None and last[0] is fields and last[1] == result.value:
            key, printed = last[2], last[3]
        else:
            key, printed = answer_key(fields), fingerprint(op, result.value)
            if "_id" not in fields:
                # Pool streams reuse their dicts; one-off requests (``_id``)
                # would only pin their answers here.
                self._last[id(fields)] = (fields, result.value, key, printed)
        counts = self.reads.setdefault(key, (fields, {}))[1]
        counts[printed] = counts.get(printed, 0) + 1


class Window:
    """The timings of one closed-loop run, one entry per completion."""

    def __init__(self, started: float):
        self.started = started
        self.ended = started
        self.latency = array("d")
        #: Per completion: 0 ok read, 1 ok write, 2 not ok.
        self.kind = bytearray()

    @property
    def seconds(self) -> float:
        return max(self.ended - self.started, 1e-9)

    def ok(self) -> int:
        return len(self.kind) - self.kind.count(2)

    def latencies(self, writes: bool) -> list[float]:
        """Latencies of the ok writes (``mutate``) or of the ok reads."""
        want = 1 if writes else 0
        return [lat for lat, kind in zip(self.latency, self.kind) if kind == want]


def drive(service, requests, tally: Tally, *, seconds: float | None = None,
          count: int | None = None) -> Window:
    """Run ``requests`` through ``service`` as a closed loop.

    Submission stops when ``seconds`` have passed, ``count`` requests were
    issued, or the stream ends; the requests still in flight are then
    drained.  Latency is submit -> result, stamped by a done-callback on the
    resolving thread.  Every outcome goes to ``tally``.
    """
    done: queue.SimpleQueue = queue.SimpleQueue()
    inflight = 0
    issued = 0
    window = Window(time.perf_counter())
    deadline = None if seconds is None else window.started + seconds
    exhausted = False
    while True:
        while (
            inflight < OUTSTANDING
            and not exhausted
            and (deadline is None or time.perf_counter() < deadline)
            and (count is None or issued < count)
        ):
            fields = next(requests, None)
            if fields is None:
                exhausted = True
                break
            request = to_request(fields, issued)
            submitted = time.perf_counter()
            handle = service.submit(request)
            handle.add_done_callback(
                lambda result, fields=fields, submitted=submitted: done.put(
                    (fields, result, submitted, time.perf_counter())
                )
            )
            inflight += 1
            issued += 1
        if inflight == 0:
            break
        fields, result, submitted, finished = done.get()
        inflight -= 1
        tally.add(fields, result, finished - submitted)
        window.latency.append(finished - submitted)
        window.kind.append(2 if result.status != "ok" else int(fields["op"] == "mutate"))
        window.ended = finished
    return window
