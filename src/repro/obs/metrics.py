"""The process-wide metrics registry: counters, gauges, histograms.

One :data:`REGISTRY` per process (tests snapshot/restore it around every
test, mirroring the fault-registry isolation).  Instruments are created
get-or-create by ``(name, labels)`` — two call sites asking for the same
series share one instrument object — and every mutation takes the
instrument's own lock, so service workers recording from many threads
never lose increments (the chaos soak reconciles totals against request
counts exactly).

Instruments:

* :class:`Counter` — monotonically increasing (``inc``);
* :class:`Gauge` — a settable level (``set`` / ``inc`` / ``dec``);
* :class:`Histogram` — fixed-bucket distribution with count/sum/min/max
  and percentile *upper bounds*: ``percentile(q)`` returns the smallest
  bucket edge (clamped to the observed maximum) at or below which at
  least a ``q`` fraction of observations fall, so the estimate always
  bounds the true quantile from above — the property suite asserts this.

Exports: :meth:`MetricsRegistry.to_json` (what ``repro batch --metrics``
prints) and :meth:`MetricsRegistry.to_prometheus` (the conventional text
exposition format: ``name{label="v"} value`` lines with TYPE comments).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "diff_state",
    "gauge",
    "histogram",
    "merge_states",
    "merged_histogram",
    "registry_from_state",
]

#: Default histogram bucket upper edges: 1-2.5-5 per decade, 1µs .. 50s —
#: wide enough for both per-request latencies and whole-batch runtimes.
DEFAULT_BUCKETS = tuple(
    round(10.0**exponent * mantissa, 12)
    for exponent in range(-6, 2)
    for mantissa in (1.0, 2.5, 5.0)
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared naming/locking plumbing for the three instrument kinds."""

    kind = ""

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def series(self) -> str:
        """The flat series name, e.g. ``requests_total{op=eval}``."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"

    def _prom_series(self) -> str:
        base = re.sub(r"[^a-zA-Z0-9_:]", "_", self.name)
        if not self.labels:
            return base
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{base}{{{inner}}}"


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: _LabelKey = ()):
        super().__init__(name, labels)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def state(self):
        return self.value

    def load(self, state) -> None:
        with self._lock:
            self._value = state


class Gauge(_Instrument):
    """A settable level (queue depth, resident bytes, ...)."""

    kind = "gauge"

    def __init__(self, name: str, labels: _LabelKey = ()):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def state(self):
        return self.value

    def load(self, state) -> None:
        with self._lock:
            self._value = state


class Histogram(_Instrument):
    """A fixed-bucket distribution (see module docstring for percentiles)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: _LabelKey = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels)
        if not buckets or any(
            b >= c for b, c in zip(buckets, buckets[1:])
        ):
            raise ValueError(f"bucket edges must strictly increase: {buckets!r}")
        self.buckets = tuple(float(b) for b in buckets)
        # counts[i] observes values <= buckets[i]; counts[-1] is overflow.
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """An upper bound on the ``q``-quantile (0.0 with no observations)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            target = q * total
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= target and bucket_count:
                    if index < len(self.buckets):
                        # The true quantile lies at or below this edge; the
                        # observed max tightens edges past the data.
                        return min(self.buckets[index], self._max)
                    return self._max
            return self._max

    def state(self):
        with self._lock:
            return (
                list(self._counts),
                self._count,
                self._sum,
                self._min,
                self._max,
            )

    def load(self, state) -> None:
        counts, count, total, minimum, maximum = state
        with self._lock:
            self._counts = list(counts)
            self._count = count
            self._sum = total
            self._min = minimum
            self._max = maximum

    def snapshot(self) -> dict:
        """A JSON-safe summary of the distribution."""
        with self._lock:
            count, total = self._count, self._sum
            minimum = self._min if count else 0.0
            maximum = self._max if count else 0.0
        return {
            "count": count,
            "sum": round(total, 9),
            "min": round(minimum, 9),
            "max": round(maximum, 9),
            "p50": round(self.percentile(0.50), 9),
            "p90": round(self.percentile(0.90), 9),
            "p99": round(self.percentile(0.99), 9),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create instrument store with JSON/Prometheus export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, _LabelKey], _Instrument] = {}

    # -- creation ----------------------------------------------------------

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- reading -----------------------------------------------------------

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across every label set (reconciliation)."""
        return sum(
            instrument.value
            for instrument in self.instruments()
            if instrument.name == name and not isinstance(instrument, Histogram)
        )

    def to_json(self) -> dict:
        """All series as one JSON-safe object (``repro batch --metrics``)."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for instrument in sorted(self.instruments(), key=lambda i: i.series):
            if isinstance(instrument, Counter):
                counters[instrument.series] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[instrument.series] = instrument.value
            else:
                histograms[instrument.series] = instrument.snapshot()
        return {
            "version": "repro-metrics/1",
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_prometheus(self) -> str:
        """The text exposition format (``# TYPE`` comments + series lines)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for instrument in sorted(self.instruments(), key=lambda i: i.series):
            base = re.sub(r"[^a-zA-Z0-9_:]", "_", instrument.name)
            if base not in seen_types:
                seen_types.add(base)
                lines.append(f"# TYPE {base} {instrument.kind}")
            if isinstance(instrument, Histogram):
                label_prefix = instrument._prom_series()
                head, _, tail = label_prefix.partition("{")
                inner = tail[:-1] if tail else ""
                cumulative = 0
                with instrument._lock:
                    counts = list(instrument._counts)
                    count, total = instrument._count, instrument._sum
                for edge, bucket_count in zip(instrument.buckets, counts):
                    cumulative += bucket_count
                    labels = f'{inner},le="{edge}"' if inner else f'le="{edge}"'
                    lines.append(f"{head}_bucket{{{labels}}} {cumulative}")
                labels = f'{inner},le="+Inf"' if inner else 'le="+Inf"'
                lines.append(f"{head}_bucket{{{labels}}} {count}")
                suffix = f"{{{inner}}}" if inner else ""
                lines.append(f"{head}_sum{suffix} {total}")
                lines.append(f"{head}_count{suffix} {count}")
            else:
                lines.append(f"{instrument._prom_series()} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- test isolation ----------------------------------------------------

    def snapshot(self) -> dict:
        """An opaque full-state snapshot (pair with :meth:`restore`)."""
        with self._lock:
            instruments = dict(self._instruments)
        return {
            key: (instrument.kind, instrument.state(), getattr(instrument, "buckets", None))
            for key, instrument in instruments.items()
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot **in place**.

        Instruments present in the snapshot keep their object identity
        (long-lived holders like a service's stats keep working);
        instruments created since are dropped from the registry.
        """
        with self._lock:
            for key in list(self._instruments):
                if key not in state:
                    del self._instruments[key]
            for key, (kind, value, buckets) in state.items():
                instrument = self._instruments.get(key)
                if instrument is None:
                    cls = _KINDS[kind]
                    kwargs = {"buckets": buckets} if kind == "histogram" else {}
                    instrument = cls(key[0], key[1], **kwargs)
                    self._instruments[key] = instrument
                instrument.load(value)

    def reset(self) -> None:
        """Drop every instrument (a fresh registry)."""
        with self._lock:
            self._instruments.clear()


# -- cross-process snapshot algebra -----------------------------------------
#
# The sharded query service runs one registry per shard *process* and folds
# them back into the parent on drain.  The primitives it needs are plain
# functions over the picklable state dicts ``MetricsRegistry.snapshot()``
# produces: a *diff* (what a shard recorded since its baseline — under the
# ``fork`` start method a child inherits the parent's counts, which must not
# be double-reported) and an additive *merge* (raw bucket counts and sums,
# never derived percentiles — merging percentiles skews them).


def diff_state(base: dict, current: dict) -> dict:
    """The per-instrument delta from ``base`` to ``current`` snapshots.

    Counters and histogram counts/sums subtract element-wise; gauges are
    levels, so the current value is kept as-is.  Histogram min/max cannot
    be un-merged, so the current extremes are kept (over-inclusive when a
    forked child inherited observations — summary bounds, not identities).
    Instruments absent from ``base`` pass through whole.
    """
    delta: dict = {}
    for key, (kind, state, buckets) in current.items():
        before = base.get(key)
        if before is None or before[0] != kind:
            delta[key] = (kind, state, buckets)
            continue
        if kind == "counter":
            delta[key] = (kind, state - before[1], buckets)
        elif kind == "gauge":
            delta[key] = (kind, state, buckets)
        else:
            counts, count, total, minimum, maximum = state
            b_counts, b_count, b_total, _, _ = before[1]
            delta[key] = (
                kind,
                (
                    [c - b for c, b in zip(counts, b_counts)],
                    count - b_count,
                    total - b_total,
                    minimum,
                    maximum,
                ),
                buckets,
            )
    return delta


def merge_states(*states: dict) -> dict:
    """Fold snapshot states additively into one (raw reservoirs, see above)."""
    merged: dict = {}
    for state in states:
        for key, (kind, value, buckets) in state.items():
            existing = merged.get(key)
            if existing is None:
                if kind == "histogram":
                    counts, count, total, minimum, maximum = value
                    value = (list(counts), count, total, minimum, maximum)
                merged[key] = (kind, value, buckets)
                continue
            if existing[0] != kind:
                raise ValueError(
                    f"metric {key[0]!r} is a {existing[0]} in one state "
                    f"and a {kind} in another"
                )
            if kind in ("counter", "gauge"):
                merged[key] = (kind, existing[1] + value, buckets)
            else:
                if buckets != existing[2]:
                    raise ValueError(
                        f"histogram {key[0]!r} has mismatched bucket edges"
                    )
                counts, count, total, minimum, maximum = existing[1]
                o_counts, o_count, o_total, o_min, o_max = value
                merged[key] = (
                    kind,
                    (
                        [c + o for c, o in zip(counts, o_counts)],
                        count + o_count,
                        total + o_total,
                        min(minimum, o_min),
                        max(maximum, o_max),
                    ),
                    buckets,
                )
    return merged


def registry_from_state(state: dict) -> MetricsRegistry:
    """A standalone registry materializing a (possibly merged) state dict."""
    registry = MetricsRegistry()
    registry.restore(state)
    return registry


def merged_histogram(registry: MetricsRegistry, name: str) -> Histogram:
    """One histogram summing every label set of ``name`` in ``registry``.

    This is how cross-shard latency percentiles are computed: the raw
    bucket counts of each shard's labelled ``service_latency_seconds``
    series are added, and the percentile is read off the combined
    distribution — never averaged across the per-shard percentiles.
    """
    parts = [
        instrument
        for instrument in registry.instruments()
        if instrument.name == name and isinstance(instrument, Histogram)
    ]
    buckets = parts[0].buckets if parts else DEFAULT_BUCKETS
    combined = Histogram(name, (), buckets=buckets)
    states = []
    for part in parts:
        if part.buckets != buckets:
            raise ValueError(f"histogram {name!r} has mismatched bucket edges")
        states.append(part.state())
    if states:
        counts = [sum(col) for col in zip(*(s[0] for s in states))]
        combined.load(
            (
                counts,
                sum(s[1] for s in states),
                sum(s[2] for s in states),
                min(s[3] for s in states),
                max(s[4] for s in states),
            )
        )
    return combined


#: The process-wide registry every layer records into by default.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels) -> Histogram:
    return REGISTRY.histogram(name, buckets=buckets, **labels)
