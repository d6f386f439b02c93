"""Compact per-series schema for committed benchmark results.

pytest-benchmark's raw ``--benchmark-json`` export stores every timed round
of every parametrization plus the full machine fingerprint — hundreds of
thousands of lines for a single suite run, which is useless in review diffs.
What the experiments actually consume is per-series summary statistics, so
the committed ``BENCH_*.json`` files use the compact schema produced here:

* one **series** per test function, with one point per parametrization
  carrying ``p50``/``p90`` (seconds), the round count, and the params;
  points parametrized by ``shards`` additionally carry ``speedup`` (p50 at
  shards=1 over this point's p50, other params equal) and
  ``scaling_efficiency`` (speedup / shards — 1.0 is perfect scaling);
  a benchmark's ``extra_info`` (e.g. the cache-sweep hit rates) is kept
  verbatim under ``extra``;
* a **speedups** table pairing the ``bitset`` engine against its row-wise
  reference (``sets`` or ``table``) at equal parameters, since that ratio is
  the headline number of the C1/C3 experiment rows;
* a trimmed machine/python fingerprint, with the git commit the run
  measured (``git_sha``; ``git_dirty`` when the working tree had
  uncommitted changes).

The :func:`compact` transform is applied automatically to fresh runs through
the ``pytest_benchmark_update_json`` hook in ``benchmarks/conftest.py``, so
``pytest benchmarks/ --benchmark-only --benchmark-json=BENCH_foo.json``
emits the compact schema directly.  Run this file as a script to re-compact
a raw export in place::

    python benchmarks/compact_json.py BENCH_modelcheck.json
"""

from __future__ import annotations

import json
import sys

SCHEMA = "repro-bench-compact/1"

#: Row-wise reference engine for each accelerated engine.
_REFERENCE_FOR = {"bitset": ("sets", "table")}


def _percentile(data: list[float], q: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(data)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def _point_stats(bench: dict) -> dict:
    stats = bench.get("stats", {})
    data = stats.get("data")
    if data:
        p50, p90 = _percentile(data, 0.50), _percentile(data, 0.90)
    else:  # already-compacted or data-stripped exports fall back to summaries
        p50 = stats.get("median", stats.get("mean", 0.0))
        p90 = stats.get("q3", p50)
    return {"p50": p50, "p90": p90, "rounds": stats.get("rounds", len(data or ()))}


def _series_key(bench: dict) -> str:
    return bench["name"].partition("[")[0]


def _annotate_scaling(points: list[dict]) -> None:
    """Attach ``speedup`` / ``scaling_efficiency`` to shard-sweep points.

    For every group of points identical up to their ``shards`` param, the
    shards=1 point is the baseline; each point gets ``speedup`` (baseline
    p50 / point p50) and ``scaling_efficiency`` (speedup / shards, so 1.0
    is perfect linear scaling).  Points without a ``shards`` param — and
    sweeps missing a shards=1 baseline — are left untouched.
    """
    baselines: dict[str, float] = {}
    for point in points:
        params = dict(point.get("params") or {})
        shards = params.pop("shards", None)
        if shards == 1 and point.get("p50"):
            baselines[json.dumps(params, sort_keys=True)] = point["p50"]
    for point in points:
        params = dict(point.get("params") or {})
        shards = params.pop("shards", None)
        if not shards:
            continue
        baseline = baselines.get(json.dumps(params, sort_keys=True))
        if not baseline or not point.get("p50"):
            continue
        speedup = baseline / point["p50"]
        point["speedup"] = round(speedup, 4)
        point["scaling_efficiency"] = round(speedup / shards, 4)


def compact(raw: dict) -> dict:
    """Transform a raw pytest-benchmark export into the compact schema."""
    machine = raw.get("machine_info", {})
    commit = raw.get("commit_info") or {}
    series: dict[str, dict] = {}
    for bench in raw.get("benchmarks", ()):
        test = _series_key(bench)
        entry = series.setdefault(
            test, {"test": test, "group": bench.get("group"), "points": []}
        )
        point = {"params": bench.get("params") or {}}
        point.update(_point_stats(bench))
        extra = bench.get("extra_info") or {}
        if extra:
            point["extra"] = extra
        entry["points"].append(point)

    for entry in series.values():
        _annotate_scaling(entry["points"])

    speedups = []
    for entry in series.values():
        by_params: dict[str, dict[str, dict]] = {}
        for point in entry["points"]:
            params = dict(point["params"])
            backend = params.pop("backend", None)
            if backend is None:
                continue
            by_params.setdefault(json.dumps(params, sort_keys=True), {})[
                backend
            ] = point
        for params_key, backends in sorted(by_params.items()):
            for fast, references in _REFERENCE_FOR.items():
                if fast not in backends:
                    continue
                for reference in references:
                    if reference not in backends:
                        continue
                    fast_p50 = backends[fast]["p50"]
                    speedups.append(
                        {
                            "test": entry["test"],
                            "params": json.loads(params_key),
                            "baseline": reference,
                            "candidate": fast,
                            "p50_speedup": (
                                backends[reference]["p50"] / fast_p50
                                if fast_p50
                                else None
                            ),
                        }
                    )

    return {
        "schema": SCHEMA,
        "datetime": raw.get("datetime"),
        "machine": {
            "system": machine.get("system"),
            "python_version": machine.get("python_version"),
            "cpu": (machine.get("cpu") or {}).get("brand_raw"),
            "cpu_count": (machine.get("cpu") or {}).get("count"),
            "git_sha": commit.get("id"),
            "git_dirty": commit.get("dirty"),
        },
        "series": sorted(series.values(), key=lambda entry: entry["test"]),
        "speedups": speedups,
    }


def compact_in_place(output_json: dict) -> None:
    """Rewrite a raw export dict to the compact schema (for the pytest hook)."""
    if output_json.get("schema") == SCHEMA:
        return
    replacement = compact(output_json)
    output_json.clear()
    output_json.update(replacement)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: compact_json.py BENCH_file.json ...", file=sys.stderr)
        return 2
    for path in argv:
        with open(path) as handle:
            raw = json.load(handle)
        if raw.get("schema") == SCHEMA:
            print(f"{path}: already compact")
            continue
        with open(path, "w") as handle:
            json.dump(compact(raw), handle, indent=2)
            handle.write("\n")
        print(f"{path}: compacted ({len(raw.get('benchmarks', ()))} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
