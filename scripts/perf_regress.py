#!/usr/bin/env python3
"""Performance regression gate.

Compares a fresh pytest-benchmark JSON export against the committed
baseline and fails when any benchmark's median slowed down by more
than the threshold (default 20%).

Workflow: ``scripts/check.sh`` (step 4) runs the gated bench files —
its ``PERF_BENCHES`` list is the one place that names them — into a
``--benchmark-json`` export, then::

    python scripts/perf_regress.py /tmp/bench_current.json

The gated set covers the batch pipeline (primitives + runner), the
online service's query path (index build, in-process and over-the-wire
queries/sec on both the pinned JSON codec and the pipelined binary
codec, plus the 1000-client fan-in), the streaming ingestion path
(delta apply throughput, update-log roundtrip, query p99 under epoch
hot swap), the sharded cluster (scatter-gather batch throughput vs
single-process on JSON, pipelined binary batches end to end, point p99
during shard failover), the load-generation subsystem (schedule
build rate, harness SLO against a live cluster), and the adversary
lab (scenario build rate, end-to-end scenario scoring), and the IPv6
plane (survey build, v6 trie lookups, routed FT_BATCH_REQ6 batches),
so a slowdown on any side of the serving story fails the same gate.

Refreshing the baseline after an intentional perf change::

    python scripts/perf_regress.py /tmp/bench_current.json --update

A new benchmark (current only) is reported and passes. A baselined
benchmark missing from the current export fails the gate and is named:
a bench that silently stopped running must not pass as "no
regression". Retiring a bench on purpose is a baseline refresh with
``--update``. Microbenchmark medians on shared CI hardware jitter, so
the threshold is deliberately loose — the gate exists to catch real
regressions (an accidental O(n^2), a dropped cache), not 5% noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"


def _medians(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: benchmark file not found: {path}")
    except ValueError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")
    out = {}
    for bench in data.get("benchmarks", []):
        out[bench["name"]] = bench["stats"]["median"]
    if not out:
        sys.exit(f"error: no benchmarks in {path}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current", type=Path, help="fresh --benchmark-json export"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed median slowdown fraction (default: 0.20)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="overwrite the baseline with the current export and exit",
    )
    args = parser.parse_args(argv)

    if args.update:
        args.baseline.write_bytes(args.current.read_bytes())
        print(f"baseline updated from {args.current} -> {args.baseline}")
        return 0

    current = _medians(args.current)
    baseline = _medians(args.baseline)

    regressions = []
    width = max(len(name) for name in current | baseline)
    print(f"{'benchmark':{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name in sorted(current | baseline):
        if name not in baseline:
            print(f"{name:{width}}  {'-':>12}  {current[name]*1e6:>10.1f}us  (new)")
            continue
        if name not in current:
            print(f"{name:{width}}  {baseline[name]*1e6:>10.1f}us  {'-':>12}  MISSING")
            continue
        old, new = baseline[name], current[name]
        change = (new - old) / old
        flag = ""
        if change > args.threshold:
            flag = "  REGRESSION"
            regressions.append((name, change))
        print(
            f"{name:{width}}  {old*1e6:>10.1f}us  {new*1e6:>10.1f}us  "
            f"{change:+6.1%}{flag}"
        )

    missing = sorted(set(baseline) - set(current))
    if missing:
        print(
            f"\nFAIL: {len(missing)} baselined benchmark(s) missing from "
            f"{args.current} (retire one with --update):"
        )
        for name in missing:
            print(f"  {name}")
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%}:"
        )
        for name, change in regressions:
            print(f"  {name}: {change:+.1%}")
    if missing or regressions:
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
