"""Verdict-path benchmark: one command, four serving workloads.

Run from the repository root::

    python3 verdictbench/run.py --workload cold-v4 --seed 1 --seconds 7 --trace 0

The system under test (``sut.py``) runs in its own process, started
from a snapshot of a seeded synthetic index that is built once and
kept under ``.verdictbench/``. This process generates the traffic
(``drive.py``), checks every captured verdict (``check.py``) after the
timed phases, and prints one JSON result as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (and a
waterfall, and a span file) with ``--trace 1``. It exits non-zero on
any wrong verdict, and when the program under test cannot be imported.

See ``bench.py`` for the phases of a run and ``README.md`` in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro.service.engine  # noqa: F401
    except ImportError as exc:
        print(f"verdictbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from bench import run_workload
    from machine import fingerprint, pin_to_one_core

    pin_to_one_core()
    machine = fingerprint()
    print("fingerprint " + json.dumps(machine), flush=True)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), machine,
        ROOT / ".verdictbench",
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
