"""The machine a run measures on: its fingerprint, the one core the
run is pinned to, and a fixed reference loop that times that core.

On a shared host the speed of a virtual core swings by up to a factor
of two within seconds, with the same figure in CPU time as in wall time
(it is the core that is slow, not the process that waits). No run
length averages that out, so the saturation slices and the spawns
are timed next to this loop on the same core and scaled by it (see
``bench.py``).
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time

#: The core speed scaled figures are given at, as a time of
#: :func:`reference_s`: a round figure inside the 6.8–14.6 ms it took on
#: the 2-vCPU 2.0 GHz Xeon VM the bounds were set on. At that speed a
#: scaled figure equals the measured one.
REFERENCE_NOMINAL_S = 0.010
#: Repeats per reference sample; the fastest counts, so an interrupt
#: during one repeat does not read as a slow core.
REFERENCE_REPEATS = 2


def _reference_work() -> None:
    # Hashing and sorting strings: of the standard-library loops tried
    # (this one; interval lookups with struct packing and JSON; random
    # access over a 3×10^5-key dict), its time tracked an in-process
    # cold ``QueryEngine`` evaluate and a batch reply decode most
    # closely while the host's speed swung: log-log slope 0.97–1.01,
    # correlation 0.83–0.87, over 90 s on one core in which the raw times
    # spread 0.57–0.69 (interquartile range over median).
    digest = b""
    for i in range(6_000):
        digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
    sorted(str(i * 7919 % 10007) for i in range(12_000))


def reference_s() -> float:
    """Seconds the fixed reference loop takes on this core now."""
    samples = []
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - started)
    return min(samples)


def pin_to_one_core() -> int:
    """Pin this process, and so every process and thread it starts
    later, to one of the cores it may use; returns that core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def fingerprint() -> dict:
    """What tells two machines' numbers apart (nothing is rescaled by
    it; the per-slice scaling uses its own samples)."""
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "calibration_ms": 1e3 * statistics.median(
            reference_s() for _ in range(5)
        ),
    }
