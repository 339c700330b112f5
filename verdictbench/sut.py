"""The system under test, in its own process.

Started by the benchmark with one of two shapes:

``single``
    one :class:`~repro.service.server.ReputationServer` over a saved
    snapshot; with ``--follow`` it tails an update log through a
    :class:`~repro.stream.follower.LogFollower` and hot-swaps epochs;
``routed``
    a :class:`~repro.cluster.local.LocalCluster` in thread mode: a
    router in front of ``ROUTED_SHARDS`` v4 shards and one v6 shard,
    all sharing this process (and so one interpreter lock).

The process prints one JSON line with the bound address once it is
ready to accept, then serves until its standard input closes, which
is how the benchmark stops it (and how it dies with a dead parent).

Run as ``python3 verdictbench/sut.py single --snapshot PATH`` from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), HERE]

from repro.cluster.local import LocalCluster  # noqa: E402
from repro.service.engine import QueryEngine  # noqa: E402
from repro.service.index import ReputationIndex  # noqa: E402
from repro.service.server import ReputationServer  # noqa: E402
from repro.stream.epoch import EpochIndex  # noqa: E402
from repro.stream.follower import LogFollower  # noqa: E402
from workloads import POLL_INTERVAL, ROUTED_SHARDS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shape", choices=("single", "routed"))
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--snapshot6")
    parser.add_argument("--follow")
    args = parser.parse_args(argv)

    index = ReputationIndex.load(args.snapshot)
    stop = []
    if args.shape == "routed":
        cluster = LocalCluster(
            index,
            shards=ROUTED_SHARDS,
            mode="thread",
            v6_index=ReputationIndex.load(args.snapshot6),
            v6_shards=1,
        )
        address = cluster.start()
        stop.append(cluster.close)
    else:
        follower = None
        source = index
        if args.follow:
            source = EpochIndex(index)
            follower = LogFollower(
                args.follow, source, poll_interval=POLL_INTERVAL
            )
        server = ReputationServer(
            QueryEngine(source), streaming=follower is not None
        )
        address = server.start()
        stop.append(server.shutdown)
        if follower is not None:
            follower.start()
            stop.insert(0, follower.stop)
    print(json.dumps({"host": address[0], "port": address[1]}), flush=True)
    try:
        sys.stdin.read()
    finally:
        for action in stop:
            action()
    return 0


if __name__ == "__main__":
    sys.exit(main())
