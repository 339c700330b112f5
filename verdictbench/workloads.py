"""The four workloads and the seeded schedules that drive them.

A schedule is everything the generator sends, made before any timing
starts and only from the workload, the seed, the run length and the
listed addresses of the snapshot:

* ``open_events``: the open-loop phase as ``(due_s, kind, payload)``
  rows — ``kind`` is ``"point"`` (one ``(family, ip, day)``) or
  ``"batch"`` (one ``(family, pairs)``), with Poisson arrivals;
* ``pool``: the closed-loop saturation batches, sent in a cycle;
* ``deltas``: for ``churn-v4``, the delta batches appended to the
  update log, one per ``append_period``.

``day`` is ``None`` where the workload omits the day (the server then
answers for its default day).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.stream.delta import ListingDelta

#: Days inside the two collection windows, the explicit days queried.
WINDOW_DAYS = tuple(range(214, 253)) + tuple(range(453, 497))
#: The observation day of every churn delta: the last collection day.
LAST_DAY = WINDOW_DAYS[-1]

Pair = Tuple[int, Optional[int]]
Batch = Tuple[str, List[Pair]]


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server shape."""

    name: str
    #: ``single`` (one server) or ``routed`` (router + shards).
    shape: str
    #: Offered load of the open-loop phase, verdicts per second.
    open_rate: int
    #: Seconds between update-log appends at the nominal core speed
    #: (``churn-v4`` only).
    append_period: float = 0.0


# The traffic shape is the registered vocabulary of
# ``repro.loadgen.mixes`` rather than a choice of this benchmark's own:
# the open loop is the ``steady`` mix's split (``churn-storm`` has the
# same one) — half of the queries are point queries, half travel in
# batches of 32 — and the saturation phase is the ``batch-heavy`` mix's
# pipelined bulk lookups, batches of 128 kept ``window=16`` deep, the
# default pipeline window of ``ReputationClient.query_batch_pipelined``
# and ``LoadHarness``. The values are copied, not imported, so that a
# later edit of the mixes cannot silently move this benchmark; a test
# pins them to the registry.
#: Share of open-loop queries sent as point queries (JSON connection).
OPEN_POINT_SHARE = 0.5
#: Queries per open-loop batch (binary connection).
OPEN_BATCH = 32
#: Queries per closed-loop batch, and batches kept in flight.
SAT_BATCH = 128
SAT_WINDOW = 16
#: Closed-loop batches per schedule, sent in a cycle: enough that
#: ``cold-v4`` does not repeat a batch in an untraced run.
POOL_BATCHES = 2000
#: Deltas per appended update-log batch.
DELTAS_PER_BATCH = 200

#: Each open-loop rate is about half the rate at which that workload's
#: open-loop mix saturates the server, with generator and server
#: sharing one core of a 2-vCPU VM as in every run: raising the offered
#: rate until the latency tail ran away (p90 past 50 ms) gave
#: ``cold-v4`` ~13.5k q/s, ``hot-v4`` ~32k, ``routed-dual`` ~3k (its
#: four reactors share one interpreter lock), ``churn-v4`` ~13k before
#: appends. The saturation throughput of large batches is far higher,
#: but half of it would be past what the point queries of the open
#: loop can reach.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold-v4", "single", 7_000),
        Workload("hot-v4", "single", 15_000),
        Workload("routed-dual", "routed", 1_500),
        Workload("churn-v4", "single", 6_000, append_period=1.0),
    )
}

#: v4 shards behind the ``routed-dual`` router (its v6 plane has one).
ROUTED_SHARDS = 2
#: Update-log poll period of the ``churn-v4`` server: short, so
#: freshness measures apply and swap rather than waiting for a poll.
POLL_INTERVAL = 0.01
#: Listed addresses in the v4 snapshot, and in the v6 one that the
#: ``routed-dual`` v6 shard serves.
INDEX_SIZE = 100_000
INDEX6_SIZE = 25_000
#: The snapshots are a fixed dataset; ``--seed`` varies the traffic.
DATASET_SEED = 2020

HOT_SET = 64
CHURN_HOT_SET = 256
#: Zipf exponent of the hot sets.
HOT_ZIPF = 1.1
#: How far the ``hot-v4`` hot set's zipf-weighted mean count of lists
#: active on the default day may lie from that of all listed addresses.
HOT_TOLERANCE = 0.03


class _Draw:
    """Seeded address/day sampler for one family."""

    def __init__(
        self,
        rng: random.Random,
        candidates: Sequence[int],
        *,
        zipf: float = 0.0,
        day_share: float = 1.0,
    ) -> None:
        self._rng = rng
        self._candidates = list(candidates)
        self._day_share = day_share
        self._cum: Optional[List[float]] = None
        if zipf:
            self._cum = list(
                accumulate(
                    1.0 / (rank + 1) ** zipf
                    for rank in range(len(self._candidates))
                )
            )

    def __call__(self) -> Pair:
        # ``int(random() * n)`` rather than ``randrange(n)``: a
        # schedule holds ~3×10^5 draws, and they are its build time.
        random = self._rng.random
        if self._cum is None:
            ip = self._candidates[int(random() * len(self._candidates))]
        else:
            pick = random() * self._cum[-1]
            ip = self._candidates[bisect_left(self._cum, pick)]
        day = None
        if random() < self._day_share:
            day = WINDOW_DAYS[int(random() * len(WINDOW_DAYS))]
        return ip, day


@dataclass
class Schedule:
    open_events: List[Tuple[float, str, tuple]]
    pool: List[Batch]
    deltas: List[Tuple[int, Tuple[ListingDelta, ...]]]

    def digest_rows(self) -> List[str]:
        """A canonical text form, for determinism checks."""
        rows = [repr(event) for event in self.open_events]
        rows += [repr(batch) for batch in self.pool]
        rows += [
            repr((day, [d.to_wire() for d in deltas]))
            for day, deltas in self.deltas
        ]
        return rows


def _active_lists(spans) -> int:
    """Lists carrying an address on the default day (``LAST_DAY``),
    which is what a verdict without a day reports."""
    return len(
        {list_id for first, last, list_id in spans if first <= LAST_DAY <= last}
    )


def _hot_set(
    rng: random.Random,
    listed: List[int],
    unlisted: List[int],
    intervals: Dict[int, list],
) -> List[int]:
    """``HOT_SET`` addresses, three quarters listed, in zipf rank order.

    With so few addresses, and a fifth of the traffic on the first, the
    seed would also choose how many lists the replies carry: over 40
    seeds the reply bytes per verdict spread 0.11 (interquartile range
    over median), and throughput with them. So draws are repeated until
    the ranked set's zipf-weighted mean of active lists is within
    ``HOT_TOLERANCE`` of the listed addresses' mean, which brought that
    spread to 0.05; the seed still picks every address.
    """
    target = sum(_active_lists(intervals[ip]) for ip in listed) / len(listed)
    weights = [1.0 / (rank + 1) ** HOT_ZIPF for rank in range(HOT_SET)]
    while True:
        hot = rng.sample(listed, HOT_SET * 3 // 4) + rng.sample(
            unlisted, HOT_SET // 4
        )
        rng.shuffle(hot)
        pairs = [(w, ip) for w, ip in zip(weights, hot) if ip in intervals]
        mean = sum(w * _active_lists(intervals[ip]) for w, ip in pairs) / sum(
            w for w, _ in pairs
        )
        if abs(mean / target - 1) <= HOT_TOLERANCE:
            return hot


def _samplers(
    workload: Workload,
    rng: random.Random,
    listed: Dict[str, List[int]],
    unlisted: Dict[str, List[int]],
    intervals: Dict[int, list],
):
    """The workload's traffic mix: a ``() -> family`` chooser, a
    ``() -> (ip, day)`` draw per family, and the hot set (empty when
    it has none)."""
    v4 = listed["ipv4"] + unlisted["ipv4"]
    only_v4 = lambda: "ipv4"  # noqa: E731
    if workload.name == "cold-v4":
        return only_v4, {"ipv4": _Draw(rng, v4)}, []
    if workload.name == "hot-v4":
        hot = _hot_set(rng, listed["ipv4"], unlisted["ipv4"], intervals)
        return (
            only_v4,
            {"ipv4": _Draw(rng, hot, zipf=HOT_ZIPF, day_share=0.0)},
            hot,
        )
    if workload.name == "routed-dual":
        v6 = listed["ipv6"] + unlisted["ipv6"]
        rng.shuffle(v4)
        rng.shuffle(v6)
        return (
            lambda: "ipv4" if rng.random() < 0.75 else "ipv6",
            {
                "ipv4": _Draw(rng, v4, zipf=0.9, day_share=0.5),
                "ipv6": _Draw(rng, v6, zipf=0.9, day_share=0.5),
            },
            [],
        )
    hot = rng.sample(v4, CHURN_HOT_SET)
    draw_hot = _Draw(rng, hot, zipf=HOT_ZIPF, day_share=0.0)
    draw_cold = _Draw(rng, v4)
    return (
        only_v4,
        {"ipv4": lambda: draw_hot() if rng.random() < 0.5 else draw_cold()},
        hot,
    )


def _churn_deltas(
    rng: random.Random,
    intervals: Dict[int, list],
    hot: List[int],
    cold: List[int],
    count: int,
    list_ids: Sequence[str],
) -> List[Tuple[int, Tuple[ListingDelta, ...]]]:
    batches = []
    for _ in range(count):
        deltas = []
        for _ in range(DELTAS_PER_BATCH):
            ip = rng.choice(hot) if rng.random() < 0.5 else rng.choice(cold)
            spans = intervals.get(ip) or ()
            roll = rng.random()
            if spans and roll < 0.6:
                first, last, list_id = rng.choice(spans)
                if roll < 0.4:
                    op, new_last = "extend", last + rng.randint(1, 5)
                elif rng.random() < 0.5:
                    op, new_last = "delist", first - 1
                else:
                    op, new_last = "delist", max(first, last - 2)
                deltas.append(
                    ListingDelta(LAST_DAY, ip, list_id, op, first, new_last)
                )
            else:
                first = WINDOW_DAYS[rng.randrange(len(WINDOW_DAYS))]
                deltas.append(
                    ListingDelta(
                        LAST_DAY, ip, rng.choice(list_ids), "add", first,
                        first + rng.randint(0, 6),
                    )
                )
        batches.append((LAST_DAY, tuple(deltas)))
    return batches


def build_schedule(
    workload: Workload,
    seed: int,
    open_seconds: float,
    listed: Dict[str, List[int]],
    unlisted: Dict[str, List[int]],
    *,
    intervals: Optional[Dict[int, list]] = None,
    list_ids: Sequence[str] = (),
    appends: int = 0,
) -> Schedule:
    """The full seeded schedule of one run (see the module docstring)."""
    rng = random.Random(f"verdictbench-schedule/{workload.name}/{seed}")
    pick_family, draws, hot = _samplers(
        workload, rng, listed, unlisted, intervals or {}
    )

    def batch(size: int) -> Batch:
        # A binary batch frame carries one address family.
        family = pick_family()
        return family, [draws[family]() for _ in range(size)]

    events: List[Tuple[float, str, tuple]] = []
    point_rate = workload.open_rate * OPEN_POINT_SHARE
    batch_rate = (workload.open_rate - point_rate) / OPEN_BATCH
    for kind, rate in (("point", point_rate), ("batch", batch_rate)):
        due = rng.expovariate(rate)
        while due < open_seconds:
            if kind == "point":
                family = pick_family()
                events.append((due, kind, (family, *draws[family]())))
            else:
                events.append((due, kind, batch(OPEN_BATCH)))
            due += rng.expovariate(rate)
    events.sort(key=lambda event: event[0])
    pool = [batch(SAT_BATCH) for _ in range(POOL_BATCHES)]
    deltas: List[Tuple[int, Tuple[ListingDelta, ...]]] = []
    if appends:
        deltas = _churn_deltas(
            rng, intervals or {}, hot,
            listed["ipv4"] + unlisted["ipv4"], appends, list_ids,
        )
    return Schedule(events, pool, deltas)
