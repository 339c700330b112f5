"""One benchmark run of one workload.

Phases, all against one spawned system under test:

1. preparation, untimed: build or reuse the snapshot(s), load them
   here (for the schedule and the checker), make the seeded schedule;
2. set-up: spawn the server ``SETUP_SPAWNS`` times (once when
   tracing); ``setup_s`` is the median spawn-to-first-``hello`` time,
   each scaled by the reference loop timed just before and after it,
   and the last spawn serves the run;
3. idle ``ping`` round trips;
4. closed-loop warm-up, so caches fill and lazy set-up finishes;
5. ``ROUNDS`` rounds of an open-loop slice at the workload's fixed
   offered rate (latency from each request's due time; traced runs
   only, since latency is a per-layer figure) followed by a
   closed-loop saturation slice (throughput, server and generator CPU,
   ``stats`` deltas), each slice between two samples of the reference
   loop (``machine.py``) that scale its time; ``throughput_qps`` is
   the verdicts of all slices over their scaled time, latencies are
   medians over the rounds;
6. with tracing: a traced saturation pass, router probes, in-process
   layer timings and the waterfall;
7. the checker, over every verdict captured in every phase.

For ``churn-v4`` a delta batch is appended to the followed update log
every ``append_period`` from the warm-up to the end of the last round;
after the warm-up the period is scaled by the reference loop like the
slices' time.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.blocklists.catalog import build_catalog
from repro.cluster.partition import PartitionMap
from repro.net.family import V4, V6
from repro.service.client import ReputationClient
from repro.service.index import ReputationIndex
from repro.service.wire import (
    decode_batch_reply,
    encode_batch_request,
    recv_binary_frame,
)
from repro.stream.delta import DeltaBatch
from repro.stream.log import UpdateLogWriter

import synth
from check import Checker
from drive import (
    Generator,
    Server,
    Stream,
    Tracer,
    cpu_seconds,
    engine_totals,
    rss_mb,
)
from layers import time_layers, waterfall
from machine import REFERENCE_NOMINAL_S, reference_s
from workloads import (
    DATASET_SEED,
    INDEX6_SIZE,
    INDEX_SIZE,
    LAST_DAY,
    OPEN_BATCH,
    POLL_INTERVAL,
    SAT_BATCH,
    SAT_WINDOW,
    WORKLOADS,
    build_schedule,
)

SETUP_SPAWNS = 3
ROUNDS = 20
#: Shares of ``--seconds`` spent warming up and, in a traced run, in
#: open loop; the rest is saturation. The warm-up lets skewed traffic
#: fill the caches.
WARM_SHARE = 0.1
OPEN_SHARE = 0.4
#: Length of the traced pass, as a share of ``--seconds``.
TRACE_SHARE = 0.3
PINGS = 300
ROUTER_PROBES = 200
#: The sender must get the interpreter lock back soon after a due time
#: even while the receiver decodes; the 5 ms default would show up as
#: generator lateness in every open-loop latency.
SWITCH_INTERVAL = 0.0005

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("server_rss_mb", "MiB"),
)

PER_LAYER = (
    ("throughput_raw_qps", "1/s"),
    ("setup_raw_s", "s"),
    ("machine.reference_ms", "ms"),
    ("point_p50_ms", "ms"),
    ("point_p90_ms", "ms"),
    ("point_p99_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("engine.cold_us_per_q", "us"),
    ("engine.warm_us_per_q", "us"),
    ("engine.self_us_per_q", "us"),
    ("engine.lru_hit_rate", "ratio"),
    ("engine.epoch_hit_rate", "ratio"),
    ("index.lists_active_on_us", "us"),
    ("index.is_dynamic_us", "us"),
    ("index.load_s", "s"),
    ("index.snapshot_mb", "MiB"),
    ("greylist.recommend_us", "us"),
    ("wire.pack_us_per_q", "us"),
    ("wire.decode_req_us_per_q", "us"),
    ("wire.split_us_per_q", "us"),
    ("wire.reply_bytes_per_q", "B"),
    ("client.encode_us_per_q", "us"),
    ("client.decode_us_per_q", "us"),
    ("client.cpu_us_per_q", "us"),
    ("server.cpu_us_per_q", "us"),
    ("server.busy_frac", "ratio"),
    ("server.packed_hit_ratio", "ratio"),
    ("aio.ping_rtt_us", "us"),
    ("router.overhead_us_per_q", "us"),
    ("router.backend_rtt_us", "us"),
    ("router.fanout_per_batch", "count"),
    ("partition.shard_of_us", "us"),
    ("epoch.apply_ms_per_batch", "ms"),
    ("epoch.swaps", "count"),
    ("epoch.batches_appended", "count"),
    ("log.append_ms", "ms"),
    ("log.poll_ms", "ms"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p90_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("stats.undercount", "count"),
    ("trace.overhead_frac", "ratio"),
    ("machine.nproc", "count"),
    ("machine.loadavg_1m", "load"),
    ("machine.calibration_ms", "ms"),
)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1); 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = -(-len(ordered) * share // 1)
    return ordered[max(0, min(len(ordered), int(rank)) - 1)]


def _ping_rtt(address) -> float:
    """Median idle ``ping`` round trip, in µs."""
    client = ReputationClient(*address, codec="json")
    try:
        samples = []
        for _ in range(PINGS):
            started = time.perf_counter()
            client.ping()
            samples.append(time.perf_counter() - started)
    finally:
        client.close()
    return 1e6 * statistics.median(samples)


def _round_trip(streams, frames) -> List[float]:
    """Send one frame per stream, wait for every reply; per-stream RTTs."""
    started = time.perf_counter()
    for stream, frame in zip(streams, frames):
        stream.sock.sendall(frame)
    rtts = []
    for stream in streams:
        decode_batch_reply(recv_binary_frame(stream.sock)[2])
        rtts.append(time.perf_counter() - started)
    return rtts


def _router_probe(address, stats: dict, pool) -> Dict[str, float]:
    """A batch through the router against its sub-batches sent straight
    to the owning v4 backends (two connections at most)."""
    batches = [pairs for family, pairs in pool if family == V4.name]
    batches = batches[:ROUTER_PROBES]
    via_router = []
    stream = Stream(address, "binary")
    try:
        for pairs in batches:
            via_router += _round_trip([stream], [encode_batch_request(pairs, 1)])
    finally:
        stream.close()
    backends = [
        tuple(row["backends"][0]["address"])
        for row in stats["shards"]
        if row.get("family", V4.name) == V4.name
    ]
    partition = PartitionMap(len(backends))
    streams = [Stream(backend, "binary") for backend in backends]
    direct, sub_rtts = [], []
    try:
        for pairs in batches:
            split: Dict[int, list] = {}
            for ip, day in pairs:
                split.setdefault(partition.shard_of(ip), []).append((ip, day))
            used = sorted(split)
            rtts = _round_trip(
                [streams[shard] for shard in used],
                [encode_batch_request(split[shard], 1) for shard in used],
            )
            direct.append(max(rtts))
            sub_rtts += rtts
    finally:
        for stream in streams:
            stream.close()
    size = statistics.fmean(len(pairs) for pairs in batches)
    return {
        "router.overhead_us_per_q": 1e6
        * (statistics.median(via_router) - statistics.median(direct))
        / size,
        "router.backend_rtt_us": 1e6 * statistics.median(sub_rtts),
    }


class Run:
    """State of one run; see the module docstring for the phases."""

    def __init__(self, name, seed, seconds, traced, machine, cache) -> None:
        if name not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {name!r}; one of {sorted(WORKLOADS)}"
            )
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.machine = machine
        self.cache = cache
        self.run_dir = cache / f"run-{os.getpid()}"
        self.log_path = self.run_dir / "updates.log"
        self.follows = self.workload.append_period > 0
        self.marks = [("start", time.perf_counter())]
        self.metrics: Dict[str, float] = {}
        self.append_ms: List[float] = []

    def mark(self, phase: str) -> None:
        self.marks.append((phase, time.perf_counter()))

    # -- 1. preparation -------------------------------------------------

    def prepare(self) -> None:
        self.cache.mkdir(parents=True, exist_ok=True)
        self.paths = {
            V4.name: synth.snapshot(self.cache, V4, INDEX_SIZE, DATASET_SEED)
        }
        if self.workload.shape == "routed":
            self.paths[V6.name] = synth.snapshot(
                self.cache, V6, INDEX6_SIZE, DATASET_SEED
            )
        self.mark("snapshots")
        started = time.perf_counter()
        self.indexes = {
            family: ReputationIndex.load(path)
            for family, path in self.paths.items()
        }
        self.metrics["index.load_s"] = (
            time.perf_counter() - started
        ) / len(self.paths)
        self.metrics["index.snapshot_mb"] = sum(
            path.stat().st_size for path in self.paths.values()
        ) / 2**20
        listed = {
            family: [ip for ip, _ in index.interval_items()]
            for family, index in self.indexes.items()
        }
        unlisted = {
            family: synth.unlisted_addresses(
                index, len(listed[family]), self.seed
            )
            for family, index in self.indexes.items()
        }
        self.open_s = self.seconds * OPEN_SHARE if self.traced else 0.0
        self.warm_s = self.seconds * WARM_SHARE
        self.sat_s = self.seconds - self.warm_s - self.open_s
        self.trace_s = self.seconds * TRACE_SHARE if self.traced else 0.0
        appends = 0
        if self.follows:
            # Twice the count at the nominal core speed: on a faster core
            # the scaled period is shorter in wall time.
            appends = int(
                2 * (self.seconds + self.trace_s + 5)
                / self.workload.append_period
            )
        self.schedule = build_schedule(
            self.workload, self.seed, self.open_s, listed, unlisted,
            intervals=dict(self.indexes[V4.name].interval_items()),
            list_ids=[info.list_id for info in build_catalog()],
            appends=appends,
        )
        self.deltas = [
            DeltaBatch(seq, day, batch)
            for seq, (day, batch) in enumerate(self.schedule.deltas, start=1)
        ]
        self.mark("prepare")

    def server_args(self) -> List[str]:
        args = [self.workload.shape, "--snapshot", str(self.paths[V4.name])]
        if self.workload.shape == "routed":
            args += ["--snapshot6", str(self.paths[V6.name])]
        if self.follows:
            args += ["--follow", str(self.log_path)]
        return args

    # -- 3-6. traffic ---------------------------------------------------

    def drive(self, server: Server, writer) -> None:
        workload = self.workload
        self.metrics["aio.ping_rtt_us"] = _ping_rtt(server.address)
        slice_s = self.open_s / ROUNDS
        round_events = [
            [
                (due - k * slice_s, kind, payload)
                for due, kind, payload in self.schedule.open_events
                if k * slice_s <= due < (k + 1) * slice_s
            ]
            for k in range(ROUNDS)
        ]
        pool = self.schedule.pool

        def append() -> None:
            seq = len(self.append_ms) + 1
            if seq <= len(self.deltas):
                started = time.perf_counter()
                gen.appended[seq] = started
                writer.append(self.deltas[seq - 1])
                self.append_ms.append(1e3 * (time.perf_counter() - started))

        gen = Generator(server.address, churn=append if writer else None)
        self.gen = gen
        self.rounds: List[dict] = []
        try:
            self.stats_first = gen.stats()
            if writer is not None:
                gen.append_period = workload.append_period
                gen.next_append = time.perf_counter() + workload.append_period
            position = gen.closed_loop(pool, self.warm_s, "warm", 0)[2]
            tree = server.tree()
            reference = reference_s()
            for events in round_events:
                # Appends come every ``append_period`` of scaled time,
                # so a slow core does not get more of them per verdict.
                gen.append_period = (
                    workload.append_period * reference / REFERENCE_NOMINAL_S
                )
                mark = len(gen.completed)
                if events:
                    gen.open_loop(events)
                opened = gen.completed[mark:]
                stats_before = gen.stats()
                reference_before = reference
                cpu0, gen_cpu0 = cpu_seconds(tree), time.process_time()
                mark = len(gen.completed)
                start, stop, position = gen.closed_loop(
                    pool, self.sat_s / ROUNDS, "sat", position
                )
                cpu1, gen_cpu1 = cpu_seconds(tree), time.process_time()
                reference = reference_s()
                q0, h0, s0 = engine_totals(stats_before)
                q1, h1, s1 = engine_totals(gen.stats())
                self.rounds.append({
                    "opened": opened,
                    "sat_q": sum(
                        r.count
                        for r in gen.completed[mark:]
                        if r.kind == "batch"
                    ),
                    "sat_s": stop - start,
                    "server_cpu": cpu1 - cpu0,
                    "gen_cpu": gen_cpu1 - gen_cpu0,
                    "engine": (q1 - q0, h1 - h0, s1 - s0),
                    "reference_s": (reference_before + reference) / 2,
                })
            self.mark("measure")
            self.traced_thr = self.traced_cpu_us = 0.0
            if self.traced:
                gen.tracer = Tracer()
                gen_cpu0 = time.process_time()
                start, stop, position = gen.closed_loop(
                    pool, self.trace_s, "trace", position
                )
                traced_q = sum(
                    r.count for r in gen.completed if r.phase == "trace"
                )
                self.traced_thr = traced_q / (stop - start)
                self.traced_cpu_us = (
                    1e6 * (time.process_time() - gen_cpu0) / traced_q
                )
            gen.next_append = float("inf")
            self.stats_end = gen.stats()
            swaps = self.stats_end.get("epoch", {}).get("epoch", 0)
            deadline = time.monotonic() + 20
            while swaps < len(self.append_ms) and time.monotonic() < deadline:
                time.sleep(0.05)
                self.stats_end = gen.stats()
                swaps = self.stats_end["epoch"]["epoch"]
            self.metrics["epoch.swaps"] = float(swaps)
            self.rss_mb = rss_mb(server.tree())
        finally:
            gen.close()
        if self.traced and workload.shape == "routed":
            self.metrics.update(
                _router_probe(server.address, self.stats_end, pool)
            )
        else:
            self.metrics["router.overhead_us_per_q"] = 0.0
            self.metrics["router.backend_rtt_us"] = 0.0
        self.mark("traffic")

    # -- 7. checking and the report ---------------------------------------

    def check(self) -> Checker:
        captures = [
            (
                r.kind,
                r.family,
                r.payload[1:] if r.kind == "point" else r.payload[1],
                r.reply,
                r.sent,
            )
            for r in self.gen.completed
            if r.kind in ("point", "batch") and r.reply is not None
        ]
        floors = []
        if self.follows:
            floors = [
                (r.done, r.reply["epoch"]["seq"])
                for r in self.gen.completed
                if r.kind == "stats" and r.reply is not None
            ]
        checker = Checker(
            self.indexes, str(self.log_path) if self.follows else None
        )
        checker.check(captures, floors)
        self.mark("check")
        return checker

    def report(
        self, checker: Checker, setup: List[Tuple[float, float]]
    ) -> dict:
        gen, rounds, metrics = self.gen, self.rounds, self.metrics
        workload = self.workload
        attempted = sum(r.count for r in gen.completed)
        failed = attempted - (checker.checked - checker.wrong)
        correct = checker.wrong == 0 and not gen.failures and failed == 0

        def latencies(row, kind: str) -> List[float]:
            return [1e3 * (r.done - r.due) for r in row["opened"] if r.kind == kind]

        def latency(kind: str, share: float) -> float:
            return statistics.median(
                percentile(latencies(row, kind), share) for row in rounds
            )

        sat_q = sum(row["sat_q"] for row in rounds)
        sat_s = sum(row["sat_s"] for row in rounds)
        server_cpu = sum(row["server_cpu"] for row in rounds)
        engine_q = sum(row["engine"][0] for row in rounds)
        engine_hits = sum(row["engine"][1] for row in rounds)
        engine_s = sum(row["engine"][2] for row in rounds)
        counted = (
            engine_totals(self.stats_end)[0]
            - engine_totals(self.stats_first)[0]
        )
        epoch_q = sum(q for q, _ in gen.epoch_rows)
        fresh = [1e3 * value for value in gen.freshness.values()]
        throughput = sat_q / sat_s
        # The core's speed swings within seconds on a shared host; each
        # slice's time is scaled by the reference loop timed on the same
        # core just before and after it (see ``machine.py``). Verdicts
        # over all slices' time rather than a median of slices: on
        # ``churn-v4`` a third of the slices hold an update-log append,
        # and a median would swing with that share.
        scaled = sat_q / sum(
            row["sat_s"] * REFERENCE_NOMINAL_S / row["reference_s"]
            for row in rounds
        )
        end_to_end = {
            # Scaled like throughput: spawning is work on the same core.
            "setup_s": statistics.median(
                seconds * REFERENCE_NOMINAL_S / reference
                for seconds, reference in setup
            ),
            "throughput_qps": scaled,
            "server_rss_mb": self.rss_mb,
        }
        metrics.update({
            "throughput_raw_qps": throughput,
            "setup_raw_s": statistics.median(seconds for seconds, _ in setup),
            "machine.reference_ms": 1e3 * statistics.median(
                row["reference_s"] for row in rounds
            ),
            "engine.self_us_per_q": (
                1e6 * engine_s / engine_q if engine_q else 0.0
            ),
            "engine.lru_hit_rate": engine_hits / engine_q if engine_q else 0.0,
            "server.cpu_us_per_q": 1e6 * server_cpu / sat_q,
            "server.busy_frac": server_cpu / sat_s,
            "server.packed_hit_ratio": 1.0 - engine_q / sat_q,
            "client.cpu_us_per_q": (
                1e6 * sum(row["gen_cpu"] for row in rounds) / sat_q
            ),
            "epoch.batches_appended": float(len(self.append_ms)),
            "engine.epoch_hit_rate": (
                sum(h for _, h in gen.epoch_rows) / epoch_q if epoch_q else 0.0
            ),
            "log.append_ms": (
                statistics.median(self.append_ms) if self.append_ms else 0.0
            ),
            "point_p50_ms": latency("point", 0.50),
            "point_p90_ms": latency("point", 0.90),
            "batch_p50_ms": latency("batch", 0.50),
            "batch_p90_ms": latency("batch", 0.90),
            # Pooled over the rounds: one round holds too few samples
            # for a 99th percentile.
            "point_p99_ms": percentile(
                [x for row in rounds for x in latencies(row, "point")], 0.99
            ),
            "batch_p99_ms": percentile(
                [x for row in rounds for x in latencies(row, "batch")], 0.99
            ),
            "freshness_p50_ms": percentile(fresh, 0.50),
            "freshness_p90_ms": percentile(fresh, 0.90),
            "gen.late_p99_ms": percentile(
                [
                    1e3 * (r.sent - r.due)
                    for row in rounds
                    for r in row["opened"]
                ],
                0.99,
            ),
            "stats.undercount": float(attempted - counted),
            "machine.nproc": float(self.machine["nproc"]),
            "machine.loadavg_1m": self.machine["loadavg_1m"],
            "machine.calibration_ms": self.machine["calibration_ms"],
        })
        opened = [r for row in rounds for r in row["opened"]]
        lines = [
            f"workload {workload.name} seed {self.seed}: {attempted} verdicts "
            f"attempted, {checker.checked} checked, {checker.wrong} wrong, "
            f"error_rate {failed / max(1, attempted):.6f}",
            (
                f"  open loop offered {workload.open_rate} q/s in {ROUNDS} "
                f"rounds: {sum(r.kind == 'point' for r in opened)} point and "
                f"{sum(r.kind == 'batch' for r in opened)} batch (of "
                f"{OPEN_BATCH}) latencies; "
                if self.traced else "  open loop: traced runs only; "
            )
            + f"saturation: batches of {SAT_BATCH}, window {SAT_WINDOW}, "
            f"{sat_q} verdicts in {ROUNDS} rounds",
            f"  stats.undercount {attempted - counted} (queries sent minus "
            f"queries the server's stats counted)",
        ]
        lines += [f"  failure: {text}" for text in gen.failures[:5]]
        lines += [f"  mismatch: {text}" for text in checker.examples[:5]]
        if self.traced:
            lines += self._trace_report(sat_q, sat_s, engine_q, throughput)
            chosen, units = metrics, dict(PER_LAYER)
        else:
            chosen, units = end_to_end, dict(END_TO_END)
        self.mark("report")
        lines.append(
            "  phase seconds: "
            + ", ".join(
                f"{name} {end - begin:.1f}"
                for (_, begin), (name, end) in zip(self.marks, self.marks[1:])
            )
        )
        for key, unit in END_TO_END:
            lines.append(f"  {key:<28} {end_to_end[key]:>14.4f} {unit}")
        for key, unit in PER_LAYER:
            if key in metrics:
                lines.append(f"  {key:<28} {metrics[key]:>14.4f} {unit}")
        print("\n".join(lines), flush=True)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": chosen[key], "unit": unit}
                for key, unit in units.items()
            },
        }

    def _trace_report(self, sat_q, sat_s, engine_q, throughput) -> List[str]:
        gen, metrics = self.gen, self.metrics
        payloads = {
            family: [
                r.reply
                for r in gen.completed
                if r.phase == "sat" and r.family == family
            ][:400]
            for family in self.indexes
        }
        metrics.update(
            time_layers(
                gen.tracer, self.indexes, self.schedule.pool, payloads,
                routed=self.workload.shape == "routed",
                deltas=self.deltas[: len(self.append_ms)],
                scratch=self.run_dir,
            )
        )
        metrics["trace.overhead_frac"] = 1.0 - self.traced_thr / throughput
        per_sat_verdict = sat_s / sat_q if self.follows else 0.0
        lines = waterfall(
            self.workload.name, metrics, gen.tracer.spans,
            sum(r.count for r in gen.completed if r.phase == "trace"),
            throughput, self.traced_thr, self.traced_cpu_us,
            engine_share=engine_q / sat_q,
            appends_per_verdict=(
                per_sat_verdict / gen.append_period if self.follows else 0.0
            ),
            polls_per_verdict=per_sat_verdict / POLL_INTERVAL,
        )
        traces = self.cache / "traces"
        traces.mkdir(exist_ok=True)
        name = f"{self.workload.name}-seed{self.seed}.jsonl"
        with open(traces / name, "w") as out:
            for span in gen.tracer.spans:
                out.write(json.dumps(span) + "\n")
        return lines


def run_workload(name, seed, seconds, traced, machine, cache: Path) -> dict:
    """Run one workload end to end; returns the result object."""
    run = Run(name, seed, seconds, traced, machine, cache)
    run.prepare()
    sys.setswitchinterval(SWITCH_INTERVAL)
    # The collector must not pause the generator mid-phase, nor rescan
    # the loaded indexes while the checker runs: what this process
    # allocates from here on is acyclic, and the indexes are frozen
    # out of the collector's view.
    gc.collect()
    gc.freeze()
    gc.disable()
    run.run_dir.mkdir()
    try:
        writer = None
        if run.follows:
            writer = UpdateLogWriter(run.log_path, start_day=LAST_DAY)
        setup: List[Tuple[float, float]] = []
        server = None
        with open(run.run_dir / "sut.err", "w") as err:
            for _ in range(1 if traced else SETUP_SPAWNS):
                if server is not None:
                    server.stop()
                reference = reference_s()
                server = Server(run.server_args(), err)
                reference = (reference + reference_s()) / 2
                setup.append((server.setup_s, reference))
            run.mark("setup")
            try:
                run.drive(server, writer)
            finally:
                server.stop()
        return run.report(run.check(), setup)
    finally:
        gc.enable()
        shutil.rmtree(run.run_dir, ignore_errors=True)
