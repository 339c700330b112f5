"""Per-layer timings taken in-process, and the traced-run waterfall.

Each timing calls one layer's public functions on the run's own
queries, captured frames or delta batches, and is recorded as a span
(``inproc.<layer>``) next to the generator's spans. Layers a workload
does not reach read 0.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.partition import PartitionMap
from repro.core.greylist import recommend_action
from repro.net.family import FAMILIES, V4
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.wire import (
    BIN_HEADER_SIZE,
    decode_batch_reply,
    decode_batch_reply6,
    decode_batch_request,
    decode_batch_request6,
    encode_batch_request,
    encode_batch_request6,
    pack_verdict,
    pack_verdict6,
    split_batch_reply,
    split_batch_reply6,
)
from repro.stream.delta import DeltaBatch
from repro.stream.epoch import EpochIndex
from repro.stream.log import UpdateLogReader, UpdateLogWriter

from drive import Tracer
from workloads import ROUTED_SHARDS

#: Queries per in-process timing loop, and repeats (median reported).
SAMPLE = 20_000
REPEATS = 3


def _timed(
    tracer: Tracer, name: str, fn: Callable[[], int]
) -> float:
    """Median seconds per unit of ``fn`` (which returns its units)."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        units = fn()
        ended = time.perf_counter()
        tracer.span(f"inproc.{name}", started, ended)
        samples.append((ended - started) / max(1, units))
    return statistics.median(samples)


def _by_family(pairs) -> Dict[str, List[Tuple[int, Optional[int]]]]:
    grouped: Dict[str, List[Tuple[int, Optional[int]]]] = {}
    for family, ip, day in pairs:
        grouped.setdefault(family, []).append((ip, day))
    return grouped


def _weighted(per_family: Dict[str, float], counts: Dict[str, int]) -> float:
    total = sum(counts.values())
    return sum(per_family[f] * counts[f] for f in per_family) / total


def time_layers(
    tracer: Tracer,
    indexes: Dict[str, ReputationIndex],
    pool: Sequence[Tuple[str, List[Tuple[int, Optional[int]]]]],
    payloads: Dict[str, List[bytes]],
    *,
    routed: bool,
    deltas: Sequence[DeltaBatch] = (),
    scratch: Path,
) -> Dict[str, float]:
    """Every in-process per-layer metric, in µs (or ms where named)."""
    queries = [
        (family, ip, day) for family, pairs in pool for ip, day in pairs
    ][:SAMPLE]
    grouped = _by_family(queries)
    counts = {family: len(rows) for family, rows in grouped.items()}
    out: Dict[str, Dict[str, float]] = {}

    def per_family(name: str, make: Callable) -> None:
        for family, rows in grouped.items():
            out.setdefault(name, {})[family] = _timed(
                tracer, name, make(indexes[family], rows)
            ) * 1e6

    def cold(index, rows):
        return lambda: len(QueryEngine(index, cache_size=0).query_batch(rows))

    def warm(index, rows):
        distinct = list(dict.fromkeys(rows))[:4096]
        engine = QueryEngine(index)
        engine.query_batch(distinct)
        return lambda: len(engine.query_batch(distinct))

    def lists_active(index, rows):
        default = index.default_day()
        resolved = [(ip, default if day is None else day) for ip, day in rows]
        return lambda: sum(
            1 for ip, day in resolved if index.lists_active_on(ip, day) or 1
        )

    def dynamic(index, rows):
        return lambda: sum(1 for ip, _ in rows if index.is_dynamic(ip) or 1)

    def greylist(index, rows):
        return lambda: sum(
            1
            for ip, _ in rows
            if recommend_action(index, ip, blocklist_category="spam") or 1
        )

    def pack(index, rows):
        verdicts = QueryEngine(index, cache_size=0).query_batch(rows)
        packer = pack_verdict6 if index.family is not V4 else pack_verdict
        return lambda: len([packer(v) for v in verdicts])

    for name, make in (
        ("engine.cold_us_per_q", cold),
        ("engine.warm_us_per_q", warm),
        ("index.lists_active_on_us", lists_active),
        ("index.is_dynamic_us", dynamic),
        ("greylist.recommend_us", greylist),
        ("wire.pack_us_per_q", pack),
    ):
        per_family(name, make)
    metrics = {name: _weighted(values, counts) for name, values in out.items()}

    frames = pool[: max(1, SAMPLE // max(1, len(pool[0][1])))]
    encoders = {"ipv4": encode_batch_request, "ipv6": encode_batch_request6}
    decoders = {"ipv4": decode_batch_request, "ipv6": decode_batch_request6}
    encoded = [
        (family, encoders[family](pairs, 1)[BIN_HEADER_SIZE:])
        for family, pairs in frames
    ]
    metrics["client.encode_us_per_q"] = 1e6 * _timed(
        tracer, "client.encode",
        lambda: sum(len(p) for f, p in frames if encoders[f](p, 1)),
    )
    metrics["wire.decode_req_us_per_q"] = 1e6 * _timed(
        tracer, "wire.decode_req",
        lambda: sum(len(decoders[f](raw)) for f, raw in encoded),
    )
    replies = [
        (family, payload)
        for family, family_payloads in payloads.items()
        for payload in family_payloads[: len(frames)]
    ]
    reply_decoders = {"ipv4": decode_batch_reply, "ipv6": decode_batch_reply6}
    splitters = {"ipv4": split_batch_reply, "ipv6": split_batch_reply6}
    metrics["client.decode_us_per_q"] = 1e6 * _timed(
        tracer, "client.decode",
        lambda: sum(len(reply_decoders[f](raw)) for f, raw in replies),
    )
    metrics["wire.split_us_per_q"] = 1e6 * _timed(
        tracer, "wire.split",
        lambda: sum(len(splitters[f](raw)) for f, raw in replies),
    )
    metrics["wire.reply_bytes_per_q"] = sum(
        len(raw) for _, raw in replies
    ) / max(1, sum(len(reply_decoders[f](raw)) for f, raw in replies))

    metrics["partition.shard_of_us"] = 0.0
    metrics["router.fanout_per_batch"] = 0.0
    if routed:
        partitions = {
            "ipv4": PartitionMap(ROUTED_SHARDS, family=FAMILIES["ipv4"]),
            "ipv6": PartitionMap(1, family=FAMILIES["ipv6"]),
        }
        metrics["partition.shard_of_us"] = 1e6 * _timed(
            tracer, "partition.shard_of",
            lambda: len(
                [partitions[f].shard_of(ip) for f, ip, _ in queries]
            ),
        )
        metrics["router.fanout_per_batch"] = statistics.fmean(
            len({partitions[family].shard_of(ip) for ip, _ in pairs})
            for family, pairs in pool
        )

    metrics["epoch.apply_ms_per_batch"] = 0.0
    metrics["log.poll_ms"] = 0.0
    if deltas:
        metrics.update(
            _stream_layers(tracer, indexes["ipv4"], deltas, scratch)
        )
    return metrics


def _stream_layers(
    tracer: Tracer,
    base: ReputationIndex,
    deltas: Sequence[DeltaBatch],
    scratch: Path,
) -> Dict[str, float]:
    batches = list(deltas)[:20]
    epochs = EpochIndex(base)
    applies = []
    for batch in batches:
        started = time.perf_counter()
        epochs.apply(batch)
        ended = time.perf_counter()
        tracer.span("inproc.stream.epoch.apply", started, ended)
        applies.append(ended - started)
    polls = []
    with tempfile.TemporaryDirectory(dir=scratch) as directory:
        path = Path(directory) / "poll.log"
        writer = UpdateLogWriter(path)
        reader = UpdateLogReader(path)
        reader.poll()
        for batch in batches:
            writer.append(batch)
            started = time.perf_counter()
            got = reader.poll()
            ended = time.perf_counter()
            tracer.span("inproc.stream.log.poll", started, ended)
            if len(got) == 1:
                polls.append(ended - started)
    return {
        "epoch.apply_ms_per_batch": 1e3 * statistics.median(applies),
        "log.poll_ms": 1e3 * statistics.median(polls),
    }


def self_times(spans) -> Dict[str, Tuple[float, int]]:
    """Per span name: summed self time (duration minus the part its
    child spans cover) and span count."""
    children: Dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals: Dict[str, Tuple[float, int]] = {}
    for span_id, name, start, end, _, _ in spans:
        own = (end - start) - children.get(span_id, 0.0)
        seconds, count = totals.get(name, (0.0, 0))
        totals[name] = (seconds + own, count + 1)
    return totals


def waterfall(
    workload: str,
    metrics: Dict[str, float],
    spans,
    traced_verdicts: int,
    throughput: float,
    traced_throughput: float,
    traced_cpu_us: float,
    *,
    engine_share: float,
    appends_per_verdict: float,
    polls_per_verdict: float,
) -> List[str]:
    """The per-layer self-time table, in µs per verdict.

    Generator rows are span self times from the traced pass, set
    against the generator's CPU in that pass; server rows are the
    in-process timings scaled by how often the path reaches them, set
    against the server's CPU in the untraced saturation slices. Span
    times are wall times, so a thread waiting for the interpreter lock
    inside a span counts there: the residual can be negative.
    """
    own = self_times(spans)
    per_q = {
        name: 1e6 * seconds / max(1, traced_verdicts)
        for name, (seconds, _) in own.items()
    }
    client_rows = [
        ("service.client", "encode (spans)", per_q.get("service.client.encode", 0.0)),
        ("service.client", "socket send (spans)", per_q.get("net.send", 0.0)),
        ("service.client", "decode (spans)", per_q.get("service.client.decode", 0.0)),
    ]
    m = metrics
    engine = m["engine.cold_us_per_q"] * engine_share
    server_rows = [
        ("service.wire", "request decode", m["wire.decode_req_us_per_q"]),
        ("service.engine", "evaluate, self (cold x engine share)",
         engine - engine_share * (m["index.lists_active_on_us"]
                                  + m["index.is_dynamic_us"]
                                  + m["greylist.recommend_us"])),
        ("service.index", "lists_active_on (1 call/q)",
         engine_share * m["index.lists_active_on_us"]),
        ("net.prefixtrie", "is_dynamic (1 call/q)",
         engine_share * m["index.is_dynamic_us"]),
        ("core.greylist", "recommend_action (1 call/q)",
         engine_share * m["greylist.recommend_us"]),
        ("service.wire", "record pack (x engine share)",
         engine_share * m["wire.pack_us_per_q"]),
        ("cluster.router", "overhead", m["router.overhead_us_per_q"]),
        ("cluster.partition", "shard_of", m["partition.shard_of_us"]),
        ("stream.epoch", "apply",
         1e3 * m["epoch.apply_ms_per_batch"] * appends_per_verdict),
        ("stream.log", "poll", 1e3 * m["log.poll_ms"] * polls_per_verdict),
        ("stream.follower", "tail thread (its work: the two rows above)",
         0.0),
    ]
    lines = [
        f"waterfall {workload}: self time in us per verdict "
        f"({traced_verdicts} traced verdicts)",
        f"  {'layer':<18} {'step':<40} {'us/q':>9}",
    ]
    client_cpu = m["client.cpu_us_per_q"]
    server_cpu = m["server.cpu_us_per_q"]
    for title, rows, measured in (
        ("generator process, traced pass", client_rows, traced_cpu_us),
        ("server process", server_rows, server_cpu),
    ):
        lines.append(f"  {title} (measured CPU {measured:.2f} us/q)")
        attributed = 0.0
        for layer, step, value in rows:
            attributed += value
            lines.append(f"    {layer:<16} {step:<40} {value:>9.3f}")
        other = "generator" if title.startswith("generator") else "service.aio+server"
        lines.append(
            f"    {other:<16} {'unattributed residual':<40} "
            f"{measured - attributed:>9.3f}"
        )
    # Both processes share the one core the run is pinned to, so a
    # verdict's wall time is their CPU times added.
    end_to_end = 1e6 / throughput if throughput else 0.0
    lines.append(
        f"  end to end: 1e6/throughput_raw_qps = {end_to_end:.2f} us/q; "
        f"generator + server CPU = {client_cpu + server_cpu:.2f} us/q; "
        f"residual (idle, context switches; not separable from outside) "
        f"= {end_to_end - client_cpu - server_cpu:.2f} us/q"
    )
    lines.append(
        f"  tracing overhead: traced throughput {traced_throughput:.0f} q/s "
        f"vs untraced {throughput:.0f} q/s "
        f"({traced_throughput / throughput if throughput else 0:.3f})"
    )
    return lines
