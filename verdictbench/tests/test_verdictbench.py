"""Tests for the verdict-path benchmark itself.

Run from the repository root::

    python3 -m pytest verdictbench/tests -q

The smoke runs build the cached snapshots on first use (a few seconds
each) and take roughly a quarter of a minute per workload.
"""

from __future__ import annotations

import gzip
import inspect
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from repro.blocklists.catalog import build_catalog  # noqa: E402
from repro.loadgen.harness import LoadHarness  # noqa: E402
from repro.loadgen.mixes import get_mix  # noqa: E402
from repro.net.family import V4, V6  # noqa: E402
from repro.service.client import ReputationClient  # noqa: E402
from repro.service.engine import QueryEngine  # noqa: E402
from repro.service.wire import (  # noqa: E402
    BIN_HEADER_SIZE,
    encode_batch_reply_frame,
    pack_verdict,
    pack_verdict_wire,
)
from repro.stream.delta import DeltaBatch, ListingDelta  # noqa: E402
from repro.stream.epoch import EpochIndex  # noqa: E402
from repro.stream.log import UpdateLogWriter  # noqa: E402

import synth  # noqa: E402
from check import Checker  # noqa: E402
from workloads import (  # noqa: E402
    HOT_SET,
    HOT_TOLERANCE,
    HOT_ZIPF,
    LAST_DAY,
    OPEN_BATCH,
    OPEN_POINT_SHARE,
    SAT_BATCH,
    SAT_WINDOW,
    WORKLOADS,
    _active_lists,
    _hot_set,
    build_schedule,
)

SIZE = 2_000


@pytest.fixture(scope="module")
def index():
    return synth.build_index(V4, SIZE, 7)


def _schedule_rows(index, workload: str, seed: int):
    listed = {"ipv4": [ip for ip, _ in index.interval_items()]}
    unlisted = {"ipv4": synth.unlisted_addresses(index, SIZE, seed)}
    if workload == "routed-dual":
        index6 = synth.build_index(V6, SIZE, 7)
        listed["ipv6"] = [ip for ip, _ in index6.interval_items()]
        unlisted["ipv6"] = synth.unlisted_addresses(index6, SIZE, seed)
    schedule = build_schedule(
        WORKLOADS[workload], seed, 0.2, listed, unlisted,
        intervals=dict(index.interval_items()),
        list_ids=[info.list_id for info in build_catalog()],
        appends=5 if workload == "churn-v4" else 0,
    )
    return "\n".join(schedule.digest_rows()).encode()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_schedule_same_seed_is_byte_identical(index, workload):
    assert _schedule_rows(index, workload, 3) == _schedule_rows(
        index, workload, 3
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_schedule_changes_with_seed(index, workload):
    assert _schedule_rows(index, workload, 3) != _schedule_rows(
        index, workload, 4
    )


def _snapshot_payload(tmp_path, family, seed, name):
    path = synth.build_index(family, SIZE, seed).save(tmp_path / name)
    # The gzip header carries a timestamp and a temporary file name;
    # the snapshot content is the member it wraps.
    return gzip.decompress(path.read_bytes())


@pytest.mark.parametrize("family", [V4, V6], ids=lambda f: f.name)
def test_snapshot_same_seed_is_byte_identical(tmp_path, family):
    assert _snapshot_payload(tmp_path, family, 1, "a") == _snapshot_payload(
        tmp_path, family, 1, "b"
    )


@pytest.mark.parametrize("family", [V4, V6], ids=lambda f: f.name)
def test_snapshot_changes_with_seed(tmp_path, family):
    assert _snapshot_payload(tmp_path, family, 1, "a") != _snapshot_payload(
        tmp_path, family, 2, "b"
    )


def test_synthetic_index_has_the_preset_shape(index):
    sizes = index.stats()
    assert sizes["ips"] == SIZE
    assert sizes["lists"] == 151
    assert 7.0 < sizes["intervals"] / SIZE < 8.8
    assert 0.24 < sizes["nated_ips"] / SIZE < 0.32
    assert sizes["dynamic_prefixes"] > 0


def _captures(index):
    listed = [ip for ip, _ in index.interval_items()][:50]
    pairs = [(ip, 230) for ip in listed]
    verdicts = QueryEngine(index).query_batch(pairs)
    payload = encode_batch_reply_frame([pack_verdict(v) for v in verdicts], 1)
    return pairs, verdicts, payload[BIN_HEADER_SIZE:]


def test_checker_accepts_correct_verdicts(index):
    pairs, verdicts, payload = _captures(index)
    checker = Checker({"ipv4": index})
    checker.check(
        [("batch", "ipv4", pairs, payload, 0.0)]
        + [("point", "ipv4", pairs[0], verdicts[0].to_wire(), 0.0)]
    )
    assert (checker.checked, checker.wrong) == (51, 0)


@pytest.mark.parametrize(
    "field, value", [("listed", None), ("users", 99), ("action", "block")]
)
def test_checker_flags_one_flipped_batch_field(index, field, value):
    pairs, verdicts, _ = _captures(index)
    records = [pack_verdict(v) for v in verdicts]
    entry = verdicts[7].to_wire()
    flipped = (not entry[field]) if value is None else value
    if flipped == entry[field]:
        flipped = "greylist"
    entry[field] = flipped
    records[7] = pack_verdict_wire(entry)
    payload = encode_batch_reply_frame(records, 1)[BIN_HEADER_SIZE:]
    checker = Checker({"ipv4": index})
    checker.check([("batch", "ipv4", pairs, payload, 0.0)])
    assert (checker.checked, checker.wrong) == (50, 1)


def test_checker_flags_one_flipped_point_field(index):
    pairs, verdicts, _ = _captures(index)
    entry = verdicts[0].to_wire()
    entry["nated"] = not entry["nated"]
    checker = Checker({"ipv4": index})
    checker.check([("point", "ipv4", pairs[0], entry, 0.0)])
    assert checker.wrong == 1


def _default(function, name):
    return inspect.signature(function).parameters[name].default


def test_traffic_shape_follows_the_loadgen_mixes():
    steady, storm, bulk = (
        get_mix(name) for name in ("steady", "churn-storm", "batch-heavy")
    )
    for mix in (steady, storm):
        assert (1 - mix.batch_fraction, mix.batch_size) == (
            OPEN_POINT_SHARE, OPEN_BATCH
        )
    assert SAT_BATCH == bulk.batch_size
    assert SAT_WINDOW == _default(LoadHarness.__init__, "window")
    assert SAT_WINDOW == _default(
        ReputationClient.query_batch_pipelined, "window"
    )


def test_open_loop_split_matches_the_point_share(index):
    listed = {"ipv4": [ip for ip, _ in index.interval_items()]}
    unlisted = {"ipv4": synth.unlisted_addresses(index, SIZE, 1)}
    schedule = build_schedule(WORKLOADS["cold-v4"], 1, 2.0, listed, unlisted)
    points = sum(kind == "point" for _, kind, _ in schedule.open_events)
    batched = sum(
        len(payload[1])
        for _, kind, payload in schedule.open_events
        if kind == "batch"
    )
    assert points / (points + batched) == pytest.approx(
        OPEN_POINT_SHARE, abs=0.05
    )
    assert {len(pairs) for _, pairs in schedule.pool} == {SAT_BATCH}


def test_hot_set_is_balanced_and_seeded(index):
    """Each seed picks other hot addresses, but their zipf-weighted
    mean of lists active on the default day stays near the listed
    population's, so replies carry as much on every seed."""
    listed = [ip for ip, _ in index.interval_items()]
    intervals = dict(index.interval_items())
    target = statistics.fmean(
        _active_lists(intervals[ip]) for ip in listed
    )
    weights = [1.0 / (rank + 1) ** HOT_ZIPF for rank in range(HOT_SET)]
    hot_sets = []
    for seed in (1, 2):
        unlisted = synth.unlisted_addresses(index, SIZE, seed)
        hot = _hot_set(random.Random(seed), listed, unlisted, intervals)
        rows = [(w, ip) for w, ip in zip(weights, hot) if ip in intervals]
        mean = sum(w * _active_lists(intervals[ip]) for w, ip in rows) / sum(
            w for w, _ in rows
        )
        assert mean == pytest.approx(target, rel=HOT_TOLERANCE)
        assert len(rows) == HOT_SET * 3 // 4
        hot_sets.append(hot)
    assert hot_sets[0] != hot_sets[1]


def test_checker_flags_a_stale_epoch_verdict(index, tmp_path):
    """A reply from epoch 0 is right for the seq it reports, but wrong
    for a request sent after a stats reply showed seq 1."""
    ip = [ip for ip, _ in index.interval_items()][0]
    list_id = build_catalog()[0].list_id
    log_path = tmp_path / "updates.log"
    writer = UpdateLogWriter(log_path, start_day=LAST_DAY)
    writer.append(
        DeltaBatch(1, LAST_DAY, (
            ListingDelta(LAST_DAY, ip, list_id, "add", 300, 310),
        ))
    )
    stale = QueryEngine(EpochIndex(index), cache_size=0).query(ip, 305)
    capture = ("point", "ipv4", (ip, 305), stale.to_wire())
    assert capture[3]["seq"] == 0
    floors = [(1.0, 1)]
    before = Checker({"ipv4": index}, str(log_path))
    before.check([capture + (0.5,)], floors)
    assert (before.checked, before.wrong) == (1, 0)
    after = Checker({"ipv4": index}, str(log_path))
    after.check([capture + (1.5,)], floors)
    assert (after.checked, after.wrong) == (1, 1)
    assert "stale" in after.examples[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_errors(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert "error_rate 0.000000" in done.stdout
    if trace:
        assert "waterfall" in done.stdout
