"""Independent checker for captured verdicts.

Shares no code with the snapshot and schedule generators: it sees only
the saved snapshot(s), the update log the run appended to, and the
captured requests and raw replies. Every verdict is compared field for
field with the one an in-process
:class:`~repro.service.engine.QueryEngine` computes over the same
snapshot; for a run that followed an update log, the reference is an
:class:`~repro.stream.epoch.EpochIndex` advanced to the ``seq`` the
verdict reports.

That alone cannot catch a server that answers from an old epoch after
a swap — a stale cache entry is a correct verdict of the ``seq`` it
reports. So the checker also takes the ``stats`` replies of the run as
``(received_at, seq)`` floors: once a reply has shown that the server
is at ``seq`` *s*, every request sent after it must report a ``seq`` of
at least *s*, and a verdict below its floor counts as wrong.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.family import FAMILIES
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.wire import (
    decode_record,
    decode_record6,
    split_batch_reply,
    split_batch_reply6,
)
from repro.stream.epoch import EpochIndex
from repro.stream.log import read_update_log

#: One captured verdict: ``(family, ip, day_or_None, wire_dict,
#: floor)``, ``floor`` being the least ``seq`` it may report.
Row = Tuple[str, int, Optional[int], Dict[str, Any], int]


class Checker:
    """Counts captured verdicts and the ones that differ.

    A capture is ``("point", family, (ip, day), wire_dict, sent_at)``
    or ``("batch", family, pairs, raw_reply_payload, sent_at)``, and a
    floor is ``(received_at, seq)`` on the same clock (see the module
    docstring). A batch reply is cut into its records; identical
    records answering the same ``(ip, day)`` under the same floor are
    decoded and compared once and counted as often as they occurred, so
    repetitive traffic checks at the cost of a slice.
    """

    def __init__(
        self,
        indexes: Dict[str, ReputationIndex],
        log_path: Optional[str] = None,
    ) -> None:
        self._indexes = indexes
        self._log_path = log_path
        self.checked = 0
        self.wrong = 0
        self.examples: List[str] = []

    def check(
        self,
        captures: Iterable[tuple],
        floors: Sequence[Tuple[float, int]] = (),
    ) -> None:
        """Compare every captured verdict; see the class docstring."""
        floors = sorted(floors)
        times = [at for at, _ in floors]
        highest = list(accumulate((seq for _, seq in floors), max))

        def floor_at(sent: float) -> int:
            shown = bisect_left(times, sent)
            return highest[shown - 1] if shown else 0

        batches: Dict[tuple, int] = {}
        rows: List[Tuple[Row, int]] = []
        for kind, family, request, reply, sent in captures:
            floor = floor_at(sent)
            if kind == "point":
                ip, day = request
                rows.append(((family, ip, day, reply, floor), 1))
            else:
                key = (family, tuple(request), reply, floor)
                batches[key] = batches.get(key, 0) + 1
        records: Dict[tuple, int] = {}
        for (family, pairs, payload, floor), weight in batches.items():
            split = split_batch_reply6 if family == "ipv6" else split_batch_reply
            parts = split(payload)
            if len(parts) != len(pairs):
                self._wrong(
                    weight * len(pairs),
                    f"{len(parts)} rows for {len(pairs)} queries",
                )
                continue
            for (ip, day), record in zip(pairs, parts):
                key = (family, ip, day, record, floor)
                records[key] = records.get(key, 0) + weight
        for (family, ip, day, record, floor), weight in records.items():
            decode = decode_record6 if family == "ipv6" else decode_record
            rows.append(((family, ip, day, decode(record), floor), weight))
        if self._log_path is None:
            self._check_static(rows)
        else:
            self._check_followed(rows)

    def _wrong(self, weight: int, example: str) -> None:
        self.checked += weight
        self.wrong += weight
        if len(self.examples) < 10:
            self.examples.append(example)

    def _compare(self, engine: QueryEngine, rows) -> None:
        expected = engine.query_batch(
            [(ip, day) for (_, ip, day, _, _), _ in rows]
        )
        for row, verdict in zip(rows, expected):
            (family, ip, day, got, floor), weight = row
            want = verdict.to_wire()
            if got == want and got.get("seq", 0) >= floor:
                self.checked += weight
                continue
            where = f"{FAMILIES[family].format(ip)} day={day}"
            if got != want:
                self._wrong(
                    weight, f"{where}: got {got!r}, expected {want!r}"
                )
            else:
                self._wrong(
                    weight,
                    f"{where}: stale verdict of seq {got.get('seq', 0)} "
                    f"sent after the server showed seq {floor}",
                )

    def _check_static(self, rows) -> None:
        by_family: Dict[str, list] = {}
        for row in rows:
            by_family.setdefault(row[0][0], []).append(row)
        for family, family_rows in by_family.items():
            engine = QueryEngine(self._indexes[family], cache_size=0)
            self._compare(engine, family_rows)

    def _check_followed(self, rows) -> None:
        _, batches = read_update_log(self._log_path)
        epochs = EpochIndex(self._indexes["ipv4"])
        by_seq: Dict[int, list] = {}
        for row in rows:
            by_seq.setdefault(row[0][3].get("seq", -1), []).append(row)
        for seq in sorted(by_seq):
            if not 0 <= seq <= len(batches):
                for row, weight in by_seq[seq]:
                    self._wrong(weight, f"reply reports unknown seq {seq}")
                continue
            epochs.apply_all(batches[epochs.current.seq : seq])
            self._compare(QueryEngine(epochs, cache_size=0), by_seq[seq])
