"""Traffic generation: the system under test's process, and the
generator that drives it over loopback.

The generator is this one process with two threads — the calling
thread sends, a receiver thread reads and decodes replies — and at
most two connections: point queries on a JSON-codec connection (like
per-connection legacy clients), batches on a binary-codec one.

* :meth:`Generator.open_loop` sends on the schedule's due times
  whether or not replies have come back; latency is taken from the due
  time, so a stall also delays every later request's clock.
* :meth:`Generator.closed_loop` keeps ``SAT_WINDOW`` binary batches in
  flight; the receiver sends the next one as each reply arrives.

Every reply is kept raw for the checker, which runs after the timed
phases. Spans are recorded only when a tracer is given.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import socket
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.net.family import FAMILIES
from repro.service.wire import (
    FT_BATCH_REP,
    FT_BATCH_REP6,
    FT_MSG,
    decode_batch_reply,
    decode_batch_reply6,
    decode_binary_frame,
    decode_frame,
    decode_msg_payload,
    encode_batch_request,
    encode_batch_request6,
    encode_frame,
    encode_msg_frame,
    recv_frame,
    send_frame,
)
from workloads import SAT_WINDOW

HERE = os.path.dirname(os.path.abspath(__file__))
#: Seconds a spawned server may take to load its snapshot and bind.
READY_TIMEOUT = 120
#: Seconds :meth:`Generator.drain` waits for the replies in flight.
DRAIN_TIMEOUT = 60.0

# -- the system under test ---------------------------------------------


def _proc_children(pid: int) -> List[int]:
    found = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found += [int(child) for child in handle.read().split()]
    except OSError:
        pass
    return found


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its descendants."""
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo += _proc_children(current)
    return tree


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU seconds of ``pids`` from ``/proc``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / os.sysconf("SC_CLK_TCK")


def rss_mb(pids: List[int]) -> float:
    """Summed VmRSS of ``pids`` in MiB."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total / 1024.0


class Server:
    """One spawned ``sut.py`` process; its standard error goes to
    the open file ``log``."""

    def __init__(self, args: List[str], log) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sut.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], READY_TIMEOUT
            )
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("system under test did not start serving")
            ready = json.loads(line)
            self.address = (ready["host"], ready["port"])
            with socket.create_connection(self.address, timeout=30) as sock:
                send_frame(sock, {"op": "hello"})
                reply = recv_frame(sock)
            if not (isinstance(reply, dict) and reply.get("ok")):
                raise RuntimeError(f"bad hello reply: {reply!r}")
        except BaseException:
            self.stop()
            raise
        #: Spawn to first answered ``hello``.
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def tree(self) -> List[int]:
        return process_tree(self.proc.pid)

    def stop(self) -> None:
        """Close stdin (the stop signal) and wait; kill if stuck."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- connections ---------------------------------------------------------


class Request:
    """One request in flight, and what came back."""

    __slots__ = (
        "kind", "family", "payload", "phase", "rid", "due", "sent",
        "done", "reply", "count", "span",
    )

    def __init__(self, kind, family, payload, phase, due=0.0):
        self.kind = kind
        self.family = family
        self.payload = payload
        self.phase = phase
        self.rid = 0
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.reply: Any = None
        self.count = 0
        self.span = 0


class Stream:
    """One connection: blocking socket, FIFO of requests in flight."""

    def __init__(self, address: Tuple[str, int], codec: str) -> None:
        self.codec = codec
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending: Deque[Request] = deque()
        self.buf = bytearray()
        self._rid = 0
        if codec == "binary":
            send_frame(self.sock, {"op": "hello", "accept_codecs": ["binary"]})
            reply = recv_frame(self.sock)
            if reply["result"].get("codec") != "binary":
                raise RuntimeError("server refused the binary codec")

    def next_rid(self) -> int:
        self._rid = (self._rid + 1) & 0xFFFFFFFF
        return self._rid

    def close(self) -> None:
        self.sock.close()


def engine_totals(stats: Dict[str, Any]) -> Tuple[int, int, float]:
    """``(queries, cache_hits, seconds)`` summed over every engine in a
    ``stats`` payload — one server's, or each shard's via a router."""
    engines = [stats]
    if "shards" in stats:
        engines = [row["stats"] for row in stats["shards"] if row["stats"]]
    queries = hits = 0
    seconds = 0.0
    for engine in engines:
        for row in engine["queries"].values():
            queries += row["queries"]
            hits += row["cache_hits"]
            seconds += row["seconds"]
    return queries, hits, seconds


def epoch_counters(stats: Dict[str, Any]) -> Tuple[int, int]:
    """``(queries, cache_hits)`` of the current epoch so far."""
    rows = stats["queries_this_epoch"]["counters"].values()
    return (
        sum(row["queries"] for row in rows),
        sum(row["cache_hits"] for row in rows),
    )


# -- the generator ---------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``(id, name, start, end, parent, rid)``: ``parent`` is
    the id of the span that caused it (0 for a root) and ``rid`` the
    request id the spans of one request share.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self._ids = 0
        self._lock = threading.Lock()

    def new_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def span(self, name, start, end, parent=0, rid=0, span_id=0) -> int:
        span_id = span_id or self.new_id()
        self.spans.append((span_id, name, start, end, parent, rid))
        return span_id


class Generator:
    """Drives one system under test; see the module docstring."""

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        churn: Optional[Callable[[], None]] = None,
    ) -> None:
        self.point = Stream(address, "json")
        self.binary = Stream(address, "binary")
        #: Set to a :class:`Tracer` to record spans from then on.
        self.tracer: Optional[Tracer] = None
        #: Called by the sender when an update-log append is due;
        #: ``next_append`` is the due time (``perf_counter`` clock).
        self._churn = churn
        self.next_append = float("inf")
        self.append_period = 0.0
        self.completed: List[Request] = []
        self.failures: List[str] = []
        self.appended: Dict[int, float] = {}
        self.freshness: Dict[int, float] = {}
        self.epoch_rows: List[Tuple[int, int]] = []
        self._max_seq = 0
        #: The closed loop in progress: ``[pool, position, phase]`` and
        #: its end (0 outside one).
        self._loop: list = []
        self._loop_end = 0.0
        #: Held from queueing a request to its last byte sent, since the
        #: closed loop sends from the receiver thread too.
        self._send_lock = threading.RLock()
        self._stop = threading.Event()
        self._idle = threading.Condition()
        self._receiver = threading.Thread(
            target=self._receive, name="verdictbench-receiver", daemon=True
        )
        self._receiver.start()

    # -- sending (calling thread) ------------------------------------

    def _send(self, request: Request) -> None:
        tracer = self.tracer
        started = time.perf_counter()
        if request.kind == "point":
            family, ip, day = request.payload
            query = {"op": "query", "ip": FAMILIES[family].format(ip)}
            if day is not None:
                query["day"] = day
            frame = encode_frame(query)
            stream = self.point
            request.count = 1
        elif request.kind == "batch":
            family, pairs = request.payload
            stream = self.binary
            request.rid = stream.next_rid()
            encode = (
                encode_batch_request6 if family == "ipv6"
                else encode_batch_request
            )
            frame = encode(pairs, request.rid)
            request.count = len(pairs)
        else:  # stats
            stream = self.binary
            request.rid = stream.next_rid()
            frame = encode_msg_frame({"op": "stats"}, request.rid)
        if tracer is not None:
            request.span = tracer.new_id()
            tracer.span(
                "service.client.encode", started, time.perf_counter(),
                request.span, request.rid,
            )
            request.due = request.due or started
        with self._send_lock:
            request.sent = time.perf_counter()
            stream.pending.append(request)
            stream.sock.sendall(frame)
        if tracer is not None:
            tracer.span(
                "net.send", request.sent, time.perf_counter(),
                request.span, request.rid,
            )

    def _maybe_append(self, now: float) -> None:
        while now >= self.next_append:
            self._send(Request("stats", None, None, "churn"))
            self._churn()
            self.next_append += self.append_period

    def open_loop(self, events) -> Tuple[float, float]:
        """Send ``(due, kind, payload)`` events on schedule; returns the
        phase's ``(start, end)`` on the ``perf_counter`` clock."""
        start = time.perf_counter() + 0.005
        for due, kind, payload in events:
            at = start + due
            now = time.perf_counter()
            while now < at:
                self._maybe_append(now)
                time.sleep(min(at - now, max(0.0, self.next_append - now)))
                now = time.perf_counter()
            self._maybe_append(now)
            self._send(Request(kind, payload[0], payload, "open", at))
        end = time.perf_counter()
        self.drain()
        return start, end

    def closed_loop(
        self, pool, seconds: float, phase: str, position: int
    ) -> Tuple[float, float, int]:
        """Keep ``SAT_WINDOW`` batches in flight for ``seconds``, cycling
        through ``pool`` from ``position``; returns the phase's
        ``(start, stop)`` — ``stop`` when the last reply is in — and the
        next pool position.

        The receiver sends each next batch as a reply comes in, so one
        thread runs the loop and the interpreter lock is not passed back
        and forth per batch; this thread only sleeps, waking for the
        update-log appends."""
        self._loop = [pool, position, phase]
        start = time.perf_counter()
        self._loop_end = start + seconds
        for _ in range(SAT_WINDOW):
            self._send_next()
        try:
            while True:
                now = time.perf_counter()
                if now >= self._loop_end or self._stop.is_set():
                    break
                self._maybe_append(now)
                time.sleep(
                    min(self._loop_end, self.next_append, now + 0.05) - now
                )
        finally:
            self.drain()
            stop = time.perf_counter()
            self._loop_end = 0.0
        return start, stop, self._loop[1]

    def _send_next(self) -> None:
        with self._send_lock:
            pool, position, phase = self._loop
            family, pairs = pool[position % len(pool)]
            self._loop[1] = position + 1
            self._send(Request("batch", family, (family, pairs), phase))

    def stats(self) -> Dict[str, Any]:
        """The server's ``stats`` payload, asked on the binary stream
        once every request before it has its reply."""
        request = Request("stats", None, None, "sync")
        self._send(request)
        self.drain()
        if request.reply is None:
            raise RuntimeError(
                "stats request failed: " + "; ".join(self.failures[-3:])
            )
        return request.reply

    def drain(self) -> None:
        """Wait until every request in flight has its reply."""
        deadline = time.monotonic() + DRAIN_TIMEOUT
        with self._idle:
            while self.point.pending or self.binary.pending:
                left = deadline - time.monotonic()
                if left <= 0 or self._stop.is_set():
                    self.failures.append("drain timed out")
                    return
                self._idle.wait(min(left, 0.05))

    def close(self) -> None:
        self._stop.set()
        self.point.close()
        self.binary.close()
        self._receiver.join(timeout=10)

    # -- receiving (receiver thread) -----------------------------------

    def _receive(self) -> None:
        selector = selectors.DefaultSelector()
        for stream in (self.point, self.binary):
            selector.register(stream.sock, selectors.EVENT_READ, stream)
        try:
            while not self._stop.is_set():
                for key, _ in selector.select(timeout=0.05):
                    stream = key.data
                    try:
                        data = stream.sock.recv(1 << 18)
                    except OSError:
                        data = b""
                    if not data:
                        if not self._stop.is_set():
                            self.failures.append("server closed a connection")
                            self._stop.set()
                        return
                    stream.buf += data
                    self._parse(stream)
        # The receiver is the boundary of this thread: any failure is
        # recorded for the run's result and stops the waits on it.
        except Exception:
            self.failures.append(traceback.format_exc())
            self._stop.set()
        finally:
            selector.close()
            with self._idle:
                self._idle.notify_all()

    def _parse(self, stream: Stream) -> None:
        tracer = self.tracer
        buf = stream.buf
        binary = stream.codec == "binary"
        while True:
            got = decode_binary_frame(buf) if binary else decode_frame(buf)
            if got is None:
                return
            request = stream.pending.popleft()
            started = time.perf_counter()
            if binary:
                ftype, rid, payload, end = got
                del buf[:end]
                if rid != request.rid:
                    self.failures.append(f"reply id {rid} != {request.rid}")
                self._binary_reply(request, ftype, payload)
            else:
                reply, end = got
                del buf[:end]
                self._json_reply(request, reply)
            request.done = time.perf_counter()
            if tracer is not None and request.span:
                tracer.span(
                    "service.client.decode", started, request.done,
                    request.span, request.rid,
                )
                tracer.span(
                    "wait", request.sent, started, request.span, request.rid
                )
                tracer.span(
                    "request", request.due, request.done, 0, request.rid,
                    request.span,
                )
            self.completed.append(request)
            if (
                request.kind == "batch"
                and time.perf_counter() < self._loop_end
            ):
                self._send_next()
            if not stream.pending:
                with self._idle:
                    self._idle.notify_all()

    def _binary_reply(self, request: Request, ftype: int, payload) -> None:
        if ftype == FT_MSG:
            reply = decode_msg_payload(payload)
            if request.kind == "stats" and reply.get("ok"):
                self._stats_reply(request, reply["result"])
            else:
                self.failures.append(f"rejected: {reply.get('error')}")
            return
        if ftype not in (FT_BATCH_REP, FT_BATCH_REP6):
            self.failures.append(f"unexpected frame type {ftype}")
            return
        decode = decode_batch_reply6 if ftype == FT_BATCH_REP6 else decode_batch_reply
        entries = decode(payload)
        if len(entries) != request.count:
            self.failures.append("reply row count differs from request")
        request.reply = payload
        if entries:
            self._saw_seq(entries[-1].get("seq", 0))

    def _json_reply(self, request: Request, reply: Any) -> None:
        if not (isinstance(reply, dict) and reply.get("ok")):
            self.failures.append(f"rejected: {reply!r}"[:200])
            return
        if request.kind == "stats":
            self._stats_reply(request, reply["result"])
            return
        request.reply = reply["result"]
        self._saw_seq(reply["result"].get("seq", 0))

    def _stats_reply(self, request: Request, stats: Dict[str, Any]) -> None:
        request.reply = stats
        if request.phase == "churn":
            self.epoch_rows.append(epoch_counters(stats))

    def _saw_seq(self, seq: int) -> None:
        if seq > self._max_seq:
            now = time.perf_counter()
            for step in range(self._max_seq + 1, seq + 1):
                appended = self.appended.get(step)
                if appended is not None:
                    self.freshness[step] = now - appended
            self._max_seq = seq
