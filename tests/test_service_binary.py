"""Binary wire codec: fuzzing, negotiation matrix, codec equality.

Three layers, mirroring the upgrade's compatibility promise:

* codec level — the tagged binary value encoding and the packed batch
  records round-trip everything the JSON codec carries (same
  ``json_values`` corpus as :mod:`tests.test_service_wire`), and
  hostile bytes fail as :class:`WireError`, never an unhandled crash;
* connection level — the ``hello`` negotiation matrix: a JSON-only
  client sees byte-identical replies from an upgraded server, an
  offering client gets the binary codec, and verdicts are
  field-for-field equal across codecs;
* fleet level — mixed router deployments (binary or JSON upstream ×
  binary or JSON downstream) all return the same verdicts.
"""

import hashlib
import socket
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.local import LocalCluster
from repro.net.family import V4, V6
from repro.net.ipv4 import int_to_ip
from repro.service.client import ReputationClient, ServiceError
from repro.service.engine import QueryEngine, Verdict
from repro.service.index import ReputationIndex
from repro.service.server import ReputationServer
from repro.service.wire import (
    BIN_HEADER_SIZE,
    FT_BATCH_REP,
    FT_MSG,
    MAX_FRAME_BYTES,
    WireError,
    decode_batch_reply,
    decode_batch_reply6,
    decode_batch_request,
    decode_batch_request6,
    decode_binary_frame,
    decode_msg_payload,
    decode_record,
    decode_record6,
    encode_batch_reply_frame,
    encode_batch_reply_frame6,
    encode_batch_request,
    encode_batch_request6,
    encode_msg_frame,
    pack_degraded,
    pack_degraded6,
    pack_verdict,
    pack_verdict6,
    pack_verdict_wire,
    pack_verdict_wire6,
    recv_binary_frame,
    recv_frame,
    send_frame,
    split_batch_reply,
    split_batch_reply6,
)
from tests.test_service_wire import FakeSocket, json_values


def _verdict(**overrides):
    base = dict(
        ip=0x01020304,
        day=17,
        listed=True,
        lists=("dnsbl-alpha", "dnsbl-beta"),
        nated=True,
        dynamic=False,
        unjust=True,
        reuse_kind="nat",
        users=37,
        asn=64500,
        action="greylist",
        epoch=3,
        seq=41,
    )
    base.update(overrides)
    return Verdict(**base)


#: The packed batch codec of each address family, reached through its
#: public names, with a sample address and its text form.
CODECS = {
    "v4": SimpleNamespace(
        family=V4,
        ip=0x0A000001,
        text="10.0.0.1",
        encode_request=encode_batch_request,
        decode_request=decode_batch_request,
        pack=pack_verdict,
        pack_wire=pack_verdict_wire,
        pack_degraded=pack_degraded,
        reply_frame=encode_batch_reply_frame,
        split=split_batch_reply,
        decode_record=decode_record,
        decode_reply=decode_batch_reply,
    ),
    "v6": SimpleNamespace(
        family=V6,
        ip=0x20010DB8_00000000_00000000_00000001,
        text="2001:db8::1",
        encode_request=encode_batch_request6,
        decode_request=decode_batch_request6,
        pack=pack_verdict6,
        pack_wire=pack_verdict_wire6,
        pack_degraded=pack_degraded6,
        reply_frame=encode_batch_reply_frame6,
        split=split_batch_reply6,
        decode_record=decode_record6,
        decode_reply=decode_batch_reply6,
    ),
}


def _pairs(max_ip):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=max_ip),
            st.none()
            | st.integers(min_value=-(2**31), max_value=2**31 - 1),
        ),
        max_size=50,
    )


#: A codec with a batch of ``(ip, day)`` pairs its family can carry.
codec_pairs = st.sampled_from(sorted(CODECS)).flatmap(
    lambda name: st.tuples(
        st.just(CODECS[name]), _pairs(CODECS[name].family.max_int)
    )
)


def _pin_corpus(codec):
    """Request frames, verdict records, degraded records and reply
    frames covering the packed layouts' edges for one family."""
    top = codec.family.max_int
    frames = [
        codec.encode_request([], 0),
        codec.encode_request(
            [(0, None), (codec.ip, 17), (top, None), (codec.ip, -(2**31)),
             (top, 2**31 - 1), (0, 0)],
            0xFFFFFFFF,
        ),
    ]
    verdicts = [
        codec.pack(_verdict(ip=codec.ip, family=codec.family)),
        codec.pack(
            _verdict(ip=0, listed=False, lists=(), unjust=False,
                     action="ignore", reuse_kind="", family=codec.family)
        ),
        codec.pack(
            _verdict(ip=top, day=-3, users=2**32 - 1, asn=2**32 - 1,
                     epoch=2**32 - 1, seq=2**64 - 1, dynamic=True,
                     reuse_kind="nat+dynamic", action="block",
                     lists=("x" * 255, "liste-\u00e9"),
                     family=codec.family)
        ),
    ]
    degraded = [
        codec.pack_degraded(codec.ip, 12, 2, "SHARD_UNAVAILABLE"),
        codec.pack_degraded(top, None, 2**32 - 1, "e" * 300),
        codec.pack_degraded(0, -1, 0, ""),
    ]
    replies = [
        codec.reply_frame([], 0),
        codec.reply_frame(verdicts + degraded, 7),
    ]
    return frames + verdicts + degraded + replies


#: sha256 over the length-prefixed :func:`_pin_corpus` items. Any
#: change to a packed byte of either family moves these.
PINNED_DIGESTS = {
    "v4": "5e9c829880d5309c47648971f48925587da704a9483f7246e1d2b5bdab18a8bb",
    "v6": "81cd8786049a5030196cd2f24a78fb31c7bb818199d9c0bf9e84972298fe8c7e",
}


class TestBinaryCodecRoundtrip:
    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_msg_roundtrip_matches_json_model(self, value):
        """Anything the JSON codec carries, the tagged binary encoding
        carries identically — same corpus, same decoded value."""
        frame = encode_msg_frame(value, 7)
        decoded = decode_binary_frame(frame)
        assert decoded is not None
        ftype, rid, payload, consumed = decoded
        assert (ftype, rid, consumed) == (FT_MSG, 7, len(frame))
        assert decode_msg_payload(payload) == value

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_packed_bytes_pinned(self, name):
        digest = hashlib.sha256()
        for item in _pin_corpus(CODECS[name]):
            digest.update(len(item).to_bytes(4, "big") + item)
        assert digest.hexdigest() == PINNED_DIGESTS[name]

    @settings(max_examples=100, deadline=None)
    @given(codec_pairs, st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_batch_request_roundtrip(self, codec_and_pairs, rid):
        codec, pairs = codec_and_pairs
        frame = codec.encode_request(pairs, rid)
        decoded = decode_binary_frame(frame)
        assert decoded is not None
        _ftype, got_rid, payload, _ = decoded
        assert got_rid == rid
        assert codec.decode_request(payload) == pairs

    def test_verdict_record_roundtrip_is_field_for_field(self):
        """The pinned cross-codec contract: a packed verdict decodes
        to exactly ``Verdict.to_wire()`` — every field, not a
        projection — on both families."""
        for codec in CODECS.values():
            for verdict in (
                _verdict(ip=codec.ip, family=codec.family),
                _verdict(ip=codec.ip, listed=False, lists=(),
                         unjust=False, action="ignore", reuse_kind="",
                         family=codec.family),
                _verdict(ip=codec.family.max_int, day=-3, users=0, asn=0,
                         epoch=0, seq=0, dynamic=True,
                         family=codec.family),
            ):
                record = codec.pack(verdict)
                assert codec.decode_record(record) == verdict.to_wire()
                # And the wire-dict repack (the router's JSON-upstream
                # → binary-downstream path) hits the same bytes.
                assert codec.pack_wire(verdict.to_wire()) == record

    def test_degraded_record_roundtrip(self):
        for codec in CODECS.values():
            record = codec.pack_degraded(codec.ip, 12, 2, "SHARD_UNAVAILABLE")
            assert codec.decode_record(record) == {
                "ip": codec.text,
                "day": 12,
                "error": "SHARD_UNAVAILABLE",
                "shard": 2,
            }
            record = codec.pack_degraded(1, None, 0, "SHARD_UNAVAILABLE")
            assert codec.decode_record(record)["day"] is None


class TestBinaryFrameFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_decode_binary_frame_never_crashes(self, blob):
        try:
            decode_binary_frame(blob)
        except WireError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=1, max_size=64),
           st.integers(min_value=1, max_value=7))
    def test_recv_binary_frame_never_crashes(self, blob, chunk):
        try:
            recv_binary_frame(FakeSocket(blob, chunk=chunk))
        except WireError:
            pass

    def test_torn_header_is_recoverable(self):
        """EOF inside the 10-byte header is end-of-stream, not a
        framing crime — the error must say so."""
        frame = encode_msg_frame({"op": "ping"}, 1)
        for cut in range(1, BIN_HEADER_SIZE):
            with pytest.raises(WireError) as excinfo:
                recv_binary_frame(FakeSocket(frame[:cut]))
            assert excinfo.value.recoverable

    def test_torn_payload_is_fatal(self):
        frame = encode_msg_frame({"op": "ping"}, 1)
        with pytest.raises(WireError) as excinfo:
            recv_binary_frame(FakeSocket(frame[: len(frame) - 2]))
        assert not excinfo.value.recoverable

    def test_bad_magic_is_fatal(self):
        frame = bytearray(encode_msg_frame({"op": "ping"}, 1))
        frame[0] ^= 0xFF
        with pytest.raises(WireError) as excinfo:
            recv_binary_frame(FakeSocket(bytes(frame)))
        assert not excinfo.value.recoverable

    def test_eintr_mid_frame_is_retried(self):
        """A signal landing mid-read must not be confused with EOF."""

        class InterruptingSocket(FakeSocket):
            def __init__(self, data):
                super().__init__(data, chunk=3)
                self._interrupts = 2

            def recv(self, size):
                if self._interrupts:
                    self._interrupts -= 1
                    raise InterruptedError
                return super().recv(size)

        frame = encode_msg_frame({"op": "ping"}, 9)
        got = recv_binary_frame(InterruptingSocket(frame))
        assert got is not None
        assert decode_msg_payload(got[2]) == {"op": "ping"}

    def test_declared_length_over_limit_rejected(self):
        header = struct.pack(">BBII", 0xB1, FT_MSG, 0, MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError) as excinfo:
            recv_binary_frame(FakeSocket(header))
        assert not excinfo.value.recoverable

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(CODECS)), st.binary(max_size=80))
    def test_record_decoders_never_crash(self, name, blob):
        codec = CODECS[name]
        try:
            for record in codec.split(blob):
                codec.decode_record(record)
        except WireError:
            pass
        try:
            codec.decode_reply(blob)
        except WireError:
            pass


@pytest.fixture(scope="module")
def index(small_full_run):
    return ReputationIndex.from_run(small_full_run)


@pytest.fixture()
def server(index):
    srv = ReputationServer(QueryEngine(index), connection_timeout=5.0)
    srv.start()
    yield srv
    srv.shutdown()


class TestNegotiation:
    def test_json_client_sees_pre_upgrade_hello(self, server):
        """A pre-negotiation client's hello must come back without any
        codec keys — the reply an old server would have sent."""
        with socket.create_connection(server.address, timeout=5.0) as s:
            send_frame(s, {"op": "hello"})
            reply = recv_frame(s)
        assert reply["ok"] is True
        assert "codec" not in reply["result"]
        assert "codecs" not in reply["result"]

    def test_offering_client_switches_to_binary(self, server):
        with ReputationClient(*server.address) as client:
            assert client.codec == "binary"
            # A plain hello (no offer) stays clean of codec keys even
            # on an upgraded connection.
            assert "codec" not in client.hello()
            hello = client.call(
                {"op": "hello", "accept_codecs": ["binary"]}
            )
            assert hello["codec"] == "binary"
            assert set(hello["codecs"]) == {"binary", "json"}

    def test_pinned_json_client_stays_on_json(self, server):
        with ReputationClient(*server.address, codec="json") as client:
            assert client.codec == "json"
            assert client.ping() is True

    def test_json_offer_without_binary_keeps_json(self, server):
        """``accept_codecs`` listing only json: reply carries the codec
        keys but the connection stays on the JSON framing."""
        with socket.create_connection(server.address, timeout=5.0) as s:
            send_frame(s, {"op": "hello", "accept_codecs": ["json"]})
            reply = recv_frame(s)
            assert reply["result"]["codec"] == "json"
            send_frame(s, {"op": "ping"})
            assert recv_frame(s)["result"] == "pong"

    def test_frames_after_switch_are_binary(self, server):
        """The hello reply itself is still JSON-framed; the very next
        frame speaks binary."""
        with socket.create_connection(server.address, timeout=5.0) as s:
            send_frame(s, {"op": "hello", "accept_codecs": ["binary"]})
            reply = recv_frame(s)
            assert reply["result"]["codec"] == "binary"
            s.sendall(encode_msg_frame({"op": "ping"}, 5))
            ftype, rid, payload = recv_binary_frame(s)
            assert (ftype, rid) == (FT_MSG, 5)
            assert decode_msg_payload(payload)["result"] == "pong"


class TestCodecEquality:
    def _sample_queries(self, index):
        ips = sorted(ip for ip, _ in index.interval_items())[:50] or [
            0x01020304
        ]
        day = index.default_day()
        queries = [(ip, None) for ip in ips]
        queries += [(ip, day) for ip in ips[:10]]
        queries += [(0xDEADBEEF, None), (0, day)]
        return queries

    def test_batch_verdicts_identical_across_codecs(self, server, index):
        queries = self._sample_queries(index)
        with ReputationClient(*server.address, codec="json") as jc, \
                ReputationClient(*server.address, codec="binary") as bc:
            assert bc.codec == "binary"
            json_verdicts = jc.query_batch(queries)
            binary_verdicts = bc.query_batch(queries)
        assert json_verdicts == binary_verdicts

    def test_point_verdicts_identical_across_codecs(self, server, index):
        ip = next(
            iter(sorted(ip for ip, _ in index.interval_items())),
            0x01020304,
        )
        with ReputationClient(*server.address, codec="json") as jc, \
                ReputationClient(*server.address, codec="binary") as bc:
            assert jc.query(ip) == bc.query(ip)
            assert jc.query(int_to_ip(ip)) == bc.query(int_to_ip(ip))

    def test_pipelined_equals_sequential_on_both_codecs(
        self, server, index
    ):
        queries = self._sample_queries(index)
        batches = [queries[i::4] for i in range(4)]
        for codec in ("json", "binary"):
            with ReputationClient(*server.address, codec=codec) as c:
                sequential = [c.query_batch(b) for b in batches]
                pipelined = c.query_batch_pipelined(batches, window=3)
            assert pipelined == sequential

    def test_error_strings_identical_across_codecs(self, server):
        errors = {}
        for codec in ("json", "binary"):
            with ReputationClient(*server.address, codec=codec) as c:
                got = []
                for bad in (
                    {"op": "nope"},
                    {"op": "query", "ip": "not-an-ip"},
                    {"op": "query", "ip": "1.2.3.4", "day": "x"},
                    {"op": "batch", "queries": "zz"},
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        c.call(bad)
                    got.append(str(excinfo.value))
                errors[codec] = got
        assert errors["json"] == errors["binary"]

    def test_binary_batch_fallback_for_unpackable_values(self, server):
        """A query the packed layout cannot carry (a day outside i32)
        must travel the JSON shape transparently — same verdict as a
        JSON connection, not a client-side error."""
        queries = [("1.2.3.4", 2**40), ("1.2.3.4", None)]
        with ReputationClient(*server.address, codec="json") as jc, \
                ReputationClient(*server.address, codec="binary") as bc:
            assert jc.query_batch(queries) == bc.query_batch(queries)


class TestPackedPathCounters:
    """The packed binary path counts every query it serves once per
    batch, packed-cache hits included, on both families."""

    @pytest.fixture(scope="class")
    def v6_index(self):
        from repro.adversary import scenario_index
        from repro.v6serve import HitlistV6Model

        return scenario_index(HitlistV6Model().build(3))

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_every_query_counted(self, name, index, v6_index):
        codec = CODECS[name]
        served = index if codec.family is V4 else v6_index
        base = 0x0A000000 if codec.family is V4 else codec.ip
        batches = [
            [(base + 50 * row + col, None) for col in range(50)]
            for row in range(10)
        ]
        srv = ReputationServer(QueryEngine(served), connection_timeout=5.0)
        srv.start()
        try:
            with ReputationClient(
                *srv.address, codec="binary", family=codec.family
            ) as client:
                for _ in range(2):  # the second pass is fully cached
                    for batch in batches:
                        assert len(client.query_batch(batch)) == 50
                counters = client.stats()["queries"]
        finally:
            srv.shutdown()
        assert counters["batch"]["calls"] == 20
        assert counters["batch"]["queries"] == 1000
        assert counters["batch"]["cache_hits"] == 500


class TestMixedFleets:
    @pytest.fixture(scope="class")
    def fleet_index(self, small_full_run):
        return ReputationIndex.from_run(small_full_run)

    @pytest.mark.parametrize("backend_codec", ["json", "binary"])
    def test_router_matrix_serves_identical_verdicts(
        self, fleet_index, backend_codec
    ):
        """binary/JSON downstream × binary/JSON upstream: all four
        paths yield the same verdicts as a direct single server."""
        ips = sorted(
            ip for ip, _ in fleet_index.interval_items()
        )[:40] or [0x01020304]
        queries = [(ip, None) for ip in ips]
        with ReputationServer(QueryEngine(fleet_index)) as direct:
            direct.start()
            with ReputationClient(
                *direct.address, codec="json"
            ) as reference_client:
                reference = reference_client.query_batch(queries)
        with LocalCluster(
            fleet_index,
            shards=3,
            heartbeat_interval=0.2,
            backend_codec=backend_codec,
        ) as cluster:
            assert cluster.router.wait_healthy(timeout=10.0)
            for codec in ("json", "binary"):
                with ReputationClient(
                    *cluster.address, codec=codec
                ) as client:
                    assert client.codec == codec
                    assert client.query_batch(queries) == reference
                    assert (
                        client.query(ips[0]) == reference[0]
                    )

    def test_json_fleet_degrades_identically(self, fleet_index):
        """Shard-down degradation has the same wire shape whatever the
        upstream codec speaks."""
        ips = sorted(
            ip for ip, _ in fleet_index.interval_items()
        )[:20] or [0x01020304]
        queries = [(ip, None) for ip in ips]
        shapes = {}
        for backend_codec in ("json", "binary"):
            with LocalCluster(
                fleet_index,
                shards=3,
                heartbeat_interval=0.2,
                backend_codec=backend_codec,
            ) as cluster:
                assert cluster.router.wait_healthy(timeout=10.0)
                cluster.kill_primary(1)
                with ReputationClient(
                    *cluster.address, codec="binary"
                ) as client:
                    shapes[backend_codec] = client.query_batch(queries)
        assert shapes["json"] == shapes["binary"]
        degraded = [
            v for v in shapes["binary"] if v.get("error")
        ]
        assert all(v["error"] == "SHARD_UNAVAILABLE" for v in degraded)
        assert all(v["shard"] == 1 for v in degraded)


class TestBackpressure:
    """A peer that pipelines requests without draining replies must
    not grow the server's buffers without bound: reads pause at the
    high-water mark and resume once the queues drain, with no reply
    lost either way."""

    def test_flood_pauses_reads_then_resumes(self):
        import selectors
        import time

        from repro.service.aio import WireServer
        from repro.service.wire import decode_frame, encode_frame

        held = []

        def handler(conn, slot, kind, data):
            held.append(slot)  # completed later, from the test

        server = WireServer(handler)
        server.slot_high_water = 8
        server.slot_low_water = 2
        address = server.start()

        def snapshot():
            # Loop-owned state is read on the loop thread, in one go,
            # so the test never sees a half-applied pause.
            seen = {}

            def take():
                conns = list(server._conns.values())
                conn = conns[0] if conns else None
                seen["paused"] = conn is not None and conn.paused
                seen["events"] = conn.events if conn is not None else 0
                seen["held"] = len(held)

            server.reactor.run_sync(take)
            return seen

        try:
            with socket.create_connection(address, timeout=5.0) as sock:
                frame = encode_frame({"op": "ping"})
                sock.sendall(frame * 40)
                deadline = time.monotonic() + 5.0
                state = snapshot()
                while not state["paused"] and time.monotonic() < deadline:
                    time.sleep(0.01)
                    state = snapshot()
                assert state["paused"], "server never paused reads"
                assert not (state["events"] & selectors.EVENT_READ)

                # While paused, a second flood must sit unread in the
                # kernel, not in server memory.
                parsed = state["held"]
                assert parsed >= 8
                sock.sendall(frame * 40)
                time.sleep(0.3)
                assert snapshot()["held"] == parsed

                # Draining the held slots resumes reads; every one of
                # the 80 requests must eventually be answered.
                def complete_all():
                    for slot in list(held):
                        slot.complete({"ok": True, "result": "pong"})
                    held.clear()

                sock.settimeout(5.0)
                got = 0
                buf = bytearray()
                while got < 80:
                    server.reactor.call_soon(complete_all)
                    data = sock.recv(65536)
                    assert data, "server closed mid-drain"
                    buf += data
                    while True:
                        decoded = decode_frame(buf)
                        if decoded is None:
                            break
                        reply, consumed = decoded
                        del buf[:consumed]
                        assert reply == {"ok": True, "result": "pong"}
                        got += 1
                assert got == 80
        finally:
            server.shutdown()
