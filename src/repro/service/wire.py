"""Framing and codecs for the reputation service's TCP protocol.

Two codecs share one connection model:

**JSON framing** (protocol version 1, the universal fallback): every
message — request or reply — is one *frame*, a 4-byte big-endian
unsigned payload length followed by that many bytes of UTF-8 JSON.

**Binary framing** (negotiated via the ``hello`` handshake, see
:mod:`repro.service.server`): a 10-byte header —

====== ===== ==========================================
offset bytes meaning
====== ===== ==========================================
0      1     magic (:data:`BINARY_MAGIC`)
1      1     frame type (:data:`FT_MSG` / :data:`FT_BATCH_REQ` /
             :data:`FT_BATCH_REP` / :data:`FT_BATCH_REQ6` /
             :data:`FT_BATCH_REP6`)
2      4     request id (big-endian u32; pipelined peers match
             replies to requests by this id)
6      4     payload length (big-endian u32)
====== ===== ==========================================

The frame type is the address-family tag: ``FT_BATCH_REQ``/``REP``
carry 32-bit addresses exactly as they always did (old frames stay
byte-compatible), ``FT_BATCH_REQ6``/``REP6`` the same layouts with a
16-byte address slot. The declarations :data:`REQUEST_LAYOUT`,
:data:`VERDICT_LAYOUT` and :data:`DEGRADED_LAYOUT` are the single
definition of each batch record format; :data:`BATCH_CODECS` builds
one :class:`BatchCodec` per address family from them.

— followed by the payload.  ``FT_MSG`` payloads carry one
JSON-equivalent value in a compact tagged encoding (same data model as
the JSON codec: None/bool/int/float/str/list/str-keyed dict — both
directions of the iterative work-stack technique follow
:mod:`repro.bittorrent.bencode`).  ``FT_BATCH_REQ``/``FT_BATCH_REP``
carry the hot batch path as packed fixed-layout records so neither
side builds or parses per-verdict dicts: this, plus pipelining, is
where the serving plane's throughput comes from.

Explicit limits keep a hostile peer from holding memory hostage: a
frame longer than :data:`MAX_FRAME_BYTES` (or empty) is rejected
before any payload is read, in both codecs.

Errors are split by whether the byte stream is still usable:

* a well-framed payload that fails to decode (bad UTF-8, bad JSON,
  bad tag) is *recoverable* — the stream is still in sync and the
  server answers with an error reply;
* a framing violation (absurd length, bad magic, connection cut
  inside a declared payload) is *not* — there is no way to find the
  next frame boundary, so the connection must be dropped;
* a connection torn inside a frame *header* is recoverable: no frame
  was ever promised, so a pipelined reader treats it as end-of-stream
  rather than a protocol crime (a half-written header from a dying
  peer must not kill the reader).

:class:`WireError.recoverable` carries that distinction
(:class:`FrameError` is the historical name, kept as an alias).
"""

from __future__ import annotations

import json
import operator
import struct
from functools import lru_cache
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..ipv6.addr6 import int_to_ip6
from ..net.family import V4, V6, AddressFamily
from ..net.ipv4 import int_to_ip

__all__ = [
    "BATCH_CODECS",
    "BINARY_MAGIC",
    "BatchCodec",
    "FT_BATCH_REP",
    "FT_BATCH_REP6",
    "FT_BATCH_REQ",
    "FT_BATCH_REQ6",
    "FT_MSG",
    "FrameError",
    "MAX_FRAME_BYTES",
    "WireError",
    "WireSocket",
    "decode_batch_reply",
    "decode_batch_reply6",
    "decode_batch_request",
    "decode_batch_request6",
    "decode_binary_frame",
    "decode_frame",
    "decode_msg_payload",
    "decode_record",
    "decode_record6",
    "encode_batch_reply_frame",
    "encode_batch_request",
    "encode_batch_request6",
    "encode_binary_frame",
    "encode_frame",
    "encode_msg_frame",
    "encode_msg_payload",
    "pack_degraded",
    "pack_verdict",
    "pack_verdict6",
    "pack_verdict_wire",
    "recv_binary_frame",
    "recv_frame",
    "send_frame",
    "split_batch_reply",
]

#: Hard ceiling on one frame's payload (1 MiB — a 10K-query batch
#: fits with room to spare; nothing legitimate comes close). Applies
#: to both the JSON and the binary codec.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")


class WireSocket(Protocol):
    """The slice of the socket API the codec needs — real sockets and
    test doubles both satisfy it structurally."""

    def sendall(self, data: bytes) -> None: ...

    def recv(self, bufsize: int) -> bytes: ...


class WireError(ValueError):
    """A frame violated the protocol.

    ``recoverable`` is True when the byte stream is still in sync (the
    peer can be answered and the connection kept) or already at an end
    (peer cut mid-frame — nothing left to resynchronise); False when
    framing itself broke mid-stream and the connection must be closed.
    """

    def __init__(self, message: str, *, recoverable: bool = False) -> None:
        super().__init__(message)
        self.recoverable = recoverable
        #: For buffered parsers: bytes consumed up to the frame
        #: boundary where the stream resynchronises, when known.
        self.consumed: Optional[int] = None


#: Historical name for :class:`WireError` — the JSON-only codec called
#: every violation a framing error.
FrameError = WireError


def encode_frame(obj: Any, *, max_size: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise ``obj`` into one wire frame (header + JSON payload)."""
    try:
        payload = json.dumps(
            obj, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"unserialisable message: {exc}") from None
    _check_payload_size(len(payload), max_size)
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload: bytes, max_size: int) -> Any:
    # Both callers check the declared length before reading; this bound
    # keeps the decoder safe even if a new call site forgets to.
    _check_payload_size(len(payload), max_size)
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(
            f"undecodable frame payload: {exc}", recoverable=True
        ) from None


def decode_frame(
    buffer: bytes, *, max_size: int = MAX_FRAME_BYTES
) -> Optional[Tuple[Any, int]]:
    """Decode the first complete frame of ``buffer``.

    Returns ``(message, bytes_consumed)``, or ``None`` when the buffer
    holds only an incomplete frame so far (read more and retry).
    Raises :class:`FrameError` on violations.
    """
    if len(buffer) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buffer)
    _check_length(length, max_size)
    end = _HEADER.size + length
    if len(buffer) < end:
        return None
    try:
        return _decode_payload(buffer[_HEADER.size : end], max_size), end
    except WireError as exc:
        # The boundary held even though the payload did not decode; a
        # buffered parser can skip to ``end`` and stay on the stream.
        exc.consumed = end
        raise


def _check_payload_size(size: int, max_size: int) -> None:
    if size > max_size:
        raise WireError(
            f"frame payload of {size} bytes exceeds the {max_size}-byte limit"
        )


def _check_length(length: int, max_size: int) -> None:
    if length == 0:
        raise FrameError("empty frame payload")
    if length > max_size:
        raise FrameError(
            f"declared frame length {length} exceeds the "
            f"{max_size}-byte limit"
        )


def send_frame(
    sock: WireSocket, obj: Any, *, max_size: int = MAX_FRAME_BYTES
) -> None:
    """Encode ``obj`` and write the full frame to ``sock``."""
    sock.sendall(encode_frame(obj, max_size=max_size))


def _recv_exact(sock: WireSocket, count: int) -> bytes:
    """Read exactly ``count`` bytes; short result means EOF hit.

    Partial reads are accumulated until the count is met, and
    ``EINTR`` is retried explicitly: PEP 475 covers the common case,
    but a signal handler that raises on an exotic platform (or a test
    double that surfaces ``InterruptedError``) must not be confused
    with EOF mid-frame.
    """
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 16))
        except InterruptedError:
            continue
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: WireSocket, *, max_size: int = MAX_FRAME_BYTES
) -> Optional[Any]:
    """Read one frame from ``sock``.

    Returns the decoded message, or ``None`` on a clean EOF at a frame
    boundary (the peer hung up between requests). Raises
    :class:`WireError` when the connection dies mid-frame or the frame
    violates the limits; a cut inside the 4-byte header is the
    *recoverable* variant (end-of-stream, not a framing crime).
    """
    header = _recv_exact(sock, _HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise WireError(
            "connection closed inside a frame header", recoverable=True
        )
    (length,) = _HEADER.unpack(header)
    _check_length(length, max_size)
    payload = _recv_exact(sock, length)
    if len(payload) < length:
        raise WireError(
            f"connection closed {length - len(payload)} bytes short of "
            "a full frame"
        )
    return _decode_payload(payload, max_size)


# --------------------------------------------------------------------------
# Binary codec (protocol version 2, negotiated via ``hello``)
# --------------------------------------------------------------------------

#: First byte of every binary frame. A JSON frame's first byte is the
#: high octet of a length below MAX_FRAME_BYTES — always 0x00 — so the
#: magic also disambiguates a stream whose codec state was lost.
BINARY_MAGIC = 0xB1

#: Frame types: a generic tagged message, a packed batch request, and
#: a packed batch reply — the latter two in a 32-bit (v4) and a
#: 128-bit (v6) flavour; the type doubles as the family tag.
FT_MSG = 0
FT_BATCH_REQ = 1
FT_BATCH_REP = 2
FT_BATCH_REQ6 = 3
FT_BATCH_REP6 = 4

_BIN_HEADER = struct.Struct(">BBII")  # magic, ftype, request_id, length
BIN_HEADER_SIZE = _BIN_HEADER.size

# Tagged-value encoding for FT_MSG payloads. Same data model as JSON.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT64 = 0x03  # >q
_T_BIGINT = 0x04  # u32 length + ASCII decimal digits
_T_FLOAT = 0x05  # >d, non-finite rejected (JSON parity)
_T_SSTR = 0x06  # u8 length + UTF-8
_T_STR = 0x07  # u32 length + UTF-8
_T_LIST = 0x08  # u32 count, then count values
_T_DICT = 0x09  # u32 count, then count (str key, value) pairs

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_Q = struct.Struct(">q")
_D = struct.Struct(">d")
_U32 = struct.Struct(">I")


def encode_msg_payload(obj: Any, *, max_size: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one JSON-model value into the tagged binary form.

    Raises the non-recoverable :class:`WireError` on unserialisable
    values (same contract as :func:`encode_frame`: our bug, not the
    peer's).
    """
    out = bytearray()
    stack: List[Any] = [obj]
    while stack:
        item = stack.pop()
        kind = type(item)
        if item is None:
            out.append(_T_NONE)
        elif kind is bool:
            out.append(_T_TRUE if item else _T_FALSE)
        elif kind is int:
            if _I64_MIN <= item <= _I64_MAX:
                out.append(_T_INT64)
                out += _Q.pack(item)
            else:
                digits = str(item).encode("ascii")
                out.append(_T_BIGINT)
                out += _U32.pack(len(digits))
                out += digits
        elif kind is float:
            if item != item or item in (float("inf"), float("-inf")):
                raise WireError(f"unserialisable message: non-finite {item!r}")
            out.append(_T_FLOAT)
            out += _D.pack(item)
        elif kind is str:
            raw = item.encode("utf-8")
            if len(raw) < 256:
                out.append(_T_SSTR)
                out.append(len(raw))
            else:
                out.append(_T_STR)
                out += _U32.pack(len(raw))
            out += raw
        elif kind is list or kind is tuple:
            out.append(_T_LIST)
            out += _U32.pack(len(item))
            stack.extend(reversed(item))
        elif kind is dict:
            out.append(_T_DICT)
            out += _U32.pack(len(item))
            for key, value in reversed(list(item.items())):
                if type(key) is not str:
                    raise WireError(
                        f"unserialisable message: non-str key {key!r}"
                    )
                stack.append(value)
                stack.append(key)
        elif isinstance(item, dict):
            stack.append(dict(item))  # subclass: re-dispatch on the base
        elif isinstance(item, (list, tuple)):
            stack.append(list(item))
        elif isinstance(item, str):
            stack.append(str(item))
        elif isinstance(item, float):
            stack.append(float(item))
        elif isinstance(item, int):
            stack.append(int(item))
        else:
            raise WireError(f"unserialisable message: {kind.__name__}")
        _check_payload_size(len(out), max_size)
    return bytes(out)


def _need(payload: bytes, pos: int, count: int) -> None:
    if pos + count > len(payload):
        raise WireError("truncated binary message payload", recoverable=True)


def decode_msg_payload(
    payload: bytes, *, max_size: int = MAX_FRAME_BYTES
) -> Any:
    """Decode one tagged binary value; inverse of
    :func:`encode_msg_payload`.

    Every malformation raises the *recoverable* :class:`WireError` —
    the frame boundary was already known, so the stream stays in sync.
    """
    _check_payload_size(len(payload), max_size)
    size = len(payload)
    pos = 0
    # Container frames: [is_dict, remaining_count, container, pending_key]
    frames: List[List[Any]] = []
    root: Any = None
    have_root = False
    while True:
        _need(payload, pos, 1)
        tag = payload[pos]
        pos += 1
        value: Any
        opened = False
        if tag == _T_NONE:
            value = None
        elif tag == _T_TRUE:
            value = True
        elif tag == _T_FALSE:
            value = False
        elif tag == _T_INT64:
            _need(payload, pos, 8)
            (value,) = _Q.unpack_from(payload, pos)
            pos += 8
        elif tag == _T_BIGINT:
            _need(payload, pos, 4)
            (length,) = _U32.unpack_from(payload, pos)
            pos += 4
            _need(payload, pos, length)
            digits = payload[pos : pos + length]
            pos += length
            try:
                value = int(digits.decode("ascii"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise WireError(
                    f"undecodable bigint: {exc}", recoverable=True
                ) from None
        elif tag == _T_FLOAT:
            _need(payload, pos, 8)
            (value,) = _D.unpack_from(payload, pos)
            pos += 8
        elif tag == _T_SSTR or tag == _T_STR:
            if tag == _T_SSTR:
                _need(payload, pos, 1)
                length = payload[pos]
                pos += 1
            else:
                _need(payload, pos, 4)
                (length,) = _U32.unpack_from(payload, pos)
                pos += 4
            _need(payload, pos, length)
            try:
                value = payload[pos : pos + length].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(
                    f"undecodable string: {exc}", recoverable=True
                ) from None
            pos += length
        elif tag == _T_LIST or tag == _T_DICT:
            _need(payload, pos, 4)
            (count,) = _U32.unpack_from(payload, pos)
            pos += 4
            # Each element needs at least one tag byte (two for a
            # dict's key+value) — bound count by the bytes remaining.
            if count > (size - pos):
                raise WireError(
                    "binary container declares more elements than the "
                    "payload can hold",
                    recoverable=True,
                )
            if tag == _T_LIST:
                value = []
                if count:
                    frames.append([False, count, value, None])
                    opened = True
            else:
                value = {}
                if count:
                    frames.append([True, count, value, None])
                    opened = True
        else:
            raise WireError(
                f"unknown binary tag 0x{tag:02x}", recoverable=True
            )
        if opened:
            continue
        # ``value`` is complete: attach it upward, popping any
        # containers it completes.
        while True:
            if not frames:
                root = value
                have_root = True
                break
            frame = frames[-1]
            if frame[0]:
                if frame[3] is None:
                    if type(value) is not str:
                        raise WireError(
                            "binary dict key is not a string",
                            recoverable=True,
                        )
                    frame[3] = value
                    break
                frame[2][frame[3]] = value
                frame[3] = None
            else:
                frame[2].append(value)
            frame[1] -= 1
            if frame[1]:
                break
            frames.pop()
            value = frame[2]
        if have_root:
            break
    if pos != size:
        raise WireError(
            f"{size - pos} trailing bytes after binary message",
            recoverable=True,
        )
    return root


def encode_binary_frame(
    ftype: int,
    request_id: int,
    payload: bytes,
    *,
    max_size: int = MAX_FRAME_BYTES,
) -> bytes:
    """Wrap ``payload`` in a binary frame header."""
    if not payload:
        raise WireError("empty frame payload")
    _check_payload_size(len(payload), max_size)
    return (
        _BIN_HEADER.pack(
            BINARY_MAGIC, ftype, request_id & 0xFFFFFFFF, len(payload)
        )
        + payload
    )


def encode_msg_frame(
    obj: Any, request_id: int = 0, *, max_size: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialise ``obj`` into one complete FT_MSG frame."""
    return encode_binary_frame(
        FT_MSG,
        request_id,
        encode_msg_payload(obj, max_size=max_size),
        max_size=max_size,
    )


def decode_binary_frame(
    buffer: bytes, *, max_size: int = MAX_FRAME_BYTES
) -> Optional[Tuple[int, int, bytes, int]]:
    """Decode the first complete binary frame of ``buffer``.

    Returns ``(frame_type, request_id, payload, bytes_consumed)``, or
    ``None`` while the buffer holds only an incomplete frame. The
    payload is *not* interpreted — the caller dispatches on the frame
    type (and can answer an unknown type without losing sync, because
    the length was valid). Framing violations (bad magic, bad length)
    raise the fatal :class:`WireError`.
    """
    if len(buffer) < BIN_HEADER_SIZE:
        return None
    magic, ftype, request_id, length = _BIN_HEADER.unpack_from(buffer)
    if magic != BINARY_MAGIC:
        raise WireError(f"bad frame magic 0x{magic:02x}")
    _check_length(length, max_size)
    end = BIN_HEADER_SIZE + length
    if len(buffer) < end:
        return None
    return ftype, request_id, bytes(buffer[BIN_HEADER_SIZE:end]), end


def recv_binary_frame(
    sock: WireSocket, *, max_size: int = MAX_FRAME_BYTES
) -> Optional[Tuple[int, int, bytes]]:
    """Read one binary frame from a blocking socket.

    Returns ``(frame_type, request_id, payload)``, ``None`` on clean
    EOF at a frame boundary, and raises :class:`WireError` otherwise —
    recoverable when the connection died inside the header, fatal when
    the framing itself is wrong.
    """
    header = _recv_exact(sock, BIN_HEADER_SIZE)
    if not header:
        return None
    if len(header) < BIN_HEADER_SIZE:
        raise WireError(
            "connection closed inside a frame header", recoverable=True
        )
    magic, ftype, request_id, length = _BIN_HEADER.unpack(header)
    if magic != BINARY_MAGIC:
        raise WireError(f"bad frame magic 0x{magic:02x}")
    _check_length(length, max_size)
    payload = _recv_exact(sock, length)
    if len(payload) < length:
        raise WireError(
            f"connection closed {length - len(payload)} bytes short of "
            "a full frame"
        )
    return ftype, request_id, payload


# -- packed batch records ---------------------------------------------------
#
# Each layout is declared once, with an ``{ip}`` slot for the address.

#: Record kinds inside a batch-reply payload.
REC_VERDICT = 0
REC_DEGRADED = 1

#: ip, has_day, day
REQUEST_LAYOUT = ">{ip}Bi"
#: kind, ip, day, flags, action, reuse_kind, users, asn, epoch, seq,
#: n_lists — then n_lists (u8 length, UTF-8 list id) pairs.
VERDICT_LAYOUT = ">B{ip}iBBBIIIQB"
#: kind, ip, has_day, day, shard — then a u8 length and UTF-8 error.
DEGRADED_LAYOUT = ">B{ip}BiI"

_FLAG_LISTED = 1
_FLAG_NATED = 2
_FLAG_DYNAMIC = 4
_FLAG_UNJUST = 8

_ACTION_TO_CODE = {"ignore": 0, "greylist": 1, "block": 2}
_CODE_TO_ACTION = {v: k for k, v in _ACTION_TO_CODE.items()}
_REUSE_TO_CODE = {"": 0, "nat": 1, "dynamic": 2, "nat+dynamic": 3}
_CODE_TO_REUSE = {v: k for k, v in _REUSE_TO_CODE.items()}

Pairs = List[Tuple[int, Optional[int]]]
#: A decoded record's wire dict and the offset just past it.
Decoded = Tuple[Dict[str, Any], int]


def _ip6_raw(ip: int) -> bytes:
    try:
        return ip.to_bytes(16, "big")
    except (AttributeError, OverflowError) as exc:
        raise WireError(
            f"not a v6-packable address: {ip!r} ({exc})", recoverable=True
        ) from None


def _raw6_to_int(raw: bytes) -> int:
    return int.from_bytes(raw, "big")


def _raw6_to_text(raw: bytes) -> str:
    return int_to_ip6(int.from_bytes(raw, "big"))


def _packer(
    layout: struct.Struct, template: str, to_raw: Optional[Callable[[int], Any]]
) -> Callable[..., bytes]:
    """``layout.pack`` taking the record's address slot as an int."""
    pack = layout.pack
    if to_raw is None:
        return pack  # the slot packs an int natively
    # The address is a layout's first field or follows its kind byte.
    if template.startswith(">{ip}"):
        return lambda ip, *rest: pack(to_raw(ip), *rest)
    return lambda head, ip, *rest: pack(head, to_raw(ip), *rest)


def _truncated_record() -> WireError:
    return WireError("truncated batch reply record", recoverable=True)


class BatchCodec:
    """The packed batch path of one address family: its frame types,
    the batch layouts compiled with its address slot, the converters
    between that slot and an int or text address, and the one set of
    batch encode/decode functions both families share."""

    __slots__ = ("family", "request_type", "reply_type", "_request",
                 "_verdict", "_degraded", "_pack_request", "_pack_verdict",
                 "_pack_degraded", "_ip_int", "_ip_text")

    def __init__(
        self,
        family: AddressFamily,
        request_type: int,
        reply_type: int,
        *,
        slot: str,
        to_raw: Optional[Callable[[int], Any]],
        to_int: Callable[[Any], int],
        to_text: Callable[[Any], str],
    ) -> None:
        self.family = family
        self.request_type = request_type
        self.reply_type = reply_type
        self._request = struct.Struct(REQUEST_LAYOUT.format(ip=slot))
        self._verdict = struct.Struct(VERDICT_LAYOUT.format(ip=slot))
        self._degraded = struct.Struct(DEGRADED_LAYOUT.format(ip=slot))
        self._pack_request = _packer(self._request, REQUEST_LAYOUT, to_raw)
        self._pack_verdict = _packer(self._verdict, VERDICT_LAYOUT, to_raw)
        self._pack_degraded = _packer(self._degraded, DEGRADED_LAYOUT, to_raw)
        self._ip_int = to_int
        self._ip_text = lru_cache(maxsize=1 << 16)(to_text)

    # -- requests -------------------------------------------------------

    def encode_request(
        self, pairs: Pairs, request_id: int, *, max_size: int = MAX_FRAME_BYTES
    ) -> bytes:
        """Pack ``(ip_int, day_or_None)`` pairs into one batch-request
        frame.

        Raises the recoverable :class:`WireError` when a value does not
        fit the packed layout (caller falls back to an FT_MSG batch).
        """
        parts = [_U32.pack(len(pairs))]
        pack = self._pack_request
        try:
            for ip, day in pairs:
                parts.append(pack(ip, 0, 0) if day is None else pack(ip, 1, day))
        except struct.error as exc:
            raise WireError(
                f"batch not binary-packable: {exc}", recoverable=True
            ) from None
        return encode_binary_frame(
            self.request_type, request_id, b"".join(parts), max_size=max_size
        )

    def decode_request(self, payload: bytes) -> Pairs:
        """Unpack a batch-request payload into ``(ip, day_or_None)``
        pairs."""
        if len(payload) < 4:
            raise WireError("truncated batch request", recoverable=True)
        (count,) = _U32.unpack_from(payload)
        if len(payload) != 4 + count * self._request.size:
            raise WireError(
                "batch request length does not match its declared count",
                recoverable=True,
            )
        pairs: Pairs = []
        append = pairs.append
        to_int = self._ip_int
        for raw, has_day, day in self._request.iter_unpack(
            memoryview(payload)[4:]
        ):
            if has_day > 1:
                raise WireError(
                    f"bad has_day flag {has_day} in batch request",
                    recoverable=True,
                )
            append((to_int(raw), day if has_day else None))
        return pairs

    # -- reply records --------------------------------------------------

    def pack_verdict(self, verdict: Any) -> bytes:
        """Pack one engine :class:`~repro.service.engine.Verdict` (any
        object with its attributes) into a batch-reply record."""
        action_code = _ACTION_TO_CODE.get(verdict.action)
        reuse_code = _REUSE_TO_CODE.get(verdict.reuse_kind)
        if action_code is None or reuse_code is None:
            raise WireError(
                f"verdict not binary-packable: action={verdict.action!r} "
                f"reuse_kind={verdict.reuse_kind!r}",
                recoverable=True,
            )
        flags = (
            (_FLAG_LISTED if verdict.listed else 0)
            | (_FLAG_NATED if verdict.nated else 0)
            | (_FLAG_DYNAMIC if verdict.dynamic else 0)
            | (_FLAG_UNJUST if verdict.unjust else 0)
        )
        lists = verdict.lists
        try:
            head = self._pack_verdict(
                REC_VERDICT, verdict.ip, verdict.day, flags, action_code,
                reuse_code, verdict.users, verdict.asn, verdict.epoch,
                verdict.seq, len(lists),
            )
        except struct.error as exc:
            raise WireError(
                f"verdict not binary-packable: {exc}", recoverable=True
            ) from None
        if not lists:
            return head
        parts = [head]
        for list_id in lists:
            raw = str(list_id).encode("utf-8")
            if len(raw) > 255:
                raise WireError(
                    "verdict not binary-packable: list id of "
                    f"{len(raw)} bytes",
                    recoverable=True,
                )
            parts.append(bytes((len(raw),)))
            parts.append(raw)
        return b"".join(parts)

    def pack_verdict_wire(self, entry: Dict[str, Any]) -> bytes:
        """Pack a verdict already in wire-dict form (text address) into
        a batch-reply record — the Router's JSON-upstream →
        binary-downstream conversion."""
        try:
            return self.pack_verdict(
                SimpleNamespace(
                    ip=self.family.parse(entry["ip"]), day=entry["day"],
                    listed=entry["listed"], lists=entry["lists"],
                    nated=entry["nated"], dynamic=entry["dynamic"],
                    unjust=entry["unjust"], reuse_kind=entry["reuse_kind"],
                    users=entry["users"], asn=entry["asn"],
                    action=entry["action"], epoch=entry["epoch"],
                    seq=entry["seq"],
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, WireError):
                raise
            raise WireError(
                f"verdict not binary-packable: {exc}", recoverable=True
            ) from None

    def pack_degraded(
        self, ip: int, day: Optional[int], shard: int, error: str
    ) -> bytes:
        """Pack one degraded (shard-unavailable) batch-reply record."""
        raw = error.encode("utf-8")[:255]
        try:
            head = self._pack_degraded(
                REC_DEGRADED, ip, 0 if day is None else 1,
                0 if day is None else day, shard,
            )
        except struct.error as exc:
            raise WireError(
                f"degraded entry not binary-packable: {exc}",
                recoverable=True,
            ) from None
        return head + bytes((len(raw),)) + raw

    def encode_reply_frame(
        self, records: List[bytes], request_id: int, *,
        max_size: int = MAX_FRAME_BYTES,
    ) -> bytes:
        """Assemble packed records into one batch-reply frame."""
        payload = _U32.pack(len(records)) + b"".join(records)
        return encode_binary_frame(
            self.reply_type, request_id, payload, max_size=max_size
        )

    # -- reply decoding -------------------------------------------------

    def split_reply(self, payload: bytes) -> List[bytes]:
        """Slice a batch-reply payload into its raw records, validated
        but not decoded — the Router merges shard replies by
        concatenating these slices without ever building verdict
        dicts."""
        if len(payload) < 4:
            raise WireError("truncated batch reply", recoverable=True)
        (count,) = _U32.unpack_from(payload)
        size = len(payload)
        verdict_size = self._verdict.size
        degraded_size = self._degraded.size
        records: List[bytes] = []
        pos = 4
        for _ in range(count):
            _need(payload, pos, 1)
            kind = payload[pos]
            if kind == REC_VERDICT:
                _need(payload, pos, verdict_size)
                end = pos + verdict_size
                for _ in range(payload[end - 1]):
                    _need(payload, end, 1)
                    end += 1 + payload[end]
            elif kind == REC_DEGRADED:
                _need(payload, pos, degraded_size)
                end = pos + degraded_size
                _need(payload, end, 1)
                end += 1 + payload[end]
            else:
                raise WireError(
                    f"unknown batch record kind {kind}", recoverable=True
                )
            if end > size:
                raise _truncated_record()
            records.append(payload[pos:end])
            pos = end
        if pos != size:
            raise WireError(
                f"{size - pos} trailing bytes after batch reply",
                recoverable=True,
            )
        return records

    def _decode_verdict(self, payload: bytes, pos: int) -> Decoded:
        if pos + self._verdict.size > len(payload):
            raise _truncated_record()
        (
            _kind, ip, day, flags, action_code, reuse_code,
            users, asn, epoch, seq, n_lists,
        ) = self._verdict.unpack_from(payload, pos)
        pos += self._verdict.size
        lists: List[str] = []
        size = len(payload)
        for _ in range(n_lists):
            if pos >= size:
                raise _truncated_record()
            length = payload[pos]
            pos += 1
            if pos + length > size:
                raise _truncated_record()
            try:
                lists.append(payload[pos : pos + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise WireError(
                    f"undecodable list id: {exc}", recoverable=True
                ) from None
            pos += length
        action = _CODE_TO_ACTION.get(action_code)
        reuse_kind = _CODE_TO_REUSE.get(reuse_code)
        if action is None or reuse_kind is None:
            raise WireError(
                f"bad verdict codes action={action_code} reuse={reuse_code}",
                recoverable=True,
            )
        entry = {
            "ip": self._ip_text(ip),
            "day": day,
            "listed": bool(flags & _FLAG_LISTED),
            "lists": lists,
            "nated": bool(flags & _FLAG_NATED),
            "dynamic": bool(flags & _FLAG_DYNAMIC),
            "unjust": bool(flags & _FLAG_UNJUST),
            "reuse_kind": reuse_kind,
            "users": users,
            "asn": asn,
            "action": action,
            "epoch": epoch,
            "seq": seq,
        }
        return entry, pos

    def _decode_degraded(self, payload: bytes, pos: int) -> Decoded:
        if pos + self._degraded.size > len(payload):
            raise _truncated_record()
        _kind, ip, has_day, day, shard = self._degraded.unpack_from(
            payload, pos
        )
        pos += self._degraded.size
        size = len(payload)
        if pos >= size:
            raise _truncated_record()
        length = payload[pos]
        pos += 1
        if pos + length > size:
            raise _truncated_record()
        try:
            error = payload[pos : pos + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(
                f"undecodable error text: {exc}", recoverable=True
            ) from None
        pos += length
        entry = {
            "ip": self._ip_text(ip),
            "day": day if has_day else None,
            "error": error,
            "shard": shard,
        }
        return entry, pos

    def _decode_at(self, payload: bytes, pos: int) -> Decoded:
        kind = payload[pos]
        if kind == REC_VERDICT:
            return self._decode_verdict(payload, pos)
        if kind == REC_DEGRADED:
            return self._decode_degraded(payload, pos)
        raise WireError(f"unknown batch record kind {kind}", recoverable=True)

    def decode_record(self, record: bytes) -> Dict[str, Any]:
        """Decode one packed record (a :meth:`split_reply` slice) into
        its wire dict — the Router's binary-upstream → JSON-downstream
        conversion."""
        if not record:
            raise WireError("empty batch record", recoverable=True)
        entry, pos = self._decode_at(record, 0)
        if pos != len(record):
            raise WireError(
                f"{len(record) - pos} trailing bytes after batch record",
                recoverable=True,
            )
        return entry

    def decode_reply(self, payload: bytes) -> List[Dict[str, Any]]:
        """Decode a batch-reply payload into the same wire dicts the
        JSON codec produces — field-for-field equal, so clients cannot
        tell the codecs apart by content."""
        if len(payload) < 4:
            raise WireError("truncated batch reply", recoverable=True)
        (count,) = _U32.unpack_from(payload)
        size = len(payload)
        entries: List[Dict[str, Any]] = []
        pos = 4
        for _ in range(count):
            if pos >= size:
                raise WireError("truncated batch reply", recoverable=True)
            entry, pos = self._decode_at(payload, pos)
            entries.append(entry)
        if pos != size:
            raise WireError(
                f"{size - pos} trailing bytes after batch reply",
                recoverable=True,
            )
        return entries


#: The packed batch codec of each address family. A v4 address is an
#: ``I`` slot holding the int; a v6 one is 16 big-endian bytes.
BATCH_CODECS: Dict[AddressFamily, BatchCodec] = {
    V4: BatchCodec(
        V4, FT_BATCH_REQ, FT_BATCH_REP,
        slot="I", to_raw=None, to_int=operator.index, to_text=int_to_ip,
    ),
    V6: BatchCodec(
        V6, FT_BATCH_REQ6, FT_BATCH_REP6,
        slot="16s", to_raw=_ip6_raw,
        to_int=_raw6_to_int, to_text=_raw6_to_text,
    ),
}

# The per-family function names callers have always imported.
encode_batch_request = BATCH_CODECS[V4].encode_request
decode_batch_request = BATCH_CODECS[V4].decode_request
pack_verdict = BATCH_CODECS[V4].pack_verdict
pack_verdict_wire = BATCH_CODECS[V4].pack_verdict_wire
pack_degraded = BATCH_CODECS[V4].pack_degraded
encode_batch_reply_frame = BATCH_CODECS[V4].encode_reply_frame
split_batch_reply = BATCH_CODECS[V4].split_reply
decode_record = BATCH_CODECS[V4].decode_record
decode_batch_reply = BATCH_CODECS[V4].decode_reply
encode_batch_request6 = BATCH_CODECS[V6].encode_request
decode_batch_request6 = BATCH_CODECS[V6].decode_request
pack_verdict6 = BATCH_CODECS[V6].pack_verdict
pack_verdict_wire6 = BATCH_CODECS[V6].pack_verdict_wire
pack_degraded6 = BATCH_CODECS[V6].pack_degraded
encode_batch_reply_frame6 = BATCH_CODECS[V6].encode_reply_frame
split_batch_reply6 = BATCH_CODECS[V6].split_reply
decode_record6 = BATCH_CODECS[V6].decode_record
decode_batch_reply6 = BATCH_CODECS[V6].decode_reply
