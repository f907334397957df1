"""Binary wire protocol for remote shard transport.

One frame shape in both directions::

    +--------+---------+----+-------+------------+----------+-------+---------+-------------+
    | magic  | version | op | flags | request_id | deadline | epoch | binding | payload_len |
    | 2s     | u8      | u8 | u8    | u32        | f64      | u32   | u32     | u32         |
    +--------+---------+----+-------+------------+----------+-------+---------+-------------+
    | payload (payload_len bytes)                                                           |
    +---------------------------------------------------------------------------------------+
    | crc32 over header+payload (u32)                                                       |
    +---------------------------------------------------------------------------------------+

All integers big-endian. ``deadline`` on a request is the *remaining*
seconds of the caller's carved :class:`~repro.runtime.context.JoinContext`
budget (negative = unbounded), so the node can enforce the same budget
the front end is holding it to; on a response it echoes the node's
serving state instead (its flip ``epoch`` and live index ``binding`` —
the front end's per-shard query cache stamps entries with these). The
trailing CRC32 makes torn and corrupted frames detectable as
:class:`FrameChecksumError` (transient, retried on a fresh connection)
rather than silently-wrong answers.

Payloads are deliberately pickle-free: requests are small UTF-8 JSON
objects (items are strings or token lists — exactly what
``SimilarityIndex`` accepts — plus ``since: [records, binding]`` to
extend a cached answer). A query answer travels as ``records`` u64,
``binding`` u32, ``extendable`` and ``extended`` u8 (an extended answer
holds only the matches past ``since``), then a ``MatchPair`` batch (u32
count then ``count`` × ``(i64 rid_a, i64 rid_b, f64 similarity)``), the
columnar shape the merge layer already thinks in. ``VERSION`` 2 added
these answer fields and ``since`` and renamed the header's
``generation`` to ``binding``; other versions are refused.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, NamedTuple, Sequence

from repro.core.results import MatchPair
from repro.core.service import QueryAnswer
from repro.runtime.errors import FrameChecksumError, WireProtocolError

__all__ = [
    "FLAG_ERROR",
    "FLAG_RESPONSE",
    "Frame",
    "HEADER",
    "MAGIC",
    "MAX_PAYLOAD",
    "OP_ADD",
    "OP_HEALTH",
    "OP_NAMES",
    "OP_PING",
    "OP_QUERY",
    "OP_REINDEX",
    "VERSION",
    "decode_answer",
    "decode_error",
    "decode_json",
    "decode_matches",
    "encode_answer",
    "encode_error",
    "encode_frame",
    "encode_json",
    "encode_matches",
    "read_frame",
    "socket_reader",
]

MAGIC = b"RS"
VERSION = 2

#: Header layout; see module docstring for field meanings.
HEADER = struct.Struct(">2sBBBIdIII")
_CRC = struct.Struct(">I")
_PAIR = struct.Struct(">qqd")
_COUNT = struct.Struct(">I")
_ANSWER = struct.Struct(">QI??")

#: Hard bound on a single frame's payload. Large enough for any real
#: batch (16 MiB ≈ 700k match pairs), small enough that a garbage
#: length field from a misframed stream is rejected instead of
#: triggering a gigabyte allocation.
MAX_PAYLOAD = 16 * 1024 * 1024

#: Op numbers are frozen: 2 (the retired batch query) is reserved
#: and must never be reused, so a peer still sending it is refused as an
#: unknown op instead of being misread as another request.
OP_QUERY = 1
OP_ADD = 3
OP_REINDEX = 4
OP_HEALTH = 5
OP_PING = 6

OP_NAMES = {
    OP_QUERY: "query",
    OP_ADD: "add",
    OP_REINDEX: "reindex",
    OP_HEALTH: "health",
    OP_PING: "ping",
}

FLAG_RESPONSE = 0x01
FLAG_ERROR = 0x02


class Frame(NamedTuple):
    """One decoded frame: the header fields plus the verified payload."""

    op: int
    flags: int
    request_id: int
    deadline: float
    epoch: int
    binding: int
    payload: bytes

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)

    @property
    def is_error(self) -> bool:
        return bool(self.flags & FLAG_ERROR)


def encode_frame(
    op: int,
    payload: bytes = b"",
    *,
    request_id: int = 0,
    deadline: float = -1.0,
    flags: int = 0,
    epoch: int = 0,
    binding: int = 0,
) -> bytes:
    """Pack one frame (header + payload + CRC32 trailer) into bytes."""
    if len(payload) > MAX_PAYLOAD:
        raise WireProtocolError(
            f"payload of {len(payload)} bytes exceeds the"
            f" {MAX_PAYLOAD}-byte frame bound"
        )
    header = HEADER.pack(
        MAGIC,
        VERSION,
        op,
        flags,
        request_id & 0xFFFFFFFF,
        deadline,
        epoch & 0xFFFFFFFF,
        binding & 0xFFFFFFFF,
        len(payload),
    )
    crc = zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF
    return b"".join((header, payload, _CRC.pack(crc)))


def read_frame(read_exactly: Callable[[int], bytes]) -> Frame:
    """Read and verify one frame from a byte source.

    ``read_exactly(n)`` must return exactly ``n`` bytes or raise (the
    socket layer maps short reads to connection errors). Raises
    :class:`WireProtocolError` for a bad magic or length, then — once
    the frame is read — :class:`FrameChecksumError` when the CRC32
    trailer disagrees with the bytes that arrived, and only after that
    :class:`WireProtocolError` for a version or op this build does not
    speak. A version or op byte damaged in flight is thus the retryable
    checksum error, and a well-formed frame from a skewed peer the
    permanent protocol error.
    """
    header = read_exactly(HEADER.size)
    magic, version, op, flags, request_id, deadline, epoch, binding, length = (
        HEADER.unpack(header)
    )
    if magic != MAGIC:
        raise WireProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_PAYLOAD:
        raise WireProtocolError(
            f"declared payload of {length} bytes exceeds the"
            f" {MAX_PAYLOAD}-byte frame bound"
        )
    payload = read_exactly(length) if length else b""
    (expected,) = _CRC.unpack(read_exactly(_CRC.size))
    actual = zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF
    if actual != expected:
        raise FrameChecksumError(expected, actual)
    if version != VERSION:
        raise WireProtocolError(
            f"unsupported protocol version {version} (this build speaks {VERSION})"
        )
    if op not in OP_NAMES:
        raise WireProtocolError(f"unknown op {op}")
    return Frame(op, flags, request_id, deadline, epoch, binding, payload)


def socket_reader(sock) -> Callable[[int], bytes]:
    """A ``read_exactly`` over a socket, for :func:`read_frame`.

    A peer that closes mid-frame surfaces as ``ConnectionError`` (an
    ``OSError``): the client maps it to
    :class:`~repro.runtime.errors.ShardUnavailable` and the server
    treats it as the connection ending.
    """

    def read_exactly(n: int) -> bytes:
        parts = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                raise ConnectionError(
                    f"peer closed with {remaining} of {n} frame bytes outstanding"
                )
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts) if len(parts) != 1 else parts[0]

    return read_exactly


# ---------------------------------------------------------------------------
# payload codecs


def encode_matches(matches: Sequence[MatchPair]) -> bytes:
    """Pack a MatchPair batch: u32 count + count × (i64, i64, f64)."""
    parts = [_COUNT.pack(len(matches))]
    pack = _PAIR.pack
    parts.extend(pack(m.rid_a, m.rid_b, m.similarity) for m in matches)
    return b"".join(parts)


def decode_matches(data: bytes, offset: int = 0) -> tuple[list[MatchPair], int]:
    """Unpack one MatchPair batch; returns (matches, next offset)."""
    if len(data) - offset < _COUNT.size:
        raise WireProtocolError("match batch truncated before its count")
    (count,) = _COUNT.unpack_from(data, offset)
    offset += _COUNT.size
    need = count * _PAIR.size
    if len(data) - offset < need:
        raise WireProtocolError(
            f"match batch truncated: {count} pairs declared,"
            f" {len(data) - offset} bytes remain"
        )
    matches = []
    unpack_from = _PAIR.unpack_from
    for _ in range(count):
        rid_a, rid_b, similarity = unpack_from(data, offset)
        matches.append(MatchPair(rid_a, rid_b, similarity))
        offset += _PAIR.size
    return matches, offset


def encode_answer(answer: QueryAnswer, extended: bool) -> bytes:
    """Pack a query answer: its index state, then its match batch."""
    return _ANSWER.pack(
        answer.records, answer.binding, answer.extendable, extended
    ) + encode_matches(answer)


def decode_answer(data: bytes) -> tuple[QueryAnswer, bool]:
    """Unpack a query answer; returns ``(answer, extended)``."""
    if len(data) < _ANSWER.size:
        raise WireProtocolError("query answer truncated before its header")
    records, binding, extendable, extended = _ANSWER.unpack_from(data)
    matches, _offset = decode_matches(data, _ANSWER.size)
    return QueryAnswer(matches, records, binding, extendable), extended


def encode_json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def decode_json(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"undecodable JSON payload: {exc}") from exc


def encode_error(exc: BaseException) -> bytes:
    """Encode an exception for the wire: name + message + typed extras.

    Only fields needed to rebuild the *typed* errors a probe can
    legitimately surface cross-process travel; everything else arrives
    as its name and message and is wrapped in
    :class:`~repro.runtime.errors.ShardUnavailable` client-side.
    """
    record: dict = {
        "name": type(exc).__name__,
        "message": str(exc),
    }
    elapsed = getattr(exc, "elapsed", None)
    deadline = getattr(exc, "deadline", None)
    if elapsed is not None and deadline is not None:
        record["elapsed"] = float(elapsed)
        record["deadline"] = float(deadline)
    return encode_json(record)


def decode_error(data: bytes) -> dict:
    record = decode_json(data)
    if not isinstance(record, dict) or "name" not in record:
        raise WireProtocolError("error payload missing its name")
    return record
