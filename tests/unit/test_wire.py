"""Wire protocol: framing, checksums, and the match-batch codec.

Every byte that crosses a shard boundary goes through this module, so
the properties pinned here are load-bearing for the whole remote tier:
round-trips are lossless (header fields AND float similarities),
corruption anywhere in a frame is detected as a typed
:class:`FrameChecksumError` instead of a silently-wrong answer, and
misframed streams (bad magic, foreign version, absurd lengths) are
rejected before any allocation or dispatch happens.
"""

import struct
import zlib

import pytest

from repro.core.results import MatchPair
from repro.core.service import QueryAnswer
from repro.runtime.errors import (
    FrameChecksumError,
    JoinTimeout,
    WireProtocolError,
)
from repro.serving.transport import wire


def _roundtrip(raw: bytes) -> wire.Frame:
    """Feed encoded bytes to read_frame through a buffer reader."""
    view = memoryview(raw)
    state = {"offset": 0}

    def read_exactly(n: int) -> bytes:
        start = state["offset"]
        if start + n > len(view):
            raise ConnectionError("short read")
        state["offset"] = start + n
        return bytes(view[start : start + n])

    return wire.read_frame(read_exactly)


class TestFrameRoundTrip:
    def test_header_fields_survive(self):
        raw = wire.encode_frame(
            wire.OP_QUERY,
            b"payload-bytes",
            request_id=7,
            deadline=2.5,
            flags=wire.FLAG_RESPONSE,
            epoch=3,
            binding=41,
        )
        frame = _roundtrip(raw)
        assert frame.op == wire.OP_QUERY
        assert frame.request_id == 7
        assert frame.deadline == 2.5
        assert frame.epoch == 3
        assert frame.binding == 41
        assert frame.payload == b"payload-bytes"
        assert frame.is_response and not frame.is_error

    def test_empty_payload(self):
        frame = _roundtrip(wire.encode_frame(wire.OP_PING))
        assert frame.payload == b""
        assert frame.deadline == -1.0

    def test_error_flag(self):
        raw = wire.encode_frame(
            wire.OP_QUERY, flags=wire.FLAG_RESPONSE | wire.FLAG_ERROR
        )
        frame = _roundtrip(raw)
        assert frame.is_response and frame.is_error

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(WireProtocolError):
            wire.encode_frame(wire.OP_ADD, b"x" * (wire.MAX_PAYLOAD + 1))


class TestCorruptionDetection:
    def test_every_flipped_byte_is_detected(self):
        """Flip each byte of a frame in turn: nothing gets through as a
        valid frame with different content."""
        raw = bytearray(
            wire.encode_frame(wire.OP_QUERY, b"abcdef", request_id=5, epoch=1)
        )
        for i in range(len(raw)):
            mutated = bytearray(raw)
            mutated[i] ^= 0xFF
            with pytest.raises((WireProtocolError, ConnectionError)):
                # FrameChecksumError for payload/CRC damage; plain
                # WireProtocolError when the flip lands on magic,
                # version, op, or blows the length past the bound; a
                # flip that yields an in-bounds bogus length stalls the
                # stream and dies as a connection error instead.
                _roundtrip(bytes(mutated))

    def test_checksum_error_is_typed_and_transient(self):
        raw = bytearray(wire.encode_frame(wire.OP_QUERY, b"abcdef"))
        raw[-1] ^= 0xFF  # damage the CRC trailer itself
        with pytest.raises(FrameChecksumError) as info:
            _roundtrip(bytes(raw))
        # Retry layers classify on OSError; a torn frame must be
        # retryable, unlike a protocol violation.
        assert isinstance(info.value, OSError)
        assert isinstance(info.value, WireProtocolError)

    def test_bad_magic(self):
        raw = bytearray(wire.encode_frame(wire.OP_PING))
        raw[0:2] = b"ZZ"
        with pytest.raises(WireProtocolError, match="magic"):
            _roundtrip(bytes(raw))

    def test_foreign_version(self):
        header = wire.HEADER.pack(
            wire.MAGIC, wire.VERSION + 1, wire.OP_PING, 0, 0, -1.0, 0, 0, 0
        )
        import zlib

        crc = struct.pack(">I", zlib.crc32(header) & 0xFFFFFFFF)
        with pytest.raises(WireProtocolError, match="version"):
            _roundtrip(header + crc)

    def test_version_1_frame_is_refused(self):
        # Version 1 had this very header layout (``binding`` was
        # ``generation``); a v1 peer's intact frame is a protocol error.
        assert wire.VERSION == 2
        header = wire.HEADER.pack(wire.MAGIC, 1, wire.OP_QUERY, 0, 7, -1.0, 0, 3, 0)
        crc = struct.pack(">I", zlib.crc32(header) & 0xFFFFFFFF)
        with pytest.raises(WireProtocolError, match="version 1") as info:
            _roundtrip(header + crc)
        assert not isinstance(info.value, OSError)  # not retryable

    def test_absurd_length_rejected_before_allocation(self):
        header = wire.HEADER.pack(
            wire.MAGIC, wire.VERSION, wire.OP_PING, 0, 0, -1.0, 0, 0,
            wire.MAX_PAYLOAD + 1,
        )
        with pytest.raises(WireProtocolError, match="bound"):
            _roundtrip(header + b"\x00\x00\x00\x00")

    def test_unknown_op(self):
        raw = wire.encode_frame(wire.OP_PING)
        # Re-pack with an op outside the table but a valid CRC; 2 is the
        # reserved op of the retired batch query.
        import zlib

        for op in (2, 99):
            header = wire.HEADER.pack(wire.MAGIC, wire.VERSION, op, 0, 0, -1.0, 0, 0, 0)
            crc = struct.pack(">I", zlib.crc32(header) & 0xFFFFFFFF)
            with pytest.raises(WireProtocolError, match=f"unknown op {op}"):
                _roundtrip(header + crc)
        assert _roundtrip(raw).op == wire.OP_PING  # control: intact frame is fine

    def test_truncated_stream_is_a_connection_error(self):
        raw = wire.encode_frame(wire.OP_QUERY, b"abcdef")
        with pytest.raises(ConnectionError):
            _roundtrip(raw[: len(raw) // 2])


class TestMatchCodec:
    PAIRS = [
        MatchPair(0, 1, 0.5),
        MatchPair(7, 3, 1.0),
        MatchPair(-1, 2**40, 0.123456789012345),
    ]

    def test_batch_roundtrip_is_exact(self):
        decoded, offset = wire.decode_matches(wire.encode_matches(self.PAIRS))
        assert decoded == self.PAIRS
        # Floats travel as f64: bit-for-bit, not "close".
        assert [m.similarity for m in decoded] == [m.similarity for m in self.PAIRS]

    def test_empty_batch(self):
        decoded, _ = wire.decode_matches(wire.encode_matches([]))
        assert decoded == []

    def test_consecutive_batches_decode_by_offset(self):
        batches = [self.PAIRS, [], [MatchPair(5, 5, 0.75)]]
        data = b"".join(wire.encode_matches(batch) for batch in batches)
        offset = 0
        for batch in batches:
            decoded, offset = wire.decode_matches(data, offset)
            assert decoded == batch
        assert offset == len(data)

    def test_truncated_batch_is_typed(self):
        data = wire.encode_matches(self.PAIRS)
        with pytest.raises(WireProtocolError, match="truncated"):
            wire.decode_matches(data[:-4])
        with pytest.raises(WireProtocolError, match="truncated"):
            wire.decode_matches(b"\x00")


class TestAnswerCodec:
    def test_answer_fields_roundtrip(self):
        pairs = TestMatchCodec.PAIRS
        for extendable, extended in ((True, False), (False, False), (True, True)):
            sent = QueryAnswer(pairs, 2**40, 0xFFFFFFFF, extendable)
            got, flag = wire.decode_answer(wire.encode_answer(sent, extended))
            assert isinstance(got, QueryAnswer) and got == pairs
            assert (got.records, got.binding) == (2**40, 0xFFFFFFFF)
            assert (got.extendable, flag) == (extendable, extended)

    def test_truncated_answer_is_typed(self):
        data = wire.encode_answer(QueryAnswer(TestMatchCodec.PAIRS, 3, 1), False)
        for cut in (data[:5], data[:-4]):
            with pytest.raises(WireProtocolError, match="truncated"):
                wire.decode_answer(cut)


class TestErrorCodec:
    def test_plain_exception(self):
        record = wire.decode_error(wire.encode_error(ValueError("boom")))
        assert record == {"name": "ValueError", "message": "boom"}

    def test_timeout_carries_budget_fields(self):
        exc = JoinTimeout(elapsed=1.5, deadline=1.0)
        record = wire.decode_error(wire.encode_error(exc))
        assert record["name"] == "JoinTimeout"
        assert record["elapsed"] == 1.5
        assert record["deadline"] == 1.0

    def test_garbage_error_payload_is_typed(self):
        with pytest.raises(WireProtocolError):
            wire.decode_error(b"\xff\xfe")
        with pytest.raises(WireProtocolError, match="name"):
            wire.decode_error(wire.encode_json({"not": "an error"}))

    def test_undecodable_json(self):
        with pytest.raises(WireProtocolError):
            wire.decode_json(b"{truncated")
