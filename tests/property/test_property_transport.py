"""Property tests: stream framing and the control-plane codec.

The transport's reader loop is exactly ``FrameAssembler.feed`` over
arbitrary TCP segmentation, so these properties fuzz the production
code path directly: round trips survive any chunking, truncation never
yields a phantom frame, oversized announcements and corrupted bytes are
rejected with the existing :class:`FrameError`/``WireFormatError``
hierarchy, and no input crashes the loop with anything else.
"""

from __future__ import annotations

import asyncio
import dataclasses
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import BfvParameters
from repro.service.serialization import (
    CONTROL_MESSAGES,
    StatusMsg,
    WireFormatError,
    decode_message,
    encode_message,
    serialize_params,
)
from repro.service.server import FheServer
from repro.service.transport import (
    FheTransportServer,
    FrameAssembler,
    FrameError,
    encode_frame,
)

# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

payloads = st.lists(st.binary(max_size=512), max_size=8)


def _chunked(stream: bytes, data) -> list[bytes]:
    """Split a byte stream at hypothesis-chosen cut points."""
    chunks = []
    pos = 0
    while pos < len(stream):
        step = data.draw(st.integers(1, max(1, len(stream) - pos)))
        chunks.append(stream[pos : pos + step])
        pos += step
    return chunks


class TestFraming:
    @given(frames=payloads, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_chunking(self, frames, data):
        stream = b"".join(encode_frame(f) for f in frames)
        assembler = FrameAssembler()
        out = []
        for chunk in _chunked(stream, data):
            out.extend(assembler.feed(chunk))
        assert out == frames
        assert assembler.buffered == 0

    @given(frame=st.binary(min_size=1, max_size=512),
           cut=st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_truncation_never_yields_a_frame(self, frame, cut):
        stream = encode_frame(frame)
        cut %= len(stream)  # strictly shorter than one full frame
        assembler = FrameAssembler()
        assert assembler.feed(stream[:cut]) == []
        assert assembler.buffered == cut
        # Feeding the remainder completes the frame exactly.
        assert assembler.feed(stream[cut:]) == [frame]

    @given(excess=st.integers(min_value=1, max_value=1 << 20))
    @settings(max_examples=30, deadline=None)
    def test_oversized_announcement_rejected_immediately(self, excess):
        limit = 4096
        assembler = FrameAssembler(max_frame=limit)
        header = (limit + excess).to_bytes(4, "big")
        with pytest.raises(FrameError):
            assembler.feed(header)

    def test_encode_respects_the_limit(self):
        with pytest.raises(FrameError):
            encode_frame(b"x" * 100, max_frame=99)
        assert encode_frame(b"x" * 99, max_frame=99)[4:] == b"x" * 99

    @given(garbage=st.binary(max_size=256), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_feed_never_raises_anything_unexpected(self, garbage, data):
        """The reader loop's only failure mode is FrameError."""
        assembler = FrameAssembler(max_frame=4096)
        try:
            for chunk in _chunked(garbage, data) if garbage else []:
                assembler.feed(chunk)
        except FrameError:
            pass


# ----------------------------------------------------------------------
# Control-plane codec
# ----------------------------------------------------------------------
#
# Strategies come from the codec's own layout table, so every control
# tag — transport, telemetry and admin messages alike — is fuzzed the
# moment it has a row there.

#: Wire doubles: any finite float round-trips ">d" exactly (NaN would
#: break dataclass equality, so it is excluded, not supported).
wire_doubles = st.floats(allow_nan=False, width=64)
i64s = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
short_text = st.text(max_size=40)
blob = st.binary(max_size=256)

FIELD_STRATEGIES = {
    "u32": st.integers(min_value=0, max_value=0xFFFFFFFF),
    "i64": i64s,
    "f64": wire_doubles,
    "bool": st.booleans(),
    "str": short_text,
    "text": st.text(max_size=200),
    "blob": blob,
    "opt_blob": st.none() | blob,
    "blobs": st.lists(blob, max_size=3).map(tuple),
    "spans": st.lists(
        st.tuples(short_text, i64s, wire_doubles, wire_doubles), max_size=3
    ).map(tuple),
}

control_messages = st.one_of([
    st.builds(layout.type, **{
        name: FIELD_STRATEGIES[kind] for name, kind in layout.fields
    })
    for layout in CONTROL_MESSAGES.values()
])

#: One in-range value per kind, for building any tag's message.
_ZERO = {
    "u32": 0, "i64": 0, "f64": 0.0, "bool": False, "str": "", "text": "",
    "blob": b"", "opt_blob": None, "blobs": (), "spans": (),
}


def _zero_frames_outside(handlers) -> list[bytes]:
    """A frame for every control tag whose message type ``handlers``
    does not serve."""
    return [
        encode_message(layout.type(**{
            name: _ZERO[kind] for name, kind in layout.fields
        }))
        for layout in CONTROL_MESSAGES.values()
        if layout.type not in handlers
    ]


class TestControlCodec:
    def test_layouts_name_every_dataclass_field_once(self):
        for layout in CONTROL_MESSAGES.values():
            names = [name for name, _ in layout.fields]
            assert sorted(names) == sorted(
                f.name for f in dataclasses.fields(layout.type)
            ), layout.type.__name__
            assert all(kind in FIELD_STRATEGIES for _, kind in layout.fields)

    @given(msg=control_messages)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, msg):
        wire = encode_message(msg)
        assert decode_message(wire) == msg
        assert encode_message(decode_message(wire)) == wire  # deterministic

    @given(msg=control_messages,
           position=st.integers(min_value=0, max_value=1 << 30),
           flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_any_bit_flip_is_rejected(self, msg, position, flip):
        """CRC32 catches a flipped byte anywhere in a control frame."""
        wire = bytearray(encode_message(msg))
        wire[position % len(wire)] ^= flip
        with pytest.raises(WireFormatError):
            decode_message(bytes(wire))

    @given(msg=control_messages, cut=st.integers(min_value=0))
    @settings(max_examples=120, deadline=None)
    def test_truncation_is_rejected(self, msg, cut):
        wire = encode_message(msg)
        with pytest.raises(WireFormatError):
            decode_message(wire[: cut % len(wire)])

    @given(garbage=st.binary(max_size=128))
    @settings(max_examples=80, deadline=None)
    def test_garbage_never_crashes_a_decoder(self, garbage):
        """Arbitrary bytes fail with WireFormatError, nothing else."""
        with pytest.raises(WireFormatError):
            decode_message(garbage)

    @given(msg=control_messages, extra=st.binary(min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_trailing_bytes_are_rejected(self, msg, extra):
        """An honestly re-framed body with bytes appended still fails."""
        wire = encode_message(msg)
        head = wire[:-4] + extra
        reframed = head + zlib.crc32(head).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="trailing"):
            decode_message(reframed)

    def test_data_plane_frame_is_not_a_control_message(self):
        params = serialize_params(BfvParameters.toy(n=16, log_q=80))
        with pytest.raises(WireFormatError, match="not a control message"):
            decode_message(params)

    def test_cross_tag_decode_is_rejected(self):
        """The transport serves STATUS queries, but every tag outside its
        handler table — the server-to-client SESSION/EVENT/ERROR replies —
        handed to its dispatch is a protocol error."""
        assert StatusMsg in FheTransportServer._HANDLERS
        server = FheTransportServer(FheServer(pool_size=1))
        frames = _zero_frames_outside(FheTransportServer._HANDLERS)
        assert len(frames) == len(CONTROL_MESSAGES) - 8
        for frame in frames:
            with pytest.raises(WireFormatError, match="unexpected client"):
                asyncio.run(server._dispatch(None, frame))
