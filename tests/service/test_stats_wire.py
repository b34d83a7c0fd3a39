"""STATS/TRACE wire exposition over a real localhost socket.

A client must be able to pull the server's Prometheus text dump and any
job's span tree through the framed protocol — round-tripped bit-exact
through the codecs — and a request for a job the server never saw must
come back as a clean ERROR frame, not a dead connection.
"""

from __future__ import annotations

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.client import FheClient, TransportError
from repro.service.serialization import (
    StatsMsg,
    TraceMsg,
    WireFormatError,
    decode_message,
    encode_message,
    peek_tag,
    TAG_STATS,
    TAG_TRACE,
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer
from repro.service.transport import ThreadedTransportServer

PARAMS = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)


@pytest.fixture(scope="module")
def stack():
    bfv = Bfv(PARAMS, seed=0xC0F4EE)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    return bfv, keys, encoder


def _session(client, keys):
    return client.open_session(
        "obs", serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
    )


class TestCodecs:
    def test_stats_round_trip(self):
        msg = StatsMsg(request_id=7, text="repro_jobs_total 3\n")
        frame = encode_message(msg)
        assert peek_tag(frame) == TAG_STATS
        assert decode_message(frame) == msg
        # An empty text body is the request form.
        assert decode_message(encode_message(StatsMsg(request_id=9))).text == ""

    def test_trace_round_trip(self):
        msg = TraceMsg(
            request_id=3, job_id="job-1", wall_seconds=0.125,
            spans=(
                ("submit", -1, 1.0, 1.5),
                ("decode", 0, 1.1, 1.2),
                ("execute", -1, 2.0, 2.25),
            ),
        )
        frame = encode_message(msg)
        assert peek_tag(frame) == TAG_TRACE
        assert decode_message(frame) == msg

    def test_stats_text_must_be_utf8(self):
        # Corrupting a valid frame's payload trips the CRC before UTF-8
        # ever runs, so build an honestly-framed truncated multibyte
        # sequence to reach the text decoder itself.
        import struct
        import zlib

        from repro.service.serialization import MAGIC, WIRE_VERSION

        body = struct.pack(">I", 1) + struct.pack(">I", 1) + b"\xff"
        inner = MAGIC + bytes([WIRE_VERSION, TAG_STATS]) + body
        bad = inner + struct.pack(">I", zlib.crc32(inner) & 0xFFFFFFFF)
        with pytest.raises(WireFormatError):
            decode_message(bad)


class TestSocketRoundTrip:
    def test_stats_and_trace_over_the_wire(self, stack):
        bfv, keys, encoder = stack
        a = bfv.encrypt(encoder.encode(list(range(PARAMS.n))), keys.public)
        b = bfv.encrypt(encoder.encode([2] * PARAMS.n), keys.public)
        with ThreadedTransportServer(FheServer(pool_size=2)) as ts:
            with FheClient(ts.host, ts.port) as client:
                sid = _session(client, keys)
                jid = client.submit(
                    sid, "multiply",
                    (serialize_ciphertext(a), serialize_ciphertext(b)),
                )
                client.result(jid)

                text = client.stats()
                assert "# TYPE repro_submit_seconds histogram" in text
                assert 'repro_jobs_submitted_total{tenant="obs"} 1' in text
                assert "repro_frames_received_total" in text
                assert "repro_connections 1" in text

                trace = client.trace(jid)
                assert trace.job_id == jid
                assert trace.wall_seconds > 0.0
                phases = [span[0] for span in trace.spans]
                assert phases[0] == "submit"
                assert {"queue_wait", "execute"} <= set(phases)
                # Parent indices survive the round-trip: submit's decode
                # child still points at span 0.
                decode_span = trace.spans[phases.index("decode")]
                assert decode_span[1] == 0
                for _, _, start, end in trace.spans:
                    assert end >= start

    def test_unknown_job_trace_is_a_clean_error(self, stack):
        _, keys, _ = stack
        with ThreadedTransportServer(FheServer(pool_size=2)) as ts:
            with FheClient(ts.host, ts.port) as client:
                with pytest.raises(TransportError, match="no-such-job"):
                    client.trace("no-such-job")
                # The connection survived the refusal.
                sid = _session(client, keys)
                assert sid
