"""The fault grammar's outbound shim, frame by frame.

Inside a fleet worker a :class:`~repro.service.faults.FaultPlan` is a
filter on the transport's outbound frames: each EVENT is one result and
each STATS reply answers one ping. These tests drive the filter directly
with framed messages, so every action's effect on the wire is pinned
without a fleet around it.
"""

from __future__ import annotations

import socket

import pytest

from repro.bfv import BfvParameters
from repro.service.faults import FaultPlan, FaultSpecError
from repro.service.serialization import (
    EventMsg,
    StatsMsg,
    StatusMsg,
    WireFormatError,
    decode_message,
    encode_message,
    serialize_params,
    verify_frame,
)

PAYLOAD = serialize_params(BfvParameters.toy(n=16, log_q=80))
EVENT = encode_message(EventMsg(
    "j1", "done", PAYLOAD, cycles=7, model_seconds=0.5, fidelity="chip",
))
STATS = encode_message(StatsMsg(request_id=1, text="repro_up 1\n"))
STATUS = encode_message(StatusMsg(request_id=2, job_id="j1", status="queued"))


def _shim(spec: str, sock=None, worker: int = 0):
    return FaultPlan.parse(spec).for_worker(worker).shim(sock, "thread")


def test_unarmed_shim_passes_every_frame_through():
    outbound = _shim("kill:worker=1:job=1")  # armed for another worker
    for frame in (EVENT, STATS, STATUS, EVENT):
        assert outbound(frame) == frame


def test_corrupt_keeps_the_frame_valid_and_breaks_the_payload_crc():
    outbound = _shim("corrupt:worker=0:job=2")
    assert outbound(STATUS) == STATUS  # replies are not results
    assert outbound(EVENT) == EVENT
    event = decode_message(outbound(EVENT))  # the outer frame decodes
    assert (event.job_id, event.cycles, event.fidelity) == ("j1", 7, "chip")
    assert len(event.payload) == len(PAYLOAD) != PAYLOAD
    with pytest.raises(WireFormatError, match="checksum"):
        verify_frame(event.payload)
    assert outbound(EVENT) == EVENT  # one-shot


def test_stall_swallows_the_armed_event_only():
    outbound = _shim("stall:worker=0:job=1")
    assert outbound(STATS) == STATS
    assert outbound(EVENT) is None
    assert outbound(EVENT) == EVENT


def test_delay_heartbeat_leaves_stats_replies_unanswered():
    outbound = _shim("delay_heartbeat:worker=0:beats=2")
    assert outbound(STATS) is None
    assert outbound(EVENT) == EVENT  # results still flow
    assert outbound(STATS) is None
    assert outbound(STATS) == STATS


def test_thread_mode_kill_closes_the_link():
    ours, theirs = socket.socketpair()
    with ours, theirs:
        outbound = _shim("kill:worker=0:job=1", theirs)
        assert outbound(STATS) == STATS
        assert outbound(EVENT) is None
        assert ours.recv(1) == b""  # EOF: the router sees a death


@pytest.mark.parametrize("spec", [
    "kill:job=1",                 # no worker
    "kill:worker=x",              # not an integer
    "kill:worker=0:job=²",   # a digit int() refuses
    "kill:worker=0:job",          # no value
    "kill:worker=0:colour=3",     # unknown key
    "kill:worker=0:job=0",        # counts are 1-based
    "delay_heartbeat:worker=0:beats=-1",
])
def test_malformed_clauses_raise_the_typed_error(spec):
    with pytest.raises(FaultSpecError):
        FaultPlan.parse(spec)
