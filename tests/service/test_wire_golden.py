"""Golden control-plane frames: every tag's bytes pinned in ``wire_golden.json``.

Each case below is one control message built from fixed, non-default
field values — negative ``i64``, non-ASCII strings, absent and present
optional blobs, zero/one/two-element blob lists and span lists — and
the snapshot holds the exact frame the wire-version-1 codec produces
for it. Both directions are checked: encoding the message yields the
golden bytes, and decoding the golden bytes yields the message.

The snapshot is a compatibility contract, not a regression cache: while
``WIRE_VERSION`` is 1 an entry changes only when its message gains
appended fields, and the old frame's body must then be a prefix of the
new one (EVENT's ``cycles``/``seconds``/``fidelity`` are the one such
case). A new control tag adds a case here and its frame to the JSON.

The boundary cases at the end pin the encoder's range checks: a field
one step past what its kind can carry raises ``ValueError`` naming the
message and the field, while the value at the limit round-trips.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.service import serialization as wire
from repro.service.serialization import (
    AdminMsg,
    ErrorMsg,
    EventMsg,
    OpenSessionMsg,
    ResultMsg,
    SessionMsg,
    StatsMsg,
    StatusMsg,
    SubmitCircuitMsg,
    SubmitMsg,
    TraceMsg,
)

SNAPSHOT = Path(__file__).with_name("wire_golden.json")

CASES = {
    "open-session": OpenSessionMsg(
        request_id=0xDEADBEEF, tenant="tenänt-ü", params=b"\x01params\x00",
        public_key=None, relin_key=b"relin\xff",
        galois_keys=(b"g-five", b"\x00g-six\x00"), token="tök€n",
    ),
    "open-session/public-key": OpenSessionMsg(
        request_id=1, tenant="t", params=b"p", public_key=b"pk",
        relin_key=None, galois_keys=(b"g",), token="",
    ),
    "session": SessionMsg(request_id=4_000_000_000, session_id="s-δ7"),
    "submit": SubmitMsg(
        request_id=7, session_id="s-δ7", kind="rotate",
        operands=(b"\x00ct-a",), steps=-3, backend="chip_pool",
        subscribe=False, deadline=2.5,
    ),
    "submit/two-operands": SubmitMsg(
        request_id=0xFFFFFFFF, session_id="s1", kind="multiply",
        operands=(b"a", b"bb"), steps=-(2**63), backend="",
        subscribe=True, deadline=0.0,
    ),
    "submit-circuit": SubmitCircuitMsg(
        request_id=8, session_id="s-ж", circuit=b"CFHE\x01\x07circuit",
        operands=(b"x", b"yy"), backend="software", subscribe=False,
        deadline=0.75,
    ),
    "submit-circuit/no-operands": SubmitCircuitMsg(
        request_id=9, session_id="s", circuit=b"", operands=(),
    ),
    "status": StatusMsg(
        request_id=9, job_id="job-ß", status="failed", error="boom ☃",
    ),
    "result": ResultMsg(
        request_id=10, job_id="j-1", status="done",
        payload=b"\xff\x00payload", error="late ⏰",
    ),
    "event": EventMsg(
        job_id="j-2", status="failed", payload=b"ev", error="ошибка",
        cycles=-1, model_seconds=0.001, fidelity="mödel",
    ),
    "error": ErrorMsg(
        request_id=0, message="protocol error: ñ", code="quota",
    ),
    "stats": StatsMsg(
        request_id=11, text="repro_jobs_total 3\n# ünïcode ✓\n",
    ),
    "trace/no-spans": TraceMsg(request_id=12, job_id="job-0"),
    "trace/one-span": TraceMsg(
        request_id=13, job_id="job-ü", wall_seconds=0.125,
        spans=(("submit", -1, 10.0, 10.5),),
    ),
    "trace/two-spans": TraceMsg(
        request_id=14, job_id="job-2", wall_seconds=-1.5,
        spans=(("execute", -1, 1.0, 2.25), ("décode", 0, 1.1, 1.2)),
    ),
    "admin": AdminMsg(
        request_id=15, command="shrink", value=-2, result="ok ✓",
    ),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_encode_matches_golden(golden, case):
    assert wire.encode_message(CASES[case]).hex() == golden[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_decode_of_golden_is_the_message(golden, case):
    assert wire.decode_message(bytes.fromhex(golden[case])) == CASES[case]


def test_snapshot_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_every_control_tag_has_a_golden_frame(golden):
    tags = {wire.peek_tag(bytes.fromhex(frame)) for frame in golden.values()}
    assert tags == set(wire.CONTROL_MESSAGES)


#: kind -> (build a message from one value, the largest value that fits,
#: one past it, the field the error must name).
RANGE_CASES = {
    "u32": (lambda v: StatusMsg(request_id=v, job_id="j"),
            0xFFFFFFFF, 1 << 32, "StatusMsg.request_id"),
    "u32/negative": (lambda v: StatusMsg(request_id=v, job_id="j"),
                     0, -1, "StatusMsg.request_id"),
    "i64": (lambda v: SubmitMsg(1, "s", "rotate", (), steps=v),
            (1 << 63) - 1, 1 << 63, "SubmitMsg.steps"),
    "i64/negative": (lambda v: AdminMsg(1, "grow", value=v),
                     -(1 << 63), -(1 << 63) - 1, "AdminMsg.value"),
    "i64/span-parent": (lambda v: TraceMsg(1, "j", spans=(("p", v, 0.0, 1.0),)),
                        (1 << 63) - 1, 1 << 63, "TraceMsg.spans"),
    "u16-count/galois": (
        lambda n: OpenSessionMsg(1, "t", b"p", galois_keys=(b"",) * n),
        0xFFFF, 0x10000, "OpenSessionMsg.galois_keys"),
    "u16-count/operands": (
        lambda n: SubmitMsg(1, "s", "add", (b"",) * n),
        0xFFFF, 0x10000, "SubmitMsg.operands"),
    "str-length": (lambda n: SessionMsg(1, "x" * n),
                   0xFFFF, 0x10000, "SessionMsg.session_id"),
    "str-length/utf8-bytes": (lambda n: EventMsg("é" * n, "done"),
                              0x7FFF, 0x8000, "EventMsg.job_id"),
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_out_of_range_field_names_message_and_field(case):
    build, fits, overflows, field = RANGE_CASES[case]
    at_limit = build(fits)
    assert wire.decode_message(wire.encode_message(at_limit)) == at_limit
    with pytest.raises(ValueError, match=re.escape(field)) as info:
        wire.encode_message(build(overflows))
    assert type(info.value) is ValueError
