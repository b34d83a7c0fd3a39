"""A circuit body is decoded once per distinct body.

``FheServer`` keeps the circuits it decoded from ``SUBMIT_CIRCUIT``
bodies by the body's SHA-256 (the digest the content address reads), so
a tenant that sends one program many times pays ``deserialize_circuit``
and ``validate_circuit`` once. Here: a repeated body decodes once and
serves the bytes in-process ``evaluate_circuit`` returns; a body that
fails to decode or validate fails the same way on every submit and
leaves nothing behind; and the memo never holds more than
``CIRCUIT_MEMO_ENTRIES`` circuits or ``CIRCUIT_MEMO_BYTES`` body bytes.
"""

import pytest

import repro.service.server as server_module
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.circuits import (
    MAX_PLAIN_COEFFS,
    Circuit,
    CircuitBuilder,
    evaluate_circuit,
)
from repro.service.jobs import JobKind
from repro.service.serialization import (
    WireFormatError,
    serialize_ciphertext,
    serialize_circuit,
    serialize_circuit_outputs,
    serialize_relin_key,
)
from repro.service.server import (
    CIRCUIT_MEMO_BYTES,
    CIRCUIT_MEMO_ENTRIES,
    FheServer,
)

PARAMS = BfvParameters.toy_rns(16, 3, 30)


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=55)
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(PARAMS)
    cts = [bfv.encrypt(encoder.encode([i + 1] * PARAMS.n), keys.public)
           for i in range(2)]
    return bfv, keys, cts


@pytest.fixture
def decodes(monkeypatch):
    """The bodies ``FheServer`` handed to ``deserialize_circuit``."""
    seen, real = [], server_module.deserialize_circuit

    def spy(wire):
        seen.append(wire)
        return real(wire)

    monkeypatch.setattr(server_module, "deserialize_circuit", spy)
    return seen


def _server(keys):
    server = FheServer(pool_size=1, result_cache_size=0)
    session = server.open_session(
        "t", PARAMS, relin_key=serialize_relin_key(keys.relin, PARAMS))
    return server, session


def _circuit(name: str = "memo", extra: tuple = ()) -> Circuit:
    """``y = x * w + bias``, with ``extra`` unused plain constants."""
    b = CircuitBuilder(name)
    x, w = b.input("x"), b.input("w")
    y = b.add_const(b.mul_relin(x, w), b.plain(range(3, 3 + PARAMS.n)))
    for coeffs in extra:
        b.plain(coeffs)
    b.output("y", y)
    return b.build()


def _unvalidated(circuit: Circuit, **fields) -> Circuit:
    """``circuit`` with ``fields`` replaced and no validation run."""
    forged = object.__new__(Circuit)
    for name in ("name", "inputs", "consts", "steps", "outputs"):
        object.__setattr__(
            forged, name, fields.get(name, getattr(circuit, name)))
    return forged


def test_a_repeated_body_is_decoded_once(tenant, decodes):
    bfv, keys, cts = tenant
    circuit = _circuit()
    wire = serialize_circuit(circuit)
    expected = serialize_circuit_outputs(
        evaluate_circuit(bfv, keys.relin, circuit, cts))
    server, session = _server(keys)
    operands = tuple(map(serialize_ciphertext, cts))
    results = [
        server.result(server.submit(
            session, JobKind.CIRCUIT, operands, payload=wire))
        for _ in range(2)
    ]
    assert results == [expected, expected]
    assert decodes == [wire]
    assert server.scheduler.stats.jobs_completed == 2  # no cache, no dedupe


@pytest.mark.parametrize("case", ["truncated", "invalid"])
def test_a_bad_body_fails_alike_every_time(tenant, decodes, case):
    _, keys, cts = tenant
    good = serialize_circuit(_circuit())
    wire = good[:-9] if case == "truncated" else serialize_circuit(
        _unvalidated(_circuit(), outputs=(("y", 9),)))
    server, session = _server(keys)
    operands = tuple(map(serialize_ciphertext, cts))
    messages = []
    for _ in range(3):
        with pytest.raises(WireFormatError) as err:
            server.submit(session, JobKind.CIRCUIT, operands, payload=wire)
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    if case == "invalid":
        assert "invalid circuit" in messages[0]
    assert decodes == [wire] * 3
    assert not server._jobs and not server._inflight
    assert not server._circuits and server._circuit_bytes == 0


def _memo_holds(server) -> None:
    held = server._circuits
    assert len(held) <= CIRCUIT_MEMO_ENTRIES
    assert server._circuit_bytes == sum(size for _, size in held.values())
    assert server._circuit_bytes <= CIRCUIT_MEMO_BYTES


def test_the_memo_stays_within_its_entry_bound(tenant, decodes):
    _, keys, cts = tenant
    server, session = _server(keys)
    operands = tuple(map(serialize_ciphertext, cts))
    wires = [serialize_circuit(_circuit(f"c{i}"))
             for i in range(CIRCUIT_MEMO_ENTRIES + 5)]
    for wire in wires:
        server.submit(session, JobKind.CIRCUIT, operands, payload=wire)
        _memo_holds(server)
    assert len(server._circuits) == CIRCUIT_MEMO_ENTRIES
    # Least recently used first out: the newest bodies are still held.
    server.submit(session, JobKind.CIRCUIT, operands, payload=wires[-1])
    server.submit(session, JobKind.CIRCUIT, operands, payload=wires[0])
    assert decodes == wires + [wires[0]]


def test_the_memo_stays_within_its_byte_bound(tenant, decodes):
    """Bodies carrying a full-length plain constant (64 KiB each) reach
    the byte bound before the entry bound; one larger than the bound is
    decoded and not kept."""
    _, keys, cts = tenant
    server, session = _server(keys)
    operands = tuple(map(serialize_ciphertext, cts))
    big = tuple([7] * MAX_PLAIN_COEFFS)
    count = CIRCUIT_MEMO_BYTES // MAX_PLAIN_COEFFS + 3
    assert count < CIRCUIT_MEMO_ENTRIES
    for i in range(count):
        wire = serialize_circuit(_circuit(f"c{i}", extra=(big,)))
        server.submit(session, JobKind.CIRCUIT, operands, payload=wire)
        _memo_holds(server)
    assert len(server._circuits) < count
    held = dict(server._circuits)
    huge = serialize_circuit(_circuit("huge", extra=tuple(
        (i,) + big[1:] for i in range(CIRCUIT_MEMO_BYTES // len(big) + 1))))
    assert len(huge) > CIRCUIT_MEMO_BYTES
    server.submit(session, JobKind.CIRCUIT, operands, payload=huge)
    _memo_holds(server)
    assert server._circuits == held
