"""Versioned, deterministic wire format for every servable FHE object.

Before this module, ciphertexts and keys existed only as in-memory Python
objects — nothing could cross a process boundary, so the library could not
be served. The format here is deliberately simple and fully deterministic
(the property tests assert bit-exact round trips):

```
message  := MAGIC(4) | VERSION(1) | TAG(1) | body | CRC32(4)
bigint   := u32 length | big-endian bytes (minimal; zero -> length 0)
poly     := packed coefficients, fixed width = ceil(bits(q)/8) each
```

Every object bound to a parameter set (ciphertexts, evaluation keys)
embeds the 32-byte **params digest** — a SHA-256 over the canonical
parameter encoding — so a receiver can reject material from an
incompatible session *before* touching any polynomial math. The CRC32
trailer catches transport corruption; out-of-range packed coefficients
are rejected by :meth:`repro.polymath.poly.PolynomialRing.unpack`.

Secret keys are deliberately **not** serializable: the serving layer's
contract is that secrets never cross the wire — clients encrypt, upload
evaluation keys, and decrypt locally.

The **control plane** of the async transport speaks the same envelope:
OPEN-SESSION/SESSION, SUBMIT/SUBMIT-CIRCUIT/STATUS, RESULT, EVENT, and
ERROR messages (tags 0x10-0x1A) carry job routing fields plus nested
data-plane blobs (each itself a framed message), all under the one
MAGIC/VERSION/CRC32 scheme — a bit flipped anywhere in a control frame
is caught by the same checksum that protects a ciphertext.

**App circuits** (tag 0x07) encode a whole multi-step encrypted program —
named ciphertext inputs, a plaintext constant table, an SSA step list,
and named outputs (see :mod:`repro.service.circuits`); their results
travel back as a named-output map (tag 0x08). The byte-for-byte layout
of every message lives in ``docs/wire-protocol.md``.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass

from repro.bfv.keys import GaloisKey, PublicKey, RelinKey
from repro.bfv.params import BfvParameters
from repro.bfv.scheme import Ciphertext
from repro.polymath.poly import Polynomial, PolynomialRing
from repro.polymath.rns import RnsBasis
from repro.service.circuits import (
    CIRCUIT_VERSION,
    Circuit,
    CircuitConst,
    CircuitError,
    CircuitStep,
    CONST_PLAIN,
    CONST_SCALAR,
    OP_SPECS,
    V1_OPS,
    wire_version,
)

MAGIC = b"CFHE"
WIRE_VERSION = 1

TAG_PARAMS = 0x01
TAG_POLYNOMIAL = 0x02
TAG_CIPHERTEXT = 0x03
TAG_PUBLIC_KEY = 0x04
TAG_RELIN_KEY = 0x05
TAG_GALOIS_KEY = 0x06
TAG_CIRCUIT = 0x07
TAG_CIRCUIT_OUTPUTS = 0x08

# Transport control plane (repro.service.transport). Client -> server:
# OPEN_SESSION, SUBMIT, SUBMIT_CIRCUIT, and STATUS/RESULT queries;
# server -> client: SESSION, STATUS, RESULT replies (echoing the request
# id), unsolicited EVENT pushes (completion callbacks), and ERROR.
TAG_OPEN_SESSION = 0x10
TAG_SESSION = 0x11
TAG_SUBMIT = 0x12
TAG_STATUS = 0x13
TAG_RESULT = 0x14
TAG_EVENT = 0x15
TAG_ERROR = 0x16
TAG_SUBMIT_CIRCUIT = 0x17
TAG_STATS = 0x18
TAG_TRACE = 0x19
TAG_ADMIN = 0x1A

# Fleet worker-control plane (repro.service.fleet). Orchestrator ->
# worker: WORKER_KEYS (replicate a session's params + evaluation keys on
# first use), WORKER_JOB (one routed job), WORKER_FAULTS (re-arm the
# deterministic fault plan); worker -> orchestrator: WORKER_RESULT and
# WORKER_HEARTBEAT (liveness beacon; seq 1 doubles as the hello).
TAG_WORKER_KEYS = 0x20
TAG_WORKER_JOB = 0x21
TAG_WORKER_RESULT = 0x22
TAG_WORKER_HEARTBEAT = 0x23
TAG_WORKER_FAULTS = 0x24

_TAG_NAMES = {
    TAG_PARAMS: "params",
    TAG_POLYNOMIAL: "polynomial",
    TAG_CIPHERTEXT: "ciphertext",
    TAG_PUBLIC_KEY: "public-key",
    TAG_RELIN_KEY: "relin-key",
    TAG_GALOIS_KEY: "galois-key",
    TAG_CIRCUIT: "circuit",
    TAG_CIRCUIT_OUTPUTS: "circuit-outputs",
    TAG_OPEN_SESSION: "open-session",
    TAG_SESSION: "session",
    TAG_SUBMIT: "submit",
    TAG_STATUS: "status",
    TAG_RESULT: "result",
    TAG_EVENT: "event",
    TAG_ERROR: "error",
    TAG_SUBMIT_CIRCUIT: "submit-circuit",
    TAG_STATS: "stats",
    TAG_TRACE: "trace",
    TAG_ADMIN: "admin",
    TAG_WORKER_KEYS: "worker-keys",
    TAG_WORKER_JOB: "worker-job",
    TAG_WORKER_RESULT: "worker-result",
    TAG_WORKER_HEARTBEAT: "worker-heartbeat",
    TAG_WORKER_FAULTS: "worker-faults",
}

DIGEST_BYTES = 32


class WireFormatError(ValueError):
    """Malformed, truncated, corrupted, or unsupported wire bytes."""


class ParamsMismatchError(WireFormatError):
    """The embedded params digest does not match the receiving session."""


# ----------------------------------------------------------------------
# Primitive encoders/decoders
# ----------------------------------------------------------------------


def _u16(value: int) -> bytes:
    return value.to_bytes(2, "big")


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def _bigint(value: int) -> bytes:
    if value < 0:
        raise ValueError("wire bigints are unsigned")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return _u32(len(raw)) + raw


def _i64(value: int) -> bytes:
    return struct.pack(">q", value)


def _str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"wire string too long ({len(raw)} bytes)")
    return _u16(len(raw)) + raw


def _blob(data: bytes) -> bytes:
    return _u32(len(data)) + data


class _Reader:
    """Cursor over a message body with strict bounds checking."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise WireFormatError(
                f"truncated message: wanted {count} bytes at offset "
                f"{self._pos}, only {len(self._data) - self._pos} left"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def bigint(self) -> int:
        return int.from_bytes(self.take(self.u32()), "big")

    def double(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def i64(self) -> int:
        return struct.unpack(">q", self.take(8))[0]

    def string(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid UTF-8 in wire string: {exc}") from exc

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self._pos != len(self._data):
            raise WireFormatError(
                f"{len(self._data) - self._pos} trailing bytes after message body"
            )


def _frame(tag: int, body: bytes) -> bytes:
    """Wrap a body in the header + CRC32 trailer."""
    head = MAGIC + bytes((WIRE_VERSION, tag)) + body
    return head + _u32(zlib.crc32(head))


def _unframe(data: bytes, expected_tag: int) -> _Reader:
    """Validate header/checksum and return a reader over the body."""
    if len(data) < len(MAGIC) + 2 + 4:
        raise WireFormatError(f"message too short ({len(data)} bytes)")
    if data[: len(MAGIC)] != MAGIC:
        raise WireFormatError("bad magic: not a CFHE wire message")
    version = data[len(MAGIC)]
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    crc = int.from_bytes(data[-4:], "big")
    if zlib.crc32(data[:-4]) != crc:
        raise WireFormatError("checksum mismatch: message corrupted in transit")
    tag = data[len(MAGIC) + 1]
    if tag != expected_tag:
        raise WireFormatError(
            f"expected a {_TAG_NAMES.get(expected_tag, expected_tag)} message, "
            f"got {_TAG_NAMES.get(tag, f'tag {tag}')}"
        )
    return _Reader(data[len(MAGIC) + 2 : -4])


def peek_tag(data: bytes) -> int:
    """Return the type tag of a wire message without decoding it."""
    if len(data) < len(MAGIC) + 2 or data[: len(MAGIC)] != MAGIC:
        raise WireFormatError("not a CFHE wire message")
    return data[len(MAGIC) + 1]


def verify_frame(data: bytes) -> int:
    """Integrity-check a framed message without decoding its body.

    Validates the magic, wire version, and CRC32 trailer, and returns
    the type tag. The fleet orchestrator runs this over every worker
    reply payload so a corrupted result is requeued instead of being
    handed to a client that would only discover the damage on decode.
    """
    if len(data) < len(MAGIC) + 2 + 4:
        raise WireFormatError(f"message too short ({len(data)} bytes)")
    if data[: len(MAGIC)] != MAGIC:
        raise WireFormatError("bad magic: not a CFHE wire message")
    version = data[len(MAGIC)]
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    if zlib.crc32(data[:-4]) != int.from_bytes(data[-4:], "big"):
        raise WireFormatError("checksum mismatch: message corrupted in transit")
    return data[len(MAGIC) + 1]


# ----------------------------------------------------------------------
# Parameter sets and their digest
# ----------------------------------------------------------------------


def _params_body(params: BfvParameters) -> bytes:
    parts = [
        _u32(params.n),
        _bigint(params.q),
        _bigint(params.t),
        struct.pack(">d", params.sigma),
    ]
    for basis in (params.cpu_basis, params.cofhee_basis):
        moduli = () if basis is None else tuple(basis.moduli)
        parts.append(_u16(len(moduli)))
        parts.extend(_bigint(m) for m in moduli)
    return b"".join(parts)


def params_digest(params: BfvParameters) -> bytes:
    """SHA-256 over the canonical parameter encoding (32 bytes).

    Two parameter sets with identical ``(n, q, t, sigma)`` and RNS bases
    digest identically regardless of how the objects were constructed —
    this is the session-compatibility token the registry keys on.
    """
    return hashlib.sha256(_params_body(params)).digest()


def serialize_params(params: BfvParameters) -> bytes:
    return _frame(TAG_PARAMS, _params_body(params))


def deserialize_params(data: bytes) -> BfvParameters:
    reader = _unframe(data, TAG_PARAMS)
    n = reader.u32()
    q = reader.bigint()
    t = reader.bigint()
    sigma = reader.double()
    bases: list[RnsBasis | None] = []
    for _ in range(2):
        count = reader.u16()
        moduli = [reader.bigint() for _ in range(count)]
        bases.append(RnsBasis(moduli) if moduli else None)
    reader.done()
    return BfvParameters(
        n=n, q=q, t=t, sigma=sigma, cpu_basis=bases[0], cofhee_basis=bases[1]
    )


# ----------------------------------------------------------------------
# Polynomials
# ----------------------------------------------------------------------

#: Ring cache so repeated deserialization never rebuilds NTT contexts.
_RING_CACHE: dict[tuple[int, int], PolynomialRing] = {}


def _ring(n: int, q: int) -> PolynomialRing:
    key = (n, q)
    if key not in _RING_CACHE:
        _RING_CACHE[key] = PolynomialRing(n, q, allow_non_ntt=True)
    return _RING_CACHE[key]


def serialize_polynomial(poly: Polynomial) -> bytes:
    body = _u32(poly.ring.n) + _bigint(poly.ring.q) + poly.pack()
    return _frame(TAG_POLYNOMIAL, body)


def deserialize_polynomial(data: bytes) -> Polynomial:
    reader = _unframe(data, TAG_POLYNOMIAL)
    n = reader.u32()
    q = reader.bigint()
    if n < 2 or n & (n - 1):
        raise WireFormatError(f"invalid polynomial degree {n}")
    if q < 2:
        raise WireFormatError(f"invalid modulus {q}")
    ring = _ring(n, q)
    try:
        poly = ring.unpack(reader.take(n * ring.coeff_byte_width))
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc
    reader.done()
    return poly


def _check_digest(found: bytes, params: BfvParameters, what: str) -> None:
    expected = params_digest(params)
    if found != expected:
        raise ParamsMismatchError(
            f"{what} was produced under parameter digest {found.hex()[:16]}…, "
            f"but the session uses {expected.hex()[:16]}…"
        )


def _pack_ring_polys(polys, params: BfvParameters) -> bytes:
    for p in polys:
        if p.ring.n != params.n or p.ring.q != params.q:
            raise ValueError(
                f"polynomial ring {p.ring} does not match params "
                f"(n={params.n}, q={params.q})"
            )
    return b"".join(p.pack() for p in polys)


def _unpack_ring_polys(reader: _Reader, count: int, params: BfvParameters):
    ring = _ring(params.n, params.q)
    width = params.n * ring.coeff_byte_width
    try:
        return [ring.unpack(reader.take(width)) for _ in range(count)]
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc


# ----------------------------------------------------------------------
# Ciphertexts
# ----------------------------------------------------------------------


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    body = (
        params_digest(ct.params)
        + _u16(ct.size)
        + _pack_ring_polys(ct.polys, ct.params)
    )
    return _frame(TAG_CIPHERTEXT, body)


def deserialize_ciphertext(data: bytes, params: BfvParameters) -> Ciphertext:
    reader = _unframe(data, TAG_CIPHERTEXT)
    _check_digest(reader.take(DIGEST_BYTES), params, "ciphertext")
    size = reader.u16()
    if size < 1:
        raise WireFormatError("ciphertext must have at least one component")
    polys = _unpack_ring_polys(reader, size, params)
    reader.done()
    return Ciphertext(polys, params)


# ----------------------------------------------------------------------
# Evaluation keys
# ----------------------------------------------------------------------


def serialize_public_key(key: PublicKey, params: BfvParameters) -> bytes:
    body = params_digest(params) + _pack_ring_polys((key.kp1, key.kp2), params)
    return _frame(TAG_PUBLIC_KEY, body)


def deserialize_public_key(data: bytes, params: BfvParameters) -> PublicKey:
    reader = _unframe(data, TAG_PUBLIC_KEY)
    _check_digest(reader.take(DIGEST_BYTES), params, "public key")
    kp1, kp2 = _unpack_ring_polys(reader, 2, params)
    reader.done()
    return PublicKey(kp1=kp1, kp2=kp2)


def _key_rows_body(rows, params: BfvParameters) -> bytes:
    parts = [_u16(len(rows))]
    for b_i, a_i in rows:
        parts.append(_pack_ring_polys((b_i, a_i), params))
    return b"".join(parts)


def _read_key_rows(reader: _Reader, params: BfvParameters):
    count = reader.u16()
    if count < 1:
        raise WireFormatError("key-switching key needs at least one row")
    rows = []
    for _ in range(count):
        b_i, a_i = _unpack_ring_polys(reader, 2, params)
        rows.append((b_i, a_i))
    return tuple(rows)


def serialize_relin_key(key: RelinKey, params: BfvParameters) -> bytes:
    body = (
        params_digest(params)
        + _u16(key.digit_bits)
        + _key_rows_body(key.rows, params)
    )
    return _frame(TAG_RELIN_KEY, body)


def deserialize_relin_key(data: bytes, params: BfvParameters) -> RelinKey:
    reader = _unframe(data, TAG_RELIN_KEY)
    _check_digest(reader.take(DIGEST_BYTES), params, "relin key")
    digit_bits = reader.u16()
    rows = _read_key_rows(reader, params)
    reader.done()
    return RelinKey(rows=rows, digit_bits=digit_bits)


def serialize_galois_key(key: GaloisKey, params: BfvParameters) -> bytes:
    body = (
        params_digest(params)
        + _u32(key.exponent)
        + _u16(key.digit_bits)
        + _key_rows_body(key.rows, params)
    )
    return _frame(TAG_GALOIS_KEY, body)


def deserialize_galois_key(data: bytes, params: BfvParameters) -> GaloisKey:
    reader = _unframe(data, TAG_GALOIS_KEY)
    _check_digest(reader.take(DIGEST_BYTES), params, "galois key")
    exponent = reader.u32()
    digit_bits = reader.u16()
    rows = _read_key_rows(reader, params)
    reader.done()
    return GaloisKey(exponent=exponent, rows=rows, digit_bits=digit_bits)


# ----------------------------------------------------------------------
# App circuits (multi-step encrypted programs; repro.service.circuits)
# ----------------------------------------------------------------------
#
# Layout (body of a TAG_CIRCUIT message; full spec in
# docs/wire-protocol.md):
#
#   u8  circuit_version        (1 or 2; anything else -> rejected)
#   str name
#   u16 num_inputs  | str * inputs
#   u16 num_consts  | per const: u8 kind
#                     kind 0 (scalar): i64 value
#                     kind 1 (plain):  u32 num_coeffs | bigint * coeffs
#   u16 num_steps   | per step:  u8 op | u16 * args (arity fixed per op;
#                     signed "s" immediates travel as two's-complement u16)
#   u16 num_outputs | per output: str name | u16 register
#
# Encoders emit the lowest version whose op set covers the circuit
# (version 1 for the original seven ops, version 2 once rotations or
# split tensor steps appear), so old circuits keep their exact bytes —
# and content addresses — across the format bump. Decoders accept both
# versions but reject version-2 opcodes inside a version-1 body.
#
# Structural validation (register bounds, op codes, argument layouts)
# is the same validate_circuit() the in-memory constructor runs, so a
# malformed description is rejected identically however it arrives.


def serialize_circuit(circuit: Circuit) -> bytes:
    # Register/constant/output counts are u16-representable by
    # construction: validate_circuit (run by the Circuit constructor)
    # bounds them all at 65535.
    parts = [bytes((wire_version(circuit),)), _str(circuit.name),
             _u16(len(circuit.inputs))]
    parts.extend(_str(name) for name in circuit.inputs)
    parts.append(_u16(len(circuit.consts)))
    for const in circuit.consts:
        parts.append(bytes((const.kind,)))
        if const.kind == CONST_SCALAR:
            parts.append(_i64(const.scalar))
        else:
            parts.append(_u32(len(const.coeffs)))
            parts.extend(_bigint(c) for c in const.coeffs)
    parts.append(_u16(len(circuit.steps)))
    for step in circuit.steps:
        parts.append(bytes((step.op,)))
        layout = OP_SPECS[step.op][1]
        parts.extend(
            _u16(arg & 0xFFFF if role == "s" else arg)
            for arg, role in zip(step.args, layout)
        )
    parts.append(_u16(len(circuit.outputs)))
    for name, reg in circuit.outputs:
        parts.append(_str(name) + _u16(reg))
    return _frame(TAG_CIRCUIT, b"".join(parts))


def deserialize_circuit(data: bytes) -> Circuit:
    reader = _unframe(data, TAG_CIRCUIT)
    version = reader.u8()
    if not 1 <= version <= CIRCUIT_VERSION:
        raise WireFormatError(
            f"unsupported circuit encoding version {version} (this build "
            f"speaks versions 1..{CIRCUIT_VERSION})"
        )
    name = reader.string()
    inputs = tuple(reader.string() for _ in range(reader.u16()))
    consts = []
    for _ in range(reader.u16()):
        kind = reader.u8()
        if kind == CONST_SCALAR:
            consts.append(CircuitConst(kind=kind, scalar=reader.i64()))
        elif kind == CONST_PLAIN:
            coeffs = tuple(reader.bigint() for _ in range(reader.u32()))
            consts.append(CircuitConst(kind=kind, coeffs=coeffs))
        else:
            raise WireFormatError(f"unknown circuit constant kind {kind}")
    steps = []
    for _ in range(reader.u16()):
        op = reader.u8()
        spec = OP_SPECS.get(op)
        if spec is None:
            raise WireFormatError(f"unknown circuit op code 0x{op:02x}")
        if version == 1 and op not in V1_OPS:
            raise WireFormatError(
                f"circuit op code 0x{op:02x} ({spec[0]}) needs encoding "
                "version 2, but the body declares version 1"
            )
        args = []
        for role in spec[1]:
            raw = reader.u16()
            if role == "s" and raw >= 0x8000:  # two's-complement immediate
                raw -= 0x10000
            args.append(raw)
        steps.append(CircuitStep(op=op, args=tuple(args)))
    outputs = tuple(
        (reader.string(), reader.u16()) for _ in range(reader.u16())
    )
    reader.done()
    try:
        return Circuit(
            name=name, inputs=inputs, consts=tuple(consts),
            steps=tuple(steps), outputs=outputs,
        )
    except CircuitError as exc:
        raise WireFormatError(f"invalid circuit: {exc}") from exc


def serialize_circuit_outputs(outputs: dict[str, Ciphertext]) -> bytes:
    """Encode a circuit's named result map (each value a framed ciphertext)."""
    if len(outputs) > 0xFFFF:
        raise ValueError(f"too many circuit outputs ({len(outputs)})")
    parts = [_u16(len(outputs))]
    for name, ct in outputs.items():
        parts.append(_str(name) + _blob(serialize_ciphertext(ct)))
    return _frame(TAG_CIRCUIT_OUTPUTS, b"".join(parts))


def deserialize_circuit_outputs(
    data: bytes, params: BfvParameters
) -> dict[str, Ciphertext]:
    reader = _unframe(data, TAG_CIRCUIT_OUTPUTS)
    outputs: dict[str, Ciphertext] = {}
    for _ in range(reader.u16()):
        name = reader.string()
        if name in outputs:
            raise WireFormatError(f"duplicate circuit output {name!r}")
        outputs[name] = deserialize_ciphertext(reader.blob(), params)
    reader.done()
    return outputs


# ----------------------------------------------------------------------
# Transport control plane (SUBMIT/STATUS/RESULT/EVENT + session setup)
# ----------------------------------------------------------------------
#
# Requests carry a client-chosen ``request_id`` that the matching reply
# echoes, so one connection can pipeline many requests. Nested blobs are
# themselves framed data-plane messages (params, keys, ciphertexts) — the
# receiver re-validates them with their own CRC after the control frame's.


@dataclass(frozen=True)
class OpenSessionMsg:
    """Client request: bind a tenant to a parameter set plus keys.

    ``token`` is the tenant's shared-secret credential. A server started
    with a tenant table rejects unknown tenants or wrong tokens with a
    typed ``auth`` error before registering anything; a server without a
    table ignores the field (the default, back-compatible posture).
    """

    request_id: int
    tenant: str
    params: bytes  # framed params message
    public_key: bytes | None = None
    relin_key: bytes | None = None
    galois_keys: tuple[bytes, ...] = ()
    token: str = ""


@dataclass(frozen=True)
class SessionMsg:
    """Server reply to OPEN_SESSION: the session id to submit under."""

    request_id: int
    session_id: str


@dataclass(frozen=True)
class SubmitMsg:
    """Client request: queue one raw-op job.

    ``subscribe`` asks the server to push an :class:`EventMsg` the moment
    the job completes — the async completion callback; no polling needed.
    ``deadline`` is an optional budget in seconds, relative to server
    receipt (``0.0`` = none): a job still unfinished past it is shed or
    reaped and fails with a typed ``deadline`` error.
    """

    request_id: int
    session_id: str
    kind: str
    operands: tuple[bytes, ...]  # framed ciphertext messages
    steps: int = 0
    backend: str = ""
    subscribe: bool = True
    deadline: float = 0.0


@dataclass(frozen=True)
class SubmitCircuitMsg:
    """Client request: queue one app-circuit job.

    ``circuit`` is a framed :data:`TAG_CIRCUIT` message and ``operands``
    are framed ciphertexts bound positionally to the circuit's named
    inputs. The completion payload (EVENT or RESULT) is a framed
    :data:`TAG_CIRCUIT_OUTPUTS` message carrying only the named outputs.
    """

    request_id: int
    session_id: str
    circuit: bytes
    operands: tuple[bytes, ...]
    backend: str = ""
    subscribe: bool = True
    deadline: float = 0.0


@dataclass(frozen=True)
class StatusMsg:
    """Status query (client -> server, ``status == ""``) or report.

    As the SUBMIT reply it carries the assigned ``job_id`` plus the
    submit-time status (``done`` for a cache hit, else ``queued``).
    """

    request_id: int
    job_id: str
    status: str = ""
    error: str = ""


@dataclass(frozen=True)
class ResultMsg:
    """Result request (client -> server, empty payload) or delivery.

    The server answers a RESULT request once the job has finished —
    asynchronously, without blocking the connection's other traffic.
    """

    request_id: int
    job_id: str
    status: str = ""
    payload: bytes = b""  # framed ciphertext message when status == done
    error: str = ""


@dataclass(frozen=True)
class EventMsg:
    """Unsolicited completion push for a subscribed job."""

    job_id: str
    status: str
    payload: bytes = b""  # framed ciphertext message when status == done
    error: str = ""


@dataclass(frozen=True)
class ErrorMsg:
    """Request failure (echoes the request id) or, with ``request_id
    0``, a connection-level protocol error before the link closes.

    ``code`` is the machine-readable rejection class (``"auth"``,
    ``"quota"``, ``"deadline"``, ``"unavailable"``; empty = untyped) —
    see :mod:`repro.service.errors` for which codes are retryable.
    """

    request_id: int
    message: str
    code: str = ""


@dataclass(frozen=True)
class AdminMsg:
    """Fleet administration request or its echo reply.

    ``command`` is ``"grow"``/``"shrink"`` (``value`` = worker count to
    add/retire, default 1) or ``"resize"`` (``value`` = target fleet
    size). The reply echoes the tag with ``value`` set to the fleet size
    after the operation and ``result`` as a short human-readable note.
    """

    request_id: int
    command: str = ""
    value: int = 0
    result: str = ""


def _optional_blob(data: bytes | None) -> bytes:
    if data is None:
        return bytes((0,))
    return bytes((1,)) + _blob(data)


def _read_optional_blob(reader: _Reader) -> bytes | None:
    return reader.blob() if reader.u8() else None


def encode_open_session(msg: OpenSessionMsg) -> bytes:
    body = [
        _u32(msg.request_id),
        _str(msg.tenant),
        _str(msg.token),
        _blob(msg.params),
        _optional_blob(msg.public_key),
        _optional_blob(msg.relin_key),
        _u16(len(msg.galois_keys)),
    ]
    body.extend(_blob(g) for g in msg.galois_keys)
    return _frame(TAG_OPEN_SESSION, b"".join(body))


def decode_open_session(data: bytes) -> OpenSessionMsg:
    reader = _unframe(data, TAG_OPEN_SESSION)
    request_id = reader.u32()
    tenant = reader.string()
    token = reader.string()
    params = reader.blob()
    public_key = _read_optional_blob(reader)
    relin_key = _read_optional_blob(reader)
    galois = tuple(reader.blob() for _ in range(reader.u16()))
    reader.done()
    return OpenSessionMsg(
        request_id=request_id, tenant=tenant, params=params,
        public_key=public_key, relin_key=relin_key, galois_keys=galois,
        token=token,
    )


def encode_session(msg: SessionMsg) -> bytes:
    return _frame(TAG_SESSION, _u32(msg.request_id) + _str(msg.session_id))


def decode_session(data: bytes) -> SessionMsg:
    reader = _unframe(data, TAG_SESSION)
    msg = SessionMsg(request_id=reader.u32(), session_id=reader.string())
    reader.done()
    return msg


def encode_submit(msg: SubmitMsg) -> bytes:
    if len(msg.operands) > 0xFFFF:
        raise ValueError(f"too many operands ({len(msg.operands)})")
    body = [
        _u32(msg.request_id),
        _str(msg.session_id),
        _str(msg.kind),
        _i64(msg.steps),
        _str(msg.backend),
        bytes((1 if msg.subscribe else 0,)),
        struct.pack(">d", msg.deadline),
        _u16(len(msg.operands)),
    ]
    body.extend(_blob(op) for op in msg.operands)
    return _frame(TAG_SUBMIT, b"".join(body))


def decode_submit(data: bytes) -> SubmitMsg:
    reader = _unframe(data, TAG_SUBMIT)
    request_id = reader.u32()
    session_id = reader.string()
    kind = reader.string()
    steps = reader.i64()
    backend = reader.string()
    subscribe = bool(reader.u8())
    deadline = reader.double()
    operands = tuple(reader.blob() for _ in range(reader.u16()))
    reader.done()
    return SubmitMsg(
        request_id=request_id, session_id=session_id, kind=kind,
        operands=operands, steps=steps, backend=backend, subscribe=subscribe,
        deadline=deadline,
    )


def encode_submit_circuit(msg: SubmitCircuitMsg) -> bytes:
    if len(msg.operands) > 0xFFFF:
        raise ValueError(f"too many operands ({len(msg.operands)})")
    body = [
        _u32(msg.request_id),
        _str(msg.session_id),
        _blob(msg.circuit),
        _str(msg.backend),
        bytes((1 if msg.subscribe else 0,)),
        struct.pack(">d", msg.deadline),
        _u16(len(msg.operands)),
    ]
    body.extend(_blob(op) for op in msg.operands)
    return _frame(TAG_SUBMIT_CIRCUIT, b"".join(body))


def decode_submit_circuit(data: bytes) -> SubmitCircuitMsg:
    reader = _unframe(data, TAG_SUBMIT_CIRCUIT)
    request_id = reader.u32()
    session_id = reader.string()
    circuit = reader.blob()
    backend = reader.string()
    subscribe = bool(reader.u8())
    deadline = reader.double()
    operands = tuple(reader.blob() for _ in range(reader.u16()))
    reader.done()
    return SubmitCircuitMsg(
        request_id=request_id, session_id=session_id, circuit=circuit,
        operands=operands, backend=backend, subscribe=subscribe,
        deadline=deadline,
    )


def encode_status(msg: StatusMsg) -> bytes:
    body = (
        _u32(msg.request_id) + _str(msg.job_id) + _str(msg.status)
        + _str(msg.error)
    )
    return _frame(TAG_STATUS, body)


def decode_status(data: bytes) -> StatusMsg:
    reader = _unframe(data, TAG_STATUS)
    msg = StatusMsg(
        request_id=reader.u32(), job_id=reader.string(),
        status=reader.string(), error=reader.string(),
    )
    reader.done()
    return msg


def encode_result(msg: ResultMsg) -> bytes:
    body = (
        _u32(msg.request_id) + _str(msg.job_id) + _str(msg.status)
        + _blob(msg.payload) + _str(msg.error)
    )
    return _frame(TAG_RESULT, body)


def decode_result(data: bytes) -> ResultMsg:
    reader = _unframe(data, TAG_RESULT)
    msg = ResultMsg(
        request_id=reader.u32(), job_id=reader.string(),
        status=reader.string(), payload=reader.blob(), error=reader.string(),
    )
    reader.done()
    return msg


def encode_event(msg: EventMsg) -> bytes:
    body = (
        _str(msg.job_id) + _str(msg.status) + _blob(msg.payload)
        + _str(msg.error)
    )
    return _frame(TAG_EVENT, body)


def decode_event(data: bytes) -> EventMsg:
    reader = _unframe(data, TAG_EVENT)
    msg = EventMsg(
        job_id=reader.string(), status=reader.string(),
        payload=reader.blob(), error=reader.string(),
    )
    reader.done()
    return msg


def encode_error(msg: ErrorMsg) -> bytes:
    body = _u32(msg.request_id) + _str(msg.message) + _str(msg.code)
    return _frame(TAG_ERROR, body)


def decode_error(data: bytes) -> ErrorMsg:
    reader = _unframe(data, TAG_ERROR)
    msg = ErrorMsg(
        request_id=reader.u32(), message=reader.string(),
        code=reader.string(),
    )
    reader.done()
    return msg


def encode_admin(msg: AdminMsg) -> bytes:
    body = (
        _u32(msg.request_id) + _str(msg.command) + _i64(msg.value)
        + _str(msg.result)
    )
    return _frame(TAG_ADMIN, body)


def decode_admin(data: bytes) -> AdminMsg:
    reader = _unframe(data, TAG_ADMIN)
    msg = AdminMsg(
        request_id=reader.u32(), command=reader.string(),
        value=reader.i64(), result=reader.string(),
    )
    reader.done()
    return msg


# ----------------------------------------------------------------------
# Telemetry exposition (STATS / TRACE)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StatsMsg:
    """Metrics request (client -> server, ``text == ""``) or reply.

    The reply's ``text`` is the server's Prometheus text exposition —
    one flat dump of every counter, gauge, and histogram, already
    rendered so a scraper-shaped consumer can pass it through verbatim.
    """

    request_id: int
    text: str = ""


@dataclass(frozen=True)
class TraceMsg:
    """Span-tree request (``spans == ()``) or reply for one job.

    ``spans`` is the job's recorded phase spans in recording order:
    ``(phase, parent, start, end)`` with ``parent`` the index of the
    enclosing span (``-1`` for top level) and ``start``/``end`` seconds
    on the server's monotonic clock. ``wall_seconds`` is submit start ->
    completion. A tracing-off server answers with zero spans.
    """

    request_id: int
    job_id: str
    wall_seconds: float = 0.0
    spans: tuple[tuple[str, int, float, float], ...] = ()


def encode_stats(msg: StatsMsg) -> bytes:
    return _frame(
        TAG_STATS, _u32(msg.request_id) + _blob(msg.text.encode("utf-8"))
    )


def decode_stats(data: bytes) -> StatsMsg:
    reader = _unframe(data, TAG_STATS)
    request_id = reader.u32()
    raw = reader.blob()
    reader.done()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"invalid UTF-8 in stats text: {exc}") from exc
    return StatsMsg(request_id=request_id, text=text)


def encode_trace(msg: TraceMsg) -> bytes:
    if len(msg.spans) > 0xFFFFFFFF:
        raise ValueError(f"too many spans ({len(msg.spans)})")
    body = [
        _u32(msg.request_id),
        _str(msg.job_id),
        struct.pack(">d", msg.wall_seconds),
        _u32(len(msg.spans)),
    ]
    for phase, parent, start, end in msg.spans:
        body.append(_str(phase) + _i64(parent) + struct.pack(">dd", start, end))
    return _frame(TAG_TRACE, b"".join(body))


def decode_trace(data: bytes) -> TraceMsg:
    reader = _unframe(data, TAG_TRACE)
    request_id = reader.u32()
    job_id = reader.string()
    wall_seconds = reader.double()
    spans = tuple(
        (reader.string(), reader.i64(), reader.double(), reader.double())
        for _ in range(reader.u32())
    )
    reader.done()
    return TraceMsg(
        request_id=request_id, job_id=job_id, wall_seconds=wall_seconds,
        spans=spans,
    )


# ----------------------------------------------------------------------
# Fleet worker-control plane (WORKER_KEYS / WORKER_JOB / WORKER_RESULT /
# WORKER_HEARTBEAT / WORKER_FAULTS)
# ----------------------------------------------------------------------
#
# The orchestrator <-> worker pipe speaks the same envelope as the public
# transport; nested blobs (params, keys, ciphertexts, circuits) are the
# *existing* key-registry wire encoding, each re-validated by its own
# CRC on the worker. A worker never sees a secret key.


@dataclass(frozen=True)
class WorkerKeysMsg:
    """Replicate one session's parameter set + evaluation keys.

    ``token`` is the front-door session id; the worker opens (or
    refreshes) a local session under it, so later :class:`WorkerJobMsg`
    routing is a single dict lookup. Sent once per (session, worker) and
    again whenever the front door observes new key material.
    """

    token: str
    tenant: str
    params: bytes  # framed params message
    relin_key: bytes | None = None
    galois_keys: tuple[bytes, ...] = ()


@dataclass(frozen=True)
class WorkerJobMsg:
    """One routed job: raw-op operands or a framed app circuit."""

    job_id: str
    token: str
    kind: str
    steps: int = 0
    operands: tuple[bytes, ...] = ()  # framed ciphertext messages
    circuit: bytes | None = None  # framed circuit message (CIRCUIT kind)


@dataclass(frozen=True)
class WorkerResultMsg:
    """Worker reply for one job: the framed result or a clean failure."""

    job_id: str
    status: str  # "done" | "failed"
    payload: bytes = b""  # framed ciphertext/circuit-outputs when done
    error: str = ""
    cycles: int = 0
    seconds: float = 0.0
    fidelity: str = ""


@dataclass(frozen=True)
class WorkerHeartbeatMsg:
    """Periodic liveness beacon; ``seq == 1`` doubles as the hello."""

    worker: int
    seq: int
    jobs_done: int = 0


@dataclass(frozen=True)
class WorkerFaultsMsg:
    """Re-arm a worker's deterministic fault plan at runtime.

    ``spec`` uses the :meth:`repro.service.fleet.FaultPlan.parse`
    grammar; an empty spec clears all pending faults.
    """

    spec: str = ""


def encode_worker_keys(msg: WorkerKeysMsg) -> bytes:
    body = [
        _str(msg.token),
        _str(msg.tenant),
        _blob(msg.params),
        _optional_blob(msg.relin_key),
        _u16(len(msg.galois_keys)),
    ]
    body.extend(_blob(g) for g in msg.galois_keys)
    return _frame(TAG_WORKER_KEYS, b"".join(body))


def decode_worker_keys(data: bytes) -> WorkerKeysMsg:
    reader = _unframe(data, TAG_WORKER_KEYS)
    token = reader.string()
    tenant = reader.string()
    params = reader.blob()
    relin_key = _read_optional_blob(reader)
    galois = tuple(reader.blob() for _ in range(reader.u16()))
    reader.done()
    return WorkerKeysMsg(
        token=token, tenant=tenant, params=params, relin_key=relin_key,
        galois_keys=galois,
    )


def encode_worker_job(msg: WorkerJobMsg) -> bytes:
    if len(msg.operands) > 0xFFFF:
        raise ValueError(f"too many operands ({len(msg.operands)})")
    body = [
        _str(msg.job_id),
        _str(msg.token),
        _str(msg.kind),
        _i64(msg.steps),
        _optional_blob(msg.circuit),
        _u16(len(msg.operands)),
    ]
    body.extend(_blob(op) for op in msg.operands)
    return _frame(TAG_WORKER_JOB, b"".join(body))


def decode_worker_job(data: bytes) -> WorkerJobMsg:
    reader = _unframe(data, TAG_WORKER_JOB)
    job_id = reader.string()
    token = reader.string()
    kind = reader.string()
    steps = reader.i64()
    circuit = _read_optional_blob(reader)
    operands = tuple(reader.blob() for _ in range(reader.u16()))
    reader.done()
    return WorkerJobMsg(
        job_id=job_id, token=token, kind=kind, steps=steps,
        operands=operands, circuit=circuit,
    )


def encode_worker_result(msg: WorkerResultMsg) -> bytes:
    body = (
        _str(msg.job_id) + _str(msg.status) + _blob(msg.payload)
        + _str(msg.error) + _i64(msg.cycles)
        + struct.pack(">d", msg.seconds) + _str(msg.fidelity)
    )
    return _frame(TAG_WORKER_RESULT, body)


def decode_worker_result(data: bytes) -> WorkerResultMsg:
    reader = _unframe(data, TAG_WORKER_RESULT)
    msg = WorkerResultMsg(
        job_id=reader.string(), status=reader.string(),
        payload=reader.blob(), error=reader.string(), cycles=reader.i64(),
        seconds=reader.double(), fidelity=reader.string(),
    )
    reader.done()
    return msg


def encode_worker_heartbeat(msg: WorkerHeartbeatMsg) -> bytes:
    body = _u32(msg.worker) + _i64(msg.seq) + _i64(msg.jobs_done)
    return _frame(TAG_WORKER_HEARTBEAT, body)


def decode_worker_heartbeat(data: bytes) -> WorkerHeartbeatMsg:
    reader = _unframe(data, TAG_WORKER_HEARTBEAT)
    msg = WorkerHeartbeatMsg(
        worker=reader.u32(), seq=reader.i64(), jobs_done=reader.i64()
    )
    reader.done()
    return msg


def encode_worker_faults(msg: WorkerFaultsMsg) -> bytes:
    return _frame(TAG_WORKER_FAULTS, _str(msg.spec))


def decode_worker_faults(data: bytes) -> WorkerFaultsMsg:
    reader = _unframe(data, TAG_WORKER_FAULTS)
    msg = WorkerFaultsMsg(spec=reader.string())
    reader.done()
    return msg
