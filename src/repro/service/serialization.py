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

The **control plane** speaks the same envelope: the transport's messages
(tags 0x10-0x1A, which fleet workers speak too) carry routing fields
plus nested data-plane blobs (each itself a framed message) — a bit
flipped anywhere in a control frame is caught by the same checksum that
protects a ciphertext. Each control message is a
frozen dataclass whose wire layout is declared once, in
:data:`CONTROL_MESSAGES` (tag -> dataclass + ``(field, kind)`` pairs in
wire order); :func:`encode_message` and :func:`decode_message` are the
whole codec, and receivers dispatch on the decoded message's type.

**App circuits** (tag 0x07) encode a whole multi-step encrypted program —
named ciphertext inputs, a plaintext constant table, an SSA step list,
and named outputs (see :mod:`repro.service.circuits`); their results
travel back as a named-output map (tag 0x08). The byte-for-byte layout
of every message lives in ``docs/wire-protocol.md``.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

from repro.bfv.keys import GaloisKey, PublicKey, RelinKey
from repro.bfv.params import BfvParameters
from repro.bfv.scheme import Ciphertext
from repro.polymath.poly import (
    Polynomial,
    PolynomialRing,
    _packed_words,
    _word_values,
)
from repro.polymath.rns import RnsBasis
from repro.service.circuits import (
    CIRCUIT_VERSION,
    Circuit,
    CircuitConst,
    CircuitError,
    CircuitStep,
    CONST_PLAIN,
    CONST_SCALAR,
    MAX_PLAIN_COEFFS,
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

#: Tag -> short name for error messages (control names join from
#: :data:`CONTROL_MESSAGES`).
TAG_NAMES = {
    TAG_PARAMS: "params",
    TAG_POLYNOMIAL: "polynomial",
    TAG_CIPHERTEXT: "ciphertext",
    TAG_PUBLIC_KEY: "public-key",
    TAG_RELIN_KEY: "relin-key",
    TAG_GALOIS_KEY: "galois-key",
    TAG_CIRCUIT: "circuit",
    TAG_CIRCUIT_OUTPUTS: "circuit-outputs",
}

DIGEST_BYTES = 32


class WireFormatError(ValueError):
    """Malformed, truncated, corrupted, or unsupported wire bytes."""


class ParamsMismatchError(WireFormatError):
    """The embedded params digest does not match the receiving session."""


# ----------------------------------------------------------------------
# Primitive encoders/decoders
# ----------------------------------------------------------------------


_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")


def _uint(value: int, width: int) -> bytes:
    if not 0 <= value < 1 << 8 * width:
        raise ValueError(
            f"{value} does not fit an unsigned {8 * width}-bit field"
        )
    return value.to_bytes(width, "big")


_u16 = functools.partial(_uint, width=2)
_u32 = functools.partial(_uint, width=4)


def _bigint(value: int) -> bytes:
    if value < 0:
        raise ValueError("wire bigints are unsigned")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return _u32(len(raw)) + raw


def _i64(value: int) -> bytes:
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"{value} does not fit a signed 64-bit field")
    return _I64.pack(value)


def _str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"wire string too long ({len(raw)} bytes)")
    return _u16(len(raw)) + raw


def _blob(data: bytes) -> bytes:
    return _u32(len(data)) + data


class _Reader:
    """Cursor over a message body, bytes ``start`` to ``end`` of ``data``
    (all of it by default), with strict bounds checking."""

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self._data = data
        self._start = self._pos = start
        self._end = len(data) if end is None else end

    def take(self, count: int) -> bytes:
        if self._pos + count > self._end:
            raise WireFormatError(
                f"truncated message: wanted {count} bytes at offset "
                f"{self._pos - self._start}, only {self._end - self._pos} left"
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

    def bigints(self, count: int) -> tuple[int, ...]:
        """``count`` consecutive bigints in one tight pass.

        The same bytes, values and truncation error as ``count`` calls to
        :meth:`bigint`, without two method calls per value. It serves
        only the kind-1 plain constant of a version-1 or version-2
        circuit body (a run of ``n`` of them); version 3 packs the
        constant into declared-width words instead.
        """
        data, pos, end = self._data, self._pos, self._end
        length_at, from_bytes = _U32.unpack_from, int.from_bytes
        values = []
        append = values.append
        for _ in range(count):
            start = pos + 4
            if start > end:
                break
            stop = start + length_at(data, pos)[0]
            if stop > end:
                break
            append(from_bytes(data[start:stop], "big"))
            pos = stop
        self._pos = pos
        if len(values) < count:
            self.bigint()  # re-reads the short bigint at ``pos``: raises
        return tuple(values)

    def double(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]

    def string(self, length_bytes: int = 2) -> str:
        raw = self.take(int.from_bytes(self.take(length_bytes), "big"))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid UTF-8 in wire string: {exc}") from exc

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self._pos != self._end:
            raise WireFormatError(
                f"{self._end - self._pos} trailing bytes after message body"
            )


def _frame(tag: int, *body: bytes) -> bytes:
    """Wrap the body, given in parts, in the header + CRC32 trailer: one
    join, the checksum running over the parts."""
    head = MAGIC + bytes((WIRE_VERSION, tag))
    crc = zlib.crc32(head)
    for part in body:
        crc = zlib.crc32(part, crc)
    return b"".join((head, *body, _u32(crc)))


def _body(data: bytes) -> _Reader:
    """A reader over a verified frame's body, without copying it."""
    return _Reader(data, len(MAGIC) + 2, len(data) - 4)


def _unframe(data: bytes, expected_tag: int) -> _Reader:
    """Validate the frame and its tag; return a reader over the body."""
    tag = verify_frame(data)
    if tag != expected_tag:
        raise WireFormatError(
            f"expected a {TAG_NAMES.get(expected_tag, expected_tag)} message, "
            f"got {TAG_NAMES.get(tag, f'tag {tag}')}"
        )
    return _body(data)


def peek_tag(data: bytes) -> int:
    """Return the type tag of a wire message without decoding it."""
    if len(data) < len(MAGIC) + 2 or data[: len(MAGIC)] != MAGIC:
        raise WireFormatError("not a CFHE wire message")
    return data[len(MAGIC) + 1]


def verify_frame(data: bytes) -> int:
    """Integrity-check a framed message without decoding its body.

    Validates the magic, wire version, and CRC32 trailer, and returns
    the type tag. The fleet router runs this over every worker EVENT
    payload so a corrupted result is requeued instead of being handed to
    a client that would only discover the damage on decode.
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
    if zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "big"):
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
        _F64.pack(params.sigma),
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

    Memoised per parameter set: equal ``BfvParameters`` (``n``, ``q``,
    ``t``, ``sigma`` and the bases' moduli) encode alike, bar ``sigma``
    ``0.0`` and ``-0.0``, so the memo is keyed on ``sigma``'s encoding
    too.
    """
    return _params_digest(params, _F64.pack(params.sigma))


@functools.lru_cache(maxsize=32)
def _params_digest(params: BfvParameters, sigma: bytes) -> bytes:
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
@functools.lru_cache(maxsize=64)
def _ring(n: int, q: int) -> PolynomialRing:
    """A decode ring per client-chosen ``(n, q)``, LRU-bounded.

    Rings compare by ``(n, q)``, so a ring rebuilt after eviction equals
    the one it replaces.
    """
    return PolynomialRing(n, q, allow_non_ntt=True)


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


def _pack_ring_polys(polys, params: BfvParameters) -> list[bytes]:
    for p in polys:
        if p.ring.n != params.n or p.ring.q != params.q:
            raise ValueError(
                f"polynomial ring {p.ring} does not match params "
                f"(n={params.n}, q={params.q})"
            )
    return [p.pack() for p in polys]


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
    return _frame(TAG_CIPHERTEXT, params_digest(ct.params), _u16(ct.size),
                  *_pack_ring_polys(ct.polys, ct.params))


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
    return _frame(TAG_PUBLIC_KEY, params_digest(params),
                  *_pack_ring_polys((key.kp1, key.kp2), params))


def deserialize_public_key(data: bytes, params: BfvParameters) -> PublicKey:
    reader = _unframe(data, TAG_PUBLIC_KEY)
    _check_digest(reader.take(DIGEST_BYTES), params, "public key")
    kp1, kp2 = _unpack_ring_polys(reader, 2, params)
    reader.done()
    return PublicKey(kp1=kp1, kp2=kp2)


def _key_rows_body(rows, params: BfvParameters) -> list[bytes]:
    return [_u16(len(rows)),
            *(packed for row in rows for packed in _pack_ring_polys(row, params))]


def _read_key_rows(reader: _Reader, params: BfvParameters):
    count = reader.u16()
    if count < 1:
        raise WireFormatError("key-switching key needs at least one row")
    return tuple(
        tuple(_unpack_ring_polys(reader, 2, params)) for _ in range(count)
    )


def serialize_relin_key(key: RelinKey, params: BfvParameters) -> bytes:
    return _frame(TAG_RELIN_KEY, params_digest(params), _u16(key.digit_bits),
                  *_key_rows_body(key.rows, params))


def deserialize_relin_key(data: bytes, params: BfvParameters) -> RelinKey:
    reader = _unframe(data, TAG_RELIN_KEY)
    _check_digest(reader.take(DIGEST_BYTES), params, "relin key")
    digit_bits = reader.u16()
    rows = _read_key_rows(reader, params)
    reader.done()
    return RelinKey(rows=rows, digit_bits=digit_bits)


def serialize_galois_key(key: GaloisKey, params: BfvParameters) -> bytes:
    return _frame(TAG_GALOIS_KEY, params_digest(params), _u32(key.exponent),
                  _u16(key.digit_bits), *_key_rows_body(key.rows, params))


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
#   u8  circuit_version        (1, 2 or 3; anything else -> rejected)
#   str name
#   u16 num_inputs  | str * inputs
#   u16 num_consts  | per const: u8 kind
#                     kind 0 (scalar): i64 value
#                     kind 1 (plain, versions 1-2 only):
#                                      u32 num_coeffs | bigint * coeffs
#                     kind 2 (packed plain, version 3 only):
#                                      u8 width | u32 num_coeffs |
#                                      num_coeffs * width big-endian bytes
#   u16 num_steps   | per step:  u8 op | u16 * args (arity fixed per op;
#                     signed "s" immediates travel as two's-complement u16)
#   u16 num_outputs | per output: str name | u16 register
#
# Encoders emit the lowest version whose op set and constant kinds cover
# the circuit (version 3 once a plain constant appears; else version 1
# for the original seven ops, version 2 once rotations or split tensor
# steps appear), so circuits without a plain constant keep their exact
# bytes — and content addresses — across both format bumps. Decoders
# accept every version but reject version-2 opcodes inside a version-1
# body, kind 2 inside a version-1/2 body and kind 1 inside a version-3
# body: each version has one encoding of a circuit. A packed constant's
# width is declared (the minimal byte width of its largest coefficient,
# at least 1; a wider one is rejected), never guessed from the data, and
# it decodes in one numpy pass at that width. Either kind's count is
# refused above MAX_PLAIN_COEFFS before any coefficient is read.
#
# Structural validation (register bounds, op codes, argument layouts)
# is the same validate_circuit() the in-memory constructor runs, so a
# malformed description is rejected identically however it arrives.


#: Wire kind of a plain constant in a version-3 body; in memory it is a
#: ``CONST_PLAIN`` :class:`CircuitConst` like a kind-1 one.
WIRE_CONST_PACKED = 2


def _packed_plain(coeffs: tuple[int, ...]) -> bytes:
    """A plain constant as wire kind 2: ``u8 width | u32 count | words``."""
    width = max(1, (max(coeffs).bit_length() + 7) // 8)
    if width > 0xFF:
        raise ValueError(
            f"plain constant coefficient of {width} bytes does not fit "
            "the packed encoding's u8 width"
        )
    raw = b"".join([c.to_bytes(width, "big") for c in coeffs])
    return bytes((WIRE_CONST_PACKED, width)) + _u32(len(coeffs)) + raw


def _plain_count(reader: _Reader) -> int:
    """A plain constant's ``u32`` coefficient count, refused above
    :data:`~repro.service.circuits.MAX_PLAIN_COEFFS` before any
    coefficient is read."""
    count = reader.u32()
    if count > MAX_PLAIN_COEFFS:
        raise WireFormatError(
            f"plain constant declares {count} coefficients; at most "
            f"{MAX_PLAIN_COEFFS} are supported"
        )
    return count


def _read_packed_plain(reader: _Reader) -> tuple[int, ...]:
    """Inverse of :func:`_packed_plain` after the kind byte."""
    width = reader.u8()
    count = _plain_count(reader)
    if width == 0 or count == 0:
        raise WireFormatError(
            f"packed plain constant needs a nonzero width and count, got "
            f"width {width}, count {count}"
        )
    raw = reader.take(count * width)
    if width > 1 and raw[::width].count(0) == count:
        raise WireFormatError(
            f"packed plain constant declares width {width}, but every "
            f"coefficient fits {width - 1} bytes"
        )
    return _word_values(_packed_words(raw, count, width))


def serialize_circuit(circuit: Circuit) -> bytes:
    # Register/constant/output counts are u16-representable by
    # construction: validate_circuit (run by the Circuit constructor)
    # bounds them all at 65535.
    parts = [bytes((wire_version(circuit),)), _str(circuit.name),
             _u16(len(circuit.inputs))]
    parts.extend(_str(name) for name in circuit.inputs)
    parts.append(_u16(len(circuit.consts)))
    for const in circuit.consts:
        if const.kind == CONST_SCALAR:
            parts.append(bytes((CONST_SCALAR,)) + _i64(const.scalar))
        else:
            parts.append(_packed_plain(const.coeffs))
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
    return _frame(TAG_CIRCUIT, *parts)


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
            continue
        if kind == CONST_PLAIN and version < 3:
            coeffs = reader.bigints(_plain_count(reader))
        elif kind == WIRE_CONST_PACKED and version == 3:
            coeffs = _read_packed_plain(reader)
        elif kind in (CONST_PLAIN, WIRE_CONST_PACKED):
            raise WireFormatError(
                f"circuit constant kind {kind} is not part of encoding "
                f"version {version} (kind 1 is versions 1-2 only, kind 2 "
                "version 3 only)"
            )
        else:
            raise WireFormatError(f"unknown circuit constant kind {kind}")
        consts.append(CircuitConst(kind=CONST_PLAIN, coeffs=coeffs))
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
    parts = [_u16(len(outputs))]
    for name, ct in outputs.items():
        parts.append(_str(name) + _blob(serialize_ciphertext(ct)))
    return _frame(TAG_CIRCUIT_OUTPUTS, *parts)


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
    """Unsolicited completion push for a subscribed job.

    A done job's event also carries what the serving backend modelled:
    ``cycles``, ``model_seconds`` and the ``fidelity`` it ran at (the
    fleet router copies them into the front door's job metrics; the
    front door measures ``host_seconds`` itself). A failed job's carries
    the ``cycles`` it executed before failing.
    """

    job_id: str
    status: str
    payload: bytes = b""  # framed ciphertext message when status == done
    error: str = ""
    cycles: int = 0
    model_seconds: float = 0.0
    fidelity: str = ""


@dataclass(frozen=True)
class ErrorMsg:
    """Request failure (echoes the request id) or, with ``request_id
    0``, a connection-level protocol error before the link closes.

    ``code`` is the machine-readable rejection class (``"auth"``,
    ``"quota"``, ``"unavailable"``; empty = untyped) —
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


# ----------------------------------------------------------------------
# The control-plane codec: one layout table, one encoder, one decoder
# ----------------------------------------------------------------------
#
# Each control message is its dataclass plus its fields in *wire* order,
# which is not always the dataclass order (OPEN_SESSION sends ``token``
# third; the submits send ``operands`` last). A field's
# kind names its encoding — the primitive table in docs/wire-protocol.md.


#: Field kind -> (encode the value, decode it from a :class:`_Reader`).
_FIELD_KINDS = {
    "u32": (_u32, _Reader.u32),
    "i64": (_i64, _Reader.i64),
    "f64": (_F64.pack, _Reader.double),
    "bool": (lambda flag: b"\x01" if flag else b"\x00",
             lambda reader: bool(reader.u8())),
    "str": (_str, _Reader.string),
    "text": (lambda text: _blob(text.encode("utf-8")),
             lambda reader: reader.string(length_bytes=4)),
    "blob": (_blob, _Reader.blob),
    "opt_blob": (lambda blob: b"\x00" if blob is None else b"\x01" + _blob(blob),
                 lambda reader: reader.blob() if reader.u8() else None),
    "blobs": (lambda blobs: _u16(len(blobs)) + b"".join(map(_blob, blobs)),
              lambda reader: tuple(reader.blob() for _ in range(reader.u16()))),
    "spans": (lambda spans: _u32(len(spans)) + b"".join(
        _str(phase) + _i64(parent) + _F64.pack(start) + _F64.pack(end)
        for phase, parent, start, end in spans
    ), lambda reader: tuple(
        (reader.string(), reader.i64(), reader.double(), reader.double())
        for _ in range(reader.u32())
    )),
}


class MessageLayout(NamedTuple):
    """One control tag: its name, message dataclass, and ``(field,
    kind)`` pairs in wire order."""

    tag: int
    name: str
    type: type
    fields: tuple[tuple[str, str], ...]


#: Every control-plane message, keyed by tag.
CONTROL_MESSAGES = {
    tag: MessageLayout(tag, name, cls, tuple(
        tuple(field.split(":")) for field in spec.split()
    ))
    for tag, name, cls, spec in (
        (TAG_OPEN_SESSION, "open-session", OpenSessionMsg,
         "request_id:u32 tenant:str token:str params:blob "
         "public_key:opt_blob relin_key:opt_blob galois_keys:blobs"),
        (TAG_SESSION, "session", SessionMsg, "request_id:u32 session_id:str"),
        (TAG_SUBMIT, "submit", SubmitMsg,
         "request_id:u32 session_id:str kind:str steps:i64 backend:str "
         "subscribe:bool deadline:f64 operands:blobs"),
        (TAG_STATUS, "status", StatusMsg,
         "request_id:u32 job_id:str status:str error:str"),
        (TAG_RESULT, "result", ResultMsg,
         "request_id:u32 job_id:str status:str payload:blob error:str"),
        (TAG_EVENT, "event", EventMsg,
         "job_id:str status:str payload:blob error:str cycles:i64 "
         "model_seconds:f64 fidelity:str"),
        (TAG_ERROR, "error", ErrorMsg, "request_id:u32 message:str code:str"),
        (TAG_SUBMIT_CIRCUIT, "submit-circuit", SubmitCircuitMsg,
         "request_id:u32 session_id:str circuit:blob backend:str "
         "subscribe:bool deadline:f64 operands:blobs"),
        (TAG_STATS, "stats", StatsMsg, "request_id:u32 text:text"),
        (TAG_TRACE, "trace", TraceMsg,
         "request_id:u32 job_id:str wall_seconds:f64 spans:spans"),
        (TAG_ADMIN, "admin", AdminMsg,
         "request_id:u32 command:str value:i64 result:str"),
    )
}
TAG_NAMES.update((tag, layout.name) for tag, layout in CONTROL_MESSAGES.items())
_LAYOUT_BY_TYPE = {layout.type: layout for layout in CONTROL_MESSAGES.values()}


def encode_message(msg) -> bytes:
    """Frame any control-plane message by its layout.

    A field that does not fit its kind (an integer out of range, an
    over-long string, too many blobs) raises :class:`ValueError` naming
    the message and the field.
    """
    layout = _LAYOUT_BY_TYPE[type(msg)]
    parts = []
    for name, kind in layout.fields:
        try:
            parts.append(_FIELD_KINDS[kind][0](getattr(msg, name)))
        except ValueError as exc:
            raise ValueError(f"{layout.type.__name__}.{name}: {exc}") from None
    return _frame(layout.tag, *parts)


def decode_message(data: bytes):
    """Decode any control-plane frame into its message dataclass.

    Bad framing, a data-plane or unknown tag, truncation, trailing bytes
    and invalid UTF-8 all raise :class:`WireFormatError`.
    """
    tag = verify_frame(data)
    layout = CONTROL_MESSAGES.get(tag)
    if layout is None:
        raise WireFormatError(
            f"{TAG_NAMES.get(tag, f'tag 0x{tag:02x}')} is not a control "
            "message"
        )
    reader = _body(data)
    values = {
        name: _FIELD_KINDS[kind][1](reader) for name, kind in layout.fields
    }
    reader.done()
    return layout.type(**values)
