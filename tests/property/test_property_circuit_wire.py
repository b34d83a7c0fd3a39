"""Property tests: the circuit wire encoding round-trips and rejects junk.

Random well-formed circuits must ``deserialize(serialize(c)) == c`` with
deterministic bytes (the server content-addresses circuits by their
encoding), and every class of malformed input — bit flips, truncation,
unknown op codes or constant kinds, out-of-range register/constant
references, wrong circuit versions, trailing bytes — must be rejected
with :class:`WireFormatError` before any polynomial math happens.

Plain constants travel as version-3 packed words (wire kind 2) at every
coefficient width; bodies written by the version-2 encoder, kind-1
constants included, still decode to the same circuits.
"""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.circuits import (
    CIRCUIT_VERSION,
    CONST_PLAIN,
    CONST_SCALAR,
    MAX_PLAIN_COEFFS,
    Circuit,
    CircuitBuilder,
    CircuitConst,
    CircuitError,
    CircuitStep,
    OP_ADD,
    OP_ADD_CONST,
    OP_MAC_CONST,
    OP_MUL_CONST,
    OP_MUL,
    OP_MUL_RELIN,
    OP_RELINEARIZE,
    OP_ROTATE_COLUMNS,
    OP_ROTATE_ROWS,
    OP_SPECS,
    OP_SQUARE,
    OP_SQUARE_RELIN,
    OP_SUB,
)
from repro.service.serialization import (
    MAGIC,
    TAG_CIRCUIT,
    WIRE_CONST_PACKED,
    WIRE_VERSION,
    WireFormatError,
    deserialize_circuit,
    serialize_circuit,
)

# ----------------------------------------------------------------------
# Random well-formed circuits
# ----------------------------------------------------------------------


@st.composite
def circuits(draw) -> Circuit:
    n_inputs = draw(st.integers(1, 4))
    inputs = tuple(f"in{i}" for i in range(n_inputs))
    consts = []
    for i in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            consts.append(CircuitConst(
                kind=CONST_SCALAR,
                scalar=draw(st.integers(-(2**63), 2**63 - 1)),
            ))
        else:
            coeffs = tuple(draw(st.lists(
                st.integers(0, 2**64), min_size=1, max_size=8
            )))
            consts.append(CircuitConst(kind=CONST_PLAIN, coeffs=coeffs))
    plain_idx = [i for i, c in enumerate(consts) if c.kind == CONST_PLAIN]
    steps = []
    defined = n_inputs
    for _ in range(draw(st.integers(1, 10))):
        ops = [OP_ADD, OP_SUB, OP_MUL_RELIN, OP_SQUARE_RELIN]
        if consts:
            ops += [OP_MUL_CONST, OP_MAC_CONST]
        if plain_idx:
            ops.append(OP_ADD_CONST)
        op = draw(st.sampled_from(ops))
        reg = lambda: draw(st.integers(0, defined - 1))  # noqa: E731
        if op == OP_ADD_CONST:
            args = (reg(), draw(st.sampled_from(plain_idx)))
        elif op in (OP_MUL_CONST,):
            args = (reg(), draw(st.integers(0, len(consts) - 1)))
        elif op == OP_MAC_CONST:
            args = (reg(), reg(), draw(st.integers(0, len(consts) - 1)))
        elif op == OP_SQUARE_RELIN:
            args = (reg(),)
        else:
            args = (reg(), reg())
        steps.append(CircuitStep(op=op, args=args))
        defined += 1
    n_outputs = draw(st.integers(1, 3))
    outputs = tuple(
        (f"out{i}", draw(st.integers(0, defined - 1)))
        for i in range(n_outputs)
    )
    return Circuit(
        name=draw(st.sampled_from(["c", "logreg", "cryptonets-mini"])),
        inputs=inputs, consts=tuple(consts), steps=tuple(steps),
        outputs=outputs,
    )


class TestRoundTrip:
    @given(circuit=circuits())
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_identity(self, circuit):
        wire = serialize_circuit(circuit)
        recovered = deserialize_circuit(wire)
        assert recovered == circuit
        # Determinism: the encoding doubles as the content address.
        assert serialize_circuit(recovered) == wire

    def test_app_circuits_round_trip(self):
        """The real compiled applications survive the wire."""
        from repro.apps.cryptonets import MiniCryptoNets
        from repro.apps.logreg import MiniLogisticRegression

        for circuit in (
            MiniLogisticRegression(num_features=3, seed=1).to_circuit(batch=2),
            MiniCryptoNets(seed=2).to_circuit(),
        ):
            assert deserialize_circuit(serialize_circuit(circuit)) == circuit


# ----------------------------------------------------------------------
# Malformed input rejection
# ----------------------------------------------------------------------


def _frame_circuit_body(body: bytes) -> bytes:
    """Wrap a hand-built circuit body in a valid envelope (CRC included),
    so the tests reach the *structural* validation behind the checksum."""
    head = MAGIC + bytes((WIRE_VERSION, TAG_CIRCUIT)) + body
    return head + zlib.crc32(head).to_bytes(4, "big")


def _u16(v):
    return v.to_bytes(2, "big")


def _body(version=CIRCUIT_VERSION, name=b"\x00\x01c",
          inputs=(b"\x00\x01a",), consts=b"\x00\x00",
          steps=((OP_SQUARE_RELIN, (0,)),), outputs=(("o", 0),)) -> bytes:
    parts = [bytes((version,)), name, _u16(len(inputs))]
    parts.extend(inputs)
    parts.append(consts)
    parts.append(_u16(len(steps)))
    for op, args in steps:
        parts.append(bytes((op,)))
        parts.extend(_u16(a) for a in args)
    parts.append(_u16(len(outputs)))
    for oname, reg in outputs:
        raw = oname.encode()
        parts.append(_u16(len(raw)) + raw + _u16(reg))
    return b"".join(parts)


@pytest.fixture(scope="module", params=["tensor", "packed-plain"])
def valid_wire(request):
    """A version-1 tensor circuit, and a version-3 one whose packed
    constant spans most of its bytes (so the fuzz reaches kind 2)."""
    builder = CircuitBuilder("fuzz")
    x = builder.input("x")
    y = builder.mul_relin(builder.square_relin(x), x)
    if request.param == "packed-plain":
        y = builder.add_const(y, builder.plain(range(1000, 1064)))
    builder.output("y", y)
    return serialize_circuit(builder.build())


class TestRejection:
    @given(position=st.integers(0, 10_000), flip=st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_bit_flips_rejected(self, valid_wire, position, flip):
        corrupted = bytearray(valid_wire)
        corrupted[position % len(corrupted)] ^= flip
        with pytest.raises(WireFormatError):
            deserialize_circuit(bytes(corrupted))

    @given(cut=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_truncation_rejected(self, valid_wire, cut):
        truncated = valid_wire[: cut % len(valid_wire)]
        with pytest.raises(WireFormatError):
            deserialize_circuit(truncated)

    def test_trailing_bytes_rejected(self, valid_wire):
        with pytest.raises(WireFormatError):
            deserialize_circuit(valid_wire + b"\x00")

    def test_unknown_op_code_rejected(self):
        wire = _frame_circuit_body(_body(steps=((0x7F, (0,)),)))
        with pytest.raises(WireFormatError, match="unknown circuit op"):
            deserialize_circuit(wire)

    def test_unknown_circuit_version_rejected(self):
        wire = _frame_circuit_body(_body(version=CIRCUIT_VERSION + 1))
        with pytest.raises(WireFormatError, match="circuit encoding version"):
            deserialize_circuit(wire)

    def test_undefined_register_rejected(self):
        # square_relin(reg 5) with a single input: register 5 never exists.
        wire = _frame_circuit_body(_body(steps=((OP_SQUARE_RELIN, (5,)),)))
        with pytest.raises(WireFormatError, match="not defined"):
            deserialize_circuit(wire)

    def test_missing_constant_rejected(self):
        wire = _frame_circuit_body(_body(steps=((OP_MUL_CONST, (0, 0)),)))
        with pytest.raises(WireFormatError, match="outside the table"):
            deserialize_circuit(wire)

    def test_unknown_constant_kind_rejected(self):
        wire = _frame_circuit_body(_body(consts=_u16(1) + bytes((9,))))
        with pytest.raises(WireFormatError, match="constant kind"):
            deserialize_circuit(wire)

    def test_output_register_out_of_range_rejected(self):
        wire = _frame_circuit_body(_body(outputs=(("o", 9),)))
        with pytest.raises(WireFormatError, match="references register"):
            deserialize_circuit(wire)

    def test_empty_step_list_rejected(self):
        wire = _frame_circuit_body(_body(steps=()))
        with pytest.raises(WireFormatError, match="at least one step"):
            deserialize_circuit(wire)

    def test_scalar_add_const_rejected(self):
        """add_const must take a packed plaintext, never a bare scalar."""
        scalar_const = _u16(1) + bytes((CONST_SCALAR,)) + (3).to_bytes(
            8, "big", signed=True
        )
        wire = _frame_circuit_body(_body(
            consts=scalar_const, steps=((OP_ADD_CONST, (0, 0)),)
        ))
        with pytest.raises(WireFormatError, match="packed plaintext"):
            deserialize_circuit(wire)


class TestConstructorValidation:
    """The in-memory constructor enforces the same rules as the decoder."""

    def test_unknown_op(self):
        with pytest.raises(CircuitError, match="unknown op"):
            Circuit(name="c", inputs=("x",), consts=(),
                    steps=(CircuitStep(op=0x55, args=(0,)),),
                    outputs=(("y", 0),))

    def test_wrong_arity(self):
        with pytest.raises(CircuitError, match="takes 2 args"):
            Circuit(name="c", inputs=("x",), consts=(),
                    steps=(CircuitStep(op=OP_ADD, args=(0,)),),
                    outputs=(("y", 0),))

    def test_duplicate_outputs(self):
        with pytest.raises(CircuitError, match="duplicate output"):
            Circuit(name="c", inputs=("x",), consts=(),
                    steps=(CircuitStep(op=OP_SQUARE_RELIN, args=(0,)),),
                    outputs=(("y", 0), ("y", 1)))

    def test_forward_reference(self):
        with pytest.raises(CircuitError, match="not defined"):
            Circuit(name="c", inputs=("x",), consts=(),
                    steps=(CircuitStep(op=OP_ADD, args=(0, 1)),),
                    outputs=(("y", 1),))

    def test_plain_constant_above_the_largest_ring(self):
        with pytest.raises(CircuitError, match="at most 65536"):
            _plain_circuit((1,) * (MAX_PLAIN_COEFFS + 1))

    def test_every_op_has_a_spec_entry(self):
        assert set(OP_SPECS) == {
            OP_ADD, OP_SUB, OP_ADD_CONST, OP_MUL_CONST, OP_MAC_CONST,
            OP_MUL_RELIN, OP_SQUARE_RELIN,
            OP_ROTATE_ROWS, OP_ROTATE_COLUMNS, OP_MUL, OP_SQUARE,
            OP_RELINEARIZE,
        }


# ----------------------------------------------------------------------
# Packed plain constants (circuit version 3, wire constant kind 2)
# ----------------------------------------------------------------------


def _plain_circuit(coeffs) -> Circuit:
    """``o = a + plain(coeffs)``: the circuit :func:`_plain_body` encodes."""
    builder = CircuitBuilder("c")
    a = builder.input("a")
    builder.output("o", builder.add_const(a, builder.plain(coeffs)))
    return builder.build()


def _packed(coeffs, width) -> bytes:
    """One hand-packed kind-2 constant, its kind byte included."""
    return (bytes((WIRE_CONST_PACKED, width)) + len(coeffs).to_bytes(4, "big")
            + b"".join(c.to_bytes(width, "big") for c in coeffs))


def _plain_body(const: bytes, version=3) -> bytes:
    """A body holding one constant that ``add_const`` reads."""
    return _body(version=version, consts=_u16(1) + const,
                 steps=((OP_ADD_CONST, (0, 0)),), outputs=(("o", 1),))


#: A version-2 body with a kind-1 plain constant (0, 1, 255, 256, 70000;
#: the zero is a zero-length bigint) and a scalar -3, as the version-2
#: encoder wrote it: ``y = -3 * (rotate_rows(x, 1) + plain)``.
V2_KIND1_WIRE = bytes.fromhex(
    "4346484501070200046269617300010001780002010000000500000000000000"
    "010100000001ff0000000201000000000301117000fffffffffffffffd000308"
    "000000010300010000040002000100010001790003b9139b4c"
)

#: Circuits without a plain constant keep their version-1 and version-2
#: bytes: ``5 * x^3`` (version 1) and ``relinearize(rotate_rows(x, -2)^2)``
#: (version 2), as the version-2 encoder wrote them.
V1_WIRE = bytes.fromhex(
    "4346484501070100056375626963000100017800010000000000000000050003"
    "07000006000100000400020000000100017900039aad762b"
)
V2_WIRE = bytes.fromhex(
    "4346484501070200047370696e000100017800000003080000fffe0b00010c00"
    "0200010001790003ece8f0ac"
)


class TestPackedPlain:
    @pytest.mark.parametrize("width", [1, 2, 4, 5, 8, 9, 17])
    @pytest.mark.parametrize("fill", ["mixed", "maximal"])
    def test_round_trip_at_each_width(self, width, fill):
        top = (1 << 8 * width) - 1
        if fill == "maximal":
            coeffs = (top,) * 16
        else:
            rng = random.Random(width)
            coeffs = (0, top, 1 << 8 * (width - 1)) + tuple(
                rng.randrange(top + 1) for _ in range(29)
            )
        circuit = _plain_circuit(coeffs)
        wire = serialize_circuit(circuit)
        assert wire == _frame_circuit_body(_plain_body(_packed(coeffs, width)))
        assert deserialize_circuit(wire) == circuit

    def test_all_zero_constant_is_one_byte_wide(self):
        circuit = _plain_circuit((0,) * 8)
        wire = serialize_circuit(circuit)
        assert wire == _frame_circuit_body(_plain_body(_packed((0,) * 8, 1)))
        assert deserialize_circuit(wire) == circuit

    def test_kind2_in_version1_body_rejected(self):
        wire = _frame_circuit_body(_plain_body(_packed((1, 2), 1), version=1))
        with pytest.raises(WireFormatError, match="not part of encoding version 1"):
            deserialize_circuit(wire)

    def test_kind2_in_version2_body_rejected(self):
        wire = _frame_circuit_body(_plain_body(_packed((1, 2), 1), version=2))
        with pytest.raises(WireFormatError, match="not part of encoding version 2"):
            deserialize_circuit(wire)

    def test_kind1_in_version3_body_rejected(self):
        kind1 = bytes((CONST_PLAIN,)) + (1).to_bytes(4, "big") + b"\x00" * 4
        wire = _frame_circuit_body(_plain_body(kind1))
        with pytest.raises(WireFormatError, match="not part of encoding version 3"):
            deserialize_circuit(wire)

    def test_zero_width_rejected(self):
        const = bytes((WIRE_CONST_PACKED, 0)) + (3).to_bytes(4, "big")
        wire = _frame_circuit_body(_plain_body(const))
        with pytest.raises(WireFormatError, match="nonzero width"):
            deserialize_circuit(wire)

    def test_zero_count_rejected(self):
        wire = _frame_circuit_body(_plain_body(_packed((), 2)))
        with pytest.raises(WireFormatError, match="count 0"):
            deserialize_circuit(wire)

    def test_count_above_the_largest_ring_rejected(self):
        """A hostile count is refused before its words are decoded: the
        body carries none of them."""
        const = (bytes((WIRE_CONST_PACKED, 1))
                 + (MAX_PLAIN_COEFFS + 1).to_bytes(4, "big"))
        wire = _frame_circuit_body(_plain_body(const))
        with pytest.raises(WireFormatError, match="at most 65536"):
            deserialize_circuit(wire)

    def test_kind1_count_above_the_largest_ring_rejected(self):
        kind1 = (bytes((CONST_PLAIN,))
                 + (MAX_PLAIN_COEFFS + 1).to_bytes(4, "big"))
        wire = _frame_circuit_body(_plain_body(kind1, version=2))
        with pytest.raises(WireFormatError, match="at most 65536"):
            deserialize_circuit(wire)

    def test_count_at_the_largest_ring_round_trips(self):
        circuit = _plain_circuit((7,) * MAX_PLAIN_COEFFS)
        assert deserialize_circuit(serialize_circuit(circuit)) == circuit

    def test_packed_body_one_byte_short_rejected(self):
        const = _packed((300, 400, 500), 2)
        body = _plain_body(const)
        end = body.index(const) + len(const)
        with pytest.raises(WireFormatError, match="truncated"):
            deserialize_circuit(_frame_circuit_body(body[: end - 1]))
        # With the steps and outputs still behind it, the short constant
        # misaligns them, which is rejected too.
        with pytest.raises(WireFormatError):
            deserialize_circuit(_frame_circuit_body(_plain_body(const[:-1])))

    def test_packed_body_one_trailing_byte_rejected(self):
        const = _packed((300, 400, 500), 2)
        wire = _frame_circuit_body(_plain_body(const + b"\x00"))
        with pytest.raises(WireFormatError):
            deserialize_circuit(wire)

    def test_non_minimal_width_rejected(self):
        """Each version encodes a circuit one way: the declared width is
        the largest coefficient's minimal width."""
        wire = _frame_circuit_body(_plain_body(_packed((1, 255), 2)))
        with pytest.raises(WireFormatError, match="fits 1 bytes"):
            deserialize_circuit(wire)

    def test_coefficient_over_255_bytes_is_not_encodable(self):
        with pytest.raises(ValueError, match="u8 width"):
            serialize_circuit(_plain_circuit((1 << 8 * 255,)))


class TestEarlierVersions:
    def test_version2_kind1_body_still_decodes(self):
        circuit = deserialize_circuit(V2_KIND1_WIRE)
        builder = CircuitBuilder("bias")
        x = builder.input("x")
        y = builder.add_const(
            builder.rotate_rows(x, 1), builder.plain([0, 1, 255, 256, 70000])
        )
        builder.output("y", builder.mul_const(y, builder.scalar(-3)))
        assert circuit == builder.build()
        v3 = serialize_circuit(circuit)
        assert v3[6] == 3 and v3 != V2_KIND1_WIRE
        assert deserialize_circuit(v3) == circuit

    @pytest.mark.parametrize("wire", [V1_WIRE, V2_WIRE], ids=["v1", "v2"])
    def test_circuits_without_plain_constants_keep_their_bytes(self, wire):
        assert serialize_circuit(deserialize_circuit(wire)) == wire
