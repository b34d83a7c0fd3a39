"""Host-side driver: CoFHEE's API across its three execution modes.

Plays the role of the host PC in the validation setup (Section V-F): it
programs the crypto parameters, downloads twiddle factors and polynomials
over SPI/UART, sequences Table I commands, and reads back results. The
three execution modes of Section III-I are all implemented:

* ``"direct"`` — every command is written to configuration registers over
  the host link ("slow as there are delays imposed by the communication
  interface");
* ``"fifo"`` — commands are preloaded into the 32-deep command FIFO and
  drain autonomously, the host waiting for the queue-empty interrupt;
* ``"cm0"`` — a compiled subroutine runs from the ARM Cortex-M0's
  instruction memory with no host involvement per command.

Composed operations implement paper Algorithm 2 (polynomial
multiplication) and Algorithm 3 (ciphertext multiplication: 4 NTT +
4 Hadamard + 1 pointwise addition + 3 iNTT), one RNS tower per call: a
modulus beyond 128 bits runs tower by tower, as the chip pool runs it,
and :meth:`~repro.polymath.rns.RnsBasis.reconstruct_poly` recombines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.core.chip import CoFHEE
from repro.core.cm0 import Cm0Program
from repro.core.errors import CapacityError, ConfigError
from repro.core.isa import Command, Opcode
from repro.core.mdmc import GROUPED_OPCODES, ExecutionTrace, Mdmc
from repro.core.power import PowerReport
from repro.polymath.bitrev import bit_reverse_indices
from repro.polymath.kernels import Replay, fits
from repro.polymath.modmath import modinv
from repro.polymath.ntt import NttContext
from repro.polymath.rns import residue_words

EXECUTION_MODES = ("direct", "fifo", "cm0")

#: Register writes needed to stage one command in direct mode: the 8-word
#: frame plus the trigger write (Table II's FHE_CTL2/COMMAND_FIFO).
DIRECT_MODE_WRITES_PER_COMMAND = 9


@dataclass
class OperationReport:
    """Everything measured about one driver-level operation.

    Attributes:
        label: operation name.
        cycles: on-chip compute cycles.
        compute_seconds: cycles at the core clock.
        io_seconds: host-link time (polynomial loads, command writes,
            result readback) — zero for data already resident.
        power: phase-integrated power report.
        commands: number of Table I commands issued.
    """

    label: str
    cycles: int
    compute_seconds: float
    io_seconds: float
    power: PowerReport
    commands: int
    trace: ExecutionTrace = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.io_seconds

    @property
    def latency_us(self) -> float:
        return self.compute_seconds * 1e6

    @property
    def latency_ms(self) -> float:
        return self.compute_seconds * 1e3

    def copy(self, label: str) -> "OperationReport":
        """A fresh report with these figures under ``label``."""
        return OperationReport(
            label=label, cycles=self.cycles,
            compute_seconds=self.compute_seconds, io_seconds=self.io_seconds,
            power=self.power, commands=self.commands,
            trace=self.trace.copy(),
        )

    @staticmethod
    def merge(label: str, reports: "list[OperationReport]", power_model) -> "OperationReport":
        """Concatenate sequential operation reports."""
        trace = ExecutionTrace()
        io = 0.0
        commands = 0
        for r in reports:
            if r.trace is not None:
                trace.extend(r.trace)
            io += r.io_seconds
            commands += r.commands
        power = power_model.report(trace.phases)
        return OperationReport(
            label=label,
            cycles=trace.cycles,
            compute_seconds=power.seconds,
            io_seconds=io,
            power=power,
            commands=commands,
            trace=trace,
        )


#: How many compiled programs a stream keeps (one per modulus and set of
#: command constants) before it drops them all; also how many Algorithm 3
#: command tuples, and stream keys of command tuples, a driver keeps.
_STREAM_PROGRAMS = 16


@dataclass(frozen=True)
class _Stream:
    """What the first run of a command stream leaves for later runs:
    its report, each counter it moved as ``(holder index in
    :meth:`CofheeDriver._holders`, attribute, change)``, the addresses
    of the buffers the host loaded before it and checked after it
    (:meth:`CofheeDriver.ciphertext_multiply_tower_checked`), and its programs
    (:meth:`~repro.core.mdmc.Mdmc.compile`) by modulus and command
    constants."""

    report: OperationReport
    deltas: tuple[tuple[int, str, int], ...]
    loads: tuple[int, ...] = ()
    expects: tuple[int, ...] = ()
    programs: dict[tuple, Replay] = field(default_factory=dict)

    def program(self, mdmc: Mdmc, commands: "Sequence[Command]") -> Replay:
        """The program of this stream on ``mdmc``'s modulus with
        ``commands``' constants, compiled at its first run."""
        key = (mdmc.pe.q, tuple(map(_constant, commands)))
        program = self.programs.get(key)
        if program is None:
            if len(self.programs) == _STREAM_PROGRAMS:
                self.programs.clear()
            program = self.programs[key] = mdmc.compile(
                commands, self.loads, self.expects)
        return program


_constant = attrgetter("constant")


@lru_cache(maxsize=None)
def _counter_names(holder: type) -> tuple[str, ...]:
    """The counters a holder keeps: the MDMC's totals, or a stats
    record's fields bar the FIFO's high watermark (a maximum)."""
    if holder is Mdmc:
        return ("total_cycles", "commands_executed")
    return tuple(f.name for f in fields(holder) if f.name != "high_watermark")


@lru_cache(maxsize=16)
def _twiddle_table(q: int, n: int) -> "np.ndarray | list[int]":
    """``(q, n)``'s psi-power twiddles in bit-reversed order, as the TWD
    download writes them: a read-only ``uint64`` array when ``q`` fits
    64 bits (the bank stores a copy), ``NttContext``'s list otherwise."""
    table = NttContext.shared(n, q)._psi_brv
    if q.bit_length() > 64:
        return table
    words = np.fromiter(table, np.uint64, n)
    words.flags.writeable = False
    return words


class CofheeDriver:
    """Host driver bound to one chip instance.

    Args:
        chip: the CoFHEE instance.
        interface: ``"spi"`` (default) or ``"uart"`` host link.
        mode: default execution mode (see module docstring).
    """

    def __init__(self, chip: CoFHEE | None = None, interface: str = "spi",
                 mode: str = "fifo"):
        self.chip = chip or CoFHEE()
        if interface not in ("spi", "uart"):
            raise ValueError("interface must be 'spi' or 'uart'")
        if mode not in EXECUTION_MODES:
            raise ValueError(f"mode must be one of {EXECUTION_MODES}")
        self.link = self.chip.spi if interface == "spi" else self.chip.uart
        self.mode = mode
        self._buffers: dict[str, int] = {}
        self._n = 0
        self._programmed: tuple[int, int] | None = None
        #: :meth:`ensure_programmed` calls that paid a twiddle download.
        self.reprograms = 0
        #: :meth:`execute`'s memo: stream key -> its first run.
        self._streams: dict[tuple, _Stream] = {}
        #: Algorithm 3's commands by programmed ``(q, n)`` and buffer
        #: names, and by ``(id, n)`` each command tuple :meth:`_stream_key`
        #: read, held with its key (each bounded at ``_STREAM_PROGRAMS``).
        self._alg3: dict[tuple, tuple[Command, ...]] = {}
        self._keys: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    # Bring-up: parameters, twiddles, buffers
    # ------------------------------------------------------------------

    @property
    def programmed(self) -> tuple[int, int] | None:
        """The ``(q, n)`` currently programmed, or ``None`` before bring-up."""
        return self._programmed

    def program(self, q: int, n: int) -> float:
        """Program modulus/degree and download the twiddle table.

        Returns the host-link seconds spent (twiddles are one polynomial's
        worth of data, downloaded once per modulus — Section III-J's
        Python script computes them host-side).
        """
        self.chip.configure_modulus(q, n)
        if n != self._n:
            self._allocate_buffers(n)
            self._n = n
        # Download psi-power twiddles (bit-reversed order) into TWD, as
        # words the bank stores without a per-word range check when q
        # fits 64 bits.
        self.chip.bus.burst_write(self._twiddle_addr(), _twiddle_table(q, n))
        self._programmed = (q, n)
        return self.link.send_polynomial(n)

    def ensure_programmed(self, q: int, n: int) -> float:
        """Program ``(q, n)`` only when it differs from the current state.

        The per-tower entry point: a worker whose previous tower unit
        (of this job or an earlier one) ran on the same modulus keeps it
        programmed and pays no twiddle download. Returns the host-link
        seconds spent (0.0 on a hit).
        """
        if self._programmed == (q, n):
            return 0.0
        self.reprograms += 1
        return self.program(q, n)

    def _allocate_buffers(self, n: int) -> None:
        """Carve the data banks into degree-n polynomial buffers.

        Dual-port banks get the low buffer numbers (the MDMC's ping-pong
        preference); the twiddle bank is reserved.
        """
        if n > self.chip.config.poly_words:
            raise CapacityError(
                f"one polynomial of degree {n} exceeds a "
                f"{self.chip.config.poly_words}-word bank; use the "
                "host-assisted large-n path (Section III-C)"
            )
        self._buffers.clear()
        mm = self.chip.memory_map
        index = 0
        for bank in mm.dual_port + [b for b in mm.single_port if b.name != "TWD"]:
            slots = bank.words // n
            for s in range(slots):
                addr = mm.base_address(bank.name) + s * n * 16  # 16 B/word
                self._buffers[f"P{index}"] = addr
                index += 1

    @property
    def buffer_names(self) -> list[str]:
        """``P0…Pk`` in numeric order (the order they were allocated)."""
        return list(self._buffers)

    def buffer_address(self, name: str) -> int:
        if name not in self._buffers:
            raise ConfigError(
                f"unknown buffer {name!r}; call program() first "
                f"(available: {self.buffer_names[:8]}...)"
            )
        return self._buffers[name]

    # ------------------------------------------------------------------
    # Data movement (host link accounting)
    # ------------------------------------------------------------------

    def load_polynomial(
        self, name: str, coeffs: "Sequence[int] | np.ndarray"
    ) -> float:
        """Download a polynomial into an on-chip buffer; returns seconds.

        Coefficients are reduced mod the programmed ``q``. An unsigned
        word array that already holds residues (the chip pool hands each
        tower its row of a once-per-job reduction) is written as it is.
        """
        if len(coeffs) != self._n:
            raise ConfigError(f"expected {self._n} coefficients, got {len(coeffs)}")
        words = residue_words(coeffs, self.chip.programmed_q)
        self.chip.bus.burst_write(self.buffer_address(name), words)
        return self.link.send_polynomial(self._n)

    def read_polynomial(self, name: str) -> tuple[list[int], float]:
        """Read a buffer back to the host; returns ``(coeffs, seconds)``."""
        words, seconds = self.read_words(name)
        return words.tolist(), seconds

    def read_words(self, name: str) -> tuple[np.ndarray, float]:
        """:meth:`read_polynomial` as a copy of the bank's word array."""
        data, _ = self.chip.bus.burst_read_words(self.buffer_address(name), self._n)
        return data, self.link.receive_polynomial(self._n)

    # ------------------------------------------------------------------
    # Command execution (the three modes)
    # ------------------------------------------------------------------

    def execute(self, commands: "Sequence[Command]", label: str = "sequence",
                mode: str | None = None) -> OperationReport:
        """Run a command sequence in the chosen execution mode.

        The cost of a stream (its cycles, power phases, host-link time and
        every chip counter) depends on its commands, not on the data. So
        at ``"vector"`` fidelity in ``"fifo"`` mode, on a modulus the NTT
        kernel fits and ``uint64`` banks, the first run of each
        :meth:`_stream_key` is the full per-command path, and it records
        its report, the counters it moved (:meth:`_counts`) and the
        stream compiled by the MDMC for the modulus and the commands'
        constants (:meth:`_Stream.program`). A later
        run of the key computes its data with that program, one kernel
        call on the words the banks hold now, adds the recorded changes
        to the counters and returns a fresh copy of the report; if a
        twiddle row no longer holds the words the program was compiled
        from, the run is the per-command path instead, which charges
        what it does. Other streams (``"pe"`` or
        ``"timing"`` fidelity, ``"direct"`` or ``"cm0"`` mode, wider
        moduli, ``object`` banks, a PMUL or MEMCPY) run per command
        every time.
        """
        mode = mode or self.mode
        if mode not in EXECUTION_MODES:
            raise ValueError(f"mode must be one of {EXECUTION_MODES}")
        key = self._stream_key(commands, mode)
        if key is None:
            return self._execute(commands, label, mode)
        stream = self._streams.get(key)
        if stream is None:
            before = self._counts()
            report = self._execute(commands, label, mode)
            self._remember(key, commands, report, before)
            return report
        if stream.program(self.chip.mdmc, commands)() is None:
            return self._execute(commands, label, mode)  # a changed twiddle
        return self._charge(stream, commands, label)

    def _remember(self, key: tuple, commands: "Sequence[Command]",
                  report: OperationReport, before: list, loads=(),
                  expects=()) -> None:
        """Keep a stream's first run under ``key``: its report, what it
        moved on every counter since ``before`` (:meth:`_counts`), and
        its program."""
        stream = self._streams[key] = _Stream(
            report=report.copy(report.label),
            deltas=tuple(
                (h, name, after - b)
                for (h, name, after), (_, _, b) in zip(self._counts(), before)
                if after != b
            ),
            loads=loads, expects=expects,
        )
        stream.program(self.chip.mdmc, commands)

    def _charge(self, stream: _Stream, commands: "Sequence[Command]",
                label: str) -> OperationReport:
        """A warm run's figures: ``stream``'s recorded changes added to
        the counters, and a fresh copy of its report."""
        holders = self._holders()
        for h, name, delta in stream.deltas:
            setattr(holders[h], name, getattr(holders[h], name) + delta)
        fifo = self.chip.fifo
        fifo.stats.high_watermark = max(
            fifo.stats.high_watermark, min(len(commands), fifo.depth)
        )
        fifo.take_interrupt()
        return stream.report.copy(label)

    def _stream_key(self, commands: "Sequence[Command]",
                    mode: str) -> tuple | None:
        """The memo key of a stream :meth:`execute` may run warm: the link,
        ``n`` and each command's opcode and buffer addresses.

        Only a ``"fifo"``-mode stream at ``"vector"`` fidelity, on a
        modulus the kernel fits, with every bank ``uint64``,
        every command in :data:`~repro.core.mdmc.GROUPED_OPCODES` at
        ``n`` and every iNTT carrying its ``n^-1``, has a key (``None``
        otherwise), so those parts of its identity are the same in every
        key. The commands' part is kept per tuple of commands seen
        (immutable, like each :class:`Command`) and ``n``, so a chip that
        takes turns on several moduli keeps each one's.
        """
        chip = self.chip
        if (mode != "fifo" or chip.mdmc.fidelity != "vector"
                or self._programmed is None or not chip.fifo.empty
                or not fits(chip.pe.q)
                or any(b.data.dtype == object for b in chip.memory_map.banks)):
            return None
        n = self._n
        seen = self._keys.get((id(commands), n))
        if seen is not None and seen[0] is commands:
            return seen[1]
        key = None if any(
            c.opcode not in GROUPED_OPCODES or c.n != n
            or (c.opcode is Opcode.INTT and c.constant == 0)
            for c in commands
        ) else (self.link, n, tuple(
            (c.opcode.value, c.x_addr, c.y_addr, c.twiddle_addr, c.out_addr)
            for c in commands
        ))
        if isinstance(commands, tuple):
            if len(self._keys) == _STREAM_PROGRAMS:
                self._keys.clear()
            self._keys[id(commands), n] = (commands, key)
        return key

    def _holders(self) -> list:
        """Every counter holder a stream moves: each bank's SRAM traffic,
        the PE, the bus, this driver's host link, the FIFO and the MDMC."""
        chip = self.chip
        return [b.stats for b in chip.memory_map.banks] + [
            chip.pe.stats, chip.bus.stats, self.link.stats, chip.fifo.stats,
            chip.mdmc,
        ]

    def _counts(self) -> list[tuple[int, str, int]]:
        """Every counter of :meth:`_holders` as ``(holder index,
        attribute, value)``."""
        return [
            (i, name, getattr(h, name))
            for i, h in enumerate(self._holders())
            for name in _counter_names(type(h))
        ]

    def _execute(self, commands: list[Command], label: str,
                 mode: str) -> OperationReport:
        """The per-command path: every command through the MDMC."""
        trace = ExecutionTrace()
        io_seconds = 0.0
        if mode == "direct":
            for cmd in commands:
                for _ in range(DIRECT_MODE_WRITES_PER_COMMAND):
                    io_seconds += self.link.register_write()
                trace.extend(self.chip.mdmc.execute(cmd))
        elif mode == "fifo":
            # Preload in chunks of the FIFO depth; each command frame is 8
            # register writes; the FIFO drains autonomously.
            fifo, write = self.chip.fifo, self.link.register_write
            run = self.chip.mdmc.execute
            for start in range(0, len(commands), fifo.depth):
                for cmd in commands[start : start + fifo.depth]:
                    for _ in range(8):
                        io_seconds += write()
                    fifo.push(cmd)
                while not fifo.empty:
                    trace.extend(run(fifo.pop()))
                fifo.take_interrupt()
        else:  # cm0
            program = Cm0Program()
            for cmd in commands:
                program.add(cmd)
            # One-time program download (32-bit words over the link).
            io_seconds += self.link.transfer_seconds(program.stored_words * 32)
            self.chip.cm0.load_program(program)

            def issue(cmd: Command) -> int:
                t = self.chip.mdmc.execute(cmd)
                trace.extend(t)
                return t.cycles

            extra_cycles, _ = self.chip.cm0.run(issue)
            dispatch = extra_cycles - trace.cycles
            trace.add("idle", dispatch, max(self._n, 2))
        power = self.chip.power_model.report(trace.phases)
        return OperationReport(
            label=label,
            cycles=trace.cycles,
            compute_seconds=power.seconds,
            io_seconds=io_seconds,
            power=power,
            commands=len(commands),
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Table I primitives
    # ------------------------------------------------------------------

    def _twiddle_addr(self) -> int:
        return self.chip.memory_map.base_address("TWD")

    def ntt_command(self, src: str, dst: str) -> Command:
        return Command(Opcode.NTT, n=self._n, x_addr=self.buffer_address(src),
                       twiddle_addr=self._twiddle_addr(),
                       out_addr=self.buffer_address(dst))

    def intt_command(self, src: str, dst: str) -> Command:
        return Command(Opcode.INTT, n=self._n, x_addr=self.buffer_address(src),
                       twiddle_addr=self._twiddle_addr(),
                       out_addr=self.buffer_address(dst),
                       constant=self.chip.n_inverse)

    def pointwise_command(self, opcode: Opcode, x: str, dst: str,
                          y: str | None = None, constant: int = 0) -> Command:
        return Command(opcode, n=self._n, x_addr=self.buffer_address(x),
                       y_addr=self.buffer_address(y) if y else 0,
                       out_addr=self.buffer_address(dst), constant=constant)

    def ntt(self, src: str, dst: str | None = None, **kw) -> OperationReport:
        return self.execute([self.ntt_command(src, dst or src)], label="NTT", **kw)

    def intt(self, src: str, dst: str | None = None, **kw) -> OperationReport:
        return self.execute([self.intt_command(src, dst or src)], label="iNTT", **kw)

    def pointwise(self, opcode: Opcode, x: str, dst: str, y: str | None = None,
                  constant: int = 0, **kw) -> OperationReport:
        return self.execute(
            [self.pointwise_command(opcode, x, dst, y, constant)],
            label=opcode.value, **kw,
        )

    # ------------------------------------------------------------------
    # Composed operations (Algorithms 2 and 3)
    # ------------------------------------------------------------------

    def polynomial_multiply(self, a: str, b: str, out: str, **kw) -> OperationReport:
        """Algorithm 2: ``out = a * b`` in ``Z_q[x]/(x^n+1)``.

        Destroys ``a`` and ``b`` (they are transformed in place) — the
        on-chip scheduling choice that keeps buffer pressure minimal.
        """
        commands = [
            self.ntt_command(a, a),
            self.ntt_command(b, b),
            self.pointwise_command(Opcode.PMODMUL, a, out, y=b),
            self.intt_command(out, out),
        ]
        return self.execute(commands, label="PolyMul", **kw)

    def ciphertext_multiply(self, a0: str, a1: str, b0: str, b1: str,
                            t0: str, t1: str, **kw
                            ) -> tuple[OperationReport, tuple[str, str, str]]:
        """Algorithm 3: the Eq. 4 tensor on one RNS tower.

        4 NTT + 4 Hadamard + 1 pointwise addition + 3 iNTT, scheduled into
        exactly the six polynomial buffers the fabricated chip has at
        n = 2^13 (3 dual-port + 3 single-port data banks; the fourth
        single-port bank holds twiddles). The inputs are consumed:
        ``Y2`` finishes in ``b1``'s buffer and the cross term reuses
        ``b0``'s as scratch.

        Returns:
            ``(report, (y0, y1, y2))`` — the report and the buffer names
            now holding the three output polynomials.
        """
        report = self.execute(self._alg3_commands(a0, a1, b0, b1, t0, t1),
                              label="CiphertextMul", **kw)
        return report, (t0, t1, b1)

    def _alg3_commands(self, a0: str, a1: str, b0: str, b1: str, t0: str,
                       t1: str) -> tuple[Command, ...]:
        """:meth:`ciphertext_multiply`'s commands, built once per
        programmed ``(q, n)`` and buffer names."""
        names = (self._programmed, a0, a1, b0, b1, t0, t1)
        commands = self._alg3.get(names)
        if commands is None:
            if len(self._alg3) == _STREAM_PROGRAMS:
                self._alg3.clear()
            mul = Opcode.PMODMUL
            commands = self._alg3[names] = (
                self.ntt_command(b0, b0),                        # B0'
                self.ntt_command(a0, a0),                        # A0'
                self.pointwise_command(mul, a0, t0, y=b0),       # Y0'
                self.intt_command(t0, t0),                       # Y0
                self.ntt_command(b1, b1),                        # B1'
                self.pointwise_command(mul, a0, t1, y=b1),       # Y01'
                self.ntt_command(a1, a1),                        # A1'
                self.pointwise_command(mul, a1, b1, y=b1),       # Y2' -> b1
                self.intt_command(b1, b1),                       # Y2
                self.pointwise_command(mul, a1, b0, y=b0),       # Y10' -> b0
                self.pointwise_command(Opcode.PMODADD, t1, t1, y=b0),  # Y1'
                self.intt_command(t1, t1),                       # Y1
            )
        return commands

    def ciphertext_multiply_tower(
        self,
        ct_a: tuple[Sequence[int], Sequence[int]],
        ct_b: tuple[Sequence[int], Sequence[int]],
        q: int,
        **kw,
    ) -> tuple[list[list[int]], OperationReport]:
        """Algorithm 3 on one RNS tower, with amortized reprogramming.

        Programs ``(q, n)`` only if the chip is not already configured for
        it (see :meth:`ensure_programmed`), reduces both input ciphertexts
        mod ``q``, runs the Eq. 4 tensor command stream, and reads the
        three outputs back. This is the unit a tower-sharded pool runs
        on a modulus's home chip: a worker that runs consecutive units
        on one modulus pays the twiddle download once.

        Returns:
            ``([y0, y1, y2] mod-q coefficient vectors, report)`` — the
            report's ``io_seconds`` includes any reprogramming plus the
            polynomial loads/readbacks.
        """
        outs, report = self.ciphertext_multiply_tower_words(ct_a, ct_b, q, **kw)
        return [y.tolist() for y in outs], report

    def ciphertext_multiply_tower_words(
        self,
        ct_a: "tuple[Sequence[int], Sequence[int]] | np.ndarray",
        ct_b: "tuple[Sequence[int], Sequence[int]] | np.ndarray",
        q: int,
        **kw,
    ) -> tuple[list[np.ndarray], OperationReport]:
        """:meth:`ciphertext_multiply_tower` with the outputs as word arrays."""
        io = self.ensure_programmed(q, len(ct_a[0]))
        a0, a1, b0, b1, t0, t1 = self._tower_buffers()
        # load_polynomial reduces each coefficient mod the programmed q.
        io += self.load_polynomial(a0, ct_a[0])
        io += self.load_polynomial(a1, ct_a[1])
        io += self.load_polynomial(b0, ct_b[0])
        io += self.load_polynomial(b1, ct_b[1])
        report, (y0, y1, y2) = self.ciphertext_multiply(
            a0, a1, b0, b1, t0, t1, **kw
        )
        outs = []
        for name in (y0, y1, y2):
            data, dt = self.read_words(name)
            io += dt
            outs.append(data)
        report.io_seconds += io
        return outs, report

    def ciphertext_multiply_tower_checked(
        self, operands: np.ndarray, expected: np.ndarray, q: int,
    ) -> tuple[bool, OperationReport]:
        """Algorithm 3 on one RNS tower, checked on the chip's side of the
        link: the ``(4, n)`` operand rows ``a0, a1, b0, b1`` are loaded,
        and the result says whether the outputs ``y0, y1, y2`` read back
        equal the ``(3, n)`` rows ``expected``, with the report (its
        ``io_seconds`` counts any reprogramming, the loads and the
        readbacks). The tower unit the chip pool runs.

        Loads and readbacks cost what they cost whatever the words, like
        the stream. So when :meth:`execute` would run the stream warm and
        both arrays are ``uint32`` with contiguous rows, the first run is
        the per-command path (:meth:`load_polynomial`, the stream,
        :meth:`read_words` and a compare), recording the counters and
        report of all of it, and a later run is one ``replay`` call that
        enters the operands mod ``q``, computes the stream and compares
        the outputs, then charges the recorded changes. A changed twiddle
        word runs the per-command path again; anything else runs it
        every time.
        """
        io = self.ensure_programmed(q, operands.shape[-1])
        a0, a1, b0, b1, t0, t1 = names = self._tower_buffers()
        commands, label = self._alg3_commands(*names), "CiphertextMul"
        sources, sinks = (a0, a1, b0, b1), (t0, t1, b1)
        mode, stream = self.mode, None
        key = self._stream_key(commands, mode)
        warm = (key is not None
                and operands.dtype == expected.dtype == np.uint32
                and operands.strides[-1] == expected.strides[-1] == 4)
        if warm:
            key = (key, tuple(map(self.buffer_address, sources)),
                   tuple(map(self.buffer_address, sinks)))
            stream = self._streams.get(key)
            if stream is not None:
                matched = stream.program(self.chip.mdmc, commands)(
                    operands, expected)
                if matched is not None:
                    report = self._charge(stream, commands, label)
                    report.io_seconds += io
                    return matched, report
        before = self._counts() if warm and stream is None else None
        unit_io = 0.0
        for name, row in zip(sources, operands, strict=True):
            unit_io += self.load_polynomial(name, row)
        # A warm stream's per-command run is this one's, not execute's.
        report = (self._execute if warm else self.execute)(
            commands, label, mode)
        matched = True
        for name, want in zip(sinks, expected, strict=True):
            words, seconds = self.read_words(name)
            unit_io += seconds
            matched = np.array_equal(words, want) and matched
        report.io_seconds += unit_io
        if before is not None:
            self._remember(key, commands, report, before, *key[1:])
        report.io_seconds += io
        return matched, report

    def _tower_buffers(self) -> list[str]:
        """The six buffers Algorithm 3 runs in."""
        names = self.buffer_names
        if len(names) < 6:
            raise CapacityError(
                "ciphertext multiplication needs 6 on-chip buffers"
            )
        return names[:6]

    # ------------------------------------------------------------------
    # Large-degree (host-assisted) operation (Section III-C)
    # ------------------------------------------------------------------

    def large_ntt_report(self, n: int) -> OperationReport:
        """Latency/IO model for NTT beyond on-chip capacity.

        * ``n = 2^14``: fits across banks but only via single-port
          memories, so the butterfly stream runs at II = 2; no host
          round-trips.
        * ``n >= 2^15``: four-step decomposition ``n = n1 x n2`` with
          ``n1, n2 <= 2^13``; every pass streams the full polynomial over
          the host link both ways, so communication swamps compute — the
          paper's "for larger polynomials the communication costs
          increase".
        """
        timing = self.chip.timing
        trace = ExecutionTrace()
        io_seconds = 0.0
        if n <= timing.dual_port_words:
            raise ConfigError(f"n = {n} fits on chip; use ntt()")
        if n <= 2 * timing.dual_port_words:  # n = 2^14: on-chip, II = 2
            cycles = timing.ntt_cycles(n)
            trace.add("dit_butterfly", cycles, n)
        else:
            n1 = timing.dual_port_words
            n2 = n // n1
            # Four-step decomposition: a column pass of n2 size-n1 NTTs and
            # a row pass of n1/... -> n/n2 size-n2 NTTs, both on-chip at
            # II = 1; the twiddle correction folds into the passes. The
            # host streams the whole polynomial in and out around each
            # pass.
            for _ in range(n2):
                trace.add("dit_butterfly", timing.ntt_cycles(n1), n1)
            row_size = max(n2, 2)
            for _ in range(n // row_size):
                trace.add("dit_butterfly", timing.ntt_cycles(row_size), row_size)
            io_seconds += 2 * (self.link.send_polynomial(n) +
                               self.link.receive_polynomial(n))
        power = self.chip.power_model.report(trace.phases)
        return OperationReport(
            label=f"NTT(n={n})", cycles=trace.cycles,
            compute_seconds=power.seconds, io_seconds=io_seconds,
            power=power, commands=1, trace=trace,
        )
