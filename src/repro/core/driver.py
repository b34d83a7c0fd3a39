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
4 Hadamard + 1 pointwise addition + 3 iNTT), including the RNS tower loop
for moduli beyond 128 bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.chip import CoFHEE
from repro.core.cm0 import Cm0Program
from repro.core.errors import CapacityError, ConfigError
from repro.core.isa import Command, Opcode
from repro.core.mdmc import ExecutionTrace
from repro.core.power import PowerReport
from repro.polymath.bitrev import bit_reverse_indices
from repro.polymath.modmath import modinv
from repro.polymath.ntt import NttContext
from repro.polymath.rns import RnsBasis

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
        self._ntt_ctx: NttContext | None = None
        self._programmed: tuple[int, int] | None = None

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
        self._n = n
        self._ntt_ctx = NttContext.shared(n, q)
        self._allocate_buffers(n)
        # Download psi-power twiddles (bit-reversed order) into TWD.
        twd_addr = self.chip.memory_map.base_address("TWD")
        self.chip.bus.burst_write(twd_addr, list(self._ntt_ctx._psi_brv))
        self._programmed = (q, n)
        return self.link.send_polynomial(n)

    def ensure_programmed(self, q: int, n: int) -> float:
        """Program ``(q, n)`` only when it differs from the current state.

        The batched per-tower entry point: a worker sweeping a batch of
        same-modulus tower work units pays the twiddle download once, and a
        worker that kept a modulus programmed from the previous batch pays
        nothing. Returns the host-link seconds spent (0.0 on a hit).
        """
        if self._programmed == (q, n):
            return 0.0
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
        return sorted(self._buffers, key=lambda k: int(k[1:]))

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

    def load_polynomial(self, name: str, coeffs: Sequence[int]) -> float:
        """Download a polynomial into an on-chip buffer; returns seconds."""
        if len(coeffs) != self._n:
            raise ConfigError(f"expected {self._n} coefficients, got {len(coeffs)}")
        q = self.chip.programmed_q
        self.chip.bus.burst_write(self.buffer_address(name), [c % q for c in coeffs])
        return self.link.send_polynomial(self._n)

    def read_polynomial(self, name: str) -> tuple[list[int], float]:
        """Read a buffer back to the host; returns ``(coeffs, seconds)``."""
        data, _ = self.chip.bus.burst_read(self.buffer_address(name), self._n)
        return data, self.link.receive_polynomial(self._n)

    # ------------------------------------------------------------------
    # Command execution (the three modes)
    # ------------------------------------------------------------------

    def execute(self, commands: list[Command], label: str = "sequence",
                mode: str | None = None) -> OperationReport:
        """Run a command sequence in the chosen execution mode."""
        mode = mode or self.mode
        if mode not in EXECUTION_MODES:
            raise ValueError(f"mode must be one of {EXECUTION_MODES}")
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
            depth = self.chip.fifo.depth
            for start in range(0, len(commands), depth):
                chunk = commands[start : start + depth]
                for cmd in chunk:
                    for _ in range(8):
                        io_seconds += self.link.register_write()
                    self.chip.fifo.push(cmd)
                while not self.chip.fifo.empty:
                    trace.extend(self.chip.mdmc.execute(self.chip.fifo.pop()))
                self.chip.fifo.take_interrupt()
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
        cmds = [
            self.ntt_command(b0, b0),                               # B0'
            self.ntt_command(a0, a0),                               # A0'
            self.pointwise_command(Opcode.PMODMUL, a0, t0, y=b0),   # Y0'
            self.intt_command(t0, t0),                              # Y0
            self.ntt_command(b1, b1),                               # B1'
            self.pointwise_command(Opcode.PMODMUL, a0, t1, y=b1),   # Y01'
            self.ntt_command(a1, a1),                               # A1'
            self.pointwise_command(Opcode.PMODMUL, a1, b1, y=b1),   # Y2' -> b1
            self.intt_command(b1, b1),                              # Y2
            self.pointwise_command(Opcode.PMODMUL, a1, b0, y=b0),   # Y10' -> b0
            self.pointwise_command(Opcode.PMODADD, t1, t1, y=b0),   # Y1'
            self.intt_command(t1, t1),                              # Y1
        ]
        report = self.execute(cmds, label="CiphertextMul", **kw)
        return report, (t0, t1, b1)

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
        three outputs back. This is the work unit a tower-sharded pool
        dispatches: a worker sweeping many same-modulus units in a batch
        pays the twiddle download once.

        Returns:
            ``([y0, y1, y2] mod-q coefficient vectors, report)`` — the
            report's ``io_seconds`` includes any reprogramming plus the
            polynomial loads/readbacks.
        """
        io = self.ensure_programmed(q, len(ct_a[0]))
        names = self.buffer_names
        if len(names) < 6:
            raise CapacityError(
                "ciphertext multiplication needs 6 on-chip buffers"
            )
        a0, a1, b0, b1, t0, t1 = names[:6]
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
            data, dt = self.read_polynomial(name)
            io += dt
            outs.append(data)
        report.io_seconds += io
        return outs, report

    def ciphertext_multiply_rns(
        self,
        ct_a: tuple[Sequence[int], Sequence[int]],
        ct_b: tuple[Sequence[int], Sequence[int]],
        basis: RnsBasis,
        **kw,
    ) -> tuple[list[list[int]], OperationReport]:
        """Full big-modulus ciphertext multiplication across RNS towers.

        Decomposes both input ciphertexts into towers, runs Algorithm 3 per
        tower via :meth:`ciphertext_multiply_tower` (reprogramming the
        modulus between towers, as the host would), and CRT-reconstructs
        the three output polynomials.

        Returns:
            ``([y0, y1, y2] big-modulus coefficient vectors, merged report)``.
        """
        reports = []
        tower_outputs: list[list[list[int]]] = []
        io = 0.0
        for q_i in basis.moduli:
            outs, report = self.ciphertext_multiply_tower(ct_a, ct_b, q_i, **kw)
            io += report.io_seconds
            report.io_seconds = 0.0  # folded into the merged report below
            reports.append(report)
            tower_outputs.append(outs)
        merged = OperationReport.merge(
            "CiphertextMul_RNS", reports, self.chip.power_model
        )
        merged.io_seconds += io
        results = [
            basis.reconstruct_poly([tw[j] for tw in tower_outputs])
            for j in range(3)
        ]
        return results, merged

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
