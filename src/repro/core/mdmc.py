"""Multiplier Data Mover and Controller (MDMC) — the chip's sequencer.

Section III-B/G2: the MDMC receives decoded commands (from the command
FIFO, a direct register write, or the CM0), then drives the address
generators, the SRAM ports, and the PE. For NTT/iNTT it walks the
``log2 n`` stages, fetching two coefficients per cycle from one dual-port
bank and a twiddle factor from the twiddle SRAM, issuing one butterfly per
cycle (II = 1), storing the pair through the output bank's two ports, and
swapping input/output banks at every stage boundary. For pointwise
operations it streams 8-beat AHB bursts. On completion it raises an
interrupt so the command FIFO can issue the next instruction (Fig. 2).

Three fidelity levels let callers trade speed for detail:

* ``"pe"`` — every butterfly goes through
  :class:`repro.core.pe.ProcessingElement` (bit-exact Barrett datapath,
  per-access SRAM statistics). Used by the verification tests.
* ``"vector"`` (default) — the same commands on the same bank-resident
  twiddles, computed with batched modular arithmetic: the C butterfly
  NTT of :mod:`repro.polymath.kernels` (the one the batched tower engine
  runs), with tables derived from the words the twiddle bank holds, for
  moduli of at most 30 bits, a scalar stage walk otherwise; identical
  results, and the same cycles, PE operations and per-stage bank traffic
  (:meth:`Mdmc._stage_stats`).
* ``"timing"`` — cycle/power accounting only, data untouched. Used by the
  paper-scale latency benches, where cycle counts are data-independent.

Every command above runs on its own and counts what it does. A stream the
driver has already run once at ``"vector"`` fidelity can instead go
through :meth:`Mdmc.compile`: its commands levelled by their buffer
hazards into same-opcode groups over its bank rows, compiled into one
kernel call that counts nothing (the driver charges the counters that
stream's first run recorded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.core.bus import AhbLiteBus
from repro.core.errors import ConfigError, IsaError
from repro.core.isa import Command, Opcode
from repro.core.memory import MemoryMap, SramBank
from repro.core.pe import ProcessingElement
from repro.core.timing import TimingModel
from repro.polymath.bitrev import bit_reverse_indices
from repro.polymath import kernels
from repro.polymath.kernels import NttTables, fits, transform
from repro.polymath.rns import residue_words

FIDELITY_LEVELS = ("pe", "vector", "timing")


@dataclass(frozen=True)
class PhaseRecord:
    """One constant-activity execution phase, consumed by the power model.

    Attributes:
        kind: activity class (``dit_butterfly``, ``dif_butterfly``,
            ``const_mult``, ``hadamard``, ``pointwise_add``, ``memcpy``,
            ``idle``).
        cycles: duration.
        n: problem size during the phase (power scales weakly with n).
    """

    kind: str
    cycles: int
    n: int


@dataclass
class ExecutionTrace:
    """Cycle/phase record of one command or command sequence."""

    cycles: int = 0
    phases: list[PhaseRecord] = field(default_factory=list)
    interrupts: int = 0

    def add(self, kind: str, cycles: int, n: int) -> None:
        self.cycles += cycles
        self.phases.append(PhaseRecord(kind, cycles, n))

    def extend(self, other: "ExecutionTrace") -> None:
        self.cycles += other.cycles
        self.phases.extend(other.phases)
        self.interrupts += other.interrupts

    def copy(self) -> "ExecutionTrace":
        return ExecutionTrace(self.cycles, list(self.phases), self.interrupts)


#: The opcodes with a second operand, and those reading twiddles (tuples:
#: a membership test compares identities, with no enum hashing).
_Y_OPERAND = tuple(op for op in Opcode if op.needs_y_operand)
_TWIDDLES = tuple(op for op in Opcode if op.needs_twiddles)

#: The opcodes a compiled stream runs: the vector kernels over residues.
GROUPED_OPCODES = frozenset({
    Opcode.NTT, Opcode.INTT, Opcode.PMODADD, Opcode.PMODMUL,
    Opcode.PMODSQR, Opcode.PMODSUB, Opcode.CMODMUL,
})

class Mdmc:
    """The MDMC state machine.

    Args:
        memory_map: the chip's SRAM banks.
        bus: AHB crossbar (bursts are accounted through it).
        pe: the processing element.
        timing: calibrated cycle model.
        fidelity: default fidelity level (see module docstring).
    """

    def __init__(
        self,
        memory_map: MemoryMap,
        bus: AhbLiteBus,
        pe: ProcessingElement,
        timing: TimingModel,
        fidelity: str = "vector",
    ):
        if fidelity not in FIDELITY_LEVELS:
            raise ValueError(f"fidelity must be one of {FIDELITY_LEVELS}")
        self.memory_map = memory_map
        self.bus = bus
        self.pe = pe
        self.timing = timing
        self.fidelity = fidelity
        self.total_cycles = 0
        self.commands_executed = 0
        self._handlers = {
            Opcode.NTT: self._run_ntt,
            Opcode.INTT: self._run_intt,
            Opcode.PMODADD: self._run_pointwise,
            Opcode.PMODMUL: self._run_pointwise,
            Opcode.PMODSQR: self._run_pointwise,
            Opcode.PMODSUB: self._run_pointwise,
            Opcode.CMODMUL: self._run_pointwise,
            Opcode.PMUL: self._run_pointwise,
            Opcode.MEMCPY: self._run_memcpy,
            Opcode.MEMCPYR: self._run_memcpy,
        }

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------

    def execute(self, cmd: Command, fidelity: str | None = None) -> ExecutionTrace:
        """Run one Table I command to completion; returns its trace."""
        level = fidelity or self.fidelity
        if level not in FIDELITY_LEVELS:
            raise ValueError(f"fidelity must be one of {FIDELITY_LEVELS}")
        trace = ExecutionTrace()
        self._handlers[cmd.opcode](cmd, trace, level)
        trace.interrupts += 1  # completion interrupt to the FIFO (Fig. 2)
        self.total_cycles += trace.cycles
        self.commands_executed += 1
        return trace

    # ------------------------------------------------------------------
    # NTT / iNTT
    # ------------------------------------------------------------------

    def _run_ntt(self, cmd: Command, trace: ExecutionTrace, level: str) -> None:
        n = cmd.n
        stages = n.bit_length() - 1
        cycles = self.timing.ntt_cycles(n)
        if level == "timing":
            trace.add("dit_butterfly", cycles, n)
            self._bulk_stats(n, stages)
            return
        q = self._modulus()
        words = self._load_vector(cmd.x_addr, n)
        twiddles = self._load_vector(cmd.twiddle_addr, n)
        in_bank, _, _ = self.memory_map.decode(cmd.x_addr)
        out_bank, _, _ = self.memory_map.decode(cmd.out_addr)
        if level == "vector" and fits(q):
            forward = self._tables(twiddles, q)
            out = transform(residue_words(words, q)[None, None], forward)
            self._store_vector(cmd.out_addr, out[0, 0])
            self._stage_stats(in_bank, out_bank, n, count_pe=True, stages=stages)
            trace.add("dit_butterfly", cycles, n)
            return
        a, twiddles = words.tolist(), twiddles.tolist()
        # Cooley-Tukey DIT with psi-merged (bit-reversed) twiddles.
        t = n
        m = 1
        while m < n:
            t >>= 1
            for i in range(m):
                j1 = 2 * i * t
                s = twiddles[m + i]
                if level == "pe":
                    for j in range(j1, j1 + t):
                        a[j], a[j + t] = self.pe.butterfly(a[j], a[j + t], s)
                else:
                    for j in range(j1, j1 + t):
                        u = a[j]
                        v = a[j + t] * s % q
                        a[j] = u + v if u + v < q else u + v - q
                        a[j + t] = u - v if u >= v else u - v + q
            self._stage_stats(in_bank, out_bank, n, count_pe=(level != "pe"))
            in_bank, out_bank = out_bank, in_bank  # ping-pong (Section III-G2)
            m <<= 1
        self._store_vector(cmd.out_addr, a)
        trace.add("dit_butterfly", cycles, n)

    def _run_intt(self, cmd: Command, trace: ExecutionTrace, level: str) -> None:
        n = cmd.n
        stages = n.bit_length() - 1
        butterfly_cycles = self.timing.ntt_cycles(n)
        const_cycles = self.timing.pointwise_cycles(n)
        if level == "timing":
            trace.add("dif_butterfly", butterfly_cycles, n)
            trace.add("const_mult", const_cycles, n)
            self._bulk_stats(n, stages, extra_pointwise=1)
            return
        q = self._modulus()
        words = self._load_vector(cmd.x_addr, n)
        # Section VIII-B: "CoFHEE uses the same twiddle factors for both
        # operations". The inverse twiddles are derived from the forward
        # (psi-power, bit-reversed) table by address permutation plus
        # negation: psi^-j = -psi^(n-j) because psi^n = -1, so
        # I[k] = q - F[brv(n - brv(k))]. The MDMC's address generator and
        # subtractor implement this with zero extra storage.
        forward = self._load_vector(cmd.twiddle_addr, n)
        in_bank, _, _ = self.memory_map.decode(cmd.x_addr)
        out_bank, _, _ = self.memory_map.decode(cmd.out_addr)
        if level == "vector" and fits(q):
            if cmd.constant == 0:
                raise ConfigError("iNTT requires n^-1 in the command constant field")
            # The n^-1 pass runs inside the kernel (its tables' scale).
            inverse = self._tables(forward, q, cmd.constant)
            a = transform(residue_words(words, q)[None], inverse)
            self._stage_stats(in_bank, out_bank, n, count_pe=True, stages=stages)
            self._store_vector(cmd.out_addr, a[0])
            self.pe.stats.multiplies += n
            trace.add("dif_butterfly", butterfly_cycles, n)
            trace.add("const_mult", const_cycles, n)
            return
        a, forward = words.tolist(), forward.tolist()
        brv = bit_reverse_indices(n)
        twiddles = [0] * n
        twiddles[0] = 1
        for k in range(1, n):
            twiddles[k] = (q - forward[brv[n - brv[k]]]) % q
        # Gentleman-Sande DIF (Section VI-A's decimation in frequency).
        t = 1
        m = n
        while m > 1:
            j1 = 0
            h = m >> 1
            for i in range(h):
                s = twiddles[h + i]
                if level == "pe":
                    for j in range(j1, j1 + t):
                        a[j], a[j + t] = self.pe.gs_butterfly(a[j], a[j + t], s)
                else:
                    for j in range(j1, j1 + t):
                        u = a[j]
                        v = a[j + t]
                        a[j] = u + v if u + v < q else u + v - q
                        a[j + t] = (u - v) * s % q
                j1 += 2 * t
            self._stage_stats(in_bank, out_bank, n, count_pe=(level != "pe"))
            in_bank, out_bank = out_bank, in_bank
            t <<= 1
            m = h
        # Final n^-1 constant-multiply pass (INV_POLYDEG register).
        n_inv = cmd.constant
        if n_inv == 0:
            raise ConfigError("iNTT requires n^-1 in the command constant field")
        if level == "pe":
            a = [self.pe.mul(x, n_inv) for x in a]
        else:
            a = [x * n_inv % q for x in a]
            self.pe.stats.multiplies += n
        self._store_vector(cmd.out_addr, a)
        trace.add("dif_butterfly", butterfly_cycles, n)
        trace.add("const_mult", const_cycles, n)

    # ------------------------------------------------------------------
    # Pointwise streams
    # ------------------------------------------------------------------

    _POINTWISE_PHASE = {
        Opcode.PMODMUL: "hadamard",
        Opcode.PMUL: "hadamard",
        Opcode.PMODSQR: "hadamard",
        Opcode.PMODADD: "pointwise_add",
        Opcode.PMODSUB: "pointwise_add",
        Opcode.CMODMUL: "const_mult",
    }

    def _run_pointwise(self, cmd: Command, trace: ExecutionTrace, level: str) -> None:
        n = cmd.n
        cycles = self.timing.pointwise_cycles(n)
        phase = self._POINTWISE_PHASE[cmd.opcode]
        if level == "timing":
            trace.add(phase, cycles, n)
            self._bulk_pointwise_stats(cmd.opcode, n)
            return
        q = self._modulus()
        op = cmd.opcode
        x = self._load_vector(cmd.x_addr, n)
        y = self._load_vector(cmd.y_addr, n) if op.needs_y_operand else None
        if level == "vector" and op is not Opcode.PMUL and fits(q):
            # PMUL stays scalar: it multiplies raw (unreduced) words.
            out = _pointwise(op, residue_words(x, q)[None],
                             None if y is None else residue_words(y, q)[None],
                             (cmd.constant,), q)[0]
            self._bulk_pointwise_stats(op, n)
        elif level == "pe":
            out = self._pointwise_pe(
                op, x.tolist(), None if y is None else y.tolist(), cmd
            )
        else:
            x = x.tolist()
            y = None if y is None else y.tolist()
            if op is Opcode.PMODMUL:
                out = [a * b % q for a, b in zip(x, y)]
            elif op is Opcode.PMODADD:
                out = [(a + b) % q for a, b in zip(x, y)]
            elif op is Opcode.PMODSUB:
                out = [(a - b) % q for a, b in zip(x, y)]
            elif op is Opcode.PMODSQR:
                out = [a * a % q for a in x]
            elif op is Opcode.CMODMUL:
                c = cmd.constant % q
                out = [a * c % q for a in x]
            elif op is Opcode.PMUL:
                # plain product: low 128 bits stored (high half to out+n on
                # silicon; the model keeps full precision words mod 2^128).
                out = [(a * b) & ((1 << 128) - 1) for a, b in zip(x, y)]
            else:  # pragma: no cover - dispatch guarantees coverage
                raise IsaError(f"unhandled pointwise op {op}")
            self._bulk_pointwise_stats(op, n)
        self._store_vector(cmd.out_addr, out)
        trace.add(phase, cycles, n)

    def _pointwise_pe(
        self, op: Opcode, x: list[int], y: list[int] | None, cmd: Command
    ) -> list[int]:
        if op is Opcode.PMODMUL:
            return [self.pe.mul(a, b) for a, b in zip(x, y)]
        if op is Opcode.PMODADD:
            return [self.pe.add(a, b) for a, b in zip(x, y)]
        if op is Opcode.PMODSUB:
            return [self.pe.sub(a, b) for a, b in zip(x, y)]
        if op is Opcode.PMODSQR:
            return [self.pe.mul(a, a) for a in x]
        if op is Opcode.CMODMUL:
            c = cmd.constant
            return [self.pe.mul(a, c) for a in x]
        if op is Opcode.PMUL:
            return [self.pe.mul_plain(a, b) & ((1 << 128) - 1) for a, b in zip(x, y)]
        raise IsaError(f"unhandled pointwise op {op}")

    # ------------------------------------------------------------------
    # Memory ops
    # ------------------------------------------------------------------

    def _run_memcpy(self, cmd: Command, trace: ExecutionTrace, level: str) -> None:
        length = cmd.length
        cycles = self.timing.memcpy_cycles(length)
        if level != "timing":
            data = self._load_vector(cmd.x_addr, length)
            if cmd.opcode is Opcode.MEMCPYR:
                data = data[_bit_reverse_array(length)]
            self._store_vector(cmd.out_addr, data)
        trace.add("memcpy", cycles, length)

    # ------------------------------------------------------------------
    # Grouped issue (a stream's data path after its first run)
    # ------------------------------------------------------------------

    def compile(self, commands: list[Command], loads=(),
                expects=()) -> kernels.Replay:
        """The stream as hazard-ordered levels of same-opcode groups,
        compiled into one kernel call, with the host's loads into the
        ``n``-word operands at the addresses ``loads`` before it and its
        checks of those at ``expects`` after it (see
        :class:`~repro.polymath.kernels.Replay`).

        A command's level is one past the latest earlier command whose
        result it reads (read after write) or overwrites (write after
        write), and no lower than any earlier command that reads what it
        overwrites (write after read: a level reads every operand before
        it stores any result). Inside a level, the commands of one opcode
        (and, for NTT/iNTT, one twiddle table) form one group. Every
        command must be in :data:`GROUPED_OPCODES`.

        The program runs on the modulus programmed now, the commands'
        constants and kernel tables derived from the twiddle words the
        banks hold now (:meth:`_tables`, an iNTT's with its command's
        ``n^-1``), which each run checks are still there: it stores
        nothing when a twiddle row has changed. It reads its bank rows
        mod ``q``, so a word ``>= q`` is reduced, and counts nothing:
        cycles, PE operations and bank, bus and link traffic are the
        caller's to charge. Needs ``uint64`` banks and a modulus the
        kernel :func:`~repro.polymath.kernels.fits`.
        """
        q, n = self._modulus(), commands[0].n
        decoded: dict[int, tuple[SramBank, int]] = {}

        def locate(address: int) -> tuple[SramBank, int]:
            """The bank and word of an address, decoded once."""
            if address not in decoded:
                bank, _, word = self.memory_map.decode(address)
                decoded[address] = bank, word
            return decoded[address]

        def region(address: int, size: int) -> tuple[str, int, int]:
            """The words a ``size``-word operand at ``address`` covers."""
            bank, word = locate(address)
            return bank.name, word, word + size

        levels: list[dict[tuple, list[Command]]] = []
        # Per bank, the (first word, end, level) of each region written and
        # read so far: only regions of one bank can overlap.
        writes: dict[str, list[tuple[int, int, int]]] = {}
        reads: dict[str, list[tuple[int, int, int]]] = {}
        for cmd in commands:
            op = cmd.opcode
            srcs = [region(cmd.x_addr, n)]
            if op in _Y_OPERAND:
                srcs.append(region(cmd.y_addr, n))
            if op in _TWIDDLES:
                srcs.append(region(cmd.twiddle_addr, n))
            dst = region(cmd.out_addr, n)
            level = max(
                [lv + 1 for bank, lo, hi in (dst, *srcs)
                 for start, end, lv in writes.get(bank, ())
                 if start < hi and lo < end]
                + [lv for start, end, lv in reads.get(dst[0], ())
                   if start < dst[2] and dst[1] < end],
                default=0,
            )
            writes.setdefault(dst[0], []).append((*dst[1:], level))
            for bank, lo, hi in srcs:
                reads.setdefault(bank, []).append((lo, hi, level))
            if level == len(levels):
                levels.append({})
            key = (op.value, srcs[-1] if op in _TWIDDLES else None)
            levels[level].setdefault(key, []).append(cmd)

        # Each twiddle table's address, once, and the key of its words.
        checks: dict[int, bytes] = {}

        def row(address: int) -> tuple[np.ndarray, int]:
            bank, word = locate(address)
            return bank.data, word

        def group(op: Opcode, cmds: list[Command]) -> tuple:
            constants = tuple(c.constant for c in cmds)
            tables = None
            if op in _TWIDDLES:
                address = cmds[0].twiddle_addr
                if address not in checks:
                    data, word = row(address)
                    checks[address] = _table_key(data[word : word + n], q)
                tables = _shared_tables(q, checks[address], constants[0]
                                        if op is Opcode.INTT else None)
            return (op.name, [row(c.x_addr) for c in cmds],
                    [row(c.y_addr) for c in cmds if op in _Y_OPERAND],
                    [row(c.out_addr) for c in cmds], tables,
                    _row_constants(q, constants)[1]
                    if op in (Opcode.INTT, Opcode.CMODMUL) else None)

        groups = [[group(cmds[0].opcode, cmds) for cmds in level.values()]
                  for level in levels]
        return kernels.Replay(q, n, [row(a) for a in checks], groups,
                              [row(a) for a in loads],
                              [row(a) for a in expects])

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _modulus(self) -> int:
        if self.pe._barrett is None:
            raise ConfigError("modulus not programmed (Q register)")
        return self.pe.q

    def _load_vector(self, address: int, count: int) -> np.ndarray:
        values, _ = self.bus.burst_read_words(address, count)
        return values

    def _store_vector(self, address: int, values: "np.ndarray | list[int]") -> None:
        self.bus.burst_write(address, values)

    @staticmethod
    def _tables(twiddles: np.ndarray, q: int,
                n_inv: int | None = None) -> NttTables:
        """The kernel's forward tables for this twiddle table, or with
        ``n_inv`` its inverse tables ending with that multiply.

        Shared across every MDMC in the process and keyed on ``q`` and
        the words just read out of the twiddle bank, as ``uint64``
        residues (never the bytes of an ``object``-dtype bank, whose
        elements are pointers): the kernel always uses exactly what the
        bank holds, and a corrupted table derives tables of its own.
        """
        return _shared_tables(q, _table_key(twiddles, q), n_inv)

    def _stage_stats(
        self, in_bank: SramBank, out_bank: SramBank, n: int, count_pe: bool,
        stages: int = 1,
    ) -> None:
        """Account NTT stages' SRAM traffic (and PE ops in vector mode).

        Stages ping-pong: the first reads ``in_bank`` and writes
        ``out_bank``, the next the other way round (Section III-G2).
        """
        twd = self.memory_map.bank("TWD")
        forward, backward = (stages + 1) // 2, stages // 2
        in_bank.stats.reads += n * forward  # two coefficients per butterfly
        out_bank.stats.writes += n * forward
        out_bank.stats.reads += n * backward
        in_bank.stats.writes += n * backward
        twd.stats.reads += n // 2 * stages  # one twiddle per butterfly
        if count_pe:
            self.pe.stats.multiplies += n // 2 * stages
            self.pe.stats.adds += n // 2 * stages
            self.pe.stats.subs += n // 2 * stages
            self.pe.stats.butterflies += n // 2 * stages

    def _bulk_stats(self, n: int, stages: int, extra_pointwise: int = 0) -> None:
        dp = self.memory_map.dual_port
        twd = self.memory_map.bank("TWD")
        dp[0].stats.reads += n * stages // 2
        dp[1].stats.reads += n * stages // 2
        dp[0].stats.writes += n * stages // 2
        dp[1].stats.writes += n * stages // 2
        twd.stats.reads += (n // 2) * stages
        self.pe.stats.multiplies += (n // 2) * stages + extra_pointwise * n
        self.pe.stats.adds += (n // 2) * stages
        self.pe.stats.subs += (n // 2) * stages
        self.pe.stats.butterflies += (n // 2) * stages

    def _bulk_pointwise_stats(self, op: Opcode, n: int) -> None:
        if op in (Opcode.PMODMUL, Opcode.PMUL, Opcode.PMODSQR, Opcode.CMODMUL):
            self.pe.stats.multiplies += n
        elif op is Opcode.PMODADD:
            self.pe.stats.adds += n
        elif op is Opcode.PMODSUB:
            self.pe.stats.subs += n


# ----------------------------------------------------------------------
# Vector-fidelity helpers (moduli the kernels fit; uint64 banks, whose
# words the kernels read and write as uint32)
# ----------------------------------------------------------------------


@lru_cache(maxsize=16)
def _bit_reverse_array(n: int) -> np.ndarray:
    table = np.asarray(bit_reverse_indices(n), dtype=np.intp)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _shared_tables(q: int, table: bytes, n_inv: int | None) -> NttTables:
    """The kernel's forward tables of a ``uint64`` residue twiddle table
    (:func:`_table_key`) for ``n_inv`` ``None``, else its inverse tables
    ending with a multiply by ``n_inv``, derived once per content and
    shared by every chip.

    Both come from the forward table as stored: the inverse's twiddles
    are ``q - F[brv(n - brv(k))]``, the same zero-storage derivation the
    address generator makes for the scalar iNTT (see ``_run_intt``).
    """
    psi = np.frombuffer(table, dtype=np.uint64)[None]
    if n_inv is None:
        return NttTables.derive(psi, [q])
    return NttTables.derive(psi, [q], inverse=True, scale=[n_inv])


def _table_key(twiddles: np.ndarray, q: int) -> bytes:
    """The :func:`_shared_tables` key of the twiddle words read."""
    return residue_words(twiddles, q).tobytes()


def _pointwise(op: Opcode, x: np.ndarray, y: np.ndarray | None,
               constants: tuple[int, ...], q: int) -> np.ndarray:
    """One modular pointwise stream over ``(k, n)`` residues ``< q``
    (``constants`` has one per row)."""
    if op is Opcode.PMODMUL:
        return kernels.multiply(x, y, kernels.Moduli.of((q,)))
    if op is Opcode.PMODSQR:
        return kernels.multiply(x, x, kernels.Moduli.of((q,)))
    if op is Opcode.PMODADD:
        out = x + y
        return np.minimum(out, out - np.uint32(q))
    if op is Opcode.PMODSUB:
        out = x - y  # wraps when x < y; adding q unwraps it
        return np.minimum(out, out + np.uint32(q))
    if op is Opcode.CMODMUL:
        return _times(x, constants, q)
    raise IsaError(f"unhandled pointwise op {op}")  # pragma: no cover


def _times(x: np.ndarray, constants: tuple[int, ...], q: int) -> np.ndarray:
    """Row ``i`` of ``(k, n)`` residues times ``constants[i]`` mod ``q``:
    the CMODMUL stream."""
    mods, c = _row_constants(q, constants)
    return kernels.reduce(x, mods, c)


@lru_cache(maxsize=64)
def _row_constants(q: int, constants: tuple[int, ...]) -> tuple:
    """The kernel constants of one modulus per row, and of ``constants``."""
    mods = kernels.Moduli.of((q,) * len(constants))
    return mods, mods.constants(list(constants))
