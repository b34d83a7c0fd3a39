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
through :meth:`Mdmc.issue_plan` / :meth:`Mdmc.run_plan`: its commands
levelled by their buffer hazards and issued one kernel call per
same-opcode group over its bank rows, counting nothing (the
driver charges the counters that stream's first run recorded).
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


@dataclass
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
        return ExecutionTrace(
            self.cycles,
            [PhaseRecord(p.kind, p.cycles, p.n) for p in self.phases],
            self.interrupts,
        )


#: The opcodes an issue plan runs: the vector kernels over residues.
GROUPED_OPCODES = frozenset({
    Opcode.NTT, Opcode.INTT, Opcode.PMODADD, Opcode.PMODMUL,
    Opcode.PMODSQR, Opcode.PMODSUB, Opcode.CMODMUL,
})

#: One polynomial in a bank: ``(bank, first word)``.
Row = tuple[SramBank, int]


@dataclass(frozen=True)
class IssueGroup:
    """Commands of one opcode in one hazard level: one kernel call.

    ``members`` are the commands' positions in the stream (their
    constants are read from the stream each run); ``x``, ``y`` and
    ``out`` their operand and result rows, and ``twiddle`` the table an
    NTT/iNTT group reads (``None`` for pointwise groups).
    """

    opcode: Opcode
    members: tuple[int, ...]
    x: tuple[Row, ...]
    y: tuple[Row, ...]
    out: tuple[Row, ...]
    twiddle: Row | None


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

    def issue_plan(self, commands: list[Command]) -> tuple[tuple[IssueGroup, ...], ...]:
        """The stream as hazard-ordered levels of same-opcode groups.

        A command's level is one past the latest earlier command whose
        result it reads (read after write) or overwrites (write after
        write), and no lower than any earlier command that reads what it
        overwrites (write after read: a level reads every operand before
        it stores any result). Inside a level, the commands of one opcode
        (and, for NTT/iNTT, one twiddle table) form one group. Every
        command must be in :data:`GROUPED_OPCODES`.
        """
        levels: list[dict[tuple, list[int]]] = []
        writes: list[tuple[tuple, int]] = []
        reads: list[tuple[tuple, int]] = []
        for i, cmd in enumerate(commands):
            op = cmd.opcode
            srcs = [self._region(cmd.x_addr, cmd.n)]
            if op.needs_y_operand:
                srcs.append(self._region(cmd.y_addr, cmd.n))
            if op.needs_twiddles:
                srcs.append(self._region(cmd.twiddle_addr, cmd.n))
            dst = self._region(cmd.out_addr, cmd.n)
            level = max(
                [lv + 1 for r, lv in writes
                 if any(_overlap(r, s) for s in (dst, *srcs))]
                + [lv for r, lv in reads if _overlap(r, dst)],
                default=0,
            )
            writes.append((dst, level))
            reads.extend((s, level) for s in srcs)
            if level == len(levels):
                levels.append({})
            key = (op, srcs[-1] if op.needs_twiddles else None)
            levels[level].setdefault(key, []).append(i)

        def row(address: int) -> Row:
            bank, _, word = self.memory_map.decode(address)
            return bank, word

        return tuple(
            tuple(
                IssueGroup(
                    opcode=op,
                    members=tuple(members),
                    x=tuple(row(commands[i].x_addr) for i in members),
                    y=tuple(row(commands[i].y_addr) for i in members
                            if op.needs_y_operand),
                    out=tuple(row(commands[i].out_addr) for i in members),
                    twiddle=row(commands[members[0]].twiddle_addr)
                    if op.needs_twiddles else None,
                )
                for (op, _), members in level.items()
            )
            for level in levels
        )

    def run_plan(
        self, plan: tuple[tuple[IssueGroup, ...], ...], commands: list[Command],
    ) -> None:
        """Run ``commands``' data through their :meth:`issue_plan`.

        Each group is one kernel call over its bank rows, read in one
        pass into residues of the words the banks hold now (a word
        ``>= q`` is reduced): an NTT/iNTT group's kernel tables come from
        the twiddle words it reads (:meth:`_tables`), so a corrupted
        table fails its own chip's results, and an iNTT's tables end
        with its command's ``n^-1``. Each level's results are stored
        after all its groups ran. Nothing is counted: cycles, PE
        operations and bank, bus and link traffic are the caller's to
        charge. Needs ``uint64`` banks and a modulus the kernel
        :func:`~repro.polymath.kernels.fits`.
        """
        q = self._modulus()
        twiddles: dict[Row, bytes] = {}  # each table row is read once
        for level in plan:
            results = [self._run_group(group, commands, q, twiddles)
                       for group in level]
            for group, out in zip(level, results):
                n = out.shape[-1]
                for (bank, word), words in zip(group.out, out):
                    bank.data[word : word + n] = words

    def _run_group(
        self, group: IssueGroup, commands: list[Command], q: int,
        twiddles: dict[Row, bytes],
    ) -> np.ndarray:
        """One group's ``(k, n)`` results (see :meth:`run_plan`)."""
        op = group.opcode
        n = commands[group.members[0]].n
        mods = kernels.Moduli.of((q,))
        words = kernels.gather(
            [(bank.data, word) for bank, word in group.x + group.y], n, mods)
        x, y = words[: len(group.x)], words[len(group.x) :]
        constants = tuple(commands[i].constant for i in group.members)
        if op.needs_twiddles:
            if group.twiddle not in twiddles:
                bank, word = group.twiddle
                twiddles[group.twiddle] = _table_key(
                    bank.data[word : word + n], q)
            table = twiddles[group.twiddle]
            if op is Opcode.NTT:
                forward = _shared_tables(q, table, None)
                return transform(x[:, None], forward)[:, 0]
            # Each iNTT's n^-1 ends its tables: one call when they share it.
            if len(set(constants)) == 1:
                return transform(
                    x[:, None], _shared_tables(q, table, constants[0]))[:, 0]
            for row, c in zip(x, constants):
                transform(row[None, None], _shared_tables(q, table, c))
            return x
        return _pointwise(op, x, y, constants, q)

    def _region(self, address: int, n: int) -> tuple[str, int, int]:
        """The words an ``n``-word operand at ``address`` covers."""
        bank, _, word = self.memory_map.decode(address)
        return bank.name, word, word + n

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


def _overlap(a: tuple[str, int, int], b: tuple[str, int, int]) -> bool:
    return a[0] == b[0] and a[1] < b[2] and b[1] < a[2]


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
    return kernels.mac(None, None, mods, x[None], c)[0]


@lru_cache(maxsize=64)
def _row_constants(q: int, constants: tuple[int, ...]) -> tuple:
    """The kernel constants of one modulus per row, and of ``constants``."""
    mods = kernels.Moduli.of((q,) * len(constants))
    return mods, mods.constants(list(constants))
