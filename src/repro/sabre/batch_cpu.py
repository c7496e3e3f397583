"""The batched Sabre engine: R firmware instances per fetch.

The serial :class:`~repro.sabre.cpu.SabreCpu` executes one instruction
of one instance per Python-level step — the last hot path in the
reproduction still running scalar.  This module turns the *instance*
axis into a SIMD axis: architectural state becomes ``(R, ...)`` NumPy
arrays, every step fetches all R instruction words with one gather
against a whole-program :func:`~repro.sabre.isa.decode_program` table,
groups the live instances by opcode, and dispatches each opcode's
handler once over the matching lanes.

Bit-identity with the serial core is a hard contract, not a goal:

- integer results use uint32 wraparound arithmetic (signed views for
  SRA/SLT/branches), matching the serial ``& 0xFFFFFFFF`` masking;
- the FP unit reuses the :mod:`repro.sabre.softfloat_array` kernels,
  keeping per-instance **sticky exception flags** as uint8 masks whose
  bit layout equals the serial FLAGS register
  (:func:`repro.sabre.peripherals.pack_fpu_flags`);
- faults replicate the serial semantics exactly — same message
  strings, same partial-commit points (JAL/JALR link registers are
  written before a misaligned-target fault; the FPU operation counter
  increments before an unknown-op fault; pc/cycles/instructions/timer
  never commit on a faulting step);
- peripheral side effects (UART TX, GUI draws, angle registers) apply
  per instance in program order, so each instance's bus trace equals
  its serial run byte for byte.

A faulting instance is parked (``faulted[i]``, ``fault_reasons[i]``)
instead of raising, so one bad instance cannot take down the batch —
the harness compares the recorded reason against the serial
exception's ``str()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SabreError
from repro.sabre import softfloat_array as sfa
from repro.sabre.assembler import Program, assemble
from repro.sabre.bus import PERIPHERAL_BASE
from repro.sabre.isa import (
    Opcode,
    REGISTER_COUNT,
    DecodedProgram,
    decode_program,
)
from repro.sabre.loader import SystemImage
from repro.sabre.memory import DATA_BYTES, PROGRAM_BYTES
from repro.sabre.peripherals import FpuOp

__all__ = [
    "BatchSabreCpu",
    "BatchSabreSystem",
    "link_batch_system",
]

_U32 = np.uint32(0xFFFFFFFF)
_PERIPH_BASE = np.uint32(PERIPHERAL_BASE)

# Opcode values as plain ints: the dispatch loop compares against these
# once per present opcode per step.
_ADD = int(Opcode.ADD)
_SUB = int(Opcode.SUB)
_AND = int(Opcode.AND)
_OR = int(Opcode.OR)
_XOR = int(Opcode.XOR)
_SLL = int(Opcode.SLL)
_SRL = int(Opcode.SRL)
_SRA = int(Opcode.SRA)
_MUL = int(Opcode.MUL)
_SLT = int(Opcode.SLT)
_SLTU = int(Opcode.SLTU)
_ADDI = int(Opcode.ADDI)
_ANDI = int(Opcode.ANDI)
_ORI = int(Opcode.ORI)
_XORI = int(Opcode.XORI)
_SLLI = int(Opcode.SLLI)
_SRLI = int(Opcode.SRLI)
_SRAI = int(Opcode.SRAI)
_SLTI = int(Opcode.SLTI)
_LUI = int(Opcode.LUI)
_LDW = int(Opcode.LDW)
_STW = int(Opcode.STW)
_LDB = int(Opcode.LDB)
_STB = int(Opcode.STB)
_BEQ = int(Opcode.BEQ)
_BNE = int(Opcode.BNE)
_BLT = int(Opcode.BLT)
_BGE = int(Opcode.BGE)
_BLTU = int(Opcode.BLTU)
_BGEU = int(Opcode.BGEU)
_JAL = int(Opcode.JAL)
_JALR = int(Opcode.JALR)
_HALT = int(Opcode.HALT)


def _group_boundaries(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end indices of equal-key runs in a sorted key array."""
    change = np.nonzero(sorted_keys[1:] != sorted_keys[:-1])[0] + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
    ends = np.concatenate((change, np.array([sorted_keys.size], dtype=np.int64)))
    return starts, ends


# ---------------------------------------------------------------------
# Batched peripherals.  Each mirrors one serial peripheral with (R,)
# state arrays and a vectorized read/write over a lane subset.  All
# return an ``ok`` mask; lanes that fault have already been reported
# through ``self.fault`` with the exact serial message string.
# ---------------------------------------------------------------------


class _BatchPeripheral:
    """Base: per-instance state plus the CPU's fault sink."""

    size: int = 0x10

    def __init__(self, instances: int) -> None:
        self.instances = instances
        #: Wired to :meth:`BatchSabreCpu._fault` by the system linker.
        self.fault = lambda inst, msg: None

    def _bad_offset(self, inst: np.ndarray, bad: np.ndarray, label: str,
                    offset: int) -> None:
        for i in inst[bad]:
            self.fault(int(i), f"{label}: bad offset {offset:#x}")

    def read(self, inst: np.ndarray, offset: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def write(self, inst: np.ndarray, offset: int,
              values: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class BatchLeds(_BatchPeripheral):
    size = 0x10

    def __init__(self, instances: int) -> None:
        super().__init__(instances)
        self.state = np.zeros(instances, dtype=np.uint32)
        self.write_count = np.zeros(instances, dtype=np.int64)

    def read(self, inst, offset):
        if offset == 0:
            return self.state[inst], np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "LEDs", offset)
        return np.zeros(inst.size, dtype=np.uint32), np.zeros(inst.size, dtype=bool)

    def write(self, inst, offset, values):
        if offset == 0:
            self.state[inst] = values & np.uint32(0xFF)
            self.write_count[inst] += 1
            return np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "LEDs", offset)
        return np.zeros(inst.size, dtype=bool)


class BatchSwitches(_BatchPeripheral):
    size = 0x10

    def __init__(self, instances: int) -> None:
        super().__init__(instances)
        self.state = np.zeros(instances, dtype=np.uint32)

    def read(self, inst, offset):
        if offset == 0:
            return self.state[inst], np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "switches", offset)
        return np.zeros(inst.size, dtype=np.uint32), np.zeros(inst.size, dtype=bool)

    def write(self, inst, offset, values):
        for i in inst:
            self.fault(int(i), "switches are read-only")
        return np.zeros(inst.size, dtype=bool)


class BatchTouchScreen(_BatchPeripheral):
    size = 0x10

    def __init__(self, instances: int) -> None:
        super().__init__(instances)
        self.x = np.zeros(instances, dtype=np.uint32)
        self.y = np.zeros(instances, dtype=np.uint32)
        self.pressed = np.zeros(instances, dtype=np.uint32)

    def read(self, inst, offset):
        ok = np.ones(inst.size, dtype=bool)
        if offset == 0x0:
            return self.x[inst], ok
        if offset == 0x4:
            return self.y[inst], ok
        if offset == 0x8:
            return self.pressed[inst], ok
        self._bad_offset(inst, ok, "touchscreen", offset)
        return np.zeros(inst.size, dtype=np.uint32), np.zeros(inst.size, dtype=bool)

    def write(self, inst, offset, values):
        for i in inst:
            self.fault(int(i), "touchscreen is read-only")
        return np.zeros(inst.size, dtype=bool)


class BatchGui(_BatchPeripheral):
    size = 0x20

    def __init__(self, instances: int) -> None:
        super().__init__(instances)
        self.regs = np.zeros((instances, 5), dtype=np.uint32)
        #: Per-instance captured (x0, y0, x1, y1, color) draw commands.
        self.lines: list[list[tuple[int, int, int, int, int]]] = [
            [] for _ in range(instances)
        ]

    def read(self, inst, offset):
        index = offset // 4
        ok = np.ones(inst.size, dtype=bool)
        if 0 <= index < 5:
            return self.regs[inst, index], ok
        if offset == 0x14:
            counts = np.fromiter(
                (len(self.lines[int(i)]) for i in inst),
                dtype=np.uint32,
                count=inst.size,
            )
            return counts, ok
        self._bad_offset(inst, ok, "GUI", offset)
        return np.zeros(inst.size, dtype=np.uint32), np.zeros(inst.size, dtype=bool)

    def write(self, inst, offset, values):
        index = offset // 4
        if 0 <= index < 5:
            self.regs[inst, index] = values
            return np.ones(inst.size, dtype=bool)
        if offset == 0x14:
            for i in inst:
                self.lines[int(i)].append(tuple(int(v) for v in self.regs[int(i)]))
            return np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "GUI", offset)
        return np.zeros(inst.size, dtype=bool)


class BatchSerialPort(_BatchPeripheral):
    """An RS232 port over R instances.

    RX is a padded ``(R, L)`` uint8 matrix with per-instance length and
    cursor (the serial deque becomes an index that only moves forward);
    TX is a per-instance bytearray appended in program order.
    """

    size = 0x10

    def __init__(self, instances: int, name: str = "serial") -> None:
        super().__init__(instances)
        self.name = name
        self.rx = np.zeros((instances, 0), dtype=np.uint8)
        self.rx_len = np.zeros(instances, dtype=np.int64)
        self.rx_cursor = np.zeros(instances, dtype=np.int64)
        self.tx: list[bytearray] = [bytearray() for _ in range(instances)]

    def host_send_all(self, streams: list[bytes]) -> None:
        """Host side: load every instance's full RX stream at once."""
        if len(streams) != self.instances:
            raise SabreError(
                f"{self.name}: {len(streams)} streams for "
                f"{self.instances} instances"
            )
        width = max((len(s) for s in streams), default=0)
        self.rx = np.zeros((self.instances, max(width, 1)), dtype=np.uint8)
        for i, stream in enumerate(streams):
            if stream:
                self.rx[i, : len(stream)] = np.frombuffer(stream, dtype=np.uint8)
            self.rx_len[i] = len(stream)
        self.rx_cursor[:] = 0

    def rx_pending(self) -> np.ndarray:
        """Which instances still have undelivered RX bytes."""
        return self.rx_cursor < self.rx_len

    def host_collect_tx(self, instance: int) -> bytes:
        """Host side: drain one instance's transmitted bytes."""
        out = bytes(self.tx[instance])
        self.tx[instance] = bytearray()
        return out

    def read(self, inst, offset):
        ok = np.ones(inst.size, dtype=bool)
        if offset == 0x0:
            have = self.rx_cursor[inst] < self.rx_len[inst]
            return have.astype(np.uint32) | np.uint32(0x2), ok
        if offset == 0x4:
            cursor = self.rx_cursor[inst]
            have = cursor < self.rx_len[inst]
            values = np.zeros(inst.size, dtype=np.uint32)
            pop = np.nonzero(have)[0]
            if pop.size:
                values[pop] = self.rx[inst[pop], cursor[pop]]
                self.rx_cursor[inst[pop]] += 1
            return values, ok
        self._bad_offset(inst, ok, self.name, offset)
        return np.zeros(inst.size, dtype=np.uint32), np.zeros(inst.size, dtype=bool)

    def write(self, inst, offset, values):
        if offset == 0x4:
            for i, v in zip(inst, values):
                self.tx[int(i)].append(int(v) & 0xFF)
            return np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), self.name, offset)
        return np.zeros(inst.size, dtype=bool)


class BatchAngleControl(_BatchPeripheral):
    size = 0x40

    def __init__(self, instances: int) -> None:
        super().__init__(instances)
        #: ``(R, 12)`` — same register order as ``ANGLES_REGISTERS``.
        self.regs = np.zeros((instances, 12), dtype=np.uint32)

    def read(self, inst, offset):
        index = offset // 4
        if 0 <= index < 12:
            return self.regs[inst, index], np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "angles", offset)
        return np.zeros(inst.size, dtype=np.uint32), np.zeros(inst.size, dtype=bool)

    def write(self, inst, offset, values):
        index = offset // 4
        if 0 <= index < 12:
            self.regs[inst, index] = values
            return np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "angles", offset)
        return np.zeros(inst.size, dtype=bool)


class BatchSoftFloatFpu(_BatchPeripheral):
    """The softfloat unit with per-instance sticky flag masks.

    Arithmetic goes through the :mod:`repro.sabre.softfloat_array`
    ``*_flags_array`` kernels; the per-element flag masks OR into a
    per-instance uint8 whose bit layout IS the serial FLAGS register
    (see :func:`repro.sabre.peripherals.pack_fpu_flags`), so a FLAGS
    read returns the mask directly and clears it — bit-exact with the
    serial read-clears-global-flags path.
    """

    size = 0x20

    def __init__(self, instances: int) -> None:
        super().__init__(instances)
        self.op_a = np.zeros(instances, dtype=np.uint32)
        self.op_b = np.zeros(instances, dtype=np.uint32)
        self.result = np.zeros(instances, dtype=np.uint32)
        self.operations = np.zeros(instances, dtype=np.int64)
        self.flag_mask = np.zeros(instances, dtype=np.uint8)

    def read(self, inst, offset):
        ok = np.ones(inst.size, dtype=bool)
        if offset == 0x0:
            return self.op_a[inst], ok
        if offset == 0x4:
            return self.op_b[inst], ok
        if offset == 0xC:
            return self.result[inst], ok
        if offset == 0x10:
            packed = self.flag_mask[inst].astype(np.uint32)
            self.flag_mask[inst] = 0
            return packed, ok
        self._bad_offset(inst, ok, "FPU", offset)
        return np.zeros(inst.size, dtype=np.uint32), np.zeros(inst.size, dtype=bool)

    def write(self, inst, offset, values):
        if offset == 0x0:
            self.op_a[inst] = values
            return np.ones(inst.size, dtype=bool)
        if offset == 0x4:
            self.op_b[inst] = values
            return np.ones(inst.size, dtype=bool)
        if offset == 0x8:
            return self._execute(inst, values)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "FPU", offset)
        return np.zeros(inst.size, dtype=bool)

    def _execute(self, inst: np.ndarray, ops: np.ndarray) -> np.ndarray:
        # The serial unit counts the operation before validating it.
        self.operations[inst] += 1
        ok = np.ones(inst.size, dtype=bool)
        order = np.argsort(ops, kind="stable")
        sorted_ops = ops[order]
        starts, ends = _group_boundaries(sorted_ops)
        for s, e in zip(starts.tolist(), ends.tolist()):
            sel = order[s:e]
            op = int(sorted_ops[s])
            sub = inst[sel]
            a = self.op_a[sub]
            b = self.op_b[sub]
            if op == FpuOp.ADD:
                result, mask = sfa.f32_add_flags_array(a, b)
            elif op == FpuOp.SUB:
                result, mask = sfa.f32_sub_flags_array(a, b)
            elif op == FpuOp.MUL:
                result, mask = sfa.f32_mul_flags_array(a, b)
            elif op == FpuOp.DIV:
                result, mask = sfa.f32_div_flags_array(a, b)
            elif op == FpuOp.SQRT:
                result, mask = sfa.f32_sqrt_flags_array(a)
            elif op == FpuOp.I2F:
                result, mask = sfa.i32_to_f32_flags_array(a.view(np.int32))
            elif op == FpuOp.F2I:
                wide, mask = sfa.f32_to_i32_flags_array(a)
                result = (wide & np.int64(0xFFFFFFFF)).astype(np.uint32)
            elif op == FpuOp.CMP_LT:
                lt, mask = sfa.f32_lt_flags_array(a, b)
                result = lt.astype(np.uint32)
            elif op == FpuOp.CMP_EQ:
                eq, mask = sfa.f32_eq_flags_array(a, b)
                result = eq.astype(np.uint32)
            elif op == FpuOp.NEG:
                result = sfa.f32_neg_array(a)
                mask = np.zeros(sub.size, dtype=np.uint8)
            else:
                for i in sub:
                    self.fault(int(i), f"FPU: unknown operation {op}")
                ok[sel] = False
                continue
            self.result[sub] = result.astype(np.uint32, copy=False)
            self.flag_mask[sub] |= mask
        return ok


class BatchCycleTimer(_BatchPeripheral):
    size = 0x10

    def __init__(self, instances: int) -> None:
        super().__init__(instances)
        self.cycles = np.zeros(instances, dtype=np.uint32)

    def tick(self, inst: np.ndarray, cycles: np.ndarray) -> None:
        self.cycles[inst] += cycles.astype(np.uint32)

    def read(self, inst, offset):
        if offset == 0:
            return self.cycles[inst], np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "timer", offset)
        return np.zeros(inst.size, dtype=np.uint32), np.zeros(inst.size, dtype=bool)

    def write(self, inst, offset, values):
        if offset == 0:
            self.cycles[inst] = values
            return np.ones(inst.size, dtype=bool)
        self._bad_offset(inst, np.ones(inst.size, dtype=bool), "timer", offset)
        return np.zeros(inst.size, dtype=bool)


class BatchSabreBus:
    """Data RAM matrix plus the nine Figure-7 peripheral windows.

    The serial bus searches a mapping list per access; here the window
    layout (one window per 0x100-aligned slot, every window ≤ 0x100
    bytes) lets routing reduce to ``win = (addr - base) >> 8`` and a
    size check — equivalent to the serial search because windows never
    overlap a slot boundary.
    """

    def __init__(self, instances: int,
                 windows: list[_BatchPeripheral]) -> None:
        self.instances = instances
        self.data = np.zeros((instances, DATA_BYTES // 4), dtype=np.uint32)
        self.windows = windows
        self.window_sizes = np.array([w.size for w in windows], dtype=np.int64)

    def bind_fault(self, sink) -> None:
        for window in self.windows:
            window.fault = sink


class BatchSabreCpu:
    """R lockstep Sabre instances over one shared program image."""

    def __init__(self, instances: int, program_words,
                 bus: BatchSabreBus) -> None:
        if instances < 1:
            raise SabreError(f"instances must be >= 1, got {instances}")
        words = np.zeros(PROGRAM_BYTES // 4, dtype=np.uint32)
        image = np.asarray(program_words, dtype=np.uint32)
        if image.size > words.size:
            raise SabreError(
                f"program of {image.size * 4} bytes exceeds the "
                f"{PROGRAM_BYTES}-byte BlockRAM store"
            )
        words[: image.size] = image
        self.program_words = words
        self.decoded: DecodedProgram = decode_program(words)
        self.instances = instances
        self.bus = bus
        self.registers = np.zeros((instances, REGISTER_COUNT), dtype=np.uint32)
        #: int64 so misaligned/negative branch targets survive commit
        #: exactly like the serial Python ints do.
        self.pc = np.zeros(instances, dtype=np.int64)
        self.cycles = np.zeros(instances, dtype=np.int64)
        self.instructions = np.zeros(instances, dtype=np.int64)
        self.halted = np.zeros(instances, dtype=bool)
        self.faulted = np.zeros(instances, dtype=bool)
        self.fault_reasons: list[str | None] = [None] * instances
        #: Optional (indices, fetch_pcs) record per lockstep step; see
        #: :meth:`pc_traces`.  Enable before running.
        self.pc_trace: list[tuple[np.ndarray, np.ndarray]] | None = None
        timer = next(
            (w for w in bus.windows if isinstance(w, BatchCycleTimer)), None
        )
        self._timer = timer
        bus.bind_fault(self._fault)

    # -- fault bookkeeping -------------------------------------------

    def _fault(self, instance: int, reason: str) -> None:
        self.faulted[instance] = True
        self.fault_reasons[instance] = reason

    def live_mask(self) -> np.ndarray:
        return ~self.halted & ~self.faulted

    # -- execution ----------------------------------------------------

    def step_all(self) -> None:
        """Advance every live instance by exactly one instruction."""
        idx = np.nonzero(self.live_mask())[0]
        if idx.size:
            self._step(idx)

    def run_cycles(self, budget: int) -> np.ndarray:
        """One time slice for every live instance; returns used cycles.

        Per-instance semantics equal :meth:`SabreCpu.run_cycles`:
        halted (or faulted) instances use 0 cycles, running instances
        stop at the first instruction boundary at or past ``budget``
        (overshoot < ``MAX_INSTRUCTION_COST``) or at HALT.  Instances
        are advanced in lockstep, dropping out of the step set as they
        individually exhaust the budget.
        """
        start = self.cycles.copy()
        if budget > 0:
            while True:
                live = self.live_mask() & (self.cycles - start < budget)
                idx = np.nonzero(live)[0]
                if not idx.size:
                    break
                self._step(idx)
        return self.cycles - start

    def run(self, max_instructions: int = 1_000_000) -> np.ndarray:
        """Run every instance to HALT; returns instructions executed.

        An instance exceeding the budget is parked with the serial
        runaway-guard message instead of raising, so the rest of the
        batch completes.
        """
        start = self.instructions.copy()
        while True:
            live = self.live_mask()
            over = live & (self.instructions - start >= max_instructions)
            for i in np.nonzero(over)[0]:
                self._fault(
                    int(i),
                    f"did not halt within {max_instructions} instructions",
                )
            idx = np.nonzero(live & ~over)[0]
            if not idx.size:
                break
            self._step(idx)
        return self.instructions - start

    def pc_traces(self) -> list[np.ndarray]:
        """Per-instance fetch-PC traces (requires ``pc_trace`` enabled)."""
        if self.pc_trace is None:
            raise SabreError("pc_trace was not enabled before running")
        if not self.pc_trace:
            return [np.zeros(0, dtype=np.int64) for _ in range(self.instances)]
        all_idx = np.concatenate([i for i, _ in self.pc_trace])
        all_pc = np.concatenate([p for _, p in self.pc_trace])
        order = np.argsort(all_idx, kind="stable")
        sorted_pc = all_pc[order]
        counts = np.bincount(all_idx, minlength=self.instances)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return [
            sorted_pc[offsets[i] : offsets[i + 1]].astype(np.int64)
            for i in range(self.instances)
        ]

    # -- the lockstep step -------------------------------------------

    def _step(self, idx: np.ndarray) -> None:
        """One instruction for every instance in ``idx`` (all live)."""
        pc = self.pc[idx]
        if self.pc_trace is not None:
            self.pc_trace.append((idx.copy(), pc.copy()))

        # Fetch faults: pc outside the program store.  Alignment is an
        # invariant (misaligned targets fault before committing), so
        # only the range check can fire.
        bad_fetch = (pc < 0) | (pc >= PROGRAM_BYTES)
        if bad_fetch.any():
            for lane in np.nonzero(bad_fetch)[0]:
                self._fault(
                    int(idx[lane]),
                    f"program: address {int(pc[lane]):#x} out of range",
                )
            keep = ~bad_fetch
            idx = idx[keep]
            pc = pc[keep]
            if not idx.size:
                return

        word_index = pc >> 2
        decoded = self.decoded
        op = decoded.op.take(word_index)
        illegal = ~decoded.legal.take(word_index)
        if illegal.any():
            for lane in np.nonzero(illegal)[0]:
                self._fault(
                    int(idx[lane]),
                    f"illegal opcode {int(op[lane]):#04x}",
                )
            keep = ~illegal
            idx = idx[keep]
            pc = pc[keep]
            word_index = word_index[keep]
            op = op[keep]
            if not idx.size:
                return

        n = idx.size
        rd = decoded.rd.take(word_index)
        rs1 = decoded.rs1.take(word_index)
        rs2 = decoded.rs2.take(word_index)
        imm = decoded.imm.take(word_index)
        imm_u = imm.view(np.uint32)
        a = self.registers[idx, rs1]
        b = self.registers[idx, rs2]

        next_pc = pc + 4
        cost = np.ones(n, dtype=np.int64)
        fault_step = np.zeros(n, dtype=bool)
        wr_en = np.zeros(n, dtype=bool)
        wr_val = np.zeros(n, dtype=np.uint32)

        order = np.argsort(op, kind="stable")
        sorted_ops = op[order]
        starts, ends = _group_boundaries(sorted_ops)
        for s, e in zip(starts.tolist(), ends.tolist()):
            sel = order[s:e]
            o = int(sorted_ops[s])
            if o == _ADDI:
                wr_en[sel] = True
                wr_val[sel] = a[sel] + imm_u[sel]
            elif o == _ADD:
                wr_en[sel] = True
                wr_val[sel] = a[sel] + b[sel]
            elif o == _SUB:
                wr_en[sel] = True
                wr_val[sel] = a[sel] - b[sel]
            elif o == _AND:
                wr_en[sel] = True
                wr_val[sel] = a[sel] & b[sel]
            elif o == _OR:
                wr_en[sel] = True
                wr_val[sel] = a[sel] | b[sel]
            elif o == _XOR:
                wr_en[sel] = True
                wr_val[sel] = a[sel] ^ b[sel]
            elif o == _SLL:
                wr_en[sel] = True
                wr_val[sel] = a[sel] << (b[sel] & np.uint32(31))
            elif o == _SRL:
                wr_en[sel] = True
                wr_val[sel] = a[sel] >> (b[sel] & np.uint32(31))
            elif o == _SRA:
                wr_en[sel] = True
                shifted = a[sel].view(np.int32) >> (
                    (b[sel] & np.uint32(31)).astype(np.int32)
                )
                wr_val[sel] = shifted.view(np.uint32)
            elif o == _MUL:
                wr_en[sel] = True
                wr_val[sel] = a[sel] * b[sel]
            elif o == _SLT:
                wr_en[sel] = True
                wr_val[sel] = (
                    a[sel].view(np.int32) < b[sel].view(np.int32)
                ).astype(np.uint32)
            elif o == _SLTU:
                wr_en[sel] = True
                wr_val[sel] = (a[sel] < b[sel]).astype(np.uint32)
            elif o == _ANDI:
                wr_en[sel] = True
                wr_val[sel] = a[sel] & imm_u[sel]
            elif o == _ORI:
                wr_en[sel] = True
                wr_val[sel] = a[sel] | (imm_u[sel] & np.uint32(0x3FFFF))
            elif o == _XORI:
                wr_en[sel] = True
                wr_val[sel] = a[sel] ^ (imm_u[sel] & np.uint32(0x3FFFF))
            elif o == _SLLI:
                wr_en[sel] = True
                wr_val[sel] = a[sel] << (imm_u[sel] & np.uint32(31))
            elif o == _SRLI:
                wr_en[sel] = True
                wr_val[sel] = a[sel] >> (imm_u[sel] & np.uint32(31))
            elif o == _SRAI:
                wr_en[sel] = True
                shifted = a[sel].view(np.int32) >> (
                    (imm_u[sel] & np.uint32(31)).astype(np.int32)
                )
                wr_val[sel] = shifted.view(np.uint32)
            elif o == _SLTI:
                wr_en[sel] = True
                wr_val[sel] = (a[sel].view(np.int32) < imm[sel]).astype(
                    np.uint32
                )
            elif o == _LUI:
                wr_en[sel] = True
                wr_val[sel] = (imm_u[sel] & np.uint32(0x3FFFF)) << np.uint32(14)
            elif o in (_LDW, _STW, _LDB, _STB):
                self._memory_op(
                    o, sel, idx, rd, a, imm_u, wr_en, wr_val, fault_step
                )
                cost[sel] = 2
            elif o in (_BEQ, _BNE, _BLT, _BGE, _BLTU, _BGEU):
                if o == _BEQ:
                    taken = a[sel] == b[sel]
                elif o == _BNE:
                    taken = a[sel] != b[sel]
                elif o == _BLT:
                    taken = a[sel].view(np.int32) < b[sel].view(np.int32)
                elif o == _BGE:
                    taken = a[sel].view(np.int32) >= b[sel].view(np.int32)
                elif o == _BLTU:
                    taken = a[sel] < b[sel]
                else:
                    taken = a[sel] >= b[sel]
                t = sel[taken]
                if t.size:
                    next_pc[t] = pc[t] + 4 + 4 * imm[t].astype(np.int64)
                    cost[t] = 2
            elif o == _JAL:
                wr_en[sel] = True
                wr_val[sel] = (pc[sel] + 4).astype(np.uint32)
                next_pc[sel] = pc[sel] + 4 + 4 * imm[sel].astype(np.int64)
                cost[sel] = 2
            elif o == _JALR:
                wr_en[sel] = True
                wr_val[sel] = (pc[sel] + 4).astype(np.uint32)
                next_pc[sel] = (a[sel] + imm_u[sel]).astype(np.int64)
                cost[sel] = 2
            elif o == _HALT:
                self.halted[idx[sel]] = True
            # decode_program guarantees every remaining opcode is legal.

        # Misaligned jump targets fault after link-register writes but
        # before any commit — matching the serial ordering exactly.
        mis = ((next_pc & 3) != 0) & ~fault_step
        if mis.any():
            for lane in np.nonzero(mis)[0]:
                self._fault(
                    int(idx[lane]),
                    f"misaligned jump target {int(next_pc[lane]):#x}",
                )
            fault_step |= mis

        en = wr_en & (rd != 0)
        if en.any():
            self.registers[idx[en], rd[en]] = wr_val[en]

        ok = ~fault_step
        commit = idx[ok]
        self.pc[commit] = next_pc[ok]
        self.cycles[commit] += cost[ok]
        self.instructions[commit] += 1
        if self._timer is not None:
            self._timer.tick(commit, cost[ok])

    # -- memory / bus ------------------------------------------------

    def _memory_op(self, o, sel, idx, rd, a, imm_u, wr_en, wr_val,
                   fault_step) -> None:
        """One load/store opcode group: RAM matrix or a peripheral."""
        addr = a[sel] + imm_u[sel]
        is_load = o in (_LDW, _LDB)
        is_word = o in (_LDW, _STW)
        periph = addr >= _PERIPH_BASE

        ram_lanes = np.nonzero(~periph)[0]
        if ram_lanes.size:
            rsel = sel[ram_lanes]
            raddr = addr[ram_lanes]
            if is_word:
                una = (raddr & 3) != 0
                oor = ~una & (raddr >= np.uint32(DATA_BYTES))
                for lane, ad, bad_align in zip(
                    rsel[una | oor], raddr[una | oor], una[una | oor]
                ):
                    self._fault(
                        int(idx[lane]),
                        f"data: unaligned word access at {int(ad):#x}"
                        if bad_align
                        else f"data: address {int(ad):#x} out of range",
                    )
                fault_step[rsel[una | oor]] = True
                good = ~(una | oor)
                gsel = rsel[good]
                word = raddr[good] >> np.uint32(2)
                inst = idx[gsel]
                if o == _LDW:
                    wr_en[gsel] = True
                    wr_val[gsel] = self.bus.data[inst, word]
                else:
                    self.bus.data[inst, word] = self.registers[inst, rd[gsel]]
            else:
                oor = raddr >= np.uint32(DATA_BYTES)
                for lane, ad in zip(rsel[oor], raddr[oor]):
                    self._fault(
                        int(idx[lane]),
                        f"data: address {int(ad):#x} out of range",
                    )
                fault_step[rsel[oor]] = True
                good = ~oor
                gsel = rsel[good]
                ga = raddr[good]
                word_index = ga >> np.uint32(2)
                shift = (ga & np.uint32(3)) << np.uint32(3)
                inst = idx[gsel]
                if o == _LDB:
                    wr_en[gsel] = True
                    wr_val[gsel] = (
                        self.bus.data[inst, word_index] >> shift
                    ) & np.uint32(0xFF)
                else:
                    value = self.registers[inst, rd[gsel]] & np.uint32(0xFF)
                    keep = np.invert(np.uint32(0xFF) << shift)
                    self.bus.data[inst, word_index] = (
                        self.bus.data[inst, word_index] & keep
                    ) | (value << shift)

        p_lanes = np.nonzero(periph)[0]
        if not p_lanes.size:
            return
        psel = sel[p_lanes]
        paddr = addr[p_lanes]
        if not is_word:
            for lane, ad in zip(psel, paddr):
                self._fault(
                    int(idx[lane]),
                    f"byte access to peripheral space at {int(ad):#x}",
                )
            fault_step[psel] = True
            return
        una = (paddr & 3) != 0
        for lane, ad in zip(psel[una], paddr[una]):
            self._fault(
                int(idx[lane]),
                f"unaligned peripheral access at {int(ad):#x}",
            )
        fault_step[psel[una]] = True
        aligned = ~una
        psel = psel[aligned]
        paddr = paddr[aligned]
        if not psel.size:
            return
        rel = paddr - _PERIPH_BASE
        win = (rel >> np.uint32(8)).astype(np.int64)
        off = (rel & np.uint32(0xFF)).astype(np.int64)
        n_windows = len(self.bus.windows)
        in_slot = win < n_windows
        mapped = np.zeros(psel.size, dtype=bool)
        slot = np.nonzero(in_slot)[0]
        if slot.size:
            mapped[slot] = off[slot] < self.bus.window_sizes[win[slot]]
        unmapped = ~mapped
        for lane, ad in zip(psel[unmapped], paddr[unmapped]):
            self._fault(
                int(idx[lane]),
                f"bus fault: no peripheral at {int(ad):#x}",
            )
        fault_step[psel[unmapped]] = True
        hit = np.nonzero(mapped)[0]
        if not hit.size:
            return
        psel = psel[hit]
        win = win[hit]
        off = off[hit]
        # Group by (window, offset): each batch peripheral method takes
        # one scalar offset over a lane subset, mirroring the serial
        # register granularity.
        key = win * 256 + off
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        starts, ends = _group_boundaries(sorted_key)
        for s, e in zip(starts.tolist(), ends.tolist()):
            grp = order[s:e]
            k = int(sorted_key[s])
            window = self.bus.windows[k >> 8]
            offset = k & 0xFF
            gsel = psel[grp]
            inst = idx[gsel]
            if is_load:
                values, ok = window.read(inst, offset)
                good = gsel[ok]
                wr_en[good] = True
                wr_val[good] = values[ok]
            else:
                values = self.registers[inst, rd[gsel]]
                ok = window.write(inst, offset, values)
            fault_step[gsel[~ok]] = True


@dataclass
class BatchSabreSystem:
    """R linked Figure-6 systems sharing one program image."""

    cpu: BatchSabreCpu
    leds: BatchLeds
    switches: BatchSwitches
    touchscreen: BatchTouchScreen
    gui: BatchGui
    serial_dmu: BatchSerialPort
    serial_acc: BatchSerialPort
    angles: BatchAngleControl
    fpu: BatchSoftFloatFpu
    timer: BatchCycleTimer
    image: SystemImage
    instances: int = field(default=0)

    def request_stop(self, instances: np.ndarray | None = None) -> None:
        """Raise switch 0 — for all instances or a given index array."""
        if instances is None:
            self.switches.state |= np.uint32(1)
        else:
            self.switches.state[instances] |= np.uint32(1)


def link_batch_system(source_or_program: str | Program,
                      instances: int) -> BatchSabreSystem:
    """Assemble (if needed) and wire up R lockstep Sabre systems.

    The peripheral windows attach in the serial
    :func:`~repro.sabre.loader.link_system` order, one 0x100 slot
    each, so the batched window routing resolves every address to the
    same peripheral as the serial bus search.
    """
    if isinstance(source_or_program, Program):
        program = source_or_program
    else:
        program = assemble(source_or_program)
    image = SystemImage(program=program)
    if not image.fits():
        raise SabreError(
            f"program of {program.size_bytes} bytes exceeds the "
            f"{PROGRAM_BYTES}-byte BlockRAM store"
        )

    leds = BatchLeds(instances)
    switches = BatchSwitches(instances)
    touchscreen = BatchTouchScreen(instances)
    gui = BatchGui(instances)
    serial_dmu = BatchSerialPort(instances, "serial-dmu")
    serial_acc = BatchSerialPort(instances, "serial-acc")
    angles = BatchAngleControl(instances)
    fpu = BatchSoftFloatFpu(instances)
    timer = BatchCycleTimer(instances)
    bus = BatchSabreBus(
        instances,
        [
            leds,
            switches,
            touchscreen,
            gui,
            serial_dmu,
            serial_acc,
            angles,
            fpu,
            timer,
        ],
    )
    cpu = BatchSabreCpu(instances, image.blockram_words, bus)
    return BatchSabreSystem(
        cpu=cpu,
        leds=leds,
        switches=switches,
        touchscreen=touchscreen,
        gui=gui,
        serial_dmu=serial_dmu,
        serial_acc=serial_acc,
        angles=angles,
        fpu=fpu,
        timer=timer,
        image=image,
        instances=instances,
    )
