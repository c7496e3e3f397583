"""The batched Sabre engine vs the serial oracle.

Four layers of evidence that ``repro.sabre.batch_cpu`` is the serial
CPU, R at a time:

1. **Hypothesis lockstep fuzz** — random instruction soups (every
   opcode, sprinkled HALTs, raw illegal words) over randomly seeded
   registers and data RAM, stepped one instruction at a time with the
   full architectural state compared after *every* step, fault strings
   included.
2. **Divergent control flow** — instances that branch, loop and halt
   on different schedules stay bit-identical while live and park
   correctly when done.
3. **The ``run_cycles`` budget contract** — pinned against both
   engines: zero-budget and halted slices are free, overshoot is
   bounded by ``MAX_INSTRUCTION_COST - 1``, and any slicing of a run
   executes the identical instruction stream.
4. **Firmware-in-the-loop** — the registered ``("sabre", *)`` engines
   run the demo corpus through :func:`repro.api.execute` and must
   agree on everything down to sticky FPU flags and PC traces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.engines import resolve_engine
from repro.errors import ConfigurationError, SabreError
from repro.sabre import softfloat as sf
from repro.sabre.assembler import Program, assemble
from repro.sabre.batch_cpu import link_batch_system
from repro.sabre.cpu import MAX_INSTRUCTION_COST
from repro.sabre.harness import (
    FIRMWARE_CORPUS,
    FirmwareRequest,
    run_firmware_batched,
    run_firmware_serial,
)
from repro.sabre.isa import Instruction, Opcode, R_TYPE, encode
from repro.sabre.loader import link_system
from repro.scenarios.cache import CampaignCache

INSTANCES = 5


def assert_payloads_equal(a, b, path=""):
    """Bit-for-bit structural equality over nested payloads."""
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            assert_payloads_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, (path, a.dtype, b.dtype)
        assert np.array_equal(a, b), path
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_payloads_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, (path, a, b)


# ---------------------------------------------------------------------
# Random-program lockstep fuzz
# ---------------------------------------------------------------------

_ALU_I = (
    Opcode.ADDI,
    Opcode.ANDI,
    Opcode.ORI,
    Opcode.XORI,
    Opcode.SLLI,
    Opcode.SRLI,
    Opcode.SRAI,
    Opcode.SLTI,
    Opcode.LUI,
)
_MEM = (Opcode.LDW, Opcode.STW, Opcode.LDB, Opcode.STB)
_BRANCH = (
    Opcode.BEQ,
    Opcode.BNE,
    Opcode.BLT,
    Opcode.BGE,
    Opcode.BLTU,
    Opcode.BGEU,
)


def _random_program(rng: np.random.Generator, size: int = 48) -> list[int]:
    """An instruction soup exercising every executor group."""
    words = []
    for _ in range(size):
        roll = rng.random()
        rd, rs1, rs2 = (int(v) for v in rng.integers(0, 16, size=3))
        if roll < 0.03:
            words.append(int(rng.integers(0, 1 << 32)))  # raw, often illegal
        elif roll < 0.08:
            words.append(encode(Instruction(Opcode.HALT)))
        elif roll < 0.38:
            op = tuple(R_TYPE)[int(rng.integers(0, len(R_TYPE)))]
            words.append(encode(Instruction(op, rd=rd, rs1=rs1, rs2=rs2)))
        elif roll < 0.62:
            op = _ALU_I[int(rng.integers(0, len(_ALU_I)))]
            imm = int(rng.integers(-(1 << 17), 1 << 17))
            words.append(encode(Instruction(op, rd=rd, rs1=rs1, imm=imm)))
        elif roll < 0.80:
            op = _MEM[int(rng.integers(0, len(_MEM)))]
            imm = int(rng.integers(0, 64)) * 4
            words.append(encode(Instruction(op, rd=rd, rs1=rs1, imm=imm)))
        elif roll < 0.94:
            op = _BRANCH[int(rng.integers(0, len(_BRANCH)))]
            imm = int(rng.integers(-10, 11))
            words.append(
                encode(Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm))
            )
        elif roll < 0.98:
            imm = int(rng.integers(-10, 11))
            words.append(encode(Instruction(Opcode.JAL, rd=rd, imm=imm)))
        else:
            imm = int(rng.integers(0, 64)) * 4
            words.append(encode(Instruction(Opcode.JALR, rd=rd, rs1=rs1, imm=imm)))
    return words


class _SerialLane:
    """One serial system stepped instruction-at-a-time with fault capture."""

    def __init__(self, program: Program, registers: np.ndarray, ram: np.ndarray):
        self.system = link_system(program)
        cpu = self.system.cpu
        cpu.registers = [int(v) for v in registers]
        cpu.registers[0] = 0
        self.system.cpu.bus.data_ram.words[:] = ram
        self.flags = sf.Flags()
        self.fault: str | None = None

    @property
    def live(self) -> bool:
        return self.fault is None and not self.system.cpu.halted

    def step(self) -> None:
        saved = sf.flags
        sf.flags = self.flags
        try:
            self.system.cpu.step()
        except SabreError as exc:
            self.fault = str(exc)
        finally:
            sf.flags = saved


def _lockstep_case(seed: int, steps: int = 160) -> None:
    rng = np.random.default_rng(seed)
    program = Program(words=_random_program(rng))
    registers = rng.integers(0, 2048, size=(INSTANCES, 16), dtype=np.uint32)
    registers[:, 0] = 0
    ram = rng.integers(0, 1 << 32, size=16384, dtype=np.uint32)

    lanes = [_SerialLane(program, registers[i], ram) for i in range(INSTANCES)]
    batch = link_batch_system(program, INSTANCES)
    batch.cpu.registers[:] = registers
    batch.cpu.bus.data[:] = ram[None, :]

    for step in range(steps):
        if not any(lane.live for lane in lanes):
            break
        for lane in lanes:
            if lane.live:
                lane.step()
        batch.cpu.step_all()
        for i, lane in enumerate(lanes):
            where = f"seed={seed} step={step} instance={i}"
            cpu = lane.system.cpu
            assert batch.cpu.fault_reasons[i] == lane.fault, where
            if lane.fault is not None:
                continue
            assert batch.cpu.halted[i] == cpu.halted, where
            assert batch.cpu.pc[i] == cpu.pc, where
            assert batch.cpu.cycles[i] == cpu.cycles, where
            assert batch.cpu.instructions[i] == cpu.instructions, where
            assert np.array_equal(
                batch.cpu.registers[i],
                np.array(cpu.registers, dtype=np.uint32),
            ), where

    for i, lane in enumerate(lanes):
        assert np.array_equal(
            batch.cpu.bus.data[i], lane.system.cpu.bus.data_ram.words
        ), f"seed={seed} instance={i} data RAM"
        assert batch.timer.cycles[i] == lane.system.timer.cycles


class TestLockstepFuzz:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_programs_stay_bit_identical(self, seed):
        _lockstep_case(seed)

    def test_pinned_regression_seeds(self):
        for seed in (0, 1, 7, 20050307):
            _lockstep_case(seed)


class TestDivergentControlFlow:
    SOURCE = """
        ; r1 = instance-dependent loop count (seeded), r2 = counter
        addi r2, r0, 0
    loop:
        addi r2, r2, 1
        blt  r2, r1, loop
        sltu r3, r2, r1
        halt
    """

    def test_divergent_loop_counts(self):
        program = assemble(self.SOURCE)
        counts = np.array([1, 9, 3, 40, 17], dtype=np.uint32)
        lanes = []
        for count in counts:
            system = link_system(program)
            system.cpu.registers[1] = int(count)
            lanes.append(system)
        batch = link_batch_system(program, len(counts))
        batch.cpu.registers[:, 1] = counts

        # Step until everything halted; instances drop out at
        # different times, exercising the shrinking live set.
        for _ in range(400):
            for system in lanes:
                if not system.cpu.halted:
                    system.cpu.step()
            batch.cpu.step_all()
            for i, system in enumerate(lanes):
                assert batch.cpu.halted[i] == system.cpu.halted
                assert batch.cpu.pc[i] == system.cpu.pc
                assert batch.cpu.cycles[i] == system.cpu.cycles
            if batch.cpu.halted.all():
                break
        assert batch.cpu.halted.all()
        for i, system in enumerate(lanes):
            assert np.array_equal(
                batch.cpu.registers[i],
                np.array(system.cpu.registers, dtype=np.uint32),
            )


# ---------------------------------------------------------------------
# run_cycles budget contract (satellite: shared by both engines)
# ---------------------------------------------------------------------

_COUNT_SOURCE = """
    addi r1, r0, 0
    addi r2, r0, 50
loop:
    addi r1, r1, 1
    blt  r1, r2, loop
    halt
"""


def _fresh_serial():
    return link_system(assemble(_COUNT_SOURCE))


def _fresh_batch(r=3):
    return link_batch_system(assemble(_COUNT_SOURCE), r)


class TestRunCyclesContract:
    def test_zero_or_negative_budget_is_free(self):
        serial = _fresh_serial()
        assert serial.cpu.run_cycles(0) == 0
        assert serial.cpu.run_cycles(-5) == 0
        assert serial.cpu.instructions == 0
        batch = _fresh_batch()
        assert np.array_equal(batch.cpu.run_cycles(0), np.zeros(3, np.int64))
        assert np.array_equal(batch.cpu.run_cycles(-5), np.zeros(3, np.int64))
        assert not batch.cpu.instructions.any()

    def test_halted_instance_uses_no_cycles(self):
        serial = _fresh_serial()
        serial.cpu.run(max_instructions=10_000)
        assert serial.cpu.run_cycles(100) == 0
        batch = _fresh_batch()
        batch.cpu.run(max_instructions=10_000)
        assert not batch.cpu.run_cycles(100).any()

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 19])
    def test_overshoot_strictly_below_max_instruction_cost(self, budget):
        serial = _fresh_serial()
        while not serial.cpu.halted:
            used = serial.cpu.run_cycles(budget)
            assert used < budget + MAX_INSTRUCTION_COST
            if used < budget:
                assert serial.cpu.halted
        batch = _fresh_batch()
        while batch.cpu.live_mask().any():
            used = batch.cpu.run_cycles(budget)
            live_before = used > 0
            assert (used[live_before] < budget + MAX_INSTRUCTION_COST).all()
            short = live_before & (used < budget)
            assert batch.cpu.halted[short].all()

    @pytest.mark.parametrize("slice_cycles", [1, 3, 8, 1000])
    def test_slicing_is_transparent(self, slice_cycles):
        # One big run and any slicing of it execute the identical
        # instruction stream on both engines.
        reference = _fresh_serial()
        reference.cpu.run(max_instructions=10_000)

        serial = _fresh_serial()
        while not serial.cpu.halted:
            serial.cpu.run_cycles(slice_cycles)
        assert serial.cpu.state() == reference.cpu.state()

        batch = _fresh_batch()
        while batch.cpu.live_mask().any():
            batch.cpu.run_cycles(slice_cycles)
        assert (batch.cpu.cycles == reference.cpu.cycles).all()
        assert (batch.cpu.instructions == reference.cpu.instructions).all()
        assert (batch.cpu.pc == reference.cpu.pc).all()


# ---------------------------------------------------------------------
# Firmware-in-the-loop: the registered engines and the api façade
# ---------------------------------------------------------------------


class TestFirmwareEngines:
    @pytest.mark.parametrize("program", sorted(FIRMWARE_CORPUS))
    def test_corpus_bit_identical(self, program):
        request = FirmwareRequest(
            program=program, instances=6, packets=10, base_seed=11, trace=True
        )
        assert_payloads_equal(
            run_firmware_batched(request),
            run_firmware_serial(request),
            path=program,
        )

    def test_slice_budget_fault_matches(self):
        request = FirmwareRequest(
            program="boresight", instances=4, packets=8, max_slices=1
        )
        serial = run_firmware_serial(request)
        batched = run_firmware_batched(request)
        assert_payloads_equal(batched, serial)
        assert all(
            fault == "firmware did not settle within 1 time slices"
            for fault in batched["faults"]
        )

    def test_registered_engines_resolve(self):
        assert resolve_engine("sabre", "model") is run_firmware_serial
        assert resolve_engine("sabre", "fast") is run_firmware_batched

    def test_unknown_program_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown firmware"):
            run_firmware_serial(FirmwareRequest(program="doom"))


class TestApiFacade:
    REQUEST = FirmwareRequest(program="echo", instances=4, packets=6)

    def test_auto_routes_to_fast_and_matches_oracle(self):
        result = api.execute(self.REQUEST)
        assert result.source == "direct"
        assert result.batch_size == 4
        assert not result.cache_hit
        oracle = api.execute(self.REQUEST, engine="model")
        assert_payloads_equal(result.payload, oracle.payload)

    def test_workers_rejected_on_single_process_engines(self):
        with pytest.raises(ConfigurationError, match="single-process"):
            api.execute(self.REQUEST, workers=2)

    def test_cache_round_trip(self, tmp_path):
        cache = CampaignCache(tmp_path)
        first = api.execute(self.REQUEST, cache=cache)
        second = api.execute(self.REQUEST, cache=cache)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.source == "cache"
        assert_payloads_equal(first.payload, second.payload)
