"""Firmware-in-the-loop ensembles: the ``"sabre"`` engine domain.

A :class:`FirmwareRequest` describes R independent Sabre systems
running one firmware image from the demo corpus (``echo``,
``dmu_monitor``, ``boresight``), each fed a per-instance seeded sensor
byte stream.  Two engines execute it:

- ``"model"`` (oracle): R serial :class:`~repro.sabre.cpu.SabreCpu`
  systems, one instruction at a time;
- ``"fast"``: one :class:`~repro.sabre.batch_cpu.BatchSabreCpu`
  advancing all R instances per fetch.

Both return the same payload — registers, PCs, cycle/instruction
counters, data RAM, every peripheral's state (including the FPU's
sticky exception flags) and the serial TX logs — and the registry
harness holds them bit-identical.

The host-side protocol is deliberately simple and *identical* across
engines (any divergence here would masquerade as an engine bug):

1. every instance's full RX stream is loaded up front;
2. the CPU runs in fixed ``slice_cycles`` time slices;
3. after each slice an instance ran, if its RX stream has drained and
   its stop switch is still down, switch 0 is raised (the firmware's
   halt convention);
4. an instance that is still running after ``max_slices`` slices is
   parked with a budget fault.

Because the serial oracle swaps a private
:class:`~repro.sabre.softfloat.Flags` into the softfloat module around
each instance's slices, per-instance sticky flags stay isolated even
though the scalar library accumulates into a module global.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.can import CanFrame
from repro.comm.converter import CanSerialBridge
from repro.comm.protocol import AccPacket, encode_acc_packet
from repro.engines.registry import register_engine
from repro.errors import ConfigurationError, SabreError
from repro.rng import make_rng
from repro.sabre import firmware
from repro.sabre import softfloat as sf
from repro.sabre.batch_cpu import link_batch_system
from repro.sabre.loader import SabreSystem, link_system
from repro.sabre.peripherals import pack_fpu_flags

__all__ = [
    "FIRMWARE_CORPUS",
    "FirmwareRequest",
    "FirmwareResult",
    "build_stream",
    "run_firmware_serial",
    "run_firmware_batched",
]

#: The demo corpus: program name -> (source builder, serial port attr).
FIRMWARE_CORPUS = {
    "echo": (firmware.echo_program, "serial_acc"),
    "dmu_monitor": (firmware.dmu_monitor_program, "serial_dmu"),
    "boresight": (
        lambda: firmware.boresight_program(
            firmware.BoresightGains.from_floats(0.18, 0.15)
        ),
        "serial_acc",
    ),
}

#: Budget-fault message shared verbatim by both engines.
_SLICE_BUDGET_FAULT = "firmware did not settle within {max_slices} time slices"


@dataclass(frozen=True)
class FirmwareRequest:
    """One firmware ensemble: R instances of a corpus program."""

    program: str = "boresight"
    instances: int = 8
    packets: int = 16
    base_seed: int = 0
    slice_cycles: int = 20_000
    max_slices: int = 64
    #: Record every instance's fetch-PC trace in the payload (slower,
    #: memory-heavy; used by the equivalence probes).
    trace: bool = False


@dataclass(frozen=True)
class FirmwareResult:
    """The :func:`repro.api.execute` result for a firmware request."""

    request: FirmwareRequest
    payload: dict
    cache_hit: bool
    source: str
    batch_size: int
    latency_seconds: float


def _validate(request: FirmwareRequest) -> None:
    if request.program not in FIRMWARE_CORPUS:
        raise ConfigurationError(
            f"unknown firmware {request.program!r}; corpus: "
            f"{sorted(FIRMWARE_CORPUS)}"
        )
    if request.instances < 1:
        raise ConfigurationError(
            f"instances must be >= 1, got {request.instances}"
        )
    if request.packets < 0:
        raise ConfigurationError(f"packets must be >= 0, got {request.packets}")
    if request.slice_cycles < 1:
        raise ConfigurationError(
            f"slice_cycles must be >= 1, got {request.slice_cycles}"
        )
    if request.max_slices < 1:
        raise ConfigurationError(
            f"max_slices must be >= 1, got {request.max_slices}"
        )


def build_stream(program: str, seed: int, packets: int) -> bytes:
    """The seeded RX byte stream for one instance.

    A pure function of ``(program, seed, packets)`` so both engines
    derive identical streams.  Streams include deliberately corrupted
    packets (flipped checksums) for the two protocol firmwares, putting
    their resync paths under the equivalence sweep.
    """
    rng = make_rng(seed)
    if program == "echo":
        return rng.integers(
            0, 256, size=packets * 8, dtype=np.uint8
        ).tobytes()
    if program == "dmu_monitor":
        parts = []
        for _ in range(packets):
            frame = CanFrame(
                0x100 + int(rng.integers(0, 8)),
                rng.integers(
                    0, 256, size=int(rng.integers(0, 9)), dtype=np.uint8
                ).tobytes(),
            )
            envelope = CanSerialBridge.frame_to_bytes(frame)
            if rng.random() < 0.12:
                envelope = envelope[:-1] + bytes([envelope[-1] ^ 0x5A])
            parts.append(envelope)
        return b"".join(parts)
    packets_out = []
    for sequence in range(packets):
        packet = encode_acc_packet(
            AccPacket(
                sequence=sequence,
                xy=(
                    float(rng.uniform(-15.0, 15.0)),
                    float(rng.uniform(-15.0, 15.0)),
                ),
            )
        )
        if rng.random() < 0.10:
            packet = packet[:-1] + bytes([packet[-1] ^ 0xFF])
        packets_out.append(packet)
    return b"".join(packets_out)


def _streams(request: FirmwareRequest) -> list[bytes]:
    return [
        build_stream(request.program, request.base_seed + i, request.packets)
        for i in range(request.instances)
    ]


# ---------------------------------------------------------------------
# Serial oracle
# ---------------------------------------------------------------------


def _run_one_serial(
    source: str, port_attr: str, stream: bytes, request: FirmwareRequest
) -> tuple[SabreSystem, sf.Flags, str | None, int, list[int] | None]:
    system = link_system(source)
    trace: list[int] | None = [] if request.trace else None
    system.cpu.pc_trace = trace
    port = getattr(system, port_attr)
    port.host_send(stream)
    own_flags = sf.Flags()
    fault: str | None = None
    stopped = False
    slices = 0
    while not system.cpu.halted and fault is None:
        if slices >= request.max_slices:
            fault = _SLICE_BUDGET_FAULT.format(max_slices=request.max_slices)
            break
        # Isolate this instance's sticky IEEE flags: the scalar
        # softfloat library accumulates into a module global, which
        # interleaved instances would otherwise share.
        saved_flags = sf.flags
        sf.flags = own_flags
        try:
            system.cpu.run_cycles(request.slice_cycles)
        except SabreError as exc:
            fault = str(exc)
        finally:
            sf.flags = saved_flags
        slices += 1
        if not stopped and not port.rx_fifo:
            system.request_stop()
            stopped = True
    return system, own_flags, fault, slices, trace


def run_firmware_serial(request: FirmwareRequest) -> dict:
    """The ``("sabre", "model")`` oracle: R serial systems in turn."""
    _validate(request)
    source, port_attr = _corpus_entry(request.program)
    streams = _streams(request)
    systems: list[SabreSystem] = []
    flags: list[sf.Flags] = []
    faults: list[str | None] = []
    slice_counts: list[int] = []
    traces: list[list[int] | None] = []
    for stream in streams:
        system, own_flags, fault, slices, trace = _run_one_serial(
            source, port_attr, stream, request
        )
        systems.append(system)
        flags.append(own_flags)
        faults.append(fault)
        slice_counts.append(slices)
        traces.append(trace)

    r = request.instances
    payload = {
        "registers": np.array(
            [system.cpu.registers for system in systems], dtype=np.uint32
        ),
        "pc": np.array([system.cpu.pc for system in systems], dtype=np.int64),
        "cycles": np.array(
            [system.cpu.cycles for system in systems], dtype=np.int64
        ),
        "instructions": np.array(
            [system.cpu.instructions for system in systems], dtype=np.int64
        ),
        "halted": np.array(
            [system.cpu.halted for system in systems], dtype=bool
        ),
        "faults": tuple(faults),
        "slices": np.array(slice_counts, dtype=np.int64),
        "data_ram": np.stack(
            [system.cpu.bus.data_ram.words.copy() for system in systems]
        ),
        "switches": np.array(
            [system.switches.state for system in systems], dtype=np.uint32
        ),
        "leds_state": np.array(
            [system.leds.state for system in systems], dtype=np.uint32
        ),
        "leds_writes": np.array(
            [system.leds.write_count for system in systems], dtype=np.int64
        ),
        "angles": np.array(
            [list(system.angles.regs.values()) for system in systems],
            dtype=np.uint32,
        ),
        "gui_draws": np.array(
            [len(system.gui.lines) for system in systems], dtype=np.int64
        ),
        "gui_lines": tuple(
            tuple(
                (line.x0, line.y0, line.x1, line.y1, line.color)
                for line in system.gui.lines
            )
            for system in systems
        ),
        "tx_dmu": tuple(
            system.serial_dmu.host_collect_tx() for system in systems
        ),
        "tx_acc": tuple(
            system.serial_acc.host_collect_tx() for system in systems
        ),
        "fpu": {
            "op_a": np.array(
                [system.fpu.op_a for system in systems], dtype=np.uint32
            ),
            "op_b": np.array(
                [system.fpu.op_b for system in systems], dtype=np.uint32
            ),
            "result": np.array(
                [system.fpu.result for system in systems], dtype=np.uint32
            ),
            "operations": np.array(
                [system.fpu.operations for system in systems], dtype=np.int64
            ),
            "flags": np.array(
                [pack_fpu_flags(state) for state in flags], dtype=np.uint8
            ),
        },
        "timer": np.array(
            [system.timer.cycles for system in systems], dtype=np.uint32
        ),
    }
    if request.trace:
        payload["pc_trace"] = tuple(
            np.array(trace, dtype=np.int64) for trace in traces
        )
    assert payload["registers"].shape == (r, 16)
    return payload


# ---------------------------------------------------------------------
# Batched engine
# ---------------------------------------------------------------------


def run_firmware_batched(request: FirmwareRequest) -> dict:
    """The ``("sabre", "fast")`` engine: one lockstep batch."""
    _validate(request)
    source, port_attr = _corpus_entry(request.program)
    system = link_batch_system(source, request.instances)
    if request.trace:
        system.cpu.pc_trace = []
    port = getattr(system, port_attr)
    port.host_send_all(_streams(request))

    cpu = system.cpu
    r = request.instances
    stopped = np.zeros(r, dtype=bool)
    slice_counts = np.zeros(r, dtype=np.int64)
    while True:
        live = cpu.live_mask()
        over = live & (slice_counts >= request.max_slices)
        for i in np.nonzero(over)[0]:
            cpu._fault(
                int(i),
                _SLICE_BUDGET_FAULT.format(max_slices=request.max_slices),
            )
        ran = live & ~over
        if not ran.any():
            break
        cpu.run_cycles(request.slice_cycles)
        slice_counts[ran] += 1
        # Same decision the serial loop makes after each slice it ran:
        # stream drained and switch still down -> raise the switch.
        raise_now = ran & ~stopped & ~port.rx_pending()
        if raise_now.any():
            system.request_stop(np.nonzero(raise_now)[0])
            stopped |= raise_now

    payload = {
        "registers": cpu.registers.copy(),
        "pc": cpu.pc.copy(),
        "cycles": cpu.cycles.copy(),
        "instructions": cpu.instructions.copy(),
        "halted": cpu.halted.copy(),
        "faults": tuple(cpu.fault_reasons),
        "slices": slice_counts,
        "data_ram": cpu.bus.data.copy(),
        "switches": system.switches.state.copy(),
        "leds_state": system.leds.state.copy(),
        "leds_writes": system.leds.write_count.copy(),
        "angles": system.angles.regs.copy(),
        "gui_draws": np.array(
            [len(lines) for lines in system.gui.lines], dtype=np.int64
        ),
        "gui_lines": tuple(
            tuple(lines) for lines in system.gui.lines
        ),
        "tx_dmu": tuple(
            system.serial_dmu.host_collect_tx(i) for i in range(r)
        ),
        "tx_acc": tuple(
            system.serial_acc.host_collect_tx(i) for i in range(r)
        ),
        "fpu": {
            "op_a": system.fpu.op_a.copy(),
            "op_b": system.fpu.op_b.copy(),
            "result": system.fpu.result.copy(),
            "operations": system.fpu.operations.copy(),
            "flags": system.fpu.flag_mask.copy(),
        },
        "timer": system.timer.cycles.copy(),
    }
    if request.trace:
        payload["pc_trace"] = tuple(cpu.pc_traces())
    return payload


def _corpus_entry(program: str):
    builder, port_attr = FIRMWARE_CORPUS[program]
    return builder(), port_attr


# Both engines run in this process; repro.api refuses workers for every
# FirmwareRequest before either is called.
register_engine(
    "sabre",
    "model",
    oracle=True,
    description="serial SabreCpu, one instruction of one instance at a time",
)(run_firmware_serial)
register_engine(
    "sabre",
    "fast",
    description="batched fetch/decode/execute, R instances per step",
)(run_firmware_batched)
