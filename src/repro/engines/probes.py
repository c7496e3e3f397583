"""Built-in equivalence probes for the engine registry.

A probe is ``probe(seed) -> payload``: it drives one registered engine
through its domain's standard seeded scenario and returns a comparable
payload (nested dicts / ndarrays / scalars).  The registry harness
(``tests/test_engine_registry.py``) asserts, for every bit-exact pair
discovered by :func:`repro.engines.bit_exact_pairs`, that the fast
engine's payload equals the oracle's **bit-for-bit**.

This module is imported on demand by
:func:`repro.engines.registry.get_probe` — never by the library proper
— so the heavy cross-package scenario imports below cost nothing to
normal users.  Scenarios are deliberately compressed (tens of ticks,
thumbnail frames, two-seed ensembles): the harness sweeps them across
many seeds, including a hypothesis sweep over random configurations.
"""

from __future__ import annotations

import numpy as np

from repro.engines.registry import register_probe, resolve_engine
from repro.rng import make_rng

# --------------------------------------------------------------------
# kalman — serial KalmanFilter vs BatchKalmanFilter
# --------------------------------------------------------------------

_KF_RUNS, _KF_TICKS, _KF_N, _KF_M = 3, 10, 3, 2


def _kalman_scenario(seed: int):
    rng = make_rng(seed)
    x0 = rng.normal(size=(_KF_RUNS, _KF_N))
    p0 = np.stack(
        [
            (lambda a: a @ a.T + np.eye(_KF_N))(
                rng.normal(size=(_KF_N, _KF_N))
            )
            for _ in range(_KF_RUNS)
        ]
    )
    z = rng.normal(size=(_KF_TICKS, _KF_RUNS, _KF_M))
    h = rng.normal(size=(_KF_TICKS, _KF_RUNS, _KF_M, _KF_N))
    r = 0.04 * np.eye(_KF_M)
    q = 1e-4 * np.eye(_KF_N)
    return x0, p0, z, h, r, q


@register_probe("kalman", "model")
def _probe_kalman_model(seed: int) -> dict:
    filter_cls = resolve_engine("kalman", "model")
    x0, p0, z, h, r, q = _kalman_scenario(seed)
    states, covariances, residuals, nis = [], [], [], []
    for run in range(_KF_RUNS):
        kf = filter_cls(x0[run], p0[run])
        for t in range(_KF_TICKS):
            kf.predict(process_noise=q)
            innovation = kf.update(z[t, run], h[t, run], r)
        states.append(kf.state)
        covariances.append(kf.covariance)
        residuals.append(innovation.residual)
        nis.append(innovation.nis)
    return {
        "state": np.stack(states),
        "covariance": np.stack(covariances),
        "residual": np.stack(residuals),
        "nis": np.array(nis),
    }


@register_probe("kalman", "fast")
def _probe_kalman_fast(seed: int) -> dict:
    filter_cls = resolve_engine("kalman", "fast")
    x0, p0, z, h, r, q = _kalman_scenario(seed)
    kf = filter_cls(x0, p0)
    for t in range(_KF_TICKS):
        kf.predict(process_noise=q)
        innovation = kf.update(z[t], h[t], r)
    return {
        "state": kf.state,
        "covariance": kf.covariance,
        "residual": innovation.residual,
        "nis": innovation.nis,
    }


# --------------------------------------------------------------------
# boresight — serial MEKF vs lockstep ensemble MEKF (motion gating and
# adaptive measurement noise armed, so the ported features are under
# the sweep too)
# --------------------------------------------------------------------

_BS_RUNS, _BS_TICKS = 3, 60


def _boresight_scenario(seed: int):
    from repro.fusion.boresight import BoresightConfig

    rng = make_rng(seed)
    time = np.arange(_BS_TICKS) / 5.0
    gravity = np.array([0.0, 0.0, -9.81])
    force = gravity[None, None, :] + 1.5 * rng.normal(
        size=(_BS_RUNS, _BS_TICKS, 3)
    )
    rate = 0.3 * rng.normal(size=(_BS_RUNS, _BS_TICKS, 3))
    rate_dot = 0.1 * rng.normal(size=(_BS_RUNS, _BS_TICKS, 3))
    acc_xy = force[:, :, :2] + 0.1 * rng.normal(size=(_BS_RUNS, _BS_TICKS, 2))
    config = BoresightConfig(
        measurement_sigma=0.05,
        motion_gate_rate=0.45,
        estimate_biases=True,
        initial_bias_sigma=0.02,
        adaptive=True,
        adaptive_window=10,
        lever_arm=np.array([0.5, 0.1, -0.2]),
    )
    return time, force, rate, rate_dot, acc_xy, config


@register_probe("boresight", "model")
def _probe_boresight_model(seed: int) -> dict:
    from repro.fusion.reconstruction import FusedSamples

    estimator_cls = resolve_engine("boresight", "model")
    time, force, rate, rate_dot, acc_xy, config = _boresight_scenario(seed)
    angles, sigma, bias, exceed, nis, counts, adapted = ([] for _ in range(7))
    for run in range(_BS_RUNS):
        estimator = estimator_cls(config)
        result = estimator.run(
            FusedSamples(
                time=time,
                specific_force=force[run],
                body_rate=rate[run],
                body_rate_dot=rate_dot[run],
                acc_xy=acc_xy[run],
            )
        )
        angles.append(result.misalignment.as_array())
        sigma.append(result.angle_sigma)
        bias.append(result.bias)
        exceed.append(result.monitor.exceedance_fraction)
        nis.append(float(result.monitor.mean_nis))
        counts.append(result.monitor.count)
        adapted.append(estimator.measurement_sigma)
    return {
        "angles": np.stack(angles),
        "angle_sigma": np.stack(sigma),
        "bias": np.stack(bias),
        "exceedance": np.stack(exceed),
        "mean_nis": np.array(nis),
        "counts": np.array(counts, dtype=np.int64),
        "adapted_sigma": np.array(adapted),
    }


@register_probe("boresight", "fast")
def _probe_boresight_fast(seed: int) -> dict:
    from repro.fusion.reconstruction import StackedFusedSamples

    estimator_cls = resolve_engine("boresight", "fast")
    time, force, rate, rate_dot, acc_xy, config = _boresight_scenario(seed)
    estimator = estimator_cls(_BS_RUNS, config)
    result = estimator.run(
        StackedFusedSamples(
            time=time,
            specific_force=force,
            body_rate=rate,
            body_rate_dot=rate_dot,
            acc_xy=acc_xy,
        )
    )
    return {
        "angles": np.stack(
            [estimate.as_array() for estimate in result.misalignments()]
        ),
        "angle_sigma": result.angle_sigma,
        "bias": result.bias,
        "exceedance": result.monitor.exceedance_fraction,
        "mean_nis": result.monitor.mean_nis,
        "counts": result.monitor.counts,
        "adapted_sigma": estimator.measurement_sigma,
    }


# --------------------------------------------------------------------
# vibration — serial per-tick sampling vs stacked synthesis
# --------------------------------------------------------------------


def _vibration_scenario(seed: int):
    from repro.vehicle.profiles import city_drive_profile
    from repro.vehicle.vibration import VibrationSpec

    trajectory = city_drive_profile(
        duration=16.0, rng=make_rng(900_000 + (seed % 4096))
    ).sample(50.0)
    return VibrationSpec(), [seed, seed + 1], trajectory


@register_probe("vibration", "model")
def _probe_vibration_model(seed: int) -> dict:
    from repro.rng import spawn_child

    model_cls = resolve_engine("vibration", "model")
    spec, seeds, trajectory = _vibration_scenario(seed)
    imu_fields, acc_fields = [], []
    for rig_seed in seeds:
        vib_rng = spawn_child(make_rng(int(rig_seed)), 400)
        vib_imu, vib_acc = model_cls.make_pair(spec, vib_rng)
        imu_fields.append(
            np.stack(
                [
                    vib_imu.sample(float(t), float(trajectory.speed[i]))
                    for i, t in enumerate(trajectory.time)
                ]
            )
        )
        acc_fields.append(
            np.stack(
                [
                    vib_acc.sample(float(t), float(trajectory.speed[i]))
                    for i, t in enumerate(trajectory.time)
                ]
            )
        )
    return {"imu": np.stack(imu_fields), "acc": np.stack(acc_fields)}


@register_probe("vibration", "fast")
def _probe_vibration_fast(seed: int) -> dict:
    stack_fields = resolve_engine("vibration", "fast")
    spec, seeds, trajectory = _vibration_scenario(seed)
    fields = stack_fields(spec, seeds, trajectory)
    return {"imu": fields.imu, "acc": fields.acc}


# --------------------------------------------------------------------
# sensing — serial instruments vs stacked noise streams.  The two
# engines share one calling contract, so one probe body serves both.
# --------------------------------------------------------------------


def _sensing_scenario(seed: int):
    from repro.geometry import EulerAngles
    from repro.sensors.acc2 import AccConfig
    from repro.sensors.imu import ImuConfig
    from repro.sensors.mounting import Mounting
    from repro.vehicle.profiles import static_level_profile, static_tilt_profile

    imu_config = ImuConfig()
    acc_config = AccConfig()
    calibration = static_level_profile(4.0)
    test = static_tilt_profile(duration=40.0, dwell_time=3.0, slew_time=1.0)
    imu_phases = [
        calibration.sample(imu_config.sample_rate),
        test.sample(imu_config.sample_rate),
    ]
    acc_phases = [
        calibration.sample(acc_config.sample_rate),
        test.sample(acc_config.sample_rate),
    ]
    arm = np.array([0.8, 0.2, -0.3])
    mountings = [
        Mounting(lever_arm=arm),
        Mounting(
            misalignment=EulerAngles.from_degrees(2.0, -1.5, 3.0),
            lever_arm=arm,
        ),
    ]
    return (
        [seed, seed + 1],
        imu_config,
        acc_config,
        imu_phases,
        acc_phases,
        mountings,
    )


def _sensing_probe(name: str):
    def probe(seed: int) -> dict:
        sense = resolve_engine("sensing", name)
        return sense(*_sensing_scenario(seed))

    return probe


register_probe("sensing", "model")(_sensing_probe("model"))
register_probe("sensing", "fast")(_sensing_probe("fast"))


# --------------------------------------------------------------------
# affine / warp — cycle-accurate pipeline vs vectorized fast path
# --------------------------------------------------------------------


def _frame_scenario(seed: int):
    from repro.video.affine import AffineParams

    rng = make_rng(seed)
    pixels = rng.integers(0, 256, size=(24, 32)).astype(np.uint8)
    params = AffineParams(
        theta=float(rng.uniform(-0.12, 0.12)),
        bx=float(rng.uniform(-3.0, 3.0)),
        by=float(rng.uniform(-3.0, 3.0)),
    )
    return pixels, params


def _affine_probe(name: str):
    def probe(seed: int) -> dict:
        from repro.fpga.affine_fast import quantize_affine_params
        from repro.fpga.affine_hw import AffineEngine
        from repro.fpga.framebuffer import DoubleBuffer
        from repro.fpga.sram import ZbtSram
        from repro.video.frame import Frame

        pixels, params = _frame_scenario(seed)
        height, width = pixels.shape
        buffer = DoubleBuffer(
            width,
            height,
            ZbtSram(width * height, "probe-a"),
            ZbtSram(width * height, "probe-b"),
        )
        buffer.store_frame(Frame(pixels))
        buffer.swap()
        hw = AffineEngine(buffer, engine=name)
        phase, bx, by = quantize_affine_params(params, hw.pipeline.lut)
        impl = resolve_engine("affine", name)
        out, cycles = impl(hw, pixels, phase, bx, by)
        return {"pixels": out, "cycles": int(cycles)}

    return probe


register_probe("affine", "model")(_affine_probe("model"))
register_probe("affine", "fast")(_affine_probe("fast"))


def _warp_probe(name: str):
    def probe(seed: int) -> dict:
        from repro.video.frame import Frame

        pixels, params = _frame_scenario(seed)
        warp = resolve_engine("warp", name)
        out = warp(Frame(pixels), params, fill=3)
        return {"pixels": out.pixels}

    return probe


register_probe("warp", "model")(_warp_probe("model"))
register_probe("warp", "fast")(_warp_probe("fast"))


# --------------------------------------------------------------------
# softfloat — scalar bit-twiddling vs array kernels, specials included
# --------------------------------------------------------------------

_SOFTFLOAT_SPECIALS = np.array(
    [
        0x00000000,  # +0
        0x80000000,  # -0
        0x7F800000,  # +inf
        0xFF800000,  # -inf
        0x7FC00000,  # default quiet NaN
        0x7F800001,  # signaling NaN
        0xFFC12345,  # quiet NaN with payload
        0x00000001,  # smallest denormal
        0x807FFFFF,  # largest negative denormal
        0x3F800000,  # 1.0
        0x7F7FFFFF,  # largest finite
    ],
    dtype=np.uint32,
)


def _softfloat_scenario(seed: int):
    rng = make_rng(seed)
    count = 48
    a = rng.integers(0, 2**32, size=count, dtype=np.uint64).astype(np.uint32)
    b = rng.integers(0, 2**32, size=count, dtype=np.uint64).astype(np.uint32)
    specials = _SOFTFLOAT_SPECIALS
    a[: specials.size] = specials
    b[: specials.size] = specials[::-1]
    return a, b


@register_probe("softfloat", "model")
def _probe_softfloat_model(seed: int) -> dict:
    sf = resolve_engine("softfloat", "model")
    a, b = _softfloat_scenario(seed)
    payload: dict = {}

    def mapped(name: str, op, unary: bool = False) -> None:
        # Per-op sticky-flag capture: clear, map the op over the
        # corpus, snapshot — the fast engine must reproduce the
        # reduced flags exactly (its per-element masks OR together).
        sf.flags.clear()
        if unary:
            payload[name] = np.array([op(int(x)) for x in a], dtype=np.uint32)
        else:
            payload[name] = np.array(
                [op(int(x), int(y)) for x, y in zip(a, b)], dtype=np.uint32
            )
        payload[f"{name}_flags"] = sf.flags.as_dict()

    mapped("add", sf.f32_add)
    mapped("sub", sf.f32_sub)
    mapped("mul", sf.f32_mul)
    mapped("div", sf.f32_div)
    mapped("sqrt", sf.f32_sqrt, unary=True)
    return payload


@register_probe("softfloat", "fast")
def _probe_softfloat_fast(seed: int) -> dict:
    sfa = resolve_engine("softfloat", "fast")
    a, b = _softfloat_scenario(seed)
    payload: dict = {}

    def run(name: str, op, *operands) -> None:
        sfa.flags.clear()
        payload[name] = op(*operands)
        payload[f"{name}_flags"] = sfa.flags.as_dict()

    run("add", sfa.f32_add_array, a, b)
    run("sub", sfa.f32_sub_array, a, b)
    run("mul", sfa.f32_mul_array, a, b)
    run("div", sfa.f32_div_array, a, b)
    run("sqrt", sfa.f32_sqrt_array, a)
    return payload


# --------------------------------------------------------------------
# ensemble — serial Monte-Carlo rigs vs the lockstep batch engine,
# through the public dispatch entry point
# --------------------------------------------------------------------


def _ensemble_probe(name: str):
    def probe(seed: int) -> dict:
        from repro.analysis.montecarlo import run_monte_carlo_static

        summary = run_monte_carlo_static(
            runs=2,
            duration=80.0,
            base_seed=300 + (seed % 97),
            dwell_time=6.0,
            slew_time=2.0,
            engine=name,
        )
        return {
            "runs": summary.runs,
            "rms_error_deg": summary.rms_error_deg,
            "max_error_deg": summary.max_error_deg,
            "coverage_3sigma": summary.coverage_3sigma,
            "mean_exceedance": summary.mean_exceedance,
            "anees": summary.anees,
            "diverged_seeds": summary.diverged_seeds,
        }

    return probe


register_probe("ensemble", "model")(_ensemble_probe("model"))
register_probe("ensemble", "fast")(_ensemble_probe("fast"))


# --------------------------------------------------------------------
# campaign — serial-cell oracle vs lockstep cells.  A compressed grid
# (one bench scenario × healthy/faulted recipes × two seeds) with the
# degradation ladder armed; the payload pins every cell summary plus
# its classification.  Every campaign runs under the default
# supervisor, so the pair also pins the clean supervised path.
# --------------------------------------------------------------------


def _campaign_probe(name: str):
    def probe(seed: int) -> dict:
        from repro.scenarios.campaign import (
            CampaignSpec,
            FaultSpec,
            run_campaign,
        )
        from repro.scenarios.faults import SensorDropout
        from repro.scenarios.spec import ScenarioSpec

        base = 300 + (seed % 97)
        spec = CampaignSpec(
            name="probe",
            scenarios=(
                ScenarioSpec(
                    name="bench",
                    profile="static_tilt",
                    duration=80.0,
                    profile_args=(("dwell_time", 6.0), ("slew_time", 2.0)),
                    moving=False,
                    measurement_sigma=0.006,
                    motion_gate_rate=None,
                ),
            ),
            faults=(
                FaultSpec(name="nominal"),
                FaultSpec(
                    name="dropout",
                    faults=(
                        SensorDropout(
                            sensor="acc", start=45.0, duration=10.0
                        ),
                    ),
                ),
            ),
            seeds=(base, base + 1),
        )
        result = run_campaign(spec, engine=name)
        payload = {"classifications": tuple(result.classifications())}
        for cell, summary in zip(result.cells, result.summaries):
            key = f"{cell.scenario.name}/{cell.fault.name}"
            payload[key] = {
                "runs": summary.runs,
                "rms_error_deg": summary.rms_error_deg,
                "max_error_deg": summary.max_error_deg,
                "coverage_3sigma": summary.coverage_3sigma,
                "mean_exceedance": summary.mean_exceedance,
                "diverged_seeds": summary.diverged_seeds,
                "fallback_states": summary.fallback_states,
            }
        return payload

    return probe


register_probe("campaign", "model")(_campaign_probe("model"))
register_probe("campaign", "fast")(_campaign_probe("fast"))


# --------------------------------------------------------------------
# service — one-request-at-a-time oracle vs the coalescing scenario
# service.  Three compressed requests in one compatibility group, so
# the fast path merges them into one lockstep batch: two nominal ones
# and a fault-recipe request whose first seed repeats a nominal seed
# under a different chain, so that seed runs as two rows.  The
# payload pins each request's full summary, in request order.
# --------------------------------------------------------------------


def _service_probe(name: str):
    def probe(seed: int) -> dict:
        from repro.scenarios.campaign import FaultSpec
        from repro.scenarios.faults import SensorDropout
        from repro.scenarios.spec import ScenarioSpec
        from repro.service.requests import ScenarioRequest

        base = 300 + (seed % 97)
        bench = ScenarioSpec(
            name="bench",
            profile="static_tilt",
            duration=80.0,
            profile_args=(("dwell_time", 6.0), ("slew_time", 2.0)),
            moving=False,
            measurement_sigma=0.006,
            motion_gate_rate=None,
        )
        dropout = FaultSpec(
            name="dropout",
            faults=(SensorDropout(sensor="acc", start=45.0, duration=10.0),),
        )
        requests = [
            ScenarioRequest(scenario=bench, seeds=(base, base + 1)),
            ScenarioRequest(scenario=bench, seeds=(base + 2,)),
            ScenarioRequest(
                scenario=bench, seeds=(base, base + 3), fault=dropout
            ),
        ]
        impl = resolve_engine("service", name)
        payload: dict = {}
        for index, summary in enumerate(impl(requests, 1)):
            if summary is None:
                payload[f"request_{index}"] = None
                continue
            payload[f"request_{index}"] = {
                "runs": summary.runs,
                "rms_error_deg": summary.rms_error_deg,
                "max_error_deg": summary.max_error_deg,
                "coverage_3sigma": summary.coverage_3sigma,
                "mean_exceedance": summary.mean_exceedance,
                "anees": summary.anees,
                "diverged_seeds": summary.diverged_seeds,
                "fallback_states": summary.fallback_states,
            }
        return payload

    return probe


register_probe("service", "model")(_service_probe("model"))
register_probe("service", "fast")(_service_probe("fast"))


# --------------------------------------------------------------------
# can — per-bit frame codec vs batched uint8 scans.  The payload pins
# the stuffed wire bits, their lengths, and the decoded fields of a
# mixed-DLC frame population.
# --------------------------------------------------------------------


def _can_scenario(seed: int):
    from repro.comm.can import CanFrame

    rng = make_rng(seed)
    count = 24
    ids = rng.integers(0, 0x800, size=count)
    dlcs = rng.integers(0, 9, size=count)
    return [
        CanFrame(
            int(can_id),
            rng.integers(0, 256, size=int(dlc), dtype=np.uint8).tobytes(),
        )
        for can_id, dlc in zip(ids, dlcs)
    ]


@register_probe("can", "model")
def _probe_can_model(seed: int) -> dict:
    can = resolve_engine("can", "model")
    frames = _can_scenario(seed)
    wires = [frame.to_bits() for frame in frames]
    lengths = np.array([len(wire) for wire in wires], dtype=np.int64)
    bits = np.zeros((len(wires), int(lengths.max())), dtype=np.uint8)
    for i, wire in enumerate(wires):
        bits[i, : len(wire)] = wire
    decoded = [can.frame_from_bits(wire) for wire in wires]
    data = np.zeros((len(decoded), 8), dtype=np.uint8)
    for i, frame in enumerate(decoded):
        data[i, : frame.dlc] = np.frombuffer(frame.data, dtype=np.uint8)
    return {
        "bits": bits,
        "lengths": lengths,
        "can_id": np.array([f.can_id for f in decoded], dtype=np.int64),
        "dlc": np.array([f.dlc for f in decoded], dtype=np.int64),
        "data": data,
    }


@register_probe("can", "fast")
def _probe_can_fast(seed: int) -> dict:
    fast = resolve_engine("can", "fast")
    frames = _can_scenario(seed)
    bits, lengths = fast.encode_frames(fast.CanFrameBatch.from_frames(frames))
    decoded = fast.decode_frames(bits, lengths)
    return {
        "bits": bits,
        "lengths": lengths,
        "can_id": decoded.can_id,
        "dlc": decoded.dlc,
        "data": decoded.data,
    }


# --------------------------------------------------------------------
# uart — per-bit 8N1 framer vs vectorized codec.  The two engines
# share one calling contract, so one probe body serves both; the
# idle-gapped stream exercises resynchronisation.
# --------------------------------------------------------------------


def _uart_scenario(seed: int):
    rng = make_rng(seed)
    data = rng.integers(0, 256, size=48, dtype=np.uint8).tobytes()
    gaps = rng.integers(0, 6, size=len(data) + 1)
    return data, gaps


def _uart_probe(name: str):
    def probe(seed: int) -> dict:
        framer = resolve_engine("uart", name)()
        data, gaps = _uart_scenario(seed)
        bits = np.asarray(framer.encode(data), dtype=np.uint8)
        segments = [np.ones(int(gaps[0]), dtype=np.uint8)]
        for i in range(len(data)):
            segments.append(bits[10 * i : 10 * i + 10])
            segments.append(np.ones(int(gaps[i + 1]), dtype=np.uint8))
        gapped = np.concatenate(segments)
        return {
            "bits": bits,
            "decoded": np.frombuffer(framer.decode(bits), dtype=np.uint8),
            "decoded_gapped": np.frombuffer(
                framer.decode(gapped), dtype=np.uint8
            ),
        }

    return probe


register_probe("uart", "model")(_uart_probe("model"))
register_probe("uart", "fast")(_uart_probe("fast"))


# --------------------------------------------------------------------
# sabre — serial firmware harness vs batched SIMD-over-instances CPU.
# One probe body serves both engines (they share the FirmwareRequest
# contract); the seed varies the corpus program, ensemble size and
# stream length, and ``trace=True`` folds the full per-instance fetch-PC
# trace into the payload so any control-flow divergence fails loudly.
# --------------------------------------------------------------------


def _sabre_request(seed: int):
    from repro.sabre.harness import FIRMWARE_CORPUS, FirmwareRequest

    programs = sorted(FIRMWARE_CORPUS)
    return FirmwareRequest(
        program=programs[seed % len(programs)],
        instances=3 + seed % 3,
        packets=5 + seed % 4,
        base_seed=seed,
        trace=True,
    )


def _sabre_probe(name: str):
    def probe(seed: int) -> dict:
        run = resolve_engine("sabre", name)
        return run(_sabre_request(seed))

    return probe


register_probe("sabre", "model")(_sabre_probe("model"))
register_probe("sabre", "fast")(_sabre_probe("fast"))
