"""Fast-path vs cycle-accurate-oracle equivalence tests.

Every test here pits the vectorized engines (``repro.fpga.affine_fast``,
the ``*_array`` fixed-point ops) against the scalar/cycle-accurate
models and demands **bit-exact** agreement — the architectural contract
of the ``engine="model" | "fast"`` switch.
"""

# Long-running equivalence/hypothesis suite: CI's fast lane skips
# it with -m "not slow"; the slow lane and local tier-1 run it.

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    EngineError,
    FixedPointError,
    FpgaError,
)
from repro.fpga import (
    AffineEngine,
    DoubleBuffer,
    RC200Board,
    RC200Config,
    RotateCoordinatesPipeline,
    SinCosLut,
    VIDEO_FORMAT,
    FixedFormat,
    ZbtSram,
    fixed_mul,
    fixed_mul_array,
    rotate_coords_fast,
    warp_frame_fixed,
)
from repro.fpga.fixedpoint import TRIG_FORMAT
from repro.fpga.pipeline import PIPELINE_DEPTH, PipelineInput
from repro.sensors.camera import PinholeCamera
from repro.video import AffineParams, VideoStabilizer, apply_affine, checkerboard
from repro.geometry import EulerAngles


formats = st.builds(
    FixedFormat,
    integer_bits=st.integers(1, 10),
    fraction_bits=st.integers(0, 8),
    signed=st.just(True),
)

pytestmark = pytest.mark.slow


def raws(fmt: FixedFormat):
    return st.integers(fmt.min_raw, fmt.max_raw)


class TestFixedPointArrayOps:
    @given(st.data())
    @settings(max_examples=150)
    def test_add_sub_mul_match_scalar(self, data):
        fmt = data.draw(formats)
        n = data.draw(st.integers(1, 12))
        a = np.array(data.draw(st.lists(raws(fmt), min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(raws(fmt), min_size=n, max_size=n)))
        saturate = data.draw(st.booleans())
        for array_op, scalar_op in [
            (fmt.add_array, fmt.add),
            (fmt.sub_array, fmt.sub),
            (fmt.mul_array, fmt.mul),
        ]:
            got = array_op(a, b, saturate=saturate)
            want = [scalar_op(int(x), int(y), saturate=saturate) for x, y in zip(a, b)]
            assert got.tolist() == want

    @given(st.data())
    @settings(max_examples=150)
    def test_quantize_matches_scalar(self, data):
        fmt = data.draw(formats)
        values = np.array(
            data.draw(
                st.lists(
                    st.floats(-2.0 * fmt.max_value(), 2.0 * fmt.max_value(), width=64),
                    min_size=1,
                    max_size=12,
                )
            )
        )
        saturate = data.draw(st.booleans())
        got = fmt.from_float_array(values, saturate=saturate)
        want = [fmt.from_float(float(v), saturate=saturate) for v in values]
        assert got.tolist() == want

    @given(st.data())
    @settings(max_examples=100)
    def test_int_conversions_match_scalar(self, data):
        fmt = data.draw(formats)
        ints = np.array(data.draw(st.lists(st.integers(-4096, 4096), min_size=1, max_size=12)))
        saturate = data.draw(st.booleans())
        got = fmt.from_int_array(ints, saturate=saturate)
        want = [fmt.from_int(int(v), saturate=saturate) for v in ints]
        assert got.tolist() == want
        assert fmt.to_int_array(got).tolist() == [fmt.to_int(w) for w in want]
        assert np.allclose(fmt.to_float_array(got), [fmt.to_float(w) for w in want])

    @given(st.data())
    @settings(max_examples=150)
    def test_fixed_mul_array_matches_scalar(self, data):
        a_fmt = data.draw(formats)
        b_fmt = data.draw(formats)
        out_fmt = data.draw(formats)
        n = data.draw(st.integers(1, 10))
        a = np.array(data.draw(st.lists(raws(a_fmt), min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(raws(b_fmt), min_size=n, max_size=n)))
        saturate = data.draw(st.booleans())
        got = fixed_mul_array(a, a_fmt, b, b_fmt, out_fmt, saturate=saturate)
        want = [
            fixed_mul(int(x), a_fmt, int(y), b_fmt, out_fmt, saturate=saturate)
            for x, y in zip(a, b)
        ]
        assert got.tolist() == want

    def test_broadcast_scalar_operand(self):
        fmt = VIDEO_FORMAT
        a = np.array([fmt.from_float(v) for v in (-3.0, 0.5, 9.25)])
        got = fixed_mul_array(a, fmt, TRIG_FORMAT.from_float(0.5), TRIG_FORMAT, fmt)
        want = [
            fixed_mul(int(x), fmt, TRIG_FORMAT.from_float(0.5), TRIG_FORMAT, fmt)
            for x in a
        ]
        assert got.tolist() == want

    def test_wide_format_rejected(self):
        wide = FixedFormat(integer_bits=40, fraction_bits=30)
        with pytest.raises(FixedPointError):
            wide.add_array(np.array([0]), np.array([0]))

    def test_float_dtype_rejected(self):
        with pytest.raises(FixedPointError):
            VIDEO_FORMAT.add_array(np.array([0.5]), np.array([1]))

    def test_out_of_range_array_rejected(self):
        with pytest.raises(FixedPointError):
            VIDEO_FORMAT.to_int_array(np.array([1 << 20]))

    def test_nan_array_rejected(self):
        with pytest.raises(FixedPointError):
            VIDEO_FORMAT.from_float_array(np.array([1.0, float("nan")]))

    def test_from_int_array_shift_overflow_rejected(self):
        # Would wrap mod 2^64 before saturation and silently return 0
        # where the scalar op saturates to max_raw.
        with pytest.raises(FixedPointError):
            VIDEO_FORMAT.from_int_array(np.array([2**60]), saturate=True)
        with pytest.raises(FixedPointError):
            VIDEO_FORMAT.from_int_array(np.array([-(2**60)]))

    def test_from_int_array_float_dtype_rejected(self):
        with pytest.raises(FixedPointError):
            VIDEO_FORMAT.from_int_array(np.array([1.9]))

    def test_uint64_out_of_range_rejected(self):
        # Casting to int64 before range-checking would wrap 2^64-5 to
        # -5 and quietly accept it; the scalar op raises.
        with pytest.raises(FixedPointError):
            VIDEO_FORMAT.add_array(
                np.array([2**64 - 5], dtype=np.uint64), np.array([0])
            )
        with pytest.raises(FixedPointError):
            VIDEO_FORMAT.from_int_array(np.array([2**64 - 1], dtype=np.uint64))


class TestLutArrayAccess:
    def test_array_accessors_match_scalar(self):
        lut = SinCosLut(size=64)
        phases = np.arange(-70, 140)
        assert lut.sin_raw_array(phases).tolist() == [
            lut.sin_raw(int(p)) for p in phases
        ]
        assert lut.cos_raw_array(phases).tolist() == [
            lut.cos_raw(int(p)) for p in phases
        ]

    def test_rom_is_read_only(self):
        lut = SinCosLut(size=16)
        with pytest.raises(ValueError):
            lut.rom[0] = 1

    def test_float_phases_rejected(self):
        lut = SinCosLut(size=16)
        with pytest.raises(FpgaError):
            lut.sin_raw_array(np.array([1.9]))
        with pytest.raises(FpgaError):
            lut.cos_raw_array(np.array([0.5]))

    def test_uint64_phase_overflow_rejected(self):
        # astype(int64) would wrap 2^63+7 and change the modulo result
        # for non-power-of-two LUT sizes.
        lut = SinCosLut(size=12)
        with pytest.raises(FpgaError):
            lut.sin_raw_array(np.array([2**63 + 7], dtype=np.uint64))

    def test_over_wide_value_format_rejected(self):
        with pytest.raises(FpgaError):
            SinCosLut(size=8, value_format=FixedFormat(1, 63))

    def test_extreme_phase_matches_scalar(self):
        # int64-wrap of the quarter-turn offset would shift the modulo
        # residue for non-power-of-two sizes.
        lut = SinCosLut(size=12)
        for phase in (2**63 - 1, 2**63 - 7, -(2**63)):
            assert lut.cos_raw_array(np.array([phase])).tolist() == [
                lut.cos_raw(phase)
            ]
            assert lut.sin_raw_array(np.array([phase])).tolist() == [
                lut.sin_raw(phase)
            ]


class TestRotateCoordsFast:
    @given(
        phase=st.integers(0, 1023),
        cx=st.integers(-64, 320),
        cy=st.integers(-64, 240),
        coords=st.lists(
            st.tuples(st.integers(-512, 512), st.integers(-512, 512)),
            min_size=1,
            max_size=24,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_pipeline_bit_for_bit(self, phase, cx, cy, coords):
        lut = SinCosLut()
        pipe = RotateCoordinatesPipeline(center=(cx, cy), lut=lut)
        inputs = [
            PipelineInput(in_x=x, in_y=y, phase=phase, tag=(x, y)) for x, y in coords
        ]
        outputs, _ = pipe.rotate_block(inputs)
        xs = np.array([x for x, _ in coords])
        ys = np.array([y for _, y in coords])
        fast_x, fast_y = rotate_coords_fast(xs, ys, phase, center=(cx, cy), lut=lut)
        assert fast_x.tolist() == [o.out_x for o in outputs]
        assert fast_y.tolist() == [o.out_y for o in outputs]

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_pipeline_across_q_formats(self, data):
        coord_fmt = FixedFormat(
            integer_bits=data.draw(st.integers(6, 12)),
            fraction_bits=data.draw(st.integers(1, 6)),
        )
        trig_fmt = FixedFormat(
            integer_bits=1, fraction_bits=data.draw(st.integers(6, 14))
        )
        size = data.draw(st.sampled_from([16, 64, 256, 1024]))
        phase = data.draw(st.integers(0, size - 1))
        lut = SinCosLut(size=size, value_format=trig_fmt)
        pipe = RotateCoordinatesPipeline(
            center=(20, 12), lut=lut, coord_format=coord_fmt, trig_format=trig_fmt
        )
        coords = data.draw(
            st.lists(
                st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                min_size=1,
                max_size=12,
            )
        )
        inputs = [PipelineInput(in_x=x, in_y=y, phase=phase) for x, y in coords]
        outputs, _ = pipe.rotate_block(inputs)
        fast_x, fast_y = rotate_coords_fast(
            np.array([x for x, _ in coords]),
            np.array([y for _, y in coords]),
            phase,
            center=(20, 12),
            lut=lut,
            coord_format=coord_fmt,
            trig_format=trig_fmt,
        )
        assert fast_x.tolist() == [o.out_x for o in outputs]
        assert fast_y.tolist() == [o.out_y for o in outputs]

    def test_lut_format_mismatch_rejected(self):
        lut = SinCosLut(value_format=FixedFormat(1, 10))
        with pytest.raises(FpgaError):
            rotate_coords_fast(np.array([0]), np.array([0]), 0, (0, 0), lut=lut)

    def test_float_coordinates_rejected(self):
        # The oracle raises on float coordinates; the fast path must
        # not silently truncate them.
        with pytest.raises(FixedPointError):
            rotate_coords_fast(np.array([10.7]), np.array([3.2]), 0, (0, 0))


def _engine_for_frame(width, height, scene, engine="model"):
    size = width * height
    buffer = DoubleBuffer(width, height, ZbtSram(size, "a"), ZbtSram(size, "b"))
    buffer.store_frame(scene)
    buffer.swap()
    return AffineEngine(buffer, engine=engine)


class TestFrameEquivalence:
    @given(
        theta_deg=st.floats(-12.0, 12.0, width=32),
        bx=st.floats(-8.0, 8.0, width=32),
        by=st.floats(-8.0, 8.0, width=32),
        width=st.integers(8, 48),
        height=st.integers(8, 48),
    )
    @settings(max_examples=25, deadline=None)
    def test_model_and_fast_frames_identical(self, theta_deg, bx, by, width, height):
        scene = checkerboard(width, height, square=4)
        hw = _engine_for_frame(width, height, scene)
        params = AffineParams(theta=math.radians(theta_deg), bx=bx, by=by)
        frame_model, stats_model = hw.transform_frame(params, engine="model")
        frame_fast, stats_fast = hw.transform_frame(params, engine="fast")
        assert np.array_equal(frame_model.pixels, frame_fast.pixels)
        assert stats_model.cycles == stats_fast.cycles
        assert stats_fast.cycles == width * height + PIPELINE_DEPTH
        assert stats_model.pixels == stats_fast.pixels

    def test_qvga_frames_identical(self):
        board = RC200Board(RC200Config(video_width=320, video_height=240))
        board.framebuffer.store_frame(checkerboard(320, 240, 16))
        board.framebuffer.swap()
        params = AffineParams(theta=math.radians(2.0), bx=4.0, by=-3.0)
        frame_model, stats_model = board.affine.transform_frame(params, engine="model")
        frame_fast, stats_fast = board.affine.transform_frame(params, engine="fast")
        assert np.array_equal(frame_model.pixels, frame_fast.pixels)
        assert stats_model.cycles == stats_fast.cycles == 320 * 240 + PIPELINE_DEPTH

    def test_fill_level_respected(self):
        scene = checkerboard(16, 16, 4)
        size = 16 * 16
        buffer = DoubleBuffer(16, 16, ZbtSram(size, "a"), ZbtSram(size, "b"))
        buffer.store_frame(scene)
        buffer.swap()
        hw = AffineEngine(buffer, fill_level=99, engine="fast")
        frame, _ = hw.transform_frame(AffineParams(0.0, 40.0, 0.0))
        assert np.all(frame.pixels[:, -8:] == 99)


class TestEngineSelection:
    def test_unknown_engine_rejected_at_construction(self):
        # Validation now runs through the engine registry, whose
        # EngineError is a ConfigurationError.
        scene = checkerboard(8, 8, 4)
        with pytest.raises(EngineError):
            _engine_for_frame(8, 8, scene, engine="warp9")

    def test_unknown_engine_rejected_per_call(self):
        scene = checkerboard(8, 8, 4)
        hw = _engine_for_frame(8, 8, scene)
        with pytest.raises(EngineError):
            hw.transform_frame(AffineParams(0.0, 0.0, 0.0), engine="warp9")

    def test_board_config_selects_engine(self):
        config = RC200Config(video_width=32, video_height=32, affine_engine="fast")
        board = RC200Board(config)
        assert board.affine.engine == "fast"
        with pytest.raises(ConfigurationError):
            RC200Config(affine_engine="warp9")

    def test_fast_board_matches_model_board(self):
        scene = checkerboard(32, 32, 8)
        frames = {}
        for engine in ("model", "fast"):
            board = RC200Board(
                RC200Config(video_width=32, video_height=32, affine_engine=engine)
            )
            board.framebuffer.store_frame(scene)
            board.framebuffer.swap()
            frame, _ = board.affine.transform_frame(
                AffineParams(math.radians(-3.0), 1.0, 2.0)
            )
            frames[engine] = frame.pixels
        assert np.array_equal(frames["model"], frames["fast"])


class TestWarpFrameFixed:
    def test_fast_equals_model(self):
        scene = checkerboard(40, 24, 4)
        params = AffineParams(math.radians(5.0), 2.0, -1.0)
        fast = warp_frame_fixed(scene, params, engine="fast")
        model = warp_frame_fixed(scene, params, engine="model")
        assert np.array_equal(fast.pixels, model.pixels)

    def test_fast_equals_model_with_custom_lut_format(self):
        scene = checkerboard(40, 24, 4)
        params = AffineParams(math.radians(5.0), 2.0, -1.0)
        lut = SinCosLut(size=64, value_format=FixedFormat(1, 10))
        fast = warp_frame_fixed(scene, params, engine="fast", lut=lut)
        model = warp_frame_fixed(scene, params, engine="model", lut=lut)
        assert np.array_equal(fast.pixels, model.pixels)

    def test_close_to_float_reference(self):
        scene = checkerboard(96, 64, 8)
        params = AffineParams(math.radians(2.0), 3.0, -2.0)
        fixed = warp_frame_fixed(scene, params, engine="fast")
        reference = apply_affine(scene, params)
        assert np.mean(fixed.pixels != reference.pixels) < 0.15

    def test_validation(self):
        scene = checkerboard(8, 8, 4)
        with pytest.raises(EngineError):
            warp_frame_fixed(scene, AffineParams(0, 0, 0), engine="warp9")
        with pytest.raises(EngineError):
            # The float reference engine is registered in the "warp"
            # domain but excluded from the fixed-point entry point.
            warp_frame_fixed(scene, AffineParams(0, 0, 0), engine="reference")
        with pytest.raises(FpgaError):
            warp_frame_fixed(scene, AffineParams(0, 0, 0), fill=300)


class TestStabilizerEngines:
    CAMERA = PinholeCamera(width=64, height=48, focal_length_px=80.0)
    MIS = EulerAngles.from_degrees(1.5, -1.0, 2.0)
    EST = EulerAngles.from_degrees(1.4, -0.9, 1.8)

    def test_fast_and_model_identical(self):
        scene = checkerboard(64, 48, 8)
        outputs = {}
        for engine in ("fast", "model"):
            stab = VideoStabilizer(self.CAMERA, engine=engine)
            outputs[engine] = stab.process(0.0, scene, self.MIS, self.EST)
        assert np.array_equal(
            outputs["fast"].corrected.pixels, outputs["model"].corrected.pixels
        )
        assert (
            outputs["fast"].mae_vs_reference == outputs["model"].mae_vs_reference
        )

    def test_fast_close_to_reference(self):
        scene = checkerboard(64, 48, 8)
        reference = VideoStabilizer(self.CAMERA).process(
            0.0, scene, self.MIS, self.EST
        )
        fast = VideoStabilizer(self.CAMERA, engine="fast").process(
            0.0, scene, self.MIS, self.EST
        )
        assert (
            np.mean(fast.corrected.pixels != reference.corrected.pixels) < 0.25
        )
        # Residual geometry is engine-independent.
        assert fast.residual_corner_px == reference.residual_corner_px

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            VideoStabilizer(self.CAMERA, engine="warp9")
