"""Tests for the quantisation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.task import PimTask, TaskOp
from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.workloads.quantize import (
    QuantParams,
    calibrate,
    dequantize,
    quantization_error,
    quantize,
    quantized_matmul,
)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantParams(scale=0.0, zero_point=0)
        with pytest.raises(ValueError):
            QuantParams(scale=1.0, zero_point=256)
        with pytest.raises(ValueError):
            QuantParams(scale=1.0, zero_point=0, bits=0)

    def test_qmax(self):
        assert QuantParams(scale=1.0, zero_point=0, bits=8).qmax == 255
        assert QuantParams(scale=1.0, zero_point=0, bits=4).qmax == 15


class TestCalibration:
    def test_range_covers_data(self):
        values = np.array([-2.0, 0.5, 3.0])
        params = calibrate(values)
        codes = quantize(values, params)
        assert codes.min() >= 0
        assert codes.max() <= params.qmax

    def test_zero_maps_near_zero_point(self):
        params = calibrate(np.array([-1.0, 1.0]))
        code = quantize(np.array([0.0]), params)[0]
        assert abs(int(code) - params.zero_point) <= 1

    def test_constant_tensor(self):
        params = calibrate(np.zeros(5))
        assert params.scale == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate(np.array([]))

    def test_nonnegative_data_zero_point_zero(self):
        params = calibrate(np.array([0.0, 5.0, 10.0]))
        assert params.zero_point == 0


class TestRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_property_roundtrip_within_one_step(self, values):
        tensor = np.array(values)
        params = calibrate(tensor)
        recovered = dequantize(quantize(tensor, params), params)
        assert np.all(np.abs(recovered - tensor) <= params.scale * 0.51)

    def test_subnormal_range(self):
        """A range whose step underflows to zero calibrates like a
        constant tensor instead of dividing by zero."""
        tensor = np.array([0.0, 5e-324])
        params = calibrate(tensor)
        assert params.scale == 1.0
        recovered = dequantize(quantize(tensor, params), params)
        assert np.all(np.abs(recovered - tensor) <= params.scale * 0.51)


class TestQuantizedMatmul:
    def test_exact_for_integer_friendly_data(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        pa, pb = calibrate(a), calibrate(b)
        approx = quantized_matmul(quantize(a, pa), pa, quantize(b, pb), pb)
        assert np.allclose(approx, a @ b, rtol=0.05)

    def test_zero_point_corrections_matter(self):
        """Negative-valued operands need the correction terms."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 6))
        b = rng.normal(size=(6, 5))
        pa, pb = calibrate(a), calibrate(b)
        qa, qb = quantize(a, pa), quantize(b, pb)
        corrected = quantized_matmul(qa, pa, qb, pb)
        naive = pa.scale * pb.scale * (qa @ qb)
        exact = a @ b
        assert np.linalg.norm(corrected - exact) < np.linalg.norm(
            naive - exact
        )

    def test_shape_mismatch_rejected(self):
        params = QuantParams(scale=1.0, zero_point=0)
        with pytest.raises(ValueError):
            quantized_matmul(
                np.zeros((2, 3)), params, np.zeros((2, 3)), params
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_error_small_for_gaussian_data(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(12, 10))
        b = rng.normal(size=(10, 8))
        relative, worst = quantization_error(a, b)
        assert relative < 0.05
        assert worst < 0.1

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        coarse, _ = quantization_error(a, b, bits=4)
        fine, _ = quantization_error(a, b, bits=8)
        assert fine < coarse


class TestOnDevice:
    def test_pim_computes_the_integer_product(
        self, small_geometry, small_bus_config
    ):
        """End to end: quantise on the host, matmul on the device,
        dequantise — matches float matmul within quantisation error."""
        rng = np.random.default_rng(17)
        a = rng.normal(size=(6, 5))
        b = rng.normal(size=(5, 4))
        pa, pb = calibrate(a), calibrate(b)
        qa, qb = quantize(a, pa), quantize(b, pb)

        device = StreamPIMDevice(
            StreamPIMConfig(geometry=small_geometry, bus=small_bus_config)
        )
        task = PimTask(device)
        task.add_matrix("Qa", qa)
        task.add_matrix("Qb", qb)
        task.add_matrix("raw", shape=(6, 4))
        task.add_operation(TaskOp.MATMUL, "Qa", "Qb", "raw")
        raw = task.run().results["raw"]

        k = qa.shape[1]
        corrected = (
            raw
            - pb.zero_point * qa.sum(axis=1, keepdims=True)
            - pa.zero_point * qb.sum(axis=0, keepdims=True)
            + k * pa.zero_point * pb.zero_point
        )
        approx = pa.scale * pb.scale * corrected
        exact = a @ b
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 0.05
