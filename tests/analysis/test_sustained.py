"""Thermally-sustained throughput simulation."""

import dataclasses

import pytest

from repro.analysis import simulate_sustained
from repro.engine import InferenceSession
from repro.frameworks import load_framework
from repro.hardware import load_device
from repro.models import load_model


def _session(device_name: str, framework_name: str, model="Inception-v4",
             device=None) -> InferenceSession:
    target = device or load_device(device_name)
    deployed = load_framework(framework_name).deploy(load_model(model), target)
    return InferenceSession(deployed)


class TestSustainedRun:
    def test_stable_device_keeps_burst_rate(self):
        result = simulate_sustained(_session("Jetson TX2", "PyTorch"))
        assert not result.shutdown
        assert result.slowdown == pytest.approx(1.0)
        assert result.sustained_fps == pytest.approx(result.burst_fps)
        assert result.completed_inferences > 0

    def test_rpi_shuts_down_mid_run(self):
        result = simulate_sustained(_session("Raspberry Pi 3B", "TFLite"))
        assert result.shutdown
        assert result.sustained_fps == 0.0
        assert result.shutdown_time_s is not None
        assert result.duration_s < 1800.0  # run ended early

    def test_dvfs_variant_survives_by_throttling(self):
        rpi = load_device("Raspberry Pi 3B")
        spec = dataclasses.replace(rpi.thermal, throttle_c=60.0,
                                   throttle_stop_c=55.0, throttle_clock_factor=0.6)
        dvfs_rpi = dataclasses.replace(rpi, thermal=spec)
        result = simulate_sustained(_session("", "TFLite", device=dvfs_rpi))
        assert not result.shutdown
        assert result.throttle_events >= 1
        assert result.slowdown == pytest.approx(1 / 0.6, rel=0.01)
        assert 0 < result.sustained_fps < result.burst_fps

    def test_thermal_argument_matches_a_device_built_with_that_spec(self):
        rpi = load_device("Raspberry Pi 3B")
        spec = dataclasses.replace(rpi.thermal, throttle_c=60.0,
                                   throttle_stop_c=55.0, throttle_clock_factor=0.6)
        overridden = simulate_sustained(_session("Raspberry Pi 3B", "TFLite"),
                                        thermal=spec)
        rebuilt = simulate_sustained(
            _session("", "TFLite", device=dataclasses.replace(rpi, thermal=spec)))
        assert overridden == rebuilt
        assert overridden.throttle_events >= 1

    def test_trace_is_time_ordered(self):
        result = simulate_sustained(_session("Jetson Nano", "TensorRT"),
                                    duration_s=300.0)
        times = [t for t, _temp, _lat in result.trace]
        assert times == sorted(times)

    def test_throttling_reduces_completed_inferences(self):
        rpi = load_device("Raspberry Pi 3B")
        spec = dataclasses.replace(rpi.thermal, throttle_c=60.0,
                                   throttle_stop_c=55.0, throttle_clock_factor=0.5,
                                   shutdown_c=None)
        throttled = simulate_sustained(_session("", "TFLite", device=dataclasses.replace(rpi, thermal=spec)))
        cool_spec = dataclasses.replace(rpi.thermal, shutdown_c=None)
        unthrottled = simulate_sustained(_session("", "TFLite", device=dataclasses.replace(rpi, thermal=cool_spec)))
        assert throttled.completed_inferences < unthrottled.completed_inferences

    def test_invalid_arguments(self):
        session = _session("Jetson TX2", "PyTorch")
        with pytest.raises(ValueError):
            simulate_sustained(session, duration_s=0)
        with pytest.raises(ValueError):
            simulate_sustained(session, dt_s=0)

    def test_ambient_override(self):
        hot = simulate_sustained(_session("Jetson Nano", "TensorRT"), ambient_c=40.0)
        cool = simulate_sustained(_session("Jetson Nano", "TensorRT"), ambient_c=10.0)
        assert hot.trace[-1][1] > cool.trace[-1][1]
