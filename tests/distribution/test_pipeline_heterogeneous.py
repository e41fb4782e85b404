"""Heterogeneous pipeline partitioning."""

import pytest

from repro.distribution import (
    load_link,
    partition_pipeline,
    partition_pipeline_heterogeneous,
)
from repro.runtime import Scenario, default_runner


def _session(device_name: str, framework_name: str = "TensorFlow",
             model: str = "TinyYolo"):
    return default_runner().session(
        Scenario(model, device_name, framework_name))


class TestHeterogeneous:
    def test_matches_homogeneous_for_identical_devices(self):
        link = load_link("wifi")
        homogeneous = partition_pipeline(_session("Raspberry Pi 3B"), 3, link)
        hetero = partition_pipeline_heterogeneous(
            [_session("Raspberry Pi 3B") for _ in range(3)], link)
        assert hetero.bottleneck_s == pytest.approx(homogeneous.bottleneck_s)

    def test_fast_device_takes_the_heavy_stage(self):
        """RPi + TX2 team: the DP hands the TX2 most of the work."""
        link = load_link("wifi")
        rpi = _session("Raspberry Pi 3B", "PyTorch")
        tx2 = _session("Jetson TX2", "PyTorch")
        plan = partition_pipeline_heterogeneous([rpi, tx2], link)
        rpi_stage, tx2_stage = plan.stages
        assert len(tx2_stage.op_names) > len(rpi_stage.op_names)

    def test_adding_a_tx2_beats_adding_an_rpi(self):
        link = load_link("wifi")
        rpi = _session("Raspberry Pi 3B", "PyTorch")
        tx2 = _session("Jetson TX2", "PyTorch")
        two_rpis = partition_pipeline_heterogeneous(
            [rpi, _session("Raspberry Pi 3B", "PyTorch")], link)
        rpi_plus_tx2 = partition_pipeline_heterogeneous([rpi, tx2], link)
        assert rpi_plus_tx2.throughput_fps > two_rpis.throughput_fps

    def test_device_order_matters(self):
        """The pipeline is ordered: input arrives at stage 0, so putting
        the slow device late changes which stage pays transfers."""
        link = load_link("bluetooth")
        rpi_first = partition_pipeline_heterogeneous(
            [_session("Raspberry Pi 3B", "PyTorch"), _session("Jetson TX2", "PyTorch")],
            link)
        tx2_first = partition_pipeline_heterogeneous(
            [_session("Jetson TX2", "PyTorch"), _session("Raspberry Pi 3B", "PyTorch")],
            link)
        # Both are valid plans over the same resources; they need not tie.
        assert rpi_first.stages[0].op_names != tx2_first.stages[0].op_names

    def test_stage_coverage_contiguous(self):
        link = load_link("wifi")
        plan = partition_pipeline_heterogeneous(
            [_session("Raspberry Pi 3B"), _session("Jetson TX2", "TensorFlow"),
             _session("Jetson Nano", "TensorFlow")], link)
        session = _session("Raspberry Pi 3B")
        flattened = [name for stage in plan.stages for name in stage.op_names]
        assert flattened == [
            op.name for op in session.deployed.graph.schedulable_ops()]

    def test_mixed_models_rejected(self):
        link = load_link("wifi")
        with pytest.raises(ValueError, match="share one model"):
            partition_pipeline_heterogeneous(
                [_session("Raspberry Pi 3B"),
                 _session("Jetson TX2", model="ResNet-18")], link)

    def test_mixed_fusion_rejected(self):
        """TFLite fuses, TensorFlow does not: schedules diverge."""
        link = load_link("wifi")
        with pytest.raises(ValueError, match="op schedule"):
            partition_pipeline_heterogeneous(
                [_session("Raspberry Pi 3B", "TensorFlow"),
                 _session("Raspberry Pi 3B", "TFLite")], link)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_pipeline_heterogeneous([], load_link("wifi"))
