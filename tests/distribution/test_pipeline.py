"""Collaborative pipeline partitioning."""

import pytest

from repro.distribution import load_link, partition_pipeline
from repro.runtime import Scenario, default_runner


def _session(model="TinyYolo", device="Raspberry Pi 3B", framework="TensorFlow"):
    return default_runner().session(Scenario(model, device, framework))


class TestPartition:
    def test_single_device_is_the_whole_model(self):
        session = _session()
        plan = partition_pipeline(session, 1, load_link("wifi"))
        assert len(plan.stages) == 1
        assert plan.stages[0].outgoing_transfer_s == 0.0
        session_free = sum(t.latency_s for t in session.plan.timings)
        assert plan.stages[0].compute_s == pytest.approx(session_free)

    def test_stages_cover_all_ops_contiguously(self):
        session = _session()
        plan = partition_pipeline(session, 3, load_link("wifi"))
        flattened = [name for stage in plan.stages for name in stage.op_names]
        assert flattened == [
            op.name for op in session.deployed.graph.schedulable_ops()]

    def test_throughput_improves_with_devices(self):
        session = _session()
        fps = [partition_pipeline(session, n, load_link("wifi")).throughput_fps
               for n in (1, 2, 3)]
        assert fps[1] > fps[0]
        assert fps[2] >= fps[1]

    def test_scaling_saturates_at_the_largest_op(self):
        """An indivisible op bounds the bottleneck no matter how many
        devices join — the sublinear scaling the collaborative papers see."""
        session = _session()
        largest_op = max(t.latency_s for t in session.plan.timings)
        plan = partition_pipeline(session, 8, load_link("wifi"))
        assert plan.bottleneck_s >= largest_op

    def test_latency_grows_while_throughput_improves(self):
        session = _session()
        one = partition_pipeline(session, 1, load_link("wifi"))
        three = partition_pipeline(session, 3, load_link("wifi"))
        assert three.throughput_fps > one.throughput_fps
        assert three.pipeline_latency_s > one.pipeline_latency_s

    def test_slow_links_penalize_deep_pipelines(self):
        session = _session()
        fast = partition_pipeline(session, 4, load_link("ethernet"))
        slow = partition_pipeline(session, 4, load_link("bluetooth"))
        assert slow.bottleneck_s > fast.bottleneck_s

    def test_invalid_device_counts(self):
        session = _session()
        with pytest.raises(ValueError):
            partition_pipeline(session, 0, load_link("wifi"))
        with pytest.raises(ValueError):
            partition_pipeline(session, 10_000, load_link("wifi"))

    def test_describe(self):
        plan = partition_pipeline(_session(), 2, load_link("wifi"))
        text = plan.describe()
        assert "2-stage pipeline" in text
        assert "device 0" in text and "device 1" in text
