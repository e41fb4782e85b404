"""Neurosurgeon-style split over Runner sessions, lowered to Deployments."""

import pytest

from repro.distribution import lower_split, split_deployments
from repro.runtime import Scenario, default_runner


def _sweep(model="MobileNet-v2", edge_device="Jetson TX2",
           remote_device="GTX Titan X", link="wifi",
           edge_framework="PyTorch"):
    return split_deployments(Scenario(model, edge_device, edge_framework),
                             Scenario(model, remote_device, "PyTorch"), link)


def _best(*args, **kwargs):
    return min(_sweep(*args, **kwargs), key=lambda d: d.latency_s)


class TestSweep:
    def test_covers_all_cuts(self):
        lowered = _sweep()
        session = default_runner().session(
            Scenario("MobileNet-v2", "Jetson TX2", "PyTorch"))
        assert len(lowered) == len(session.deployed.graph.schedulable_ops()) + 1

    def test_endpoints(self):
        lowered = _sweep()
        all_remote, all_edge = lowered[0], lowered[-1]
        head, tail = all_remote.stages
        assert head.op_names == () and head.compute_s == 0.0
        assert head.transfer_s > 0.0
        assert all_edge.is_single_node
        assert all_edge.stages[0].transfer_s == 0.0

    def test_edge_time_monotone_in_cut_depth(self):
        edge_times = [deployment.stages[0].compute_s
                      for deployment in _sweep()]
        assert edge_times == sorted(edge_times)

    def test_mismatched_models_rejected(self):
        with pytest.raises(ValueError, match="one model"):
            split_deployments(Scenario("ResNet-18", "Jetson TX2", "PyTorch"),
                              Scenario("ResNet-50", "GTX Titan X", "PyTorch"),
                              "wifi")


class TestBestPlan:
    def test_slow_edge_offloads_everything(self):
        """RPi-class edge: any remote plan beats 45 s of local VGG16."""
        lowered = _sweep("VGG16", edge_device="Raspberry Pi 3B",
                         remote_device="GTX Titan X", link="wifi")
        best = min(lowered, key=lambda d: d.latency_s)
        assert best is lowered[0]
        assert lowered[-1].latency_s / best.latency_s > 50

    def test_fast_edge_slow_link_stays_local(self):
        """TX2 over bluetooth: shipping 600 KB of input costs seconds."""
        lowered = _sweep("MobileNet-v2", link="bluetooth")
        best = min(lowered, key=lambda d: d.latency_s)
        assert best.is_single_node
        assert lowered[-1].latency_s / best.latency_s == pytest.approx(1.0)

    def test_fast_link_flips_the_decision(self):
        local = _best("ResNet-50", link="bluetooth")
        remote = _best("ResNet-50", link="ethernet")
        assert local.is_single_node
        assert not remote.is_single_node

    def test_best_never_worse_than_endpoints(self):
        for link in ("wifi", "lte", "ethernet"):
            lowered = _sweep("ResNet-50", link=link)
            best = lower_split(Scenario("ResNet-50", "Jetson TX2", "PyTorch"),
                               Scenario("ResNet-50", "GTX Titan X", "PyTorch"),
                               link).latency_s
            assert best == min(d.latency_s for d in lowered)
            assert best <= lowered[-1].latency_s + 1e-12
            assert best <= lowered[0].latency_s + 1e-12

    def test_describe(self):
        text = _best().describe()
        assert "ms" in text
