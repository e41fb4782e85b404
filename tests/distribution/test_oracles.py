"""The linear cut enumeration, the split pricing and the vectorized
pipeline DP, pinned exactly to their naive reference implementations
(``oracles.py``)."""

import re

import pytest

from repro.core.errors import ReproError
from repro.distribution import (
    LINK_PRESETS,
    NetworkLink,
    cut_points,
    load_link,
    partition_pipeline,
    partition_pipeline_heterogeneous,
    split_deployments,
)
from repro.engine import clear_caches
from repro.engine.cache import cached_deploy
from repro.frameworks import load_framework
from repro.graphs import GraphBuilder
from repro.graphs.transforms import fuse_graph
from repro.hardware import load_device
from repro.models import list_models, load_model
from repro.placement.optimizer import REMOTE_FRAMEWORK_CANDIDATES
from repro.runtime import Scenario, default_runner
from repro.runtime.runner import BEST_FRAMEWORK_CANDIDATES
from tests.distribution.oracles import (
    oracle_chain_dp,
    oracle_cut_points,
    oracle_partition_pipeline,
    oracle_partition_pipeline_heterogeneous,
    oracle_pipeline_inputs,
    oracle_split_rows,
)

ZOO = list_models()
LINKS = ("wifi", "lan")
MAX_DEPTH = 8
#: every (device, framework) pair the placement search deploys.
SEARCH_PAIRS = tuple(
    (device, framework)
    for device, frameworks in BEST_FRAMEWORK_CANDIDATES.items()
    for framework in frameworks
) + tuple(("GTX Titan X", framework) for framework in REMOTE_FRAMEWORK_CANDIDATES)
PIPELINE_PAIRS = (("Jetson Nano", "TensorRT"), ("Raspberry Pi 3B", "TFLite"),
                  ("Jetson TX2", "PyTorch"))
#: ordered heterogeneous chains; PyTorch fuses the same way everywhere.
HETEROGENEOUS_CHAINS = (("Raspberry Pi 3B", "Jetson TX2"),
                        ("Jetson TX2", "Raspberry Pi 3B", "Jetson Nano"),
                        ("Jetson Nano", "Raspberry Pi 3B", "Jetson TX2",
                         "Raspberry Pi 3B"))
IDEAL_LINK = NetworkLink("ideal", bandwidth_bytes_per_s=float("inf"),
                         latency_s=0.0)


def _deployed(model, device, framework):
    try:
        return cached_deploy(model, device, framework)
    except ReproError:
        return None  # Table V: this pair cannot serve the model


def _session(model, device, framework):
    try:
        return default_runner().session(Scenario(model, device, framework))
    except ReproError:
        return None  # Table V: this pair cannot serve the model


def _same_outcome(new, oracle):
    """Both return equal plans, or both raise the same ValueError."""
    try:
        expected = oracle()
    except ValueError as error:
        with pytest.raises(ValueError, match=re.escape(str(error))):
            new()
        return
    assert new() == expected


@pytest.mark.parametrize("model", ZOO)
def test_cut_points_match_oracle_on_every_search_deployment(model):
    assert cut_points(load_model(model)) == oracle_cut_points(load_model(model))
    for device, framework in SEARCH_PAIRS:
        deployed = _deployed(model, device, framework)
        if deployed is None:
            continue
        expected = oracle_cut_points(deployed.graph)
        assert cut_points(deployed.graph) == expected, (device, framework)
        assert deployed.cut_points() == expected, (device, framework)


@pytest.mark.parametrize("model", ZOO)
def test_split_matches_oracle_on_every_link(model):
    """Every cut of every link preset prices to the oracle's floats, and
    lowers to the stage fields the serving layers read."""
    edge = Scenario(model, "Jetson TX2", "PyTorch")
    remote = Scenario(model, "GTX Titan X", "PyTorch")
    edge_session = _session(model, "Jetson TX2", "PyTorch")
    remote_session = _session(model, "GTX Titan X", "PyTorch")
    if edge_session is None or remote_session is None:
        return
    schedulable = tuple(
        op.name for op in edge_session.deployed.graph.schedulable_ops())
    for link in LINK_PRESETS.values():
        rows = oracle_split_rows(edge_session.deployed,
                                 remote_session.deployed, link)
        lowered = split_deployments(edge, remote, link)
        assert len(lowered) == len(rows), link.name
        *splits, all_edge = lowered
        for deployment, (cut, edge_s, transfer_s, remote_s) in zip(splits, rows):
            head, tail = deployment.stages
            assert deployment.kind == "split" and deployment.link == link.name
            assert head.op_names == schedulable[:cut.index]
            assert tail.op_names == schedulable[cut.index:]
            assert (head.compute_s, head.transfer_s, tail.compute_s) == (
                edge_s, transfer_s, remote_s), (link.name, cut)
            assert head.transfer_bytes == cut.transfer_bytes
            assert deployment.latency_s == edge_s + transfer_s + remote_s
        cut, edge_s, transfer_s, remote_s = rows[-1]
        assert (transfer_s, remote_s) == (0.0, 0.0)
        assert all_edge.is_single_node
        assert all_edge.stages[0].compute_s == edge_s
        assert all_edge.latency_s == edge_s + transfer_s + remote_s


@pytest.mark.parametrize("link", LINKS)
@pytest.mark.parametrize("model", ZOO)
def test_pipeline_matches_oracle_at_every_depth(model, link):
    link = load_link(link)
    for device, framework in PIPELINE_PAIRS:
        session = _session(model, device, framework)
        if session is None:
            continue
        # Depths only change the DP, so the oracle's inputs are shared.
        (prefix,), transfer_at, schedulable = oracle_pipeline_inputs(
            [session.deployed], link)
        for depth in range(1, MAX_DEPTH + 1):
            _same_outcome(
                lambda: partition_pipeline(session, depth, link),
                lambda: oracle_chain_dp([prefix] * depth, transfer_at,
                                        schedulable))


@pytest.mark.parametrize("chain", HETEROGENEOUS_CHAINS, ids="+".join)
def test_heterogeneous_pipeline_matches_oracle(chain):
    link = load_link("wifi")
    for model in ZOO:
        sessions = [_session(model, device, "PyTorch") for device in chain]
        if None in sessions:
            continue
        deployments = [session.deployed for session in sessions]
        _same_outcome(
            lambda: partition_pipeline_heterogeneous(sessions, link),
            lambda: oracle_partition_pipeline_heterogeneous(deployments, link))


class TestCutEdgeCases:
    def test_graph_without_interior_cut(self):
        b = GraphBuilder("single")
        b.relu(b.input((4,)))
        graph = b.build()
        points = cut_points(graph)
        assert points == oracle_cut_points(graph)
        assert [p.index for p in points] == [0, 1]

    def test_multi_input_graph_counts_the_inputs_once(self):
        b = GraphBuilder("two-inputs")
        a = b.input((1, 4, 4), name="a")  # 64 B
        skip = b.input((1, 4, 4), name="b")  # 64 B
        x = b.conv2d(a, 1, 1, use_bias=False)  # 64 B
        x = b.conv2d(x, 1, 1, use_bias=False)  # 64 B
        b.add(x, skip)
        graph = b.build()
        points = cut_points(graph)
        assert points == oracle_cut_points(graph)
        # Both raw inputs ship together as one 128 B block until the skip
        # is consumed, next to the trunk tensor.
        assert [p.transfer_bytes for p in points] == [128, 192, 192, 64]

    def test_fused_chains_match_the_oracle(self):
        b = GraphBuilder("fused")
        x = b.input((1, 4, 4))
        for _ in range(3):
            x = b.relu(b.batch_norm(b.conv2d(x, 2, 1, use_bias=False)))
        fused = fuse_graph(b.build())
        points = cut_points(fused)
        assert points == oracle_cut_points(fused)
        assert len(points) == len(fused.schedulable_ops()) + 1
        fused_away = {op.name for op in fused.ops if op.is_fused_away}
        assert fused_away and not fused_away & {p.after_op for p in points}


class TestPipelineEdgeCases:
    def _session(self):
        return _session("CifarNet 32x32", "Raspberry Pi 3B", "TensorFlow")

    def test_one_op_per_device(self):
        session = self._session()
        n = len(session.deployed.graph.schedulable_ops())
        plan = partition_pipeline(session, n, load_link("wifi"))
        assert plan == oracle_partition_pipeline(session.deployed, n,
                                                 load_link("wifi"))
        assert [len(stage.op_names) for stage in plan.stages] == [1] * n

    def test_more_devices_than_ops_raises(self):
        session = self._session()
        n = len(session.deployed.graph.schedulable_ops())
        with pytest.raises(ValueError, match=f"cannot spread {n} ops"):
            partition_pipeline(session, n + 1, load_link("wifi"))

    def test_ties_pick_the_earliest_start(self):
        """Op times [1, 0, 0, 1] over a free link: every two-stage split
        has bottleneck 1, and the first boundary wins."""
        b = GraphBuilder("tie")
        x = b.input((4,))
        for _ in range(4):
            x = b.relu(x)
        deployed = load_framework("TensorFlow").deploy(
            b.build(), load_device("Raspberry Pi 3B"))
        names = [op.name for op in deployed.graph.schedulable_ops()]
        times = dict(zip(names, (1.0, 0.0, 0.0, 1.0)))

        class _Timing:
            def __init__(self, op):
                self.op, self.latency_s = op, times[op.name]

        class _Session:
            def __init__(self, deployed):
                self.deployed = deployed
                self.plan = type("Plan", (), {"timings": [
                    _Timing(op) for op in deployed.graph.schedulable_ops()]})

        plan = partition_pipeline(_Session(deployed), 2, IDEAL_LINK)
        assert plan.stages[0].op_names == (names[0],)
        assert plan.bottleneck_s == 1.0


class TestCutPointMemo:
    def _deployed(self):
        return load_framework("TFLite").deploy(
            load_model("ResNet-18"), load_device("Raspberry Pi 3B"))

    def test_repeated_calls_return_equal_distinct_lists(self):
        deployed = self._deployed()
        first, second = deployed.cut_points(), deployed.cut_points()
        assert first == second == cut_points(deployed.graph)
        assert first is not second

    def test_mutating_a_returned_list_does_not_poison_the_memo(self):
        deployed = self._deployed()
        expected = deployed.cut_points()
        mutated = deployed.cut_points()
        mutated.pop()
        mutated.reverse()
        assert deployed.cut_points() == expected

    def test_cleared_caches_recompute_on_a_fresh_deployment(self, monkeypatch):
        import repro.distribution.partition as partition

        calls = []
        original = partition.cut_points

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(partition, "cut_points", counting)
        clear_caches()
        first = cached_deploy("ResNet-18", "Raspberry Pi 3B", "TFLite")
        first.cut_points()
        first.cut_points()
        clear_caches()
        fresh = cached_deploy("ResNet-18", "Raspberry Pi 3B", "TFLite")
        assert fresh is not first
        assert fresh.cut_points() == first.cut_points()
        assert calls == [first.graph, fresh.graph]
