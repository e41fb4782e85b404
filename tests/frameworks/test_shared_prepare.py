"""Shared prepared graphs: one graph per (model, transform chain, dtype).

Every deployment over one source graph must equal the clone-every-transform
oracle at zero tolerance, Table V failures included; the sharing itself
(same key, same object; empty chain, source graph) and the public
transforms' copy contract are pinned directly.
"""

import pytest

from repro.frameworks import list_frameworks, load_framework
from repro.frameworks.base import Framework
from repro.graphs.tensor import DType
from repro.graphs.transforms import freeze_graph, fuse_graph, prune_graph, quantize_graph
from repro.hardware import list_devices, load_device
from repro.models import list_models, load_model
from tests.frameworks.oracles import graph_fingerprint, oracle_deploy, outcome

DEVICES = [load_device(name) for name in list_devices()]


@pytest.mark.parametrize("model", list_models())
def test_every_deployment_matches_the_clone_every_transform_oracle(model):
    source = load_model(model)
    before = graph_fingerprint(source)
    for name in list_frameworks():
        framework = load_framework(name)
        for device in DEVICES:
            shared = outcome(lambda: framework.deploy(source, device))
            expected = outcome(
                lambda: oracle_deploy(type(framework), load_model(model), device))
            assert shared == expected, (model, name, device.name)
    assert graph_fingerprint(source) == before


@pytest.mark.parametrize("dtype", [DType.FP32, DType.FP16, DType.INT8, DType.BINARY])
@pytest.mark.parametrize("model", ["ResNet-18", "MobileNet-v2", "CifarNet 32x32"])
def test_explicit_dtypes_match_the_oracle(model, dtype):
    source = load_model(model)
    for name in list_frameworks():
        framework = load_framework(name)
        for device in DEVICES:
            shared = outcome(lambda: framework.deploy(source, device, dtype))
            expected = outcome(lambda: oracle_deploy(
                type(framework), load_model(model), device, dtype))
            assert shared == expected, (model, name, device.name)


class TestSharing:
    def test_same_key_is_the_same_object(self):
        graph = load_model("ResNet-18")
        first = graph.derived(fuse=True, dtype=DType.INT8)
        assert graph.derived(fuse=True, dtype=DType.INT8) is first
        assert graph.derived(freeze=True, fuse=True, dtype=DType.INT8) is not first

    def test_empty_chain_is_the_source_graph(self):
        graph = load_model("ResNet-18")
        assert graph.derived() is graph
        deployed = load_framework("TensorFlow").deploy(graph, load_device("Jetson TX2"))
        assert deployed.graph is graph

    def test_deployments_of_one_chain_share_across_devices_and_frameworks(self):
        graph = load_model("ResNet-18")
        nano = load_framework("TensorRT").deploy(graph, load_device("Jetson Nano"),
                                                 DType.FP16)
        tx2 = load_framework("TensorRT").deploy(graph, load_device("Jetson TX2"),
                                                DType.FP16)
        stick = load_framework("NCSDK").deploy(graph, load_device("Movidius NCS"))
        assert nano.graph is tx2.graph is stick.graph
        assert nano.graph is not graph

    def test_fuse_then_quantize_shares_quantize_then_fuse(self):
        # the base chain (quantize, then fuse) and TensorRT's (fuse, then
        # quantize) commute, so they share one prepared graph.
        graph = load_model("MobileNet-v2")
        tensorrt = load_framework("TensorRT")
        base_chain = Framework.prepare_graph(tensorrt, graph, None, None, DType.INT8)
        assert base_chain is tensorrt.prepare_graph(graph, None, None, DType.INT8)

    def test_byte_walks_are_memoized_on_the_graph(self):
        graph = load_model("ResNet-18").derived(fuse=True, dtype=DType.FP16)
        assert graph.peak_activation_bytes() == max(
            live_bytes for _op, live_bytes in graph.liveness())
        assert graph.memoized("peak_activation_bytes", lambda: -1) == \
            graph.peak_activation_bytes()
        assert graph.memoized("weight_bytes", lambda: -1) == graph.weight_bytes()

    def test_clone_starts_with_empty_memos(self):
        graph = load_model("ResNet-18")
        graph.derived(fuse=True)
        graph.peak_activation_bytes()
        clone = graph.clone()
        assert clone.derived(fuse=True) is not graph.derived(fuse=True)
        assert clone.memoized("peak_activation_bytes", lambda: -1) == -1


@pytest.mark.parametrize("transform", [
    fuse_graph, freeze_graph,
    lambda graph: quantize_graph(graph, DType.INT8),
    lambda graph: prune_graph(graph, 0.5),
], ids=["fuse", "freeze", "quantize", "prune"])
def test_public_transforms_return_new_graphs_and_leave_the_input(transform):
    graph = load_model("VGG16")
    graph.peak_activation_bytes()
    before = graph_fingerprint(graph)
    out = transform(graph)
    assert out is not graph
    assert not {id(op) for op in out.ops} & {id(op) for op in graph.ops}
    assert graph_fingerprint(graph) == before
    assert graph_fingerprint(out) != before
