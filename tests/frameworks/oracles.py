"""Reference deployments the shared prepared graphs are pinned against.

These are the original clone-every-transform chains: each framework's
``prepare_graph`` as a sequence of public transforms, every step cloning
its input, so each deployment owns a private graph with no memos.  The
production path (one shared :meth:`Graph.derived` graph per model,
transform chain and dtype) must reproduce every deployment exactly.
"""

from __future__ import annotations

import dataclasses

from repro.core.errors import ReproError
from repro.frameworks import fpga, ncsdk, tensorflow, tensorrt, tflite
from repro.frameworks.base import DeployedModel, Framework
from repro.graphs.graph import Graph
from repro.graphs.tensor import DType
from repro.graphs.transforms import freeze_graph, fuse_graph, quantize_graph


def oracle_prepare(framework: Framework, graph: Graph, dtype: DType) -> Graph:
    """The transform chain ``framework`` applied before graphs were shared."""
    if isinstance(framework, tensorflow.TensorFlow):  # Keras included
        return graph.clone()
    if isinstance(framework, tflite.TFLite):
        return quantize_graph(fuse_graph(freeze_graph(graph)), dtype)
    if isinstance(framework, fpga.FINN):
        return quantize_graph(fuse_graph(graph), DType.BINARY)
    if isinstance(framework, (tensorrt.TensorRT, ncsdk.NCSDK, fpga.TVMVTA)):
        return quantize_graph(fuse_graph(graph), dtype)
    prepared = quantize_graph(graph, dtype) if dtype is not DType.FP32 else graph.clone()
    if framework.capabilities.fusion:
        prepared = fuse_graph(prepared)
    return prepared


def oracle_deploy(framework_cls: type[Framework], graph: Graph, device,
                  dtype: DType | None = None) -> DeployedModel:
    """``Framework.deploy`` with the clone-every-transform chain."""
    framework = framework_cls()
    framework.prepare_graph = (
        lambda graph, device, unit, dtype: oracle_prepare(framework, graph, dtype))
    return framework.deploy(graph, device, dtype)


def op_fingerprint(op) -> tuple:
    """Everything a transform can set on an op, with links by name."""
    return (
        type(op).__name__, op.name, op.output_shape.dims, op.params, op.macs,
        op.weight_dtype, op.act_dtype, op.weight_sparsity,
        tuple(parent.name for parent in op.inputs),
        None if op.fused_into is None else op.fused_into.name,
        tuple(absorbed.name for absorbed in op.absorbed),
    )


def graph_fingerprint(graph: Graph) -> tuple:
    return (graph.name, sorted(graph.metadata.items(), key=repr),
            tuple(op_fingerprint(op) for op in graph.ops))


def deployment_fingerprint(deployed: DeployedModel) -> dict:
    """Every ``DeployedModel`` field plus its derived byte figures."""
    out = {}
    for spec in dataclasses.fields(deployed):
        value = getattr(deployed, spec.name)
        if spec.name == "graph":
            value = graph_fingerprint(value)
        elif spec.name == "framework":
            value = type(value)
        out[spec.name] = value
    out["weight_bytes()"] = deployed.weight_bytes()
    out["peak_activation_bytes()"] = deployed.peak_activation_bytes()
    out["footprint_bytes()"] = deployed.footprint_bytes()
    out["cut_points()"] = deployed.cut_points()
    return out


def outcome(deploy) -> tuple[str, object]:
    """``("ok", fingerprint)`` or, for a Table V failure, its type and text."""
    try:
        return "ok", deployment_fingerprint(deploy())
    except ReproError as error:
        return type(error).__name__, str(error)
