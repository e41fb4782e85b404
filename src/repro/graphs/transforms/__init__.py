"""Graph-level optimizations (the Table II feature set).

Each transform takes a :class:`~repro.graphs.graph.Graph` and returns a new
annotated clone, leaving its input untouched; the ``apply_*`` core it runs
on the clone annotates a private graph in place.  Deployments share their
prepared graphs (:meth:`Graph.derived` runs the cores once per transform
chain), so to mutate a graph, ``clone()`` it first.  Which transforms a
deployment applies is decided by the framework models in
:mod:`repro.frameworks`.
"""

from repro.graphs.transforms.fusion import fuse_graph, fusion_ratio
from repro.graphs.transforms.freeze import freeze_graph
from repro.graphs.transforms.pruning import prune_graph
from repro.graphs.transforms.quantization import quantize_graph

__all__ = ["freeze_graph", "fuse_graph", "fusion_ratio", "prune_graph", "quantize_graph"]
