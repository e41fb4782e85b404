"""Distributed edge inference.

The paper's related-work section centers on distributing DNN inference:
Neurosurgeon's cloud-edge split and the authors' own collaborative
model-parallelism across IoT devices/robots.  This package builds that
substrate on the engine: network link models, graph cut-point analysis,
a Neurosurgeon-style split and a pipeline partitioner for chains of edge
devices.

Both are priced from :class:`~repro.runtime.runner.Runner` sessions and
lowered to :class:`~repro.placement.deployment.Deployment` objects the
fleet can price and serve (:func:`split_deployments`, :func:`lower_split`,
:func:`lower_pipeline`).  :class:`PipelinePlan` is the pipeline DP's own
result.
"""

from repro.distribution.network import (
    LINK_PRESETS,
    REQUIRED_LINK_PRESETS,
    NetworkLink,
    load_link,
    resolve_link,
)
from repro.distribution.partition import CutPoint, cut_points, narrowest_cut
from repro.distribution.pipeline import (
    PipelinePlan,
    PipelineStage,
    lower_pipeline,
    partition_pipeline,
    partition_pipeline_heterogeneous,
)
from repro.distribution.split import lower_split, split_deployments

__all__ = [
    "CutPoint",
    "LINK_PRESETS",
    "NetworkLink",
    "PipelinePlan",
    "PipelineStage",
    "REQUIRED_LINK_PRESETS",
    "cut_points",
    "load_link",
    "lower_pipeline",
    "lower_split",
    "narrowest_cut",
    "partition_pipeline",
    "partition_pipeline_heterogeneous",
    "resolve_link",
    "split_deployments",
]
