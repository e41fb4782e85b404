"""Micro-benchmarks of the library's own hot paths.

Not a paper artifact: these keep the substrate fast enough that the whole
paper regenerates in seconds (graph construction, engine planning, the
calibration fit, serialization, and the pipeline DP).
"""

import pytest

from repro.distribution import load_link, partition_pipeline
from repro.engine import InferenceSession
from repro.frameworks import load_framework
from repro.graphs.serialize import graph_from_dict, graph_to_dict
from repro.hardware import load_device
from repro.models import load_model
from repro.runtime import Scenario, default_runner


@pytest.mark.benchmark(group="library")
def test_build_inception_graph(benchmark):
    graph = benchmark(load_model, "Inception-v4")
    assert graph.total_params > 40e6


@pytest.mark.benchmark(group="library")
def test_deploy_and_plan_resnet50(benchmark):
    framework = load_framework("PyTorch")
    device = load_device("Jetson TX2")
    model = load_model("ResNet-50")

    def deploy_and_plan():
        return InferenceSession(framework.deploy(model, device))

    session = benchmark(deploy_and_plan)
    assert session.latency_s > 0


@pytest.mark.benchmark(group="library")
def test_serialize_round_trip_vgg16(benchmark):
    graph = load_model("VGG16")

    def round_trip():
        return graph_from_dict(graph_to_dict(graph))

    restored = benchmark(round_trip)
    assert restored.total_params == graph.total_params


@pytest.mark.benchmark(group="library")
def test_pipeline_partition_yolov3(benchmark):
    session = default_runner().session(
        Scenario("YOLOv3", "Jetson TX2", "PyTorch"))
    link = load_link("ethernet")
    plan = benchmark(partition_pipeline, session, 4, link)
    assert len(plan.stages) == 4


@pytest.mark.benchmark(group="library")
def test_peak_memory_liveness_inception(benchmark):
    graph = load_model("Inception-v4")
    peak = benchmark(graph.peak_activation_bytes)
    assert peak > 0


@pytest.mark.benchmark(group="library")
def test_serving_simulation_throughput(benchmark):
    from repro.workloads import PoissonArrivals, simulate_serving

    arrivals = PoissonArrivals(200.0, seed=5).generate(120.0)  # ~24k requests

    stats = benchmark(simulate_serving, arrivals, 0.004)
    assert stats.completed == stats.requests


@pytest.mark.benchmark(group="library")
def test_calibration_fit(benchmark):
    from repro.engine.calibration import _fit

    def fit_fresh():
        _fit.cache_clear()
        return _fit("TensorRT", "Jetson Nano")

    scale = benchmark(fit_fresh)
    assert 0 < scale < 100
