#!/usr/bin/env python3
"""Scenario: a swarm of inexpensive robots sharing one DNN.

The paper's introduction motivates edge inference with "inexpensive robots"
and its related work covers the authors' collaborative distribution of DNNs
across IoT devices.  This example asks two questions for a Raspberry
Pi-based robot team:

1. Offload or not?  A Neurosurgeon-style split against a base-station GPU
   under different radio conditions.
2. Collaborate!  When the base station is unreachable, pipeline the model
   across teammates and see how throughput scales.

Run:  python examples/collaborative_robots.py [model]
"""

import sys

from repro import load_model
from repro.distribution import load_link, partition_pipeline, split_deployments
from repro.runtime import Scenario, default_runner


def main(model_name: str = "TinyYolo") -> None:
    graph = load_model(model_name)
    print(f"Model: {graph.summary()}")
    print()

    # Part 1: offloading decision against a base-station GPU.
    edge = Scenario(model_name, "Raspberry Pi 3B", "TensorFlow")
    remote = Scenario(model_name, "GTX Titan X", "PyTorch")
    print("Offloading decision (robot = RPi 3B, base station = GTX Titan X):")
    for link_name in ("ethernet", "wifi", "wifi-congested", "lte", "bluetooth"):
        # Every cut, input-side first: the last one keeps the model local.
        deployments = split_deployments(edge, remote, link_name)
        best = min(deployments, key=lambda d: d.latency_s)
        local_s = deployments[-1].latency_s
        print(f"  {link_name}: fully local would take {local_s:.2f} s; "
              f"the best placement is {local_s / best.latency_s:.1f}x faster")
        for line in best.describe().splitlines():
            print(f"    {line}")
    print()

    # Part 2: no base station — pipeline across teammates.
    print("Collaborative pipeline across robot teammates (WiFi between them):")
    link = load_link("wifi")
    robot = default_runner().session(edge)
    baseline_fps = partition_pipeline(robot, 1, link).throughput_fps
    for team_size in (1, 2, 3, 4, 6):
        plan = partition_pipeline(robot, team_size, link)
        print(f"  {team_size} robot(s): {plan.throughput_fps:6.2f} fps "
              f"({plan.throughput_fps / baseline_fps:4.2f}x), "
              f"bottleneck stage {plan.bottleneck_s * 1e3:6.0f} ms, "
              f"per-frame latency {plan.pipeline_latency_s * 1e3:6.0f} ms")
    print()
    print("Scaling saturates when one indivisible layer owns the bottleneck")
    print("stage — the same sub-linear behaviour the collaborative-IoT papers")
    print("report on physical Pi clusters.")


if __name__ == "__main__":
    main(*sys.argv[1:2])
