"""Golden fleet reports: the simulator's numbers are pinned, not just stable.

Every other fleet test compares a run against another run (same seed,
different epochs, the scalar simulators), so a rewrite of the event loop
that shifts a number in every run alike would pass them all.  These cases
pin the sha256 of ``FleetStats.to_json()`` for six ~50k-request runs that
between them reach every serving path: the three routers over the
dynamic-batching pools, a pipelined deployment pool, the autoscaler with
admission control, and a Raspberry Pi pool that melts down.

The fixture is ``tests/data/fleet_golden.json``.  A change that is meant
to move fleet numbers regenerates it in the same commit::

    PYTHONPATH=src python -m tests.fleet.test_golden_reports --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable

import pytest

import repro.fleet.simulate as simulate
from repro.fleet import (
    AdmissionControl,
    Autoscaler,
    FleetSimulation,
    FleetStats,
    PoolSpec,
)
from repro.runtime import Scenario
from repro.workloads.arrivals import PoissonArrivals, first_n, reseeded

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fleet_golden.json"
REQUESTS = 50_000
SEED = 7


def _batched_pools() -> list[PoolSpec]:
    """The fleet-batched benchmark's three ResNet-18 pools."""
    return [
        PoolSpec(name="nano", replicas=8, max_batch=8,
                 scenario=Scenario("ResNet-18", "Jetson Nano", "TensorRT")),
        PoolSpec(name="tx2", replicas=4, max_batch=4,
                 scenario=Scenario("ResNet-18", "Jetson TX2", "PyTorch")),
        PoolSpec(name="pi", replicas=2,
                 scenario=Scenario("ResNet-18", "Raspberry Pi 3B", "TFLite")),
    ]


def _pipeline_pools() -> list[PoolSpec]:
    from repro.distribution import lower_pipeline
    from repro.runtime import default_runner

    chain = (Scenario("MobileNet-v2", "Jetson Nano", "TensorRT"),) * 2
    deployment = lower_pipeline(chain, "lan", runner=default_runner())
    return [PoolSpec.from_deployment("nano-pipe", deployment, replicas=8)]


def _pi_pools() -> list[PoolSpec]:
    """Two Pis that overheat beside one Nano that keeps serving."""
    return [
        PoolSpec(name="pi", replicas=2,
                 scenario=Scenario("ResNet-18", "Raspberry Pi 3B", "TFLite")),
        PoolSpec(name="nano", replicas=1,
                 scenario=Scenario("ResNet-18", "Jetson Nano", "TensorRT")),
    ]


def _run(pools: list[PoolSpec], load: float, **options) -> FleetStats:
    simulation = FleetSimulation(pools, **options)
    process = PoissonArrivals(rate_hz=load * simulation.capacity_rps)
    return simulation.run(first_n(reseeded(process, SEED), REQUESTS),
                          seed=SEED)


#: case name -> a zero-argument run.  Loads sit where each path is busy:
#: 0.7x capacity for steady serving, overload for scaling and admission,
#: full capacity for the Pi's thermal trip.
CASES: dict[str, Callable[[], FleetStats]] = {
    "batched-round-robin": lambda: _run(
        _batched_pools(), 0.7, router="round-robin"),
    "batched-least-outstanding": lambda: _run(
        _batched_pools(), 0.7, router="least-outstanding"),
    "batched-energy-aware": lambda: _run(
        _batched_pools(), 0.7, router="energy-aware"),
    "pipeline-nano-lan": lambda: _run(_pipeline_pools(), 0.7),
    "autoscale-admission": lambda: _run(
        _batched_pools(), 1.3, epochs=512,
        autoscaler=Autoscaler(high_depth=4.0, cooldown_epochs=2),
        admission=AdmissionControl(max_queue_per_node=16)),
    "pi-thermal-shutdown": lambda: _run(_pi_pools(), 1.0, epochs=256),
}


def report_sha256(stats: FleetStats) -> str:
    return hashlib.sha256(stats.to_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, golden):
    assert report_sha256(CASES[case]()) == golden[case], (
        f"fleet report for {case!r} moved; if intended, regenerate "
        f"{FIXTURE.name} (see module docstring)")


def test_cases_reach_the_paths_they_pin():
    """Each control plane the fixture claims to cover actually fires."""
    scaled = CASES["autoscale-admission"]()
    assert scaled.scale_ups > 0 and scaled.rejected > 0
    melted = CASES["pi-thermal-shutdown"]()
    assert melted.shutdown_events > 0 and melted.dropped > 0


def test_energies_and_temperatures_are_plain_floats(golden, monkeypatch):
    """Power stays a float at the loop boundary, so no ``Watts`` tag leaks
    into an energy or a temperature (and the report bytes do not move)."""
    clusters = []

    class RecordingCluster(simulate.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(simulate, "Cluster", RecordingCluster)
    stats = CASES["pi-thermal-shutdown"]()
    assert report_sha256(stats) == golden["pi-thermal-shutdown"]
    sims = [node.thermal_sim for node in clusters[-1].nodes]
    events = [event for sim in sims for event in sim.events]
    assert any(event.kind == "shutdown" for event in events)
    values = [stats.energy_j, *(pool.energy_j for pool in stats.pools),
              *(sim.temperature_c for sim in sims),
              *(event.temperature_c for event in events)]
    assert [type(value) for value in values] == [float] * len(values)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.fleet.test_golden_reports --write")
    FIXTURE.write_text(json.dumps(
        {name: report_sha256(run()) for name, run in sorted(CASES.items())},
        indent=1) + "\n")
    print(f"wrote {FIXTURE}")
