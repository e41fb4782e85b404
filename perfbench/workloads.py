"""The four benchmark workloads: set-up, one timed task, and its checks.

Every workload follows the same protocol, driven by ``run.py``:

* ``setup(seed)`` does everything a user pays before the first timed
  operation (pool pricing, arrival generation).  The seed feeds the
  arrival streams and nothing else; the program only ever sees the
  generated arrays.
* ``prepare()`` resets process state between repetitions (untimed).
* ``task()`` is one timed operation.  It returns the raw output and the
  host seconds of its phases.
* ``canonical(output)`` is the value two repetitions must agree on
  exactly; ``check(output, expected)`` returns how many of the task's
  ``ops`` operations failed their correctness check, where ``expected``
  is the first repetition's canonical output (None for the first).
* ``counts(output)`` gives the exact simulated/structural counts reported
  beside host times.

Calls into traced layer functions go through module attributes (never
names imported here), so the tracer's patches are seen.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

clock = time.perf_counter

ROOT = Path(__file__).resolve().parents[1]

REQUESTS = 1_000_000
EPOCHS = 1024
LOAD = 0.7


def _arrival_times(rate_hz: float, seed: int):
    import repro.workloads.arrivals as arrivals

    return arrivals.first_n(
        arrivals.reseeded(arrivals.PoissonArrivals(rate_hz=rate_hz), seed),
        REQUESTS)


def _fleet_counts(stats) -> dict[str, float]:
    return {
        "fleet.sim.completed": stats.completed,
        "fleet.sim.dropped": stats.dropped,
        "fleet.sim.rejected": stats.rejected,
        "fleet.sim.batches": sum(pool.batches for pool in stats.pools),
        "fleet.sim.p99_sojourn_s": stats.sojourn.p99_s,
    }


def _fleet_conserves(stats) -> bool:
    return (stats.requests == REQUESTS
            and stats.completed + stats.dropped + stats.rejected == REQUESTS
            and all(pool.assigned == pool.completed + pool.dropped
                    for pool in stats.pools))


class Workload:
    """Defaults for the protocol above."""

    name = ""
    ops = 1

    def prepare(self) -> None:
        pass

    def canonical(self, output: Any) -> Any:
        return output

    def counts(self, output: Any) -> dict[str, float]:
        return {}


class SuiteCold(Workload):
    """One cold ``export_results()`` of every registered experiment."""

    name = "suite-cold"
    baseline_path = ROOT / "tests" / "data" / "baseline_snapshot.json"
    baseline: dict[str, Any] | None = None

    def setup(self, seed: int) -> None:
        from repro.harness.registry import list_experiments

        self.ops = len(list_experiments())

    def prepare(self) -> None:
        from repro.engine import clear_caches

        clear_caches()

    def task(self) -> tuple[Any, dict[str, float]]:
        from repro.harness.suite import export_results

        start = clock()
        snapshot = export_results()
        return snapshot, {"suite_s": clock() - start}

    def check(self, output: Any, expected: Any) -> int:
        from repro.harness.suite import compare_results

        if self.baseline is None:
            self.baseline = json.loads(self.baseline_path.read_text())
        moved = {difference.experiment_id for difference
                 in compare_results(self.baseline, output, rel_tolerance=0.0)}
        return min(self.ops, len(moved))


class FleetBatched(Workload):
    """A million Poisson arrivals over three dynamic-batching ResNet-18 pools."""

    name = "fleet-batched"

    def setup(self, seed: int) -> None:
        from repro.fleet import FleetSimulation, PoolSpec
        from repro.runtime import Scenario

        pools = [
            PoolSpec(name="nano", replicas=8, max_batch=8,
                     scenario=Scenario("ResNet-18", "Jetson Nano", "TensorRT")),
            PoolSpec(name="tx2", replicas=4, max_batch=4,
                     scenario=Scenario("ResNet-18", "Jetson TX2", "PyTorch")),
            PoolSpec(name="pi", replicas=2,
                     scenario=Scenario("ResNet-18", "Raspberry Pi 3B", "TFLite")),
        ]
        self.simulation = FleetSimulation(pools, router="least-outstanding",
                                          epochs=EPOCHS)
        self.arrivals = _arrival_times(LOAD * self.simulation.capacity_rps, seed)

    def task(self) -> tuple[Any, dict[str, float]]:
        start = clock()
        stats = self.simulation.run(self.arrivals)
        return stats, {"fleet_run_s": clock() - start}

    def canonical(self, output: Any) -> Any:
        return output.to_json()

    def check(self, output: Any, expected: Any) -> int:
        same = expected is None or self.canonical(output) == expected
        return 0 if same and _fleet_conserves(output) else 1

    def counts(self, output: Any) -> dict[str, float]:
        return _fleet_counts(output)


class PlaceServe(Workload):
    """Full-zoo placement search, then pipelined serving of a million arrivals."""

    name = "place-serve"
    remote_devices = ("GTX Titan X",)
    link = "wifi"

    def setup(self, seed: int) -> None:
        import repro.distribution.pipeline as pipeline
        from repro.fleet import FleetSimulation, PoolSpec
        from repro.models import list_models
        from repro.runtime import Scenario, default_runner

        self.runner = default_runner()
        self.models = list_models()
        self.ops = len(self.models) + 1
        chain = (Scenario("MobileNet-v2", "Jetson Nano", "TensorRT"),) * 2
        deployment = pipeline.lower_pipeline(chain, "lan", runner=self.runner)
        pool = PoolSpec.from_deployment("nano-pipe", deployment, replicas=8)
        self.simulation = FleetSimulation([pool], epochs=EPOCHS,
                                          runner=self.runner)
        self.arrivals = _arrival_times(LOAD * self.simulation.capacity_rps, seed)

    def prepare(self) -> None:
        from repro.engine import clear_caches

        clear_caches()

    def task(self) -> tuple[Any, dict[str, float]]:
        import repro.placement.optimizer as optimizer

        start = clock()
        frontiers = [optimizer.search_placements(
            model, remote_devices=self.remote_devices, link=self.link,
            runner=self.runner) for model in self.models]
        searched = clock()
        stats = self.simulation.run(self.arrivals)
        return (frontiers, stats), {"search_s": searched - start,
                                    "fleet_run_s": clock() - searched}

    def canonical(self, output: Any) -> Any:
        frontiers, stats = output
        return [frontier.to_dict() for frontier in frontiers], stats.to_json()

    def check(self, output: Any, expected: Any) -> int:
        frontiers, stats = output
        searched, served = self.canonical(output)
        failed = 0
        for index, frontier in enumerate(frontiers):
            if not frontier.frontier or (
                    expected is not None and searched[index] != expected[0][index]):
                failed += 1
        if not _fleet_conserves(stats) or (
                expected is not None and served != expected[1]):
            failed += 1
        return failed

    def counts(self, output: Any) -> dict[str, float]:
        frontiers, stats = output
        counts = _fleet_counts(stats)
        counts["placement.candidates"] = sum(len(f.candidates) for f in frontiers)
        counts["placement.frontier_size"] = sum(len(f.frontier) for f in frontiers)
        return counts


class CheckStrict(Workload):
    """All six static-check passes over one shared parse of the package."""

    name = "check-strict"

    def setup(self, seed: int) -> None:
        from repro.check import PASSES

        self.ops = len(PASSES)

    def task(self) -> tuple[Any, dict[str, float]]:
        from repro.check import run_checks

        start = clock()
        findings = run_checks()
        return findings, {"check_s": clock() - start}

    def canonical(self, output: Any) -> Any:
        return [finding.to_dict() for finding in output]

    def check(self, output: Any, expected: Any) -> int:
        import repro.check as check

        # A finding fails the pass that owns its rule id.
        owners = {rule: name for name in check.PASSES
                  for rule in getattr(check, name).RULES}
        failed = {owners.get(finding.rule, "?") for finding in output}
        return min(self.ops, len(failed))


WORKLOADS = {cls.name: cls for cls in (SuiteCold, FleetBatched, PlaceServe,
                                       CheckStrict)}
