"""The layers the benchmark traces, and the per-layer metrics it derives.

Each span name below is ``<layer>.<function>``; the wrapped callable is
the public entry point of that layer named in the benchmark notes.  Span
names double as metric stems: ``<stem>_s`` is summed self time and
``<stem>_calls`` the number of outermost calls, per timed repetition.
"""

from __future__ import annotations

import statistics
from typing import Any

from tracer import Tracer

#: per-layer metrics read from spans: metric -> (span stem, kind, phase).
#: ``kind`` is "self" (summed self time, s), "total" (summed duration of
#: outermost calls, s) or "calls" (outermost calls); ``phase`` "task" takes
#: the median over timed repetitions, "setup" the value from the traced
#: set-up.  Set-up layers report totals: the layers beneath them are only
#: reported for the timed task.
SPAN_METRICS: dict[str, tuple[str, str, str]] = {
    "graphs.clone_s": ("graphs.clone", "self", "task"),
    "graphs.clone_calls": ("graphs.clone", "calls", "task"),
    "graphs.liveness_s": ("graphs.liveness", "self", "task"),
    "graphs.liveness_calls": ("graphs.liveness", "calls", "task"),
    "graphs.build_s": ("graphs.build", "self", "task"),
    "frameworks.deploy_s": ("frameworks.deploy", "self", "task"),
    "frameworks.deploy_calls": ("frameworks.deploy", "calls", "task"),
    "engine.gather_s": ("engine.gather", "self", "task"),
    "engine.lower_s": ("engine.lower", "self", "task"),
    "engine.scatter_s": ("engine.scatter", "self", "task"),
    "runtime.run_grid_s": ("runtime.run_grid", "self", "task"),
    "runtime.run_grid_calls": ("runtime.run_grid", "calls", "task"),
    "runtime.scalar_run_s": ("runtime.scalar_run", "self", "task"),
    "runtime.scalar_run_calls": ("runtime.scalar_run", "calls", "task"),
    "harness.experiment_s": ("harness.experiment", "self", "task"),
    "harness.precompile_s": ("harness.precompile", "self", "task"),
    "distribution.cut_points_s": ("distribution.cut_points", "self", "task"),
    "distribution.cut_points_calls": ("distribution.cut_points", "calls", "task"),
    "distribution.split_s": ("distribution.split", "self", "task"),
    "distribution.pipeline_s": ("distribution.pipeline", "self", "task"),
    "placement.search_s": ("placement.search", "self", "task"),
    "placement.frontier_s": ("placement.frontier", "self", "task"),
    "fleet.run_s": ("fleet.run", "self", "task"),
    "fleet.router.quotas_s": ("fleet.router.quotas", "self", "task"),
    "fleet.router.interleave_s": ("fleet.router.interleave", "self", "task"),
    "fleet.cluster.assign_s": ("fleet.cluster.assign", "self", "task"),
    "fleet.report_s": ("fleet.report", "self", "task"),
    "fleet.profiles_s": ("fleet.profiles", "total", "setup"),
    "thermal.step_s": ("thermal.step", "self", "task"),
    "thermal.step_calls": ("thermal.step", "calls", "task"),
    "workloads.arrivals_s": ("workloads.arrivals", "total", "setup"),
    "check.parse_s": ("check.parse", "self", "task"),
    "check.ir_s": ("check.ir", "self", "task"),
    "check.shapes_s": ("check.shapes", "self", "task"),
    "check.tables_s": ("check.tables", "self", "task"),
    "check.arch_s": ("check.arch", "self", "task"),
    "check.units_s": ("check.units", "self", "task"),
    "check.effects_s": ("check.effects", "self", "task"),
    "bench.unattributed_s": ("bench.task", "self", "task"),
}

CACHES = ("graph", "deploy", "plan", "record", "payload")

#: exact counts read from the program's own stats and outputs, per timed
#: repetition (0 where the workload never produces them).
OUTPUT_COUNTS = (
    "engine.cells", "engine.unique_plans", "engine.dedup_ratio",
    *(f"engine.cache.{name}.{field}" for name in CACHES
      for field in ("hits", "misses")),
    "placement.candidates", "placement.frontier_size",
    "fleet.sim.completed", "fleet.sim.dropped", "fleet.sim.rejected",
    "fleet.sim.batches", "fleet.sim.p99_sojourn_s",
)


def register_targets(tracer: Tracer) -> None:
    """Point the tracer at every layer entry point the metrics name."""
    import repro.analysis.pareto as pareto
    import repro.check as check
    import repro.check.astutil as astutil
    import repro.distribution.partition as partition
    import repro.distribution.pipeline as pipeline
    import repro.distribution.split as split
    import repro.engine.compile as compile_
    import repro.fleet.cluster as cluster
    import repro.fleet.report as report
    import repro.fleet.router as router
    import repro.fleet.simulate as simulate
    import repro.harness.registry as registry
    import repro.harness.suite as suite
    import repro.models.zoo as zoo
    import repro.placement.optimizer as optimizer
    import repro.workloads.arrivals as arrivals
    from repro.frameworks.base import Framework
    from repro.graphs.graph import Graph
    from repro.hardware.thermal import ThermalSimulator
    from repro.runtime.runner import Runner

    tracer.add_method("graphs.clone", Graph, "clone")
    tracer.add_method("graphs.liveness", Graph, "peak_activation_bytes")
    tracer.add_function("graphs.build", zoo, "load_model")
    tracer.add_method("frameworks.deploy", Framework, "deploy")
    for phase in ("gather", "lower", "scatter"):
        tracer.add_function(f"engine.{phase}", compile_, phase)
    tracer.add_method("runtime.run_grid", Runner, "run_grid")
    tracer.add_method("runtime.scalar_run", Runner, "run")
    tracer.add_function("harness.experiment", registry, "run_experiment")
    tracer.add_function("harness.precompile", suite, "precompile_experiments")
    tracer.add_function("distribution.cut_points", partition, "cut_points")
    tracer.add_function("distribution.split", split, "split_deployments")
    tracer.add_function("distribution.pipeline", pipeline,
                        "partition_pipeline_heterogeneous")
    tracer.add_function("distribution.pipeline", pipeline, "lower_pipeline")
    tracer.add_function("placement.search", optimizer, "search_placements")
    tracer.add_function("placement.frontier", pareto, "frontier_indices")
    tracer.add_method("fleet.run", simulate.FleetSimulation, "run")
    tracer.add_method("fleet.router.quotas", router.Router, "quotas")
    tracer.add_function("fleet.router.interleave", router, "interleave")
    tracer.add_method("fleet.cluster.assign", cluster.NodeState, "assign")
    tracer.add_method("fleet.report", report.SojournSummary, "from_times")
    tracer.add_function("fleet.profiles", cluster, "resolve_profiles")
    tracer.add_method("thermal.step", ThermalSimulator, "step")
    tracer.add_function("workloads.arrivals", arrivals, "reseeded")
    tracer.add_function("workloads.arrivals", arrivals, "first_n")
    tracer.add_function("check.parse", astutil, "load_package")
    for name in check.PASSES:
        tracer.add_function(f"check.{name}", getattr(check, name), "run",
                            registries=(check.PASSES,))


def span_metrics(tracer: Tracer, task_runs: list[str],
                 setup_run: str) -> dict[str, float]:
    """Every span-derived per-layer metric (0 for a layer never entered)."""
    runs = tracer.per_run()
    metrics: dict[str, float] = {}
    for metric, (stem, kind, phase) in SPAN_METRICS.items():
        picked = [setup_run] if phase == "setup" else task_runs
        values = []
        for run in picked:
            entry = runs.get(run, {}).get(stem)
            if entry is None:
                values.append(0)
            elif kind == "total":
                values.append(sum(entry["durations"]))
            else:
                values.append(entry["self_s" if kind == "self" else "calls"])
        metrics[metric] = statistics.median(values) if values else 0.0
    model_p50: list[float] = []
    model_max: list[float] = []
    for run in task_runs:
        durations = runs.get(run, {}).get("placement.search", {}).get("durations", [])
        model_p50.append(statistics.median(durations) if durations else 0.0)
        model_max.append(max(durations, default=0.0))
    metrics["placement.model_p50_s"] = statistics.median(model_p50 or [0.0])
    metrics["placement.model_max_s"] = statistics.median(model_max or [0.0])
    return metrics


def cache_counts(before: dict[str, dict[str, Any]],
                 after: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Per-cache hit and miss counts accrued between two ``cache_stats()``."""
    return {f"engine.cache.{name}.{field}": after[name][field] - before[name][field]
            for name in CACHES for field in ("hits", "misses")}
