"""Scalar reference for the Runner's compiled execution path.

``scalar_record`` measures one cell the paper's way with the plainest
machinery available — deploy, build an :class:`InferenceSession`, run the
seeded :class:`InferenceTimer` loop on it, meter energy on the session —
and assembles the :class:`RunRecord` by hand.  ``Runner.run`` and
``Runner.run_grid`` go through the sweep compiler instead; the
equivalence tests diff the two at zero tolerance.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ReproError
from repro.engine.cache import DEPLOY_CACHE, caching_enabled
from repro.engine.executor import EngineConfig
from repro.measurement.energy import EnergyMeter, active_power_w
from repro.runtime import Runner, Scenario
from repro.runtime.record import (
    FailureRecord,
    LatencyStats,
    PlanBreakdown,
    Provenance,
    RunRecord,
)


def deploy_outcome(scenario: Scenario, graph: Any = None) -> str:
    """The deploy-cache outcome a deployment of ``scenario`` sees now."""
    if graph is not None or not scenario.is_default_runtime or not caching_enabled():
        return "bypass"
    return "hit" if DEPLOY_CACHE.contains(scenario.deploy_key) else "miss"


def scalar_record(runner: Runner, scenario: Scenario, *, use_timer: bool = True,
                  graph: Any = None, energy_meter: EnergyMeter | None = None,
                  n_runs: int | None = None) -> RunRecord:
    """One cell through session, timer and meter, without the record cache."""
    config = EngineConfig(batch_size=scenario.batch_size)
    cache_outcome = deploy_outcome(scenario, graph)
    try:
        session = runner.session(scenario, graph)
        stats = None
        if use_timer:
            measurement = runner.timer(scenario).measure(session, n_runs)
            stats = LatencyStats.from_measurement(measurement)
            latency_s = measurement.value
        else:
            latency_s = session.latency_s
        energy_j = None
        if energy_meter is not None:
            energy_j = float(energy_meter.measure(session))
    except ReproError as error:
        return RunRecord(
            scenario=scenario,
            status="failed",
            provenance=Provenance.build(scenario, "none", use_timer, config),
            failure=FailureRecord.from_error(error),
        )
    plan = session.plan
    return RunRecord(
        scenario=scenario,
        status="ok",
        provenance=Provenance.build(scenario, cache_outcome, use_timer, config),
        latency_s=latency_s,
        model_latency_s=session.latency_s,
        stats=stats,
        init_time_s=session.init_time_s,
        utilization=session.utilization,
        power_w=active_power_w(session),
        energy_j=energy_j,
        container_overhead=(session.overhead_fraction
                            if scenario.containerized else None),
        plan=PlanBreakdown(
            compute_s=plan.compute_s,
            memory_s=plan.memory_s,
            dispatch_s=plan.dispatch_s,
            roofline_s=plan.roofline_s,
            session_overhead_s=plan.session_overhead_s,
            input_transfer_s=plan.input_transfer_s,
            op_count=len(plan.timings),
            weight_bytes=session.deployed.weight_bytes(),
        ),
    )
