"""Pipeline partitioning across a chain of edge devices.

The authors' collaborative-robots line of work distributes one DNN across
several resource-constrained devices stage-by-stage and streams inputs
through the pipeline.  Steady-state throughput is set by the slowest stage
(compute plus its outgoing transfer), so the partitioner minimizes the
bottleneck over all contiguous stage assignments via dynamic programming.

The partitioner prices stages from Runner sessions' per-op timings and
returns a :class:`PipelinePlan`; :func:`lower_pipeline` runs it over a
chain of scenarios and emits the servable multi-stage
:class:`~repro.placement.deployment.Deployment`.  The plan stays the
partitioner's result because a one-device "pipeline" (the whole model's
op latencies, without session overhead) has no Deployment form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.distribution.network import NetworkLink, resolve_link
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.engine.executor import InferenceSession
    from repro.runtime.runner import Runner
    from repro.runtime.scenario import Scenario


@dataclass(frozen=True)
class PipelineStage:
    """One device's share of the pipeline."""

    device_index: int
    op_names: tuple[str, ...]
    compute_s: float
    outgoing_transfer_s: float

    @property
    def stage_s(self) -> float:
        return self.compute_s + self.outgoing_transfer_s


@dataclass(frozen=True)
class PipelinePlan:
    """A full pipeline assignment."""

    stages: tuple[PipelineStage, ...]

    @property
    def bottleneck_s(self) -> float:
        return max(stage.stage_s for stage in self.stages)

    @property
    def throughput_fps(self) -> float:
        return 1.0 / self.bottleneck_s

    @property
    def pipeline_latency_s(self) -> float:
        """End-to-end latency of one input through all stages."""
        return sum(stage.stage_s for stage in self.stages)

    def describe(self) -> str:
        lines = [f"{len(self.stages)}-stage pipeline: "
                 f"{self.throughput_fps:.2f} inferences/s "
                 f"(bottleneck {self.bottleneck_s * 1e3:.1f} ms, "
                 f"end-to-end {self.pipeline_latency_s * 1e3:.1f} ms)"]
        for stage in self.stages:
            lines.append(
                f"  device {stage.device_index}: {len(stage.op_names)} ops, "
                f"compute {stage.compute_s * 1e3:.1f} ms, "
                f"send {stage.outgoing_transfer_s * 1e3:.1f} ms"
            )
        return "\n".join(lines)


def partition_pipeline_heterogeneous(sessions: "Sequence[InferenceSession]",
                                     link: NetworkLink) -> PipelinePlan:
    """Pipeline one model across an ORDERED list of different devices.

    Each entry of ``sessions`` is a :meth:`Runner.session` of the same
    source model on the device that will run that pipeline position
    (robot teams are rarely uniform).  The DP minimizes the bottleneck
    stage, where a stage's compute time uses its own session's per-op
    timings.

    Dynamic program over (ops consumed, devices used): classic chain
    partitioning, O(N^2 * D) with N schedulable ops, one (start x end)
    array step per device.
    """
    if not sessions:
        raise ValueError("need at least one session")
    deployments = [session.deployed for session in sessions]
    names = {d.graph.name for d in deployments}
    if len(names) != 1:
        raise ValueError(f"all deployments must share one model, got {sorted(names)}")
    num_devices = len(deployments)
    schedulable = [op.name for op in deployments[0].graph.schedulable_ops()]
    for deployed in deployments[1:]:
        other = [op.name for op in deployed.graph.schedulable_ops()]
        if other != schedulable:
            raise ValueError(
                "deployments disagree on the op schedule (mixed frameworks "
                "with different fusion are not pipeline-compatible)")
    n = len(schedulable)
    if num_devices > n:
        raise ValueError(f"cannot spread {n} ops over {num_devices} devices")

    cuts = deployments[0].cut_points()
    transfer_at = [link.transfer_time_s(c.transfer_bytes) for c in cuts]
    prefixes: dict[int, list[float]] = {}
    for session in sessions:
        if id(session.deployed) in prefixes:
            continue  # a repeated device prices its stages identically
        timings = {t.op.name: t.latency_s for t in session.plan.timings}
        prefix = [0.0] * (n + 1)
        for i, name in enumerate(schedulable):
            prefix[i + 1] = prefix[i] + timings.get(name, 0.0)
        prefixes[id(session.deployed)] = prefix
    prefix_compute = [prefixes[id(deployed)] for deployed in deployments]

    # best[d][end]: minimal bottleneck covering the first ``end`` ops with
    # d devices.  Each device step prices every (start, end) stage at once:
    # the same IEEE subtract/add/max as the scalar recurrence, and argmin's
    # first-minimum rule is the scalar loop's strict-< update, so the
    # chosen boundaries match it bit for bit.
    INF = float("inf")
    empty_stage = np.tril(np.ones((n + 1, n + 1), dtype=bool))  # start >= end
    outgoing = np.array(transfer_at, dtype=np.float64)
    last_outgoing = outgoing.copy()
    last_outgoing[n] = 0.0  # the final stage's output stays on-device
    best = np.full(n + 1, INF)
    best[0] = 0.0
    choice: list[list[int]] = [[-1] * (n + 1)]
    for d in range(1, num_devices + 1):
        prefix = np.array(prefix_compute[d - 1], dtype=np.float64)
        send = last_outgoing if d == num_devices else outgoing
        stage = (prefix[None, :] - prefix[:, None]) + send[None, :]
        candidate = np.maximum(best[:, None], stage)
        candidate[empty_stage] = INF
        starts = np.argmin(candidate, axis=0)
        best = candidate[starts, np.arange(n + 1)]
        choice.append(np.where(best < INF, starts, -1).tolist())
    if not best[n] < INF:
        raise ValueError("no feasible partition found")

    boundaries = [n]
    cursor = n
    for d in range(num_devices, 0, -1):
        cursor = choice[d][cursor]
        boundaries.append(cursor)
    boundaries.reverse()

    stages = []
    for device_index in range(num_devices):
        start, end = boundaries[device_index], boundaries[device_index + 1]
        prefix = prefix_compute[device_index]
        is_last = device_index == num_devices - 1
        stages.append(PipelineStage(
            device_index=device_index,
            op_names=tuple(schedulable[start:end]),
            compute_s=prefix[end] - prefix[start],
            outgoing_transfer_s=0.0 if (is_last and end == n) else transfer_at[end],
        ))
    return PipelinePlan(stages=tuple(stages))


def partition_pipeline(session: "InferenceSession", num_devices: int,
                       link: NetworkLink) -> PipelinePlan:
    """Minimize the pipeline bottleneck over contiguous stage assignments
    on ``num_devices`` copies of one device (the homogeneous case of
    :func:`partition_pipeline_heterogeneous`)."""
    if num_devices < 1:
        raise ValueError(f"need at least one device, got {num_devices}")
    return partition_pipeline_heterogeneous([session] * num_devices, link)


# -- lowering to Deployments -------------------------------------------------

def lower_pipeline(scenarios: "Sequence[Scenario]", link: NetworkLink | str, *,
                   runner: "Runner | None" = None) -> Deployment:
    """Lower an ordered chain of scenarios to a pipelined Deployment.

    Runs :func:`partition_pipeline_heterogeneous` over the scenarios'
    Runner sessions (one per device position, so heterogeneous chains are
    fine) and attaches the per-device pricing — active power, idle power,
    session init — a served stage needs.  Stage ``k`` carries the plan's
    ``stages[k]`` op names, compute and outgoing transfer exactly.
    """
    from repro.distribution.split import _lowered_side

    link = resolve_link(link)
    scenarios = list(scenarios)
    if len(scenarios) < 2:
        raise ValueError("a pipeline needs at least two scenarios")
    if runner is None:
        from repro.runtime.runner import default_runner
        runner = default_runner()
    sessions = [runner.session(scenario) for scenario in scenarios]
    plan = partition_pipeline_heterogeneous(sessions, link)
    bytes_at = [cut.transfer_bytes for cut in sessions[0].deployed.cut_points()]
    stages = []
    consumed = 0
    last = len(scenarios) - 1
    for position, (scenario, session, stage) in enumerate(
            zip(scenarios, sessions, plan.stages)):
        consumed += len(stage.op_names)
        stages.append(StageSpec(
            scenario=scenario,
            op_names=stage.op_names,
            compute_s=stage.compute_s,
            transfer_s=stage.outgoing_transfer_s,
            transfer_bytes=0 if position == last else bytes_at[consumed],
            **_lowered_side(scenario, session),
        ))
    return Deployment(kind="pipeline", link=link.name, stages=tuple(stages))
