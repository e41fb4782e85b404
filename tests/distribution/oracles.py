"""Reference implementations the distribution layer is pinned against.

These are the original, deliberately naive algorithms: the quadratic cut
enumeration (re-scan every producer for every cut), the per-cut split
pricing (every prefix and suffix summed from scratch, one session per
side) and the scalar bottleneck dynamic program over a device chain.  The
production code must reproduce them exactly — same cuts, same stage
boundaries, same floats.
"""

from __future__ import annotations

from repro.distribution.network import NetworkLink
from repro.distribution.partition import CutPoint
from repro.distribution.pipeline import PipelinePlan, PipelineStage
from repro.engine.executor import InferenceSession
from repro.frameworks.base import DeployedModel
from repro.graphs import ops as O
from repro.graphs.graph import Graph


def oracle_cut_points(graph: Graph) -> list[CutPoint]:
    """O(ops^2) cut enumeration: for each cut, scan every producer."""
    schedulable = graph.schedulable_ops()
    order_index = {id(op): i for i, op in enumerate(schedulable)}

    def position(op: O.Op) -> int:
        anchor = op
        while anchor.fused_into is not None:
            anchor = anchor.fused_into
        if isinstance(anchor, O.Input):
            return -1
        return order_index[id(anchor)]

    consumers: dict[int, list[int]] = {}
    for op in graph.ops:
        consumer_pos = position(op)
        for parent in op.inputs:
            producer_pos = position(parent)
            if producer_pos == consumer_pos:
                continue
            consumers.setdefault(producer_pos, []).append(consumer_pos)

    points: list[CutPoint] = []
    input_bytes = sum(op.output_bytes() for op in graph.inputs)
    points.append(CutPoint(index=0, after_op="", transfer_bytes=input_bytes))
    output_bytes = sum(op.output_bytes() for op in graph.outputs)
    for k in range(1, len(schedulable) + 1):
        crossing = 0
        for producer_pos, consumer_positions in consumers.items():
            if producer_pos < k and any(pos >= k for pos in consumer_positions):
                if producer_pos == -1:
                    crossing += input_bytes
                else:
                    crossing += schedulable[producer_pos].output_bytes()
        if k == len(schedulable):
            crossing = output_bytes
        points.append(CutPoint(
            index=k,
            after_op=schedulable[k - 1].name,
            transfer_bytes=crossing,
        ))
    return points


def oracle_split_rows(edge: DeployedModel, remote: DeployedModel,
                      link: NetworkLink
                      ) -> list[tuple[CutPoint, float, float, float]]:
    """``(cut, edge_s, transfer_s, remote_s)`` for every cut, input first.

    The edge prefix runs on ``edge`` and pays its session overhead; the
    remote suffix runs on ``remote`` and pays its own.  The all-remote
    cut has no edge leg and the all-edge cut neither a link nor a remote
    leg: the result stays on the device.
    """
    schedulable = [op.name for op in edge.graph.schedulable_ops()]
    sides = []
    for deployed in (edge, remote):
        plan = InferenceSession(deployed).plan
        times = {t.op.name: t.latency_s for t in plan.timings}
        sides.append(([times.get(name, 0.0) for name in schedulable],
                      plan.session_overhead_s + plan.input_transfer_s))
    (edge_values, edge_overhead), (remote_values, remote_overhead) = sides
    count = len(schedulable)
    rows = []
    for cut in oracle_cut_points(edge.graph):
        index = cut.index
        transfer = (0.0 if count == 0 or index == count
                    else link.transfer_time_s(cut.transfer_bytes))
        edge_s = (0.0 if index == 0
                  else sum(edge_values[:index]) + edge_overhead)
        remote_s = (0.0 if index == count
                    else sum(remote_values[index:]) + remote_overhead)
        rows.append((cut, edge_s, transfer, remote_s))
    return rows


def oracle_pipeline_inputs(deployments: list[DeployedModel], link: NetworkLink
                           ) -> tuple[list[list[float]], list[float], list[str]]:
    """Per-position compute prefix sums (one session per position), the
    per-cut transfer times and the op schedule the DP runs over."""
    schedulable = [op.name for op in deployments[0].graph.schedulable_ops()]
    transfer_at = [link.transfer_time_s(c.transfer_bytes)
                   for c in oracle_cut_points(deployments[0].graph)]
    prefixes = []
    for deployed in deployments:
        timings = {t.op.name: t.latency_s
                   for t in InferenceSession(deployed).plan.timings}
        prefix = [0.0] * (len(schedulable) + 1)
        for i, name in enumerate(schedulable):
            prefix[i + 1] = prefix[i] + timings.get(name, 0.0)
        prefixes.append(prefix)
    return prefixes, transfer_at, schedulable


def oracle_chain_dp(prefix_compute: list[list[float]], transfer_at: list[float],
                    schedulable: list[str]) -> PipelinePlan:
    """Scalar O(N^2 * D) bottleneck DP with a strict-< update."""
    num_devices = len(prefix_compute)
    n = len(schedulable)
    if num_devices > n:
        raise ValueError(f"cannot spread {n} ops over {num_devices} devices")
    INF = float("inf")
    best = [[INF] * (n + 1) for _ in range(num_devices + 1)]
    choice = [[-1] * (n + 1) for _ in range(num_devices + 1)]
    best[0][0] = 0.0
    for d in range(1, num_devices + 1):
        prefix = prefix_compute[d - 1]
        previous, row, chosen = best[d - 1], best[d], choice[d]
        for end in range(d, n + 1):
            outgoing = 0.0 if (d == num_devices and end == n) else transfer_at[end]
            for start in range(d - 1, end):
                if previous[start] == INF:
                    continue
                compute = prefix[end] - prefix[start]
                candidate = max(previous[start], compute + outgoing)
                if candidate < row[end]:
                    row[end] = candidate
                    chosen[end] = start
    if best[num_devices][n] == INF:
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


def oracle_partition_pipeline_heterogeneous(deployments: list[DeployedModel],
                                            link: NetworkLink) -> PipelinePlan:
    """Scalar DP over an ordered chain, one session per position."""
    return oracle_chain_dp(*oracle_pipeline_inputs(deployments, link))


def oracle_partition_pipeline(deployed: DeployedModel, num_devices: int,
                              link: NetworkLink) -> PipelinePlan:
    """Scalar DP over ``num_devices`` copies of one device."""
    if num_devices < 1:
        raise ValueError(f"need at least one device, got {num_devices}")
    (prefix,), transfer_at, schedulable = oracle_pipeline_inputs([deployed], link)
    return oracle_chain_dp([prefix] * num_devices, transfer_at, schedulable)
