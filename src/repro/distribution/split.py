"""Neurosurgeon-style cloud-edge split, lowered to Deployments.

For every cut point: run the prefix on the edge device, ship the crossing
activations over the link, run the suffix on the remote platform.  Every
cut is priced from the two Runner sessions' per-op timings and lowered to a
:class:`~repro.placement.deployment.Deployment`: a two-stage ``"split"``
deployment, or a single-node one for the all-edge cut.  The input-side cut
is the all-remote baseline the paper's offloading discussion contrasts
(Section I: privacy, connectivity and timing constraints are what rule it
out in practice) and the last cut is the all-edge one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.distribution.network import NetworkLink, resolve_link
from repro.distribution.partition import CutPoint
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from repro.runtime.runner import Runner
    from repro.runtime.scenario import Scenario


class _CutRow(NamedTuple):
    """One priced cut: edge prefix, link transfer, remote suffix."""

    cut: CutPoint
    edge_s: float
    transfer_s: float
    remote_s: float

    @property
    def total_s(self) -> float:
        # The same three floats in the same order as the lowered
        # deployment's ``latency_s``.
        return self.edge_s + self.transfer_s + self.remote_s


def _best_index(rows: list[_CutRow]) -> int:
    """The latency-optimal cut; the first one on ties."""
    return min(range(len(rows)), key=lambda i: rows[i].total_s)


def _lowered_side(scenario: Scenario, session) -> dict[str, float]:
    """Per-device pricing a served stage needs beyond its compute time."""
    from repro.hardware.catalog import load_device
    from repro.measurement.energy import active_power_w

    return {
        "power_w": active_power_w(session),
        "idle_w": load_device(scenario.device).power.idle_w,
        "init_time_s": session.init_time_s,
    }


def _op_times(session, schedulable: tuple[str, ...]) -> tuple[list[float], float]:
    """Per-op seconds along ``schedulable``, plus the session's fixed cost."""
    plan = session.plan
    times = {t.op.name: t.latency_s for t in plan.timings}
    return ([times.get(name, 0.0) for name in schedulable],
            plan.session_overhead_s + plan.input_transfer_s)


def _split_context(edge: Scenario, remote: Scenario, link: NetworkLink,
                   runner: "Runner | None"):
    """Every cut priced from the two Runner sessions, input-side first,
    with the op schedule and the per-side pricing the lowerings attach."""
    if runner is None:
        from repro.runtime.runner import default_runner
        runner = default_runner()
    edge_session = runner.session(edge)
    remote_session = runner.session(remote)
    edge_graph = edge_session.deployed.graph
    remote_graph = remote_session.deployed.graph
    if edge_graph.name != remote_graph.name:
        raise ValueError(
            f"split requires one model on both sides, got "
            f"{edge_graph.name!r} vs {remote_graph.name!r}")
    schedulable = tuple(op.name for op in edge_graph.schedulable_ops())
    edge_values, edge_overhead = _op_times(edge_session, schedulable)
    remote_values, remote_overhead = _op_times(remote_session, schedulable)
    count = len(schedulable)
    # Running prefix sums accumulate left-to-right — the same float-op
    # order as summing each prefix from scratch.  The remote suffix is
    # summed from scratch per cut: a running suffix would add in the
    # opposite order and move the frontier's floats.
    edge_prefix = [0.0]
    acc = 0.0
    for value in edge_values:
        acc += value
        edge_prefix.append(acc)
    rows = []
    for cut in edge_session.deployed.cut_points():
        index = cut.index
        if count == 0 or index == count:
            # Fully local: the result still returns to the caller on-device.
            transfer = 0.0
        else:
            transfer = link.transfer_time_s(cut.transfer_bytes)
        edge_s = 0.0 if index == 0 else edge_prefix[index] + edge_overhead
        remote_s = (0.0 if index == count
                    else sum(remote_values[index:]) + remote_overhead)
        rows.append(_CutRow(cut, edge_s, transfer, remote_s))
    return (rows, schedulable,
            _lowered_side(edge, edge_session),
            _lowered_side(remote, remote_session))


def _deployment_from_split(row: _CutRow, edge: Scenario, remote: Scenario,
                           schedulable: tuple[str, ...], link: NetworkLink,
                           edge_side: dict[str, float],
                           remote_side: dict[str, float]) -> Deployment:
    index = row.cut.index
    if index == len(schedulable):
        # All-edge: nothing crosses the link, so this IS a single-node
        # deployment — normalize so the fleet serves it on the legacy path.
        return Deployment.single(edge, compute_s=row.edge_s, **edge_side)
    head = StageSpec(scenario=edge, op_names=schedulable[:index],
                     compute_s=row.edge_s, transfer_s=row.transfer_s,
                     transfer_bytes=row.cut.transfer_bytes, **edge_side)
    tail = StageSpec(scenario=remote, op_names=schedulable[index:],
                     compute_s=row.remote_s, **remote_side)
    return Deployment(kind="split", link=link.name, stages=(head, tail))


def lower_split(edge: Scenario, remote: Scenario, link: NetworkLink | str, *,
                cut_index: int | None = None,
                runner: "Runner | None" = None) -> Deployment:
    """Lower one (edge scenario, remote scenario, link) split to a Deployment.

    With ``cut_index`` the cut at that index is lowered; otherwise the
    latency-optimal cut is chosen (the first one on ties).  The all-edge
    cut normalizes to a single-node deployment; every other cut becomes a
    two-stage ``"split"`` deployment.
    """
    link = resolve_link(link)
    rows, schedulable, edge_side, remote_side = _split_context(
        edge, remote, link, runner)
    if cut_index is None:
        cut_index = _best_index(rows)
    return _deployment_from_split(
        rows[cut_index], edge, remote, schedulable, link, edge_side,
        remote_side)


def split_deployments(edge: Scenario, remote: Scenario,
                      link: NetworkLink | str, *,
                      runner: "Runner | None" = None) -> list[Deployment]:
    """Lower the FULL cut sweep, input-side cut first.

    ``[0]`` is the all-remote split and ``[-1]`` the all-edge single-node
    deployment.  One Runner session per side prices every cut (one
    prefix-sum sweep), so enumerating all placements of a pair costs no
    more than pricing its best one.
    """
    link = resolve_link(link)
    rows, schedulable, edge_side, remote_side = _split_context(
        edge, remote, link, runner)
    return [_deployment_from_split(row, edge, remote, schedulable, link,
                                   edge_side, remote_side)
            for row in rows]
