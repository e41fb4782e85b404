"""Routing policies: who serves the next epoch's arrivals.

The simulator routes per *epoch*, not per request: at each epoch boundary
a policy sees a snapshot of every node (:class:`RoutingView`) and returns
an integer quota per node; the epoch's arrivals are then spread across
nodes by an order-preserving interleave, so each node receives its share
as a FIFO subsequence of the arrival stream.  Quotas are capped by the
admission limits in the view — a policy can also return fewer than
``count`` total, and the simulator drops the overflow (admission
control).

All policies are deterministic: same view, same quotas.  The water-fill
solver and the interleave are vectorized — routing a million requests
costs a few array ops per epoch, not a million policy calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RoutingView:
    """What a policy is allowed to see at one epoch boundary.

    Attributes:
        outstanding: per-node queued + in-service request counts.
        limits: per-node admission headroom (new requests the node may
            accept this epoch; ``inf`` = unbounded).
        energy_per_request_j: per-node active energy of one request.
        capacity: per-node requests servable this epoch at full batch
            without growing the queue.
    """

    outstanding: np.ndarray
    limits: np.ndarray
    energy_per_request_j: np.ndarray
    capacity: np.ndarray

    @property
    def node_count(self) -> int:
        return int(self.outstanding.size)


class Router:
    """Base policy: subclasses override :meth:`quotas`."""

    name = "base"

    def quotas(self, view: RoutingView, count: int) -> np.ndarray:
        """Integer assignments per node, summing to at most ``count``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any cross-epoch state (round-robin offsets etc.)."""


#: Offsets, in units of the level's ulp, probed around the analytic level.
_BRACKET = np.arange(-32.0, 33.0)


def water_fill(count: int, base: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Split ``count`` across nodes, equalizing ``base + quota``.

    The classic water-filling allocation with per-node caps: find the
    level ``L`` such that ``sum(clip(L - base, 0, limits)) == count`` and
    hand out the integer floor, then distribute the remainder to the
    nodes with the largest fractional parts (ties broken by index, so the
    split is deterministic).  Returns quotas summing to
    ``min(count, sum(limits))``.

    The level is the last ``high`` of a 64-step bisection whose predicate
    is the float ``clip(mid - base, 0, limits).sum() >= count``.  That
    predicate is monotone in ``mid`` (subtraction, clip and float sums all
    are), so one 2-D evaluation on the doubles around the analytic level
    brackets its switch point, and the halvings replay on plain floats;
    numpy runs only for a mid strictly inside the bracket.
    """
    limits = np.minimum(limits, float(count))
    total_cap = float(limits.sum())
    if total_cap <= count:
        return limits.astype(np.int64)
    ends = base + limits
    low = float(base.min())
    high = float(ends.max())
    # Supply is piecewise linear: slope +1 past each base, -1 past each end.
    points = np.concatenate((base, ends))
    order = np.argsort(points, kind="stable")
    points = points[order]
    slope = np.cumsum(np.where(order < base.size, 1.0, -1.0))
    supply = np.cumsum(slope[:-1] * np.diff(points))
    segment = min(int(np.searchsorted(supply, count)), supply.size - 1)
    below = float(supply[segment - 1]) if segment else 0.0
    # A crossing segment rises (slope >= 1); the floor only guards rounding.
    level = (float(points[segment])
             + (count - below) / max(float(slope[segment]), 1.0))
    probes = level + _BRACKET * np.spacing(abs(level))
    hits = np.clip(probes[:, None] - base, 0.0, limits).sum(axis=1) >= count
    first = int(np.searchsorted(hits, True))
    false_at = float(probes[first - 1]) if first else -np.inf
    true_at = float(probes[first]) if first < probes.size else np.inf
    for _ in range(64):
        mid = 0.5 * (low + high)
        if mid <= false_at:
            low = mid
        elif mid >= true_at:
            high = mid
        elif np.clip(mid - base, 0.0, limits).sum() < count:
            low = false_at = mid
        else:
            high = true_at = mid
    exact = np.clip(high - base, 0.0, limits)
    quotas = np.floor(exact).astype(np.int64)
    shortfall = count - int(quotas.sum())
    if shortfall > 0:
        fractional = exact - quotas
        fractional = np.where(quotas < limits, fractional, -1.0)
        order = np.lexsort((np.arange(base.size), -fractional))
        quotas[order[:shortfall]] += 1
    return quotas


def _merge_order(quotas: np.ndarray) -> np.ndarray:
    """Entry ``k``: the node-grouped index of the request in arrival slot ``k``.

    Each node's ``q`` requests sit at evenly spaced virtual positions
    ``(k + 0.5) / q``; a stable argsort merges them.
    """
    total = int(quotas.sum())
    offsets = np.repeat(np.cumsum(quotas) - quotas, quotas)
    within = np.arange(total, dtype=np.float64) - offsets
    positions = (within + 0.5) / np.repeat(quotas, quotas)
    return np.argsort(positions, kind="stable")


def interleave(quotas: np.ndarray) -> np.ndarray:
    """Node index per arrival, spreading each node's share evenly.

    The merge of evenly spaced per-node positions keeps every node's
    arrivals in FIFO order and no node's share clumps at one end of the
    epoch.
    """
    node_ids = np.repeat(np.arange(quotas.size, dtype=np.int64), quotas)
    return node_ids[_merge_order(quotas)]


def group_by_node(times: np.ndarray, quotas: np.ndarray) -> np.ndarray:
    """The first ``sum(quotas)`` arrival times, regrouped node by node.

    Node 0's share comes first, then node 1's, each in FIFO order: the
    arrivals :func:`interleave` hands each node.  Scattering through the
    merge permutation inverts it, so no second sort is needed.
    """
    total = int(quotas.sum())
    grouped = np.empty(total, dtype=np.float64)
    grouped[_merge_order(quotas)] = times[:total]
    return grouped


class RoundRobinRouter(Router):
    """Blind even split, rotating which node takes the remainder."""

    name = "round-robin"

    def __init__(self) -> None:
        self._offset = 0

    def reset(self) -> None:
        self._offset = 0

    def quotas(self, view: RoutingView, count: int) -> np.ndarray:
        n = view.node_count
        rotation = (np.arange(n) - self._offset) % n
        quotas = water_fill(count, rotation / max(n, 1) * 1e-9, view.limits)
        self._offset = (self._offset + count) % max(n, 1)
        return quotas


class LeastOutstandingRouter(Router):
    """Join-the-shortest-queue at epoch granularity.

    Water-fills on current outstanding counts, so lightly loaded nodes
    absorb more of the epoch and the fleet's queues stay level.
    """

    name = "least-outstanding"

    def quotas(self, view: RoutingView, count: int) -> np.ndarray:
        return water_fill(count, view.outstanding.astype(np.float64),
                          view.limits)


class EnergyAwareRouter(Router):
    """Cheapest joules-per-request first, spilling over on saturation.

    Nodes are ranked by active energy per request; each takes up to its
    spare capacity this epoch before the next-cheapest is touched.
    Overflow beyond the fleet's total capacity water-fills over the
    remaining admission headroom in the same energy order, so sustained
    overload degrades into balanced queueing instead of melting the
    single cheapest node.
    """

    name = "energy-aware"

    def quotas(self, view: RoutingView, count: int) -> np.ndarray:
        order = np.lexsort((np.arange(view.node_count),
                            view.energy_per_request_j))
        caps = np.minimum(view.capacity, view.limits)[order]
        cumulative = np.cumsum(caps)
        fill = np.clip(count - (cumulative - caps), 0.0, caps)
        quotas = np.zeros(view.node_count, dtype=np.int64)
        quotas[order] = fill.astype(np.int64)
        leftover = count - int(quotas.sum())
        if leftover > 0:
            headroom = view.limits - quotas
            rank = np.empty(view.node_count, dtype=np.float64)
            rank[order] = np.arange(view.node_count, dtype=np.float64)
            quotas += water_fill(leftover, rank, headroom)
        return quotas


ROUTER_POLICIES: dict[str, type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastOutstandingRouter.name: LeastOutstandingRouter,
    EnergyAwareRouter.name: EnergyAwareRouter,
}


def make_router(name: str) -> Router:
    """Instantiate a policy by its registry name."""
    try:
        return ROUTER_POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(ROUTER_POLICIES))
        raise ValueError(f"unknown router policy {name!r}; known: {known}") from None
