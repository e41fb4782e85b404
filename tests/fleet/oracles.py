"""Reference implementations the fleet's fast paths must match exactly.

These are the straightforward versions of four hot-path algorithms, kept
only as test oracles: the 64-step numpy bisection water-fill, the
two-argsort grouping of an epoch's arrivals by node, the greedy batched
advance written with per-batch lists, and one ``np.percentile`` call per
reported sojourn percentile.  The production code in ``repro.fleet``
computes the same floats by cheaper means; the property tests compare
the two at zero tolerance.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.fleet.cluster import NodeState
from repro.fleet.router import interleave


def water_fill(count: int, base: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Water-fill by bisecting the level with one numpy clip/sum per step."""
    limits = np.minimum(limits, float(count))
    total_cap = float(limits.sum())
    if total_cap <= count:
        return limits.astype(np.int64)
    low = float(base.min())
    high = float((base + limits).max())
    for _ in range(64):
        mid = 0.5 * (low + high)
        supplied = np.clip(mid - base, 0.0, limits).sum()
        if supplied < count:
            low = mid
        else:
            high = mid
    exact = np.clip(high - base, 0.0, limits)
    quotas = np.floor(exact).astype(np.int64)
    shortfall = count - int(quotas.sum())
    if shortfall > 0:
        fractional = exact - quotas
        fractional = np.where(quotas < limits, fractional, -1.0)
        order = np.lexsort((np.arange(base.size), -fractional))
        quotas[order[:shortfall]] += 1
    return quotas


def route_chunks(epoch_times: np.ndarray,
                 quotas: np.ndarray) -> list[np.ndarray]:
    """Each node's share of an epoch: interleave, then a stable argsort."""
    total = int(quotas.sum())
    admitted = epoch_times[:total]
    assignment = interleave(quotas)
    order = np.argsort(assignment, kind="stable")
    return np.split(admitted[order], np.cumsum(quotas)[:-1])


def advance_batched(node: NodeState, epoch_end_s: float) -> np.ndarray:
    """Greedy dynamic batching, one list append per batch."""
    profile = node.profile
    scale = node.throttle_scale
    wall_s = profile.batch_wall_s
    max_batch = profile.max_batch
    pending = node.pending
    total = len(pending)
    head = node.head
    idx = head
    if idx >= total:
        return np.empty(0, dtype=np.float64)
    now_s = node.free_at_s
    finishes: list[float] = []
    sizes: list[int] = []
    busy_s = 0.0
    while idx < total:
        first = pending[idx]
        start_s = first if first > now_s else now_s
        if start_s >= epoch_end_s:
            break
        size = bisect.bisect_right(pending, start_s, idx, total) - idx
        if size > max_batch:
            size = max_batch
        duration_s = wall_s[size - 1] * scale
        now_s = start_s + duration_s
        finishes.append(now_s)
        sizes.append(size)
        busy_s += duration_s
        idx += size
    served = idx - head
    if not served:
        return np.empty(0, dtype=np.float64)
    arrivals = np.asarray(pending[head:idx])
    finish = np.repeat(finishes, sizes)
    node.head = idx
    node.free_at_s = now_s
    node.busy_s += busy_s
    node.epoch_busy_s += busy_s
    node.completed += served
    node.batches += len(sizes)
    return finish - arrivals


def sojourn_percentiles(sojourn_s: np.ndarray) -> list[float]:
    """p50, p95, p99 and p999, one partition of the sojourns each."""
    return [float(np.percentile(sojourn_s, percent))
            for percent in (50, 95, 99, 99.9)]
