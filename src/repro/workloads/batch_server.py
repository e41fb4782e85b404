"""Dynamic-batching server simulation.

The paper's Section VI-C contrast — single-batch edge vs batched cloud —
meets the request stream here: a server that, whenever it frees up, grabs
every queued request (up to ``max_batch``) and runs them as one batch.
Batching raises throughput via the engine's weight-amortization and
unit-fill effects, at the cost of queueing the requests that form the
batch.  Engine-backed batch times come from a fleet pool's resolved
profile (:meth:`repro.fleet.cluster.ServiceProfile.batch_time_s`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class BatchServerStats:
    """Outcome of a dynamic-batching run."""

    requests: int
    batches: int
    mean_batch_size: float
    max_batch_observed: int
    throughput_rps: float
    mean_sojourn_s: float
    p99_sojourn_s: float
    p999_sojourn_s: float
    utilization: float


def simulate_batch_serving(
    arrival_times: np.ndarray,
    batch_time_fn: Callable[[int], float],
    max_batch: int,
) -> BatchServerStats:
    """Greedy dynamic batching: when free, serve everything queued (<= max).

    Args:
        arrival_times: sorted arrival instants.
        batch_time_fn: batch size -> seconds to complete that batch.
        max_batch: upper bound on one batch.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    if arrivals.size == 0:
        raise ValueError("no arrivals to serve")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be sorted")
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")

    index = 0
    now = 0.0
    busy_s = 0.0
    sojourns: list[float] = []
    batch_sizes: list[int] = []
    n = arrivals.size
    # The serving loop runs once per batch — plain floats and bisect keep
    # it out of per-element ndarray dispatch (identical doubles either way).
    instants = arrivals.tolist()
    while index < n:
        if instants[index] > now:
            now = instants[index]  # idle until work exists
        # Everything that has arrived by `now` is queued; grab up to max.
        queued_end = bisect.bisect_right(instants, now)
        batch = min(max_batch, queued_end - index)
        batch = max(batch, 1)
        duration = batch_time_fn(batch)
        finish = now + duration
        sojourns.extend(finish - instant
                        for instant in instants[index:index + batch])
        busy_s += duration
        batch_sizes.append(batch)
        index += batch
        now = finish

    horizon = max(now, float(arrivals[-1]))
    sojourn_array = np.asarray(sojourns)
    return BatchServerStats(
        requests=n,
        batches=len(batch_sizes),
        mean_batch_size=float(np.mean(batch_sizes)),
        max_batch_observed=max(batch_sizes),
        throughput_rps=n / horizon,
        mean_sojourn_s=float(sojourn_array.mean()),
        p99_sojourn_s=float(np.percentile(sojourn_array, 99)),
        p999_sojourn_s=float(np.percentile(sojourn_array, 99.9)),
        utilization=float(busy_s / horizon),
    )
