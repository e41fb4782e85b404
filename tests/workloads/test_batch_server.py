"""Dynamic-batching server."""

import numpy as np
import pytest

from repro.fleet import PoolSpec, resolve_profiles
from repro.runtime import Scenario
from repro.workloads import (
    PoissonArrivals,
    simulate_batch_serving,
    simulate_serving,
)


def _engine_profile(max_batch: int):
    """ResNet-50 on an RTX 2080, priced for every batch up to ``max_batch``."""
    pool = PoolSpec(name="rtx", replicas=1, max_batch=max_batch,
                    scenario=Scenario("ResNet-50", "RTX 2080", "PyTorch"))
    return resolve_profiles([pool])[pool.name]


def _linear_batch_time(per_item: float, setup: float = 0.0):
    """Synthetic batch model: setup + per_item * batch (perfect batching
    amortizes setup)."""
    return lambda batch: setup + per_item * batch


class TestMechanics:
    def test_batch_one_matches_fifo(self):
        arrivals = PoissonArrivals(20.0, seed=1).generate(60.0)
        fifo = simulate_serving(arrivals, 0.02)
        batched = simulate_batch_serving(arrivals, _linear_batch_time(0.02), 1)
        assert batched.mean_sojourn_s == pytest.approx(fifo.mean_sojourn_s)
        assert batched.mean_batch_size == 1.0

    def test_simultaneous_burst_forms_one_batch(self):
        stats = simulate_batch_serving(np.zeros(8), _linear_batch_time(0.01), 16)
        assert stats.batches == 1
        assert stats.max_batch_observed == 8

    def test_max_batch_respected(self):
        stats = simulate_batch_serving(np.zeros(10), _linear_batch_time(0.01), 4)
        assert stats.max_batch_observed <= 4
        assert stats.batches == 3  # 4 + 4 + 2

    def test_p999_tracks_the_sojourn_tail(self):
        arrivals = PoissonArrivals(80.0, seed=5).generate(60.0)
        stats = simulate_batch_serving(arrivals, _linear_batch_time(0.01), 8)
        assert stats.p99_sojourn_s <= stats.p999_sojourn_s
        # Deterministic burst: every sojourn identical, so all tails agree.
        burst = simulate_batch_serving(np.zeros(8), _linear_batch_time(0.01), 16)
        assert burst.p999_sojourn_s == pytest.approx(burst.p99_sojourn_s)

    def test_low_load_stays_unbatched(self):
        arrivals = np.arange(0.0, 10.0, 1.0)  # 1 Hz vs 10 ms service
        stats = simulate_batch_serving(arrivals, _linear_batch_time(0.01), 32)
        assert stats.mean_batch_size == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_batch_serving(np.array([]), _linear_batch_time(0.01), 4)
        with pytest.raises(ValueError):
            simulate_batch_serving(np.array([1.0, 0.0]), _linear_batch_time(0.01), 4)
        with pytest.raises(ValueError):
            simulate_batch_serving(np.zeros(2), _linear_batch_time(0.01), 0)


class TestBatchingPaysOff:
    def test_heavy_load_tail_latency_collapses_with_batching(self):
        """Near the unbatched capacity, batching eats the queue: p99 drops
        by an order of magnitude."""
        arrivals = PoissonArrivals(80.0, seed=2).generate(30.0)
        batch_time = _linear_batch_time(per_item=0.002, setup=0.01)
        unbatched = simulate_batch_serving(arrivals, batch_time, 1)
        batched = simulate_batch_serving(arrivals, batch_time, 32)
        assert batched.p99_sojourn_s < unbatched.p99_sojourn_s / 5
        assert batched.mean_batch_size > 1.1

    def test_overload_throughput_raised_by_amortization(self):
        """Beyond unbatched capacity (83 rps here), only batching keeps up."""
        arrivals = PoissonArrivals(150.0, seed=4).generate(30.0)
        batch_time = _linear_batch_time(per_item=0.002, setup=0.01)
        unbatched = simulate_batch_serving(arrivals, batch_time, 1)
        batched = simulate_batch_serving(arrivals, batch_time, 32)
        assert unbatched.utilization > 0.99
        assert batched.throughput_rps > 1.5 * unbatched.throughput_rps
        assert batched.mean_batch_size > 2.0

    def test_engine_backed_batching_on_hpc(self):
        """RTX 2080 under a 300 rps stream: the engine's batch speedup is
        what keeps the queue bounded."""
        batch_time = _engine_profile(32).batch_time_s
        arrivals = PoissonArrivals(300.0, seed=3).generate(20.0)
        unbatched = simulate_batch_serving(arrivals, batch_time, 1)
        batched = simulate_batch_serving(arrivals, batch_time, 32)
        # Single-batch capacity is ~123 rps: the unbatched server saturates.
        assert unbatched.utilization > 0.99
        assert batched.throughput_rps > 2 * unbatched.throughput_rps
        assert batched.p99_sojourn_s < unbatched.p99_sojourn_s / 5

    def test_profile_batch_times_amortize(self):
        profile = _engine_profile(8)
        fn = profile.batch_time_s
        assert profile.max_batch == 8
        # Per-batch time grows with batch, per-item time shrinks.
        assert fn(8) > fn(1)
        assert fn(8) / 8 < fn(1)
