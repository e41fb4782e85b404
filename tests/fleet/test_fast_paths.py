"""The fleet's fast paths against their oracles, at zero tolerance.

``tests/fleet/oracles.py`` keeps the straightforward algorithms: the
64-step numpy bisection water-fill, the two-argsort grouping of an
epoch's arrivals, the list-per-batch greedy advance and the
one-call-per-percentile sojourn summary.  Every property here asserts
exact equality — the same integers, the same floats — since fleet
reports are byte-identical artifacts.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fleet.router as router_module
from repro.fleet import ROUTER_POLICIES, RoutingView, make_router
from repro.fleet.cluster import NodeState, ServiceProfile
from repro.fleet.report import SojournSummary
from repro.fleet.router import group_by_node, water_fill
from repro.fleet.simulate import _advance_batched
from repro.hardware import load_device

from tests.fleet import oracles

LIMIT_CHOICES = (np.inf, 0.0, 1.0, 3.0, 17.5, 250.0)


@st.composite
def fill_problems(draw):
    """(count, base, limits) over the shapes the routers hand water_fill."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["counts", "ints", "round-robin", "floats"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "counts":  # least-outstanding: queue depths as floats
        base = rng.integers(0, 60, n).astype(np.float64)
    elif kind == "ints":  # integer dtype straight through
        base = rng.integers(0, 8, n)
    elif kind == "round-robin":  # ~1e-9 rotation tie-breakers
        offset = int(rng.integers(0, n))
        base = (np.arange(n) - offset) % n / n * 1e-9
    else:
        base = rng.random(n) * draw(st.sampled_from([1e-6, 1.0, 1e3]))
    if draw(st.booleans()):
        limits = np.full(n, np.inf)
    else:
        limits = rng.choice(LIMIT_CHOICES, n)
    count = draw(st.integers(0, 5000))
    return count, base, limits


def _views(n: int, rng: np.random.Generator, count: int) -> RoutingView:
    return RoutingView(
        outstanding=rng.integers(0, 40, n).astype(np.float64),
        limits=rng.choice(LIMIT_CHOICES, n),
        energy_per_request_j=rng.choice([0.1, 0.5, 0.5, 2.0], n),
        # Spare capacity below the epoch's count forces the energy-aware
        # leftover water-fill.
        capacity=rng.random(n) * count / max(n, 1))


class TestWaterFill:
    @given(problem=fill_problems())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_bisection_oracle(self, problem):
        count, base, limits = problem
        fast = water_fill(count, base, limits)
        slow = oracles.water_fill(count, base, limits)
        assert fast.dtype == slow.dtype
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("name", sorted(ROUTER_POLICIES))
    @given(n=st.integers(1, 300), count=st.integers(1, 4000),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_policy_matches_with_the_oracle_inside(self, name, n,
                                                         count, seed):
        view = _views(n, np.random.default_rng(seed), count)
        fast = make_router(name).quotas(view, count)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(router_module, "water_fill", oracles.water_fill)
            slow = make_router(name).quotas(view, count)
        assert np.array_equal(fast, slow)


class TestGroupByNode:
    @given(quotas=st.lists(st.integers(0, 40), min_size=1, max_size=300),
           spare=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_two_argsort_grouping(self, quotas, spare, seed):
        quotas = np.asarray(quotas, dtype=np.int64)
        rng = np.random.default_rng(seed)
        times = np.sort(rng.random(int(quotas.sum()) + spare) * 10.0)
        fast = np.split(group_by_node(times, quotas), np.cumsum(quotas)[:-1])
        slow = oracles.route_chunks(times, quotas)
        assert len(fast) == len(slow)
        for mine, theirs in zip(fast, slow):
            assert np.array_equal(mine, theirs)


def _batched_node(wall_s: list[float], free_at_s: float,
                  scale: float) -> NodeState:
    profile = ServiceProfile(
        batch_wall_s=tuple(wall_s), max_batch=len(wall_s), power_w=5.0,
        idle_w=1.0, init_time_s=0.0,
        thermal=load_device("Jetson Nano").thermal, cell_seed=0)
    return NodeState(pool="pool", index=0, profile=profile,
                     free_at_s=free_at_s, throttle_scale=scale)


class TestAdvanceBatched:
    @given(max_batch=st.integers(2, 8), rate=st.floats(0.2, 20.0),
           scale=st.sampled_from([1.0, 1.0 / 0.6, 1.25]),
           epochs=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_list_per_batch_oracle(self, max_batch, rate, scale,
                                               epochs, seed):
        rng = np.random.default_rng(seed)
        # Per-inference time shrinking with batch size, like the engine's.
        wall_s = [0.05 * batch * (0.6 + 0.4 / batch)
                  for batch in range(1, max_batch + 1)]
        arrivals = np.cumsum(rng.exponential(1.0 / rate, 400))
        fast = _batched_node(wall_s, float(rng.random()), scale)
        slow = copy.deepcopy(fast)
        edges = np.linspace(0.0, float(arrivals[-1]), epochs + 1)[1:]
        cursor = 0
        for end_s in [*edges.tolist(), np.inf]:
            upto = int(np.searchsorted(arrivals, end_s))
            for node in (fast, slow):
                node.assign(arrivals[cursor:upto].tolist())
            cursor = upto
            mine = _advance_batched(fast, end_s)
            theirs = oracles.advance_batched(slow, end_s)
            assert np.array_equal(mine, theirs)
            for field in ("head", "free_at_s", "busy_s", "epoch_busy_s",
                          "completed", "batches"):
                assert getattr(fast, field) == getattr(slow, field), field
        assert fast.completed == arrivals.size


class TestSojournSummary:
    @given(size=st.integers(1, 3000), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_one_partition_matches_one_call_per_percentile(self, size, ties,
                                                           seed):
        sojourn_s = np.random.default_rng(seed).exponential(0.05, size)
        if ties:
            sojourn_s = np.round(sojourn_s, 3)
        summary = SojournSummary.from_times(sojourn_s)
        assert [summary.p50_s, summary.p95_s, summary.p99_s,
                summary.p999_s] == oracles.sojourn_percentiles(sojourn_s)
