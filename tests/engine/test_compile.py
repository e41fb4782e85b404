"""Sweep compiler: compiled grids are bit-identical to scalar references.

Three layers of the same claim, at zero tolerance everywhere:

* op level — ``time_op`` (scalar), ``lower_specs`` on one spec and the
  grid lowering (all plans in one array program) price every op of every
  zoo model to the same IEEE-754 doubles;
* record level — ``Runner.run_grid`` and ``Runner.run`` return the same
  ``RunRecord`` values as the scalar session/timer/meter oracle
  (``tests/runtime/oracles.py``), including failures, batch sizes, dtypes,
  containerized cells, non-default power modes, pruned graphs, energy
  meters and timing-loop overrides;
* composition level (hypothesis) — which other cells share the batch, and
  in what order, never changes any cell's record.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compile as sweep_compile
from repro.graphs.transforms import prune_graph
from repro.engine.cache import clear_caches, set_caching
from repro.engine.compile import deploy_scenario
from repro.engine.executor import EngineConfig, lower_specs, resolve_plan_spec
from repro.engine.roofline import time_op
from repro.measurement.energy import EnergyMeter
from repro.models import load_model
from repro.models.zoo import list_models
from repro.runtime import Runner, Scenario
from tests.runtime.oracles import scalar_record

pytestmark = pytest.mark.usefixtures("fresh_caches")


@pytest.fixture()
def fresh_caches():
    clear_caches()
    sweep_compile.reset_compile_stats()
    yield
    clear_caches()
    sweep_compile.reset_compile_stats()


def _strip_deploy_provenance(record):
    """Records modulo the deploy-cache outcome, which legitimately depends
    on what ran earlier in the process (hit vs miss)."""
    from dataclasses import replace

    return replace(record, provenance=replace(record.provenance, deploy_cache=""))


MIXED_CELLS = [
    Scenario("ResNet-18", "Jetson TX2", "PyTorch"),
    Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite"),
    Scenario("ResNet-18", "Jetson TX2", "PyTorch"),  # in-grid duplicate
    Scenario("ResNet-50", "GTX Titan X", "PyTorch", batch_size=4),
    Scenario("SSD MobileNet-v1", "Raspberry Pi 3B", "TensorFlow"),  # fails
    Scenario("Inception-v4", "Jetson Nano", "TensorRT", dtype="int8"),
    Scenario("MobileNet-v2", "Jetson TX2", "TensorFlow", power_mode="MAXN"),
    Scenario("ResNet-18", "Raspberry Pi 3B", "TensorFlow", containerized=True),
    Scenario("VGG16", "Raspberry Pi 3B", "PyTorch", batch_size=8),  # batch OOM
    Scenario("VGG16", "Raspberry Pi 3B", "TensorFlow"),  # Table V failure
]


def _oracle_records(cells, **kwargs):
    runner = Runner()
    return [scalar_record(runner, scenario, **kwargs) for scenario in cells]


class TestThreeWayOpEquivalence:
    """time_op == lower_specs == compiled grid, over the whole model zoo."""

    def test_full_zoo_lowered_bit_identical(self):
        scenarios = [Scenario(model, "Jetson TX2", "PyTorch")
                     for model in list_models()]
        program = sweep_compile.gather(scenarios)
        sweep_compile.lower(program)
        cells = sweep_compile.scatter(program)
        compiled = {cell.scenario.key: cell for cell in cells}
        checked = 0
        for scenario in scenarios:
            cell = compiled[scenario.key]
            if not cell.ok:
                continue
            deployed = deploy_scenario(scenario)
            # Recompute the one-spec plan outside every cache.
            spec = resolve_plan_spec(deployed, EngineConfig(), _scale(deployed))
            (scalar_plan,) = lower_specs([spec]).plans
            assert len(cell.plan.timings) == len(scalar_plan.timings)
            for lowered, one_plan, (op, efficiency) in zip(
                    cell.plan.timings, scalar_plan.timings,
                    zip(spec.ops, spec.efficiencies)):
                reference = time_op(
                    op, spec.inputs, efficiency,
                    exploit_sparsity=spec.exploit_sparsity,
                    per_op_overhead_s=spec.per_op_overhead_s,
                    batch_size=spec.batch_size,
                    include_memory_term=spec.include_memory_term)
                # Exact equality: all three paths must run the same float64
                # operations in the same order.
                assert lowered.compute_s == reference.compute_s == one_plan.compute_s
                assert lowered.memory_s == reference.memory_s == one_plan.memory_s
                assert lowered.dispatch_s == reference.dispatch_s == one_plan.dispatch_s
                assert lowered.bound == reference.bound == one_plan.bound
                checked += 1
        assert checked > 100  # the zoo is not trivially skipped


def _scale(deployed) -> float:
    from repro.engine.calibration import efficiency_scale

    return efficiency_scale(deployed.framework.name, deployed.device.name)


class TestRunGridMatchesRun:
    @pytest.mark.parametrize("use_timer", [True, False])
    def test_mixed_grid_records_equal_scalar_records(self, use_timer):
        clear_caches()
        scalar = _oracle_records(MIXED_CELLS, use_timer=use_timer)
        clear_caches()
        gridded = Runner().run_grid(MIXED_CELLS, use_timer=use_timer)
        assert gridded == scalar
        clear_caches()
        single = [Runner().run(s, use_timer=use_timer) for s in MIXED_CELLS]
        assert single == scalar

    def test_warm_replay_identical(self):
        # A second pass refreshes deploy provenance to "hit" exactly like a
        # scalar replay would; compare warm against warm.
        runner = Runner()
        runner.run_grid(MIXED_CELLS)
        warm_grid = runner.run_grid(MIXED_CELLS)
        assert warm_grid == _oracle_records(MIXED_CELLS)
        assert warm_grid == [runner.run(s) for s in MIXED_CELLS]
        assert warm_grid == runner.run_grid(MIXED_CELLS)

    def test_scalar_after_grid_hits_the_record_cache(self):
        runner = Runner()
        gridded = runner.run_grid(MIXED_CELLS)
        replayed = [runner.run(s) for s in MIXED_CELLS]
        assert ([_strip_deploy_provenance(r) for r in replayed]
                == [_strip_deploy_provenance(r) for r in gridded])
        from repro.engine.cache import cache_stats

        assert cache_stats()["record"]["hits"] >= len(MIXED_CELLS)

    def test_caching_disabled_still_identical(self):
        set_caching(False)
        try:
            scalar = _oracle_records(MIXED_CELLS, use_timer=False)
            gridded = Runner().run_grid(MIXED_CELLS, use_timer=False)
            single = [Runner().run(s, use_timer=False) for s in MIXED_CELLS]
        finally:
            set_caching(True)
        assert gridded == scalar
        assert single == scalar

    def test_failure_cells_round_trip(self):
        failing = Scenario("SSD MobileNet-v1", "Raspberry Pi 3B", "TensorFlow")
        record = Runner().run_grid([failing])[0]
        assert record.failed
        assert record.failure is not None
        assert record == scalar_record(Runner(), failing)


class TestRunMatchesOracle:
    """The inputs only ``Runner.run`` takes, against the scalar oracle."""

    @pytest.mark.parametrize("cell", MIXED_CELLS, ids=lambda s: s.key)
    @pytest.mark.parametrize("sparsity", [0.0, 0.75])
    def test_pruned_graph(self, cell, sparsity):
        graph = prune_graph(load_model(cell.model), sparsity)
        expected = scalar_record(Runner(), cell, use_timer=False, graph=graph)
        record = Runner().run(cell, use_timer=False, graph=graph)
        assert record == expected
        assert record.failed or record.provenance.deploy_cache == "bypass"

    def test_pruned_graph_never_touches_the_record_cache(self):
        from repro.engine.cache import cache_stats

        cell = MIXED_CELLS[0]
        graph = prune_graph(load_model(cell.model), 0.5)
        stock = Runner().run(cell, use_timer=False)
        before = cache_stats()["record"]
        pruned = Runner().run(cell, use_timer=False, graph=graph)
        after = cache_stats()["record"]
        assert (after["hits"], after["misses"], after["entries"]) == (
            before["hits"], before["misses"], before["entries"])
        assert pruned != stock
        replayed = Runner().run(cell, use_timer=False)
        assert replayed.provenance.deploy_cache == "hit"
        assert _strip_deploy_provenance(replayed) == _strip_deploy_provenance(stock)

    @pytest.mark.parametrize("cell", MIXED_CELLS, ids=lambda s: s.key)
    @pytest.mark.parametrize("use_timer", [True, False])
    def test_energy_meter(self, cell, use_timer):
        meter = EnergyMeter(seed=5)
        clear_caches()
        expected = scalar_record(Runner(), cell, use_timer=use_timer,
                                 energy_meter=meter)
        clear_caches()
        record = Runner().run(cell, use_timer=use_timer, energy_meter=meter)
        assert record == expected
        assert record.failed or record.energy_j > 0

    @pytest.mark.parametrize("cell", MIXED_CELLS, ids=lambda s: s.key)
    def test_n_runs(self, cell):
        clear_caches()
        expected = scalar_record(Runner(), cell, n_runs=7)
        clear_caches()
        record = Runner().run(cell, n_runs=7)
        assert record == expected
        if record.ok:
            assert record.stats.samples == 7
            # The override is part of the record-cache key.
            assert Runner().run(cell).stats.samples != 7


class TestCompositionIndependence:
    """Hypothesis: batching and dedup order never change any record."""

    POOL = MIXED_CELLS

    @given(subset=st.lists(st.integers(0, len(POOL) - 1),
                           min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_record_independent_of_batch_composition(self, subset):
        grid = [self.POOL[i] for i in subset]
        clear_caches()
        solo = {s.key: _strip_deploy_provenance(Runner().run(s, use_timer=False))
                for s in grid}
        clear_caches()
        batched = Runner().run_grid(grid, use_timer=False)
        for scenario, record in zip(grid, batched):
            assert _strip_deploy_provenance(record) == solo[scenario.key]


class TestCompileStats:
    def test_counters_shape(self):
        grid = MIXED_CELLS
        program = sweep_compile.gather(grid)
        sweep_compile.lower(program)
        cells, program_stats = sweep_compile.scatter(program), program.stats
        assert len(cells) == len(grid)
        assert program_stats.cells == len(grid)
        assert 0 < program_stats.unique_plans <= program_stats.cells
        assert program_stats.dedup_ratio == (
            program_stats.cells / program_stats.unique_plans)
        # A warm re-gather resolves every plan from the cache.
        warm = sweep_compile.gather(grid).stats
        assert warm.unique_plans == 0
        assert warm.plan_cache_hits > 0

    def test_lowered_program_counters(self):
        program = sweep_compile.gather(MIXED_CELLS)
        sweep_compile.lower(program)
        assert program.stats.array_programs >= 1
        assert program.stats.ops_lowered > 0
        assert program.stats.macs_lowered > 0
        # Wall-clock stats stay zero inside compile — the driver stamps them
        # (the ARCH005 contract).
        assert program.stats.gather_s == 0
        assert program.stats.lower_s == 0
        assert program.stats.scatter_s == 0

    def test_process_accumulator_records_and_resets(self):
        sweep_compile.reset_compile_stats()
        assert sweep_compile.compile_stats()["cells"] == 0
        program = sweep_compile.gather(MIXED_CELLS[:2])
        sweep_compile.lower(program)
        sweep_compile.record_compile(program.stats)
        totals = sweep_compile.compile_stats()
        assert totals["grids"] == 1
        assert totals["cells"] == 2
        sweep_compile.reset_compile_stats()
        assert sweep_compile.compile_stats()["grids"] == 0

    def test_dedup_ratio_defined_for_empty_grid(self):
        program = sweep_compile.gather([])
        assert program.stats.dedup_ratio == 1.0
