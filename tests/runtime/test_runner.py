"""Runner behaviour: old-path equivalence, batch API, candidate search."""

import re

import pytest

from repro.core.errors import ReproError, UnknownEntryError
from repro.engine.cache import cache_stats, cached_deploy, clear_caches
from repro.engine.executor import InferenceSession
from repro.harness.figures import measurement_seed
from repro.measurement.timer import InferenceTimer
from repro.runtime import Runner, Scenario, default_runner
from tests.runtime.oracles import scalar_record

# Cells covering four devices and both timer regimes; VGG16-on-RPi-TF is the
# canonical Table V memory failure.
SAMPLE_CELLS = (
    ("ResNet-18", "Jetson Nano", "TensorRT"),
    ("MobileNet-v2", "EdgeTPU", "TFLite"),
    ("ResNet-18", "Jetson TX2", "PyTorch"),
    ("MobileNet-v2", "Raspberry Pi 3B", "TFLite"),
)


def legacy_latency_s(model: str, device: str, framework: str,
                     use_timer: bool = True) -> float:
    """The pre-Runner measurement pipeline, inlined verbatim."""
    session = InferenceSession(cached_deploy(model, device, framework))
    if use_timer:
        timer = InferenceTimer(seed=measurement_seed(model, device, framework))
        return float(timer.measure(session))
    return session.latency_s


def _cold_pair(scenario: Scenario, **kwargs):
    """(compiled record, scalar-oracle record), each from cold caches."""
    clear_caches()
    expected = scalar_record(default_runner(), scenario, **kwargs)
    clear_caches()
    return default_runner().run(scenario, **kwargs), expected


class TestOldPathEquivalence:
    @pytest.mark.parametrize("cell", SAMPLE_CELLS)
    def test_timed_latency_matches_legacy_exactly(self, cell):
        record, expected = _cold_pair(Scenario(*cell))
        assert record.ok
        assert record.latency_s == legacy_latency_s(*cell)  # zero tolerance
        assert record == expected

    @pytest.mark.parametrize("cell", SAMPLE_CELLS)
    def test_plan_latency_matches_legacy_exactly(self, cell):
        record, expected = _cold_pair(Scenario(*cell), use_timer=False)
        assert record.latency_s == legacy_latency_s(*cell, use_timer=False)
        assert record == expected

    def test_measure_matches_record_latency(self):
        scenario = Scenario(*SAMPLE_CELLS[0])
        runner = default_runner()
        expected = scalar_record(runner, scenario)
        assert runner.measure(scenario) == expected.latency_s
        assert runner.measure(scenario, use_timer=False) == (
            scalar_record(runner, scenario, use_timer=False).latency_s)

    def test_latency_independent_of_cache_state(self):
        cell = SAMPLE_CELLS[0]
        clear_caches()
        cold = default_runner().run(Scenario(*cell))
        warm = default_runner().run(Scenario(*cell))
        assert cold.provenance.deploy_cache == "miss"
        assert warm.provenance.deploy_cache == "hit"
        assert cold.latency_s == warm.latency_s


class TestMeasure:
    def test_failure_raises_repro_error_naming_the_scenario(self):
        scenario = Scenario("VGG16", "Raspberry Pi 3B", "TensorFlow")
        with pytest.raises(ReproError,
                           match=re.escape(scenario.describe())) as excinfo:
            default_runner().measure(scenario)
        assert type(excinfo.value) is ReproError

    def test_measure_leaves_a_record_a_later_run_hits(self):
        scenario = Scenario(*SAMPLE_CELLS[1])
        clear_caches()
        runner = default_runner()
        latency_s = runner.measure(scenario)
        hits = cache_stats()["record"]["hits"]
        record = runner.run(scenario)
        assert cache_stats()["record"]["hits"] == hits + 1
        assert record.latency_s == latency_s


class TestBatchAPI:
    def test_parallel_equals_serial(self):
        scenarios = [Scenario(*cell) for cell in SAMPLE_CELLS]
        runner = default_runner()
        serial = runner.run_cells(scenarios)
        threaded = runner.run_cells(scenarios, jobs=4)
        assert [r.latency_s for r in threaded] == [r.latency_s for r in serial]
        assert [r.scenario for r in threaded] == [r.scenario for r in serial]

    def test_process_pool_equals_serial(self):
        scenarios = [Scenario(*cell) for cell in SAMPLE_CELLS[:2]]
        runner = default_runner()
        serial = runner.run_cells(scenarios)
        forked = runner.run_cells(scenarios, jobs=2, executor="process")
        assert [r.latency_s for r in forked] == [r.latency_s for r in serial]

    def test_failures_travel_as_records(self):
        scenarios = [Scenario("VGG16", "Raspberry Pi 3B", "TensorFlow"),
                     Scenario(*SAMPLE_CELLS[0])]
        records = default_runner().run_cells(scenarios, jobs=2)
        assert records[0].failed
        assert records[0].failure.kind == "memory_error"
        assert records[1].ok

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            default_runner().run_cells([], executor="rayon")


class TestCandidateSearch:
    def test_unknown_device_is_structured_error(self):
        with pytest.raises(UnknownEntryError):
            default_runner().candidates_for("Coral Dev Board Mega")
        # still catchable the old mapping way, but as a ReproError too
        with pytest.raises(ReproError):
            default_runner().best_latency("ResNet-18", "Coral Dev Board Mega")

    def test_candidates_canonicalize(self):
        runner = default_runner()
        assert runner.candidates_for("jetson-nano") == runner.candidates_for(
            "Jetson Nano")

    def test_best_latency_picks_fastest_candidate(self):
        runner = default_runner()
        best = runner.best_latency("ResNet-18", "Jetson Nano")
        assert best is not None
        framework, latency_s = best
        for candidate in runner.candidates_for("Jetson Nano"):
            record = runner.run(Scenario("ResNet-18", "Jetson Nano", candidate))
            if record.ok:
                assert latency_s <= record.latency_s

    def test_first_session_skips_failures(self):
        result = default_runner().first_session("VGG16", "Raspberry Pi 3B")
        assert result is not None
        framework, session = result
        assert framework != "TensorFlow" or session is not None


class TestScenarioAxes:
    def test_containerized_record_reports_overhead(self):
        record = default_runner().run(
            Scenario("MobileNet-v2", "Jetson TX2", "PyTorch",
                     containerized=True))
        assert record.ok
        assert record.container_overhead is not None
        assert 0.0 < record.container_overhead <= 0.05 + 1e-12
        bare = default_runner().run(
            Scenario("MobileNet-v2", "Jetson TX2", "PyTorch"))
        assert record.model_latency_s > bare.model_latency_s

    def test_power_mode_bypasses_deploy_cache(self):
        record = default_runner().run(
            Scenario("ResNet-18", "Jetson TX2", "PyTorch",
                     power_mode="Max-Q"), use_timer=False)
        assert record.ok
        assert record.provenance.deploy_cache == "bypass"

    def test_runner_is_picklable(self):
        import pickle

        runner = pickle.loads(pickle.dumps(Runner()))
        assert runner.run(Scenario(*SAMPLE_CELLS[0]), use_timer=False).ok
