"""Architectural linter: the real tree is contract-clean; seeded snippets
report their stable rule ids; suppression works line-by-line."""

import textwrap

from repro.check import arch


def lint(snippet, path="src/repro/analysis/example.py"):
    return arch.lint_source(textwrap.dedent(snippet), path)


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestRealTreeIsClean:
    def test_package_lints_clean(self):
        assert arch.run() == []

    def test_package_root_is_the_installed_package(self):
        assert (arch.package_root() / "cli.py").exists()


class TestArch001SessionConstruction:
    SNIPPET = """
    from repro.engine.executor import InferenceSession

    def price(deployed):
        return InferenceSession(deployed).latency_s
    """

    def test_flagged_outside_the_runtime_layer(self):
        findings = lint(self.SNIPPET)
        assert rules_of(findings) == {"ARCH001"}
        assert findings[0].location == "repro/analysis/example.py:5"

    def test_allowed_inside_runtime_engine_and_measurement(self):
        for layer in ("runtime", "engine", "measurement"):
            assert lint(self.SNIPPET, f"src/repro/{layer}/example.py") == []

    def test_timer_construction_is_flagged_too(self):
        snippet = """
        from repro.measurement.timer import InferenceTimer

        timer = InferenceTimer(seed=7)
        """
        assert rules_of(lint(snippet)) == {"ARCH001"}

    def test_inline_suppression_silences_the_line(self):
        snippet = """
        from repro.engine.executor import InferenceSession

        def price(deployed):
            return InferenceSession(deployed).latency_s  # repro: allow[ARCH001]
        """
        assert lint(snippet) == []

    def test_suppressing_a_different_rule_does_not_help(self):
        snippet = """
        from repro.engine.executor import InferenceSession

        def price(deployed):
            return InferenceSession(deployed).latency_s  # repro: allow[ARCH003]
        """
        assert rules_of(lint(snippet)) == {"ARCH001"}


class TestArch002DeprecatedWrappers:
    def test_wrapper_call_is_flagged(self):
        snippet = """
        from repro.harness.figures import measurement_seed

        seed = measurement_seed("ResNet-18", "Jetson Nano", "TensorRT")
        """
        assert rules_of(lint(snippet)) == {"ARCH002"}

    def test_deploy_key_call_is_flagged_even_as_attribute(self):
        snippet = """
        from repro.engine import cache

        key = cache.deploy_key("m", "d", "f")
        """
        assert rules_of(lint(snippet)) == {"ARCH002"}

    def test_scenario_deploy_key_property_is_fine(self):
        snippet = """
        from repro.runtime import Scenario

        key = Scenario("m", "d", "f").deploy_key
        """
        assert lint(snippet) == []


class TestArch003FloatEquality:
    def test_float_literal_equality_is_flagged(self):
        assert rules_of(lint("ok = x == 0.5\n")) == {"ARCH003"}

    def test_float_literal_inequality_is_flagged(self):
        assert rules_of(lint("ok = temperature != 0.0\n")) == {"ARCH003"}

    def test_integer_equality_is_fine(self):
        assert lint("ok = x == 1\n") == []

    def test_ordering_comparisons_are_fine(self):
        assert lint("ok = x <= 0.5\n") == []

    def test_variable_equality_is_fine(self):
        assert lint("ok = x == other\n") == []


class TestArch004PurityContract:
    def test_random_call_in_pure_path_is_flagged(self):
        snippet = """
        import random

        def jitter():
            return random.random()
        """
        assert rules_of(lint(snippet, "src/repro/engine/example.py")) == {"ARCH004"}

    def test_from_import_alias_is_tracked(self):
        snippet = """
        from random import random

        def jitter():
            return random()
        """
        assert rules_of(lint(snippet, "src/repro/graphs/example.py")) == {"ARCH004"}

    def test_wall_clock_in_pure_path_is_flagged(self):
        snippet = """
        import time

        def stamp():
            return time.perf_counter()
        """
        assert rules_of(lint(snippet, "src/repro/frameworks/example.py")) == {"ARCH004"}

    def test_unseeded_default_rng_is_flagged(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng()
        """
        assert "ARCH004" in rules_of(lint(snippet, "src/repro/models/example.py"))

    def test_seeded_default_rng_is_fine(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)
        """
        assert lint(snippet, "src/repro/models/example.py") == []

    def test_random_outside_pure_paths_is_fine(self):
        snippet = """
        import random

        def jitter():
            return random.random()
        """
        assert lint(snippet, "src/repro/harness/example.py") == []


class TestArch005CompiledPathPurity:
    COMPILE = "src/repro/engine/compile.py"

    def test_session_construction_is_flagged_despite_engine_exemption(self):
        snippet = """
        from repro.engine.executor import InferenceSession

        def scatter(deployed):
            return InferenceSession(deployed).latency_s
        """
        assert rules_of(lint(snippet, self.COMPILE)) == {"ARCH005"}

    def test_timer_and_meter_construction_are_flagged(self):
        snippet = """
        from repro.measurement.energy import EnergyMeter
        from repro.measurement.timer import InferenceTimer

        timer = InferenceTimer(seed=7)
        meter = EnergyMeter(seed=7)
        """
        findings = lint(snippet, self.COMPILE)
        assert rules_of(findings) == {"ARCH005"}
        assert len(findings) == 2

    def test_seeded_rng_is_flagged_unlike_arch004(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)
        """
        assert rules_of(lint(snippet, self.COMPILE)) == {"ARCH005"}
        # The same snippet is fine one directory over — ARCH005 is stricter
        # than the engine-wide purity contract.
        assert lint(snippet, "src/repro/engine/example.py") == []

    def test_wall_clock_is_flagged_once_not_twice(self):
        snippet = """
        import time

        def stamp():
            return time.perf_counter()
        """
        findings = lint(snippet, self.COMPILE)
        assert rules_of(findings) == {"ARCH005"}
        assert len(findings) == 1

    def test_random_module_call_is_flagged(self):
        snippet = """
        import random

        def jitter():
            return random.random()
        """
        assert rules_of(lint(snippet, self.COMPILE)) == {"ARCH005"}

    def test_pure_lowering_code_is_clean(self):
        snippet = """
        import numpy as np

        def lower(macs, rate):
            return np.asarray(macs, dtype=float) / rate
        """
        assert lint(snippet, self.COMPILE) == []

    def test_other_engine_modules_are_not_held_to_arch005(self):
        snippet = """
        from repro.engine.executor import InferenceSession

        def build(deployed):
            return InferenceSession(deployed)
        """
        assert lint(snippet, "src/repro/engine/cache.py") == []

    def test_inline_suppression_works(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)  # repro: allow[ARCH005]
        """
        assert lint(snippet, self.COMPILE) == []


class TestArch006FleetDeterminism:
    FLEET = "src/repro/fleet/simulate.py"

    def test_seeded_rng_is_flagged_anywhere_in_the_fleet_layer(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)
        """
        assert rules_of(lint(snippet, self.FLEET)) == {"ARCH006"}
        assert rules_of(lint(snippet, "src/repro/fleet/router.py")) == {"ARCH006"}

    def test_wall_clock_is_flagged(self):
        snippet = """
        import time

        def stamp():
            return time.perf_counter()
        """
        findings = lint(snippet, self.FLEET)
        assert rules_of(findings) == {"ARCH006"}
        assert len(findings) == 1

    def test_random_module_and_from_import_are_flagged(self):
        snippet = """
        import random
        from uuid import uuid4

        def tag():
            return (random.random(), uuid4())
        """
        findings = lint(snippet, "src/repro/fleet/cluster.py")
        assert rules_of(findings) == {"ARCH006"}
        assert len(findings) == 2

    def test_from_import_after_the_call_is_tracked(self):
        snippet = """
        def jittered(t):
            return t + jitter()

        from random import random as jitter
        """
        assert rules_of(lint(snippet, "src/repro/fleet/sim.py")) == {"ARCH006"}

    def test_datetime_now_is_flagged(self):
        snippet = """
        import datetime

        stamp = datetime.now()
        """
        assert rules_of(lint(snippet, self.FLEET)) == {"ARCH006"}

    def test_session_construction_in_fleet_still_reports_arch001(self):
        snippet = """
        from repro.engine.executor import InferenceSession

        def price(deployed):
            return InferenceSession(deployed).latency_s
        """
        assert rules_of(lint(snippet, self.FLEET)) == {"ARCH001"}

    def test_simulated_time_arithmetic_is_clean(self):
        snippet = """
        import numpy as np

        def advance(pending, service_s, free_at_s):
            offsets = service_s * np.arange(pending.size)
            level = np.maximum.accumulate(pending - offsets)
            return offsets + service_s + np.maximum(free_at_s, level)
        """
        assert lint(snippet, self.FLEET) == []

    def test_outside_the_fleet_layer_seeded_rng_is_fine(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)
        """
        assert lint(snippet, "src/repro/workloads/arrivals.py") == []

    def test_inline_suppression_works(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)  # repro: allow[ARCH006]
        """
        assert lint(snippet, self.FLEET) == []


class TestArch007PlacementDeterminism:
    """The placement layer is held to the fleet's determinism contract
    under its own rule id — same inputs, same frontier."""

    OPTIMIZER = "src/repro/placement/optimizer.py"

    def test_seeded_rng_is_flagged_anywhere_in_the_placement_layer(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)
        """
        assert rules_of(lint(snippet, self.OPTIMIZER)) == {"ARCH007"}
        assert rules_of(lint(
            snippet, "src/repro/placement/deployment.py")) == {"ARCH007"}

    def test_wall_clock_is_flagged(self):
        snippet = """
        import time

        def stamp():
            return time.perf_counter()
        """
        findings = lint(snippet, self.OPTIMIZER)
        assert rules_of(findings) == {"ARCH007"}
        assert len(findings) == 1

    def test_random_module_and_from_import_are_flagged(self):
        snippet = """
        import random
        from uuid import uuid4

        def tag():
            return (random.random(), uuid4())
        """
        findings = lint(snippet, "src/repro/placement/cost.py")
        assert rules_of(findings) == {"ARCH007"}
        assert len(findings) == 2

    def test_datetime_now_is_flagged(self):
        snippet = """
        import datetime

        stamp = datetime.now()
        """
        assert rules_of(lint(snippet, self.OPTIMIZER)) == {"ARCH007"}

    def test_session_construction_in_placement_reports_arch001(self):
        """Pricing must go through the Runner, not ad-hoc sessions — the
        existing layering rule covers the new package too."""
        snippet = """
        from repro.engine.executor import InferenceSession

        def price(deployed):
            return InferenceSession(deployed).latency_s
        """
        assert rules_of(lint(snippet, self.OPTIMIZER)) == {"ARCH001"}

    def test_pure_search_code_is_clean(self):
        snippet = """
        def frontier(candidates):
            return sorted(candidates, key=lambda c: c.latency_s)
        """
        assert lint(snippet, self.OPTIMIZER) == []

    def test_fleet_snippets_still_report_arch006(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)
        """
        assert rules_of(lint(snippet, "src/repro/fleet/simulate.py")) == {"ARCH006"}

    def test_inline_suppression_works(self):
        snippet = """
        import numpy as np

        rng = np.random.default_rng(1234)  # repro: allow[ARCH007]
        """
        assert lint(snippet, self.OPTIMIZER) == []


class TestPathHandling:
    def test_paths_without_a_repro_root_are_linted_globally(self):
        findings = arch.lint_source("ok = x == 0.5\n", "scratch.py")
        assert rules_of(findings) == {"ARCH003"}
        assert findings[0].location == "scratch.py:1"

    def test_locations_are_package_relative(self):
        findings = lint("ok = x == 0.5\n", "/somewhere/src/repro/cli_extras.py")
        assert findings[0].location == "repro/cli_extras.py:1"


class TestFileLevelSuppression:
    SNIPPET = """
    # repro: allow-file[ARCH003] fixture module full of golden constants

    ok_a = x == 0.5
    ok_b = y != 1.25
    """

    def test_allow_file_silences_every_occurrence(self):
        assert lint(self.SNIPPET) == []

    def test_allow_file_is_rule_specific(self):
        snippet = """
        # repro: allow-file[ARCH001]

        ok = x == 0.5
        """
        assert rules_of(lint(snippet)) == {"ARCH003"}

    def test_allow_file_names_multiple_rules(self):
        snippet = """
        # repro: allow-file[ARCH003, ARCH001]
        from repro.engine.executor import InferenceSession

        session = InferenceSession(deployed)
        ok = x == 0.5
        """
        assert lint(snippet) == []
