"""Experiment grids and precompiled exports.

The declared grids let the suite hand every gridded experiment's cells to
the sweep compiler before the generators run.  The claims pinned here: the
precompiled export is bit-identical to the cell-by-cell one, grids dedup
by scenario key, and undeclared experiments degrade to cell-by-cell runs.
"""

from __future__ import annotations

import pytest

from repro.engine.cache import caching_enabled, clear_caches, set_caching
from repro.harness.grids import GRID_BUILDERS, suite_grid
from repro.harness.registry import list_experiments
from repro.harness.suite import compare_results, export_results


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestSuiteGrid:
    def test_builders_cover_known_experiments(self):
        registered = set(list_experiments())
        assert set(GRID_BUILDERS) <= registered
        assert {"fig02", "fig09", "fig12", "fig13"} <= set(GRID_BUILDERS)

    def test_grids_are_deduplicated_by_key(self):
        timed, untimed = suite_grid(list(GRID_BUILDERS))
        assert len({s.key for s in timed}) == len(timed)
        assert len({s.key for s in untimed}) == len(untimed)
        assert timed and untimed

    def test_overlapping_experiments_keep_first_appearance_order(self):
        # fig10's cells are a subset of fig09's platform sweep, so the
        # combined grid is exactly fig09's, in fig09's order.
        timed_both, _ = suite_grid(["fig09", "fig10"])
        timed_fig09, _ = suite_grid(["fig09"])
        assert timed_both == timed_fig09
        timed_fig10, _ = suite_grid(["fig10"])
        assert {s.key for s in timed_fig10} <= {s.key for s in timed_fig09}

    def test_unknown_experiment_contributes_nothing(self):
        assert suite_grid(["no-such-experiment"]) == ([], [])


class TestPrecompiledExportIdentity:
    IDS = ["fig02", "fig08", "fig09", "fig12", "fig13"]

    def test_precompiled_equals_scalar_export(self):
        set_caching(False)
        try:
            scalar = export_results(self.IDS)  # no precompile, no caches
        finally:
            set_caching(True)
        clear_caches()
        compiled = export_results(self.IDS)  # precompiled through run_grid
        assert compiled == scalar
        assert compare_results(scalar, compiled, rel_tolerance=0.0) == []

    def test_warm_export_replays_from_payload_cache(self):
        assert caching_enabled()
        first = export_results(self.IDS)
        assert export_results(self.IDS) == first
