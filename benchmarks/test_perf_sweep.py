"""Sweep-engine performance: uncached vs compiled-cold vs compiled-warm.

Not a paper artifact: this guards the perf_opt work on the sweep hot path
(engine memoization + vectorized roofline + the batched sweep compiler).
Every run goes through the sweep compiler; this exports the whole
registry three ways —

* **uncached** — memoization disabled: every graph, deployment, plan and
  record is rebuilt, and no cell replays from a cache;
* **compiled uncached** — caches enabled but empty: the suite grid is
  batched through the sweep compiler from a cold start;
* **compiled warm** — caches populated: a re-export replays straight from
  the payload cache;

asserts the warm path wins by >= 3x while staying bit-identical, holds the
compiled paths to their absolute budgets (warm < 0.2 s, uncached < 1 s),
and records the numbers in ``BENCH_sweep.json`` at the repo root so
regressions show up in review diffs (``tools/bench_guard.py`` re-checks
the committed file in CI).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.engine.cache import (
    cache_stats,
    caching_disabled,
    clear_caches,
)
from repro.engine.compile import compile_stats, reset_compile_stats
from repro.harness.registry import list_experiments
from repro.harness.suite import compare_results, export_results

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"
MIN_WARM_SPEEDUP = 3.0
MAX_COMPILED_WARM_S = 0.2
MAX_COMPILED_UNCACHED_S = 1.0


def _timed_export():
    start = time.perf_counter()
    snapshot = export_results()
    return snapshot, time.perf_counter() - start


def test_sweep_cache_speedup_and_identity():
    clear_caches()
    with caching_disabled():
        uncached_snapshot, uncached_s = _timed_export()

    clear_caches()
    reset_compile_stats()
    cold_snapshot, cold_s = _timed_export()
    cold_stats = cache_stats()
    sweep_stats = compile_stats()

    warm_snapshot, warm_s = _timed_export()
    warm_stats = cache_stats()
    clear_caches()
    reset_compile_stats()

    # The caches were exercised: cold run populates, warm run mostly hits.
    assert cold_stats["deploy"]["entries"] > 0
    for cache in ("graph", "deploy", "plan"):
        assert warm_stats[cache]["hit_rate"] > 0, cache
    assert warm_stats["deploy"]["hits"] > warm_stats["deploy"]["misses"]

    # The cold run routed the suite grid through the sweep compiler.
    assert sweep_stats["cells"] > 0
    assert sweep_stats["array_programs"] > 0
    dedup_ratio = sweep_stats["dedup_ratio"]
    assert dedup_ratio > 1.0

    # Observationally invisible: all three snapshots byte-identical.
    assert compare_results(uncached_snapshot, cold_snapshot,
                           rel_tolerance=0.0) == []
    assert warm_snapshot == cold_snapshot

    # The point of the exercise: warm sweeps beat the uncached baseline...
    speedup_warm = uncached_s / warm_s
    assert speedup_warm >= MIN_WARM_SPEEDUP, (
        f"warm export {warm_s:.3f}s vs uncached {uncached_s:.3f}s "
        f"({speedup_warm:.1f}x < {MIN_WARM_SPEEDUP}x)")

    # ...and the compiled paths hold their absolute budgets.
    assert warm_s < MAX_COMPILED_WARM_S, (
        f"compiled warm export {warm_s:.3f}s >= {MAX_COMPILED_WARM_S}s")
    assert cold_s < MAX_COMPILED_UNCACHED_S, (
        f"compiled cold-from-empty export {cold_s:.3f}s >= "
        f"{MAX_COMPILED_UNCACHED_S}s")

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "full-suite export_results()",
        "experiments": len(list_experiments()),
        "uncached_s": round(uncached_s, 4),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "compiled_uncached_s": round(cold_s, 4),
        "compiled_warm_s": round(warm_s, 4),
        "dedup_ratio": round(dedup_ratio, 2),
        "speedup_cold": round(uncached_s / cold_s, 2),
        "speedup_warm": round(speedup_warm, 2),
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "max_compiled_warm_s": MAX_COMPILED_WARM_S,
        "max_compiled_uncached_s": MAX_COMPILED_UNCACHED_S,
        "sweep_compiler": {
            key: sweep_stats[key]
            for key in ("grids", "cells", "unique_deploys", "unique_plans",
                        "plan_cache_hits", "array_programs", "ops_lowered")
        },
        "warm_cache_stats": warm_stats,
        "identical_at_zero_tolerance": True,
    }, indent=1) + "\n")
