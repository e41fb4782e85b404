"""Content-keyed memoization for the sweep hot path.

Every figure/table generator walks the same model -> deploy -> plan pipeline
for each (model, device, framework) cell, and that pipeline is pure and
deterministic: `load_model` builds the same graph every time, `deploy`
derives the same `DeployedModel` from the same inputs, and
`InferenceSession._build_plan` prices the same ops the same way.  Building
each artifact once and reusing it is therefore an observationally invisible
optimization — which the identity suite proves by diffing cached against
uncached exports at zero tolerance.

Five caches, one per pipeline stage:

* ``GRAPH_CACHE`` — zoo graphs keyed by canonical model name.
* ``DEPLOY_CACHE`` — deployed models keyed by (model, device, framework,
  dtype).  Table V *failures* are cached too: a `ReproError` raised by
  `deploy` is stored and re-raised on every hit, so best-framework candidate
  loops stop re-paying failed deployments.
* ``PLAN_CACHE`` — `ExecutionPlan`s keyed by the deployment's cache key plus
  (`EngineConfig`, efficiency scale).  Only deployments produced by
  :func:`cached_deploy` participate; ad-hoc deployments (mutated devices,
  pruned graphs, tests poking at ``storage_mode``) always re-plan.
* ``RECORD_CACHE`` — finished ``RunRecord``s keyed by the scenario's full
  canonical key plus the measurement flags.  Populated by the Runner and
  the sweep compiler (:mod:`repro.engine.compile`); records are frozen
  dataclasses, so sharing them is safe by construction.
* ``PAYLOAD_CACHE`` — exported experiment payloads keyed by experiment id
  (the warm-suite fast path of ``harness.suite.export_results``).

The purity contract: cached graphs, deployments and plans are SHARED
instances — callers must treat them as immutable.  Below this layer the
prepared graph of every deployment is shared too (one per source graph,
transform chain and dtype, memoized by :meth:`Graph.derived`), so a
deployment built outside the cache still holds a shared graph: to mutate
a graph, ``clone()`` it first; to mutate a deployment, deploy outside the
cache (`Framework.deploy` directly) or `clear_caches()` afterwards.

Thread safety: each cache takes a lock around its table, so the parallel
sweep runner's workers share one memo layer.  A racing build may run twice;
the first result wins and both callers see the same object.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, TypeVar

from repro.core.errors import ReproError
from repro.core.registry import canonical_name

V = TypeVar("V")

_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MemoCache:
    """A thread-safe content-keyed memo table with hit/miss statistics.

    Outcomes are stored, not just values: a builder that raises
    :class:`ReproError` has that error cached and re-raised on every
    subsequent lookup (deployment failures are as deterministic as
    successes).  Other exception types propagate uncached.
    """

    def __init__(self, name: str):
        self.name = name
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: dict[Any, tuple[bool, Any]] = {}

    def get_or_build(self, key: Any, builder: Callable[[], V]) -> V:
        with self._lock:
            outcome = self._entries.get(key, _MISSING)
            if outcome is _MISSING:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        if outcome is _MISSING:
            try:
                outcome = (True, builder())
            except ReproError as error:
                outcome = (False, error)
            with self._lock:
                # First build wins on a race so every caller shares one object.
                outcome = self._entries.setdefault(key, outcome)
        ok, value = outcome
        if not ok:
            raise value
        return value

    def cached_value(self, key: Any) -> tuple[bool, Any]:
        """``(found, value)`` for ``key``, counting a hit or miss.

        The two-phase face of :meth:`get_or_build` for callers that build
        many missing entries in one batch (the sweep compiler): a cached
        failure outcome re-raises exactly like ``get_or_build``; a miss
        returns ``(False, None)`` and the caller is expected to
        :meth:`store` the built value afterwards.
        """
        with self._lock:
            outcome = self._entries.get(key, _MISSING)
            if outcome is _MISSING:
                self.stats.misses += 1
                return False, None
            self.stats.hits += 1
        ok, value = outcome
        if not ok:
            raise value
        return True, value

    def store(self, key: Any, value: V) -> V:
        """Insert a successful outcome; first store wins on a race.

        Returns the shared entry, which is ``value`` unless another thread
        stored first.
        """
        with self._lock:
            _ok, stored = self._entries.setdefault(key, (True, value))
        return stored

    def invalidate(self, key: Any) -> bool:
        """Drop one entry; returns whether it existed.

        Counters are left untouched — an invalidation is not a lookup, and
        the hit/miss history stays meaningful across it.  Safe to race with
        :meth:`get_or_build`: a concurrent builder re-inserts via
        ``setdefault``, so callers still converge on one shared object.
        """
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def contains(self, key: Any) -> bool:
        """Whether an outcome is cached for ``key`` (no stats bump)."""
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe statistics for reports and the ``suite --stats`` verb."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "hit_rate": self.stats.hit_rate,
            }


GRAPH_CACHE = MemoCache("graph")
DEPLOY_CACHE = MemoCache("deploy")
PLAN_CACHE = MemoCache("plan")
RECORD_CACHE = MemoCache("record")
PAYLOAD_CACHE = MemoCache("payload")
_CACHES = (GRAPH_CACHE, DEPLOY_CACHE, PLAN_CACHE, RECORD_CACHE, PAYLOAD_CACHE)

_enabled = True


def caching_enabled() -> bool:
    """Whether the memoization layer is currently active."""
    return _enabled


def set_caching(enabled: bool) -> bool:
    """Globally enable/disable the memo layer; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def caching_disabled() -> Iterator[None]:
    """Run a block with every lookup bypassing the caches."""
    previous = set_caching(False)
    try:
        yield
    finally:
        set_caching(previous)


def clear_caches() -> None:
    """Explicit invalidation: drop all cached graphs/deployments/plans."""
    for cache in _CACHES:
        cache.clear()


def cache_stats() -> dict[str, dict[str, Any]]:
    """Per-cache entry/hit/miss statistics, keyed by cache name."""
    return {cache.name: cache.snapshot() for cache in _CACHES}


# -- content keys --------------------------------------------------------
def graph_key(model_name: str) -> str:
    return canonical_name(model_name)


def deploy_key(model_name: str, device_name: str, framework_name: str,
               dtype: Any = None) -> tuple:
    """Deploy-cache key; the canonical form lives on ``Scenario.deploy_key``."""
    from repro.runtime.scenario import Scenario

    return Scenario(model_name, device_name, framework_name, dtype=dtype).deploy_key


def plan_key(deployed: Any, config: Any, efficiency_scale: float) -> tuple | None:
    """Plan-cache key, or None when this deployment must not be cached."""
    if not _enabled:
        return None
    base = getattr(deployed, "cache_key", None)
    if base is None:
        return None
    return (base, config, efficiency_scale)


# -- cached pipeline stages ----------------------------------------------
def cached_graph(model_name: str):
    """The zoo graph for ``model_name``, built once and shared (do not mutate)."""
    from repro.models import load_model

    if not _enabled:
        return load_model(model_name)
    return GRAPH_CACHE.get_or_build(graph_key(model_name),
                                    lambda: load_model(model_name))


def cached_deploy(model_name: str, device_name: str, framework_name: str,
                  dtype: Any = None):
    """Deploy ``model_name`` on ``device_name`` via ``framework_name`` once.

    Returns the shared :class:`~repro.frameworks.base.DeployedModel` (or
    re-raises the cached Table V failure).  The deployment is tagged with
    its content key so sessions built on it share plan-cache entries.
    """
    from repro.frameworks import load_framework
    from repro.hardware import load_device

    def build():
        graph = cached_graph(model_name)
        deployed = load_framework(framework_name).deploy(
            graph, load_device(device_name), dtype=dtype)
        deployed.cache_key = key
        return deployed

    if not _enabled:
        from repro.models import load_model

        return load_framework(framework_name).deploy(
            load_model(model_name), load_device(device_name), dtype=dtype)
    from repro.runtime.scenario import Scenario

    key = Scenario(model_name, device_name, framework_name, dtype=dtype).deploy_key
    # The builder reads `_enabled` transitively (via cached_graph), but only
    # to decide *whether* to memoize the graph lookup — the deployed value is
    # identical either way, and this line is unreachable when caching is off.
    return DEPLOY_CACHE.get_or_build(key, build)  # repro: allow[KEY001] _enabled gates memoization, not the value
