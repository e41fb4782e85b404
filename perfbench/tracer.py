"""Outside-in span recorder: wraps named functions of the program under test.

Nothing in ``src/`` knows about tracing.  :class:`Tracer` replaces each
target function with a wrapper that records one span per call, at every
place the function is bound: the defining module or class, every loaded
``repro`` module that imported it by name (``from x import f``), and any
registry dict handed in explicitly.  :meth:`Tracer.uninstall` puts every
original back, so untraced repetitions run the unmodified program.

Spans live in memory as ``[name, start, end, parent, run]`` lists (times
from ``time.perf_counter``; ``parent`` is the index of the enclosing span
or -1).  The benchmark is single-threaded, so child spans never overlap
and a span's self time is its duration minus the summed durations of its
direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

clock = time.perf_counter

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[Callable[[], None], Callable[[], None]]] = []

    # -- recording ----------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.run_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = clock()
        self._stack.pop()

    def duration(self, index: int) -> float:
        return self.spans[index][END] - self.spans[index][START]

    def root(self, name: str, run_id: str) -> "_Root":
        """Context manager for a top-level span that starts a new run id."""
        return _Root(self, name, run_id)

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # -- patching -----------------------------------------------------------
    def add_function(self, name: str, module: Any, attribute: str,
                     registries: Iterable[dict] = ()) -> None:
        """Trace ``module.attribute`` wherever a loaded module binds it."""
        original = getattr(module, attribute)
        wrapper = self.wrap(name, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace or not str(getattr(loaded, "__name__", "")).startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._add_patch(namespace, key, original, wrapper)
        for registry in registries:
            for key, value in list(registry.items()):
                if value is original:
                    self._add_patch(registry, key, original, wrapper)

    def add_method(self, name: str, cls: type, attribute: str) -> None:
        """Trace ``cls.attribute`` and every subclass override of it."""
        for klass in dict.fromkeys([cls, *_subclasses(cls)]):
            raw = klass.__dict__.get(attribute)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapper: Any = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapper = self.wrap(name, raw)
            self._patches.append((
                functools.partial(setattr, klass, attribute, wrapper),
                functools.partial(setattr, klass, attribute, raw)))

    def _add_patch(self, namespace: dict, key: str, original: Any, wrapper: Any) -> None:
        self._patches.append((
            functools.partial(namespace.__setitem__, key, wrapper),
            functools.partial(namespace.__setitem__, key, original)))

    def install(self) -> None:
        for apply, _restore in self._patches:
            apply()

    def uninstall(self) -> None:
        for _apply, restore in reversed(self._patches):
            restore()

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the part its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def per_run(self) -> dict[str, dict[str, dict[str, float]]]:
        """run id -> span name -> {"self_s", "calls", "durations"}.

        ``calls`` counts outermost calls only: a span nested directly in a
        span of the same name (an override calling ``super()``, a wrapper
        layer calling its inner function) is not a second call.
        """
        result: dict[str, dict[str, dict[str, Any]]] = defaultdict(dict)
        own = self.self_times()
        for index, span in enumerate(self.spans):
            entry = result[span[RUN]].setdefault(
                span[NAME], {"self_s": 0.0, "calls": 0, "durations": []})
            entry["self_s"] += own[index]
            parent = span[PARENT]
            if parent < 0 or self.spans[parent][NAME] != span[NAME]:
                entry["calls"] += 1
                entry["durations"].append(span[END] - span[START])
        return dict(result)

    def coverage(self, runs: Iterable[str], root: str) -> tuple[float, float]:
        """(summed self time of non-root spans, summed root durations) over
        ``runs``; equal up to rounding when every span nests under a root."""
        runs = set(runs)
        own = self.self_times()
        layered = rooted = 0.0
        for index, span in enumerate(self.spans):
            if span[RUN] not in runs:
                continue
            if span[NAME] == root:
                rooted += span[END] - span[START]
            else:
                layered += own[index]
        return layered, rooted

    def write_chrome_trace(self, path: Path, runs: Iterable[str],
                           metadata: dict[str, Any]) -> None:
        """Chrome/Perfetto "complete event" JSON of the spans of ``runs``."""
        runs = set(runs)
        kept = [(index, span) for index, span in enumerate(self.spans)
                if span[RUN] in runs]
        origin = min((span[START] for _index, span in kept), default=0.0)
        events = [{
            "name": span[NAME], "ph": "X", "pid": 1, "tid": 1,
            "ts": round((span[START] - origin) * 1e6, 3),
            "dur": round((span[END] - span[START]) * 1e6, 3),
            "args": {"id": index, "parent": span[PARENT], "run": span[RUN]},
        } for index, span in kept]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))


class _Root:
    def __init__(self, tracer: Tracer, name: str, run_id: str) -> None:
        self.tracer = tracer
        self.name = name
        self.run_id = run_id

    def __enter__(self) -> "_Root":
        self.tracer.run_id = self.run_id
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.end(self.index)


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
