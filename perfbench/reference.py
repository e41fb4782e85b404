"""A fixed reference computation: the unit of machine speed for one run.

On a shared machine the host's speed drifts by up to 2x over minutes, and
that drift moves every workload together.  Timing this kernel between the
repetitions of a workload and dividing by it cancels most of the drift.
The kernel uses no code from ``src/``, so a change to the program cannot
move the unit.  It mixes the interpreter work the program is made of
(object construction, attribute access, dict updates, string formatting)
with small NumPy array passes, like the fleet loop's.
"""

from __future__ import annotations

import time

import numpy as np

_OBJECTS = 150_000
_ARRAY_PASSES = 150
_ARRAY = np.arange(20_000, dtype=np.float64)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _kernel() -> float:
    table: dict[int, int] = {}
    digits = 0
    for index in range(_OBJECTS):
        pair = _Pair(index, 2 * index)
        table[index % 997] = table.get(index % 997, 0) + pair.a - pair.b
        digits += len(str(index))
    values = _ARRAY
    total = 0.0
    for _ in range(_ARRAY_PASSES):
        values = np.sqrt(values + 1.0)
        total += float(values.sum())
    return total + digits + sum(table.values())


def reference_s() -> float:
    """Host seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
