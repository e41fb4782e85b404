"""Arrival processes for edge inference requests.

Every process implements the :class:`Arrivals` protocol — a mean
``rate_hz`` plus ``generate(horizon_s)`` returning sorted arrival instants
in ``[0, horizon_s)`` — so the serving simulations and the fleet router
accept any of them interchangeably.  All randomness is seeded: the same
process generates the same stream every time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Arrivals(Protocol):
    """The contract every arrival process satisfies.

    Attributes:
        rate_hz: mean request rate over a long horizon.
        seed: the RNG seed (processes are deterministic per seed).
    """

    rate_hz: float
    seed: int

    def generate(self, horizon_s: float) -> np.ndarray:
        """Sorted arrival instants (seconds) in ``[0, horizon_s)``."""
        ...


def _check_horizon(horizon_s: float) -> None:
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class PeriodicArrivals:
    """Fixed-rate arrivals: a camera emitting frames at ``rate_hz``."""

    rate_hz: float
    jitter_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError("rate must be positive")
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError("jitter fraction must be in [0, 1)")

    def generate(self, horizon_s: float) -> np.ndarray:
        """Arrival times in [0, horizon)."""
        _check_horizon(horizon_s)
        period = 1.0 / self.rate_hz
        times = np.arange(0.0, horizon_s, period)
        if self.jitter_fraction:
            rng = np.random.default_rng(self.seed)
            times = times + rng.uniform(
                0.0, self.jitter_fraction * period, size=times.shape)
        # Jitter can push instants past either edge of the horizon and (for
        # any future non-monotonic jitter law) out of order: re-clip to
        # [0, horizon) and re-sort before handing the stream out.
        times = times[(times >= 0.0) & (times < horizon_s)]
        return np.sort(times)


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless request stream at mean ``rate_hz`` (cloud-style load)."""

    rate_hz: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError("rate must be positive")

    def generate(self, horizon_s: float) -> np.ndarray:
        _check_horizon(horizon_s)
        rng = np.random.default_rng(self.seed)
        expected = self.rate_hz * horizon_s
        # Oversample interarrival gaps, then trim to the horizon.
        count = max(16, int(expected * 1.5) + 8 * int(expected**0.5))
        gaps = rng.exponential(1.0 / self.rate_hz, size=count)
        times = np.cumsum(gaps)
        while times[-1] < horizon_s:
            extra = rng.exponential(1.0 / self.rate_hz, size=count)
            times = np.concatenate([times, times[-1] + np.cumsum(extra)])
        return times[times < horizon_s]


@dataclass(frozen=True)
class BurstyArrivals:
    """Bursts of ``burst_size`` back-to-back requests at ``burst_rate_hz``.

    Models event-triggered cameras: motion wakes the sensor and several
    frames arrive at once.
    """

    burst_rate_hz: float
    burst_size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burst_rate_hz <= 0:
            raise ValueError("burst rate must be positive")
        if self.burst_size < 1:
            raise ValueError("burst size must be >= 1")

    @property
    def rate_hz(self) -> float:
        return self.burst_rate_hz * self.burst_size

    def generate(self, horizon_s: float) -> np.ndarray:
        _check_horizon(horizon_s)
        bursts = PoissonArrivals(self.burst_rate_hz, seed=self.seed).generate(horizon_s)
        times = np.repeat(bursts, self.burst_size)
        return times[times < horizon_s]


@dataclass(frozen=True)
class DiurnalArrivals:
    """Poisson stream whose rate follows a day/night cycle.

    The instantaneous rate is ``base_rate_hz * (1 + amplitude * sin(...))``
    with period ``period_s`` (a day by default), so traffic peaks once per
    cycle and bottoms out half a cycle later — the shape a user-facing
    fleet actually serves.  Generated by thinning a Poisson stream at the
    peak rate, which is exact and fully vectorized.

    Attributes:
        base_rate_hz: the cycle-average request rate.
        amplitude: peak-to-mean swing in [0, 1); 0 degenerates to Poisson.
        period_s: cycle length (86400 = daily).
        phase_s: time of the first peak's quarter-cycle offset.
        seed: RNG seed for both the stream and the thinning draw.
    """

    base_rate_hz: float
    amplitude: float = 0.8
    period_s: float = 86_400.0
    phase_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_rate_hz <= 0:
            raise ValueError("rate must be positive")
        if not 0 <= self.amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_s <= 0:
            raise ValueError("period must be positive")

    @property
    def rate_hz(self) -> float:
        return self.base_rate_hz

    @property
    def peak_rate_hz(self) -> float:
        return self.base_rate_hz * (1.0 + self.amplitude)

    def rate_at(self, time_s: np.ndarray | float) -> np.ndarray | float:
        """Instantaneous rate (requests/s) at ``time_s``."""
        angle = 2.0 * np.pi * (np.asarray(time_s) - self.phase_s) / self.period_s
        return self.base_rate_hz * (1.0 + self.amplitude * np.sin(angle))

    def generate(self, horizon_s: float) -> np.ndarray:
        _check_horizon(horizon_s)
        envelope = PoissonArrivals(self.peak_rate_hz, seed=self.seed)
        times = envelope.generate(horizon_s)
        if not self.amplitude:
            return times
        rng = np.random.default_rng(self.seed + 1)
        accept = rng.uniform(0.0, 1.0, size=times.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            rates = self.rate_at(times)
        if not np.all(np.isfinite(rates)):
            # A period this short overflows the cycle angle; thinning would
            # reject every arrival, and ``first_n`` would grow the horizon
            # without bound looking for one.
            raise ValueError(
                f"period_s={self.period_s!r} is too short to resolve over "
                f"a {horizon_s!r} s horizon")
        keep = accept * self.peak_rate_hz < rates
        return times[keep]


def first_n(process: Arrivals, count: int) -> np.ndarray:
    """The first ``count`` arrivals of ``process``, deterministically.

    Arrival processes are horizon-driven; fleet runs are request-count
    driven ("simulate a million requests").  This regenerates the stream
    over a growing horizon until it holds ``count`` instants, then slices —
    the same seed always yields the same prefix, so the result is exactly
    as reproducible as the process itself.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    horizon_s = 1.25 * count / process.rate_hz
    for _ in range(64):
        times = process.generate(horizon_s)
        if times.size >= count:
            return times[:count]
        horizon_s *= 1.6
    raise ValueError(
        f"could not draw {count} arrivals from {process!r}; its realized "
        "rate is far below rate_hz")


def reseeded(process: Arrivals, seed: int) -> Arrivals:
    """The same process with its seed replaced (dataclass processes only)."""
    return replace(process, seed=seed)
