"""Thermally-aware sustained throughput.

Figure 14 shows temperature behaviour; this extension closes the loop:
clock throttling (and the Raspberry Pi's shutdown) feed back into the
achieved inference rate.  The simulation advances the lumped-RC thermal
model while the device runs back-to-back inferences, slowing down whenever
DVFS throttles, and reports burst vs sustained performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.engine.executor import InferenceSession
from repro.hardware.thermal import ThermalSpec

# Clock factors at or below this floor mean the device is off (thermal
# shutdown reports exactly 0.0; real throttle factors are orders larger).
_MIN_CLOCK_FACTOR = 1e-9


@dataclass
class SustainedResult:
    """Outcome of a thermal soak under continuous inference."""

    device: str
    model: str
    burst_latency_s: float
    sustained_latency_s: float
    completed_inferences: int
    duration_s: float
    shutdown: bool
    shutdown_time_s: float | None
    throttle_events: int
    trace: list[tuple[float, float, float]] = field(default_factory=list)
    # trace rows: (time_s, junction_c, instantaneous_latency_s)

    @property
    def burst_fps(self) -> float:
        return 1.0 / self.burst_latency_s

    @property
    def sustained_fps(self) -> float:
        if self.shutdown:
            return 0.0
        return 1.0 / self.sustained_latency_s

    @property
    def slowdown(self) -> float:
        """Sustained over burst latency; 1.0 means no thermal impact."""
        return self.sustained_latency_s / self.burst_latency_s


def simulate_sustained(
    session: InferenceSession,
    duration_s: float = 1800.0,
    dt_s: float = 5.0,
    ambient_c: float | None = None,
    thermal: ThermalSpec | None = None,
) -> SustainedResult:
    """Run ``session`` back-to-back for ``duration_s`` under the device's
    thermal model, or under ``thermal`` when given (say, the same device
    with a DVFS soft limit enabled).

    Throttling stretches latency by ``1 / clock_factor`` (compute-bound
    assumption — conservative for memory-bound models) and proportionally
    reduces the dynamic power component.  A shutdown ends the run.
    """
    if duration_s <= 0 or dt_s <= 0:
        raise ValueError("duration and dt must be positive")
    device = session.deployed.device
    if thermal is not None:
        device = replace(device, thermal=thermal)
    simulator = device.thermal_simulator(ambient_c)
    simulator.temperature_c = device.thermal.steady_state_c(
        device.power.idle_w, simulator.ambient_c)

    base_latency = session.latency_s
    utilization = session.utilization
    completed = 0.0
    throttle_events = 0
    shutdown_time: float | None = None
    trace: list[tuple[float, float, float]] = []
    last_latency = base_latency

    while simulator.time_s < duration_s:
        clock = simulator.clock_factor
        if clock < _MIN_CLOCK_FACTOR:
            break
        latency = base_latency / clock
        power = device.power.idle_w + (
            device.power.power(utilization) - device.power.idle_w
        ) * clock
        was_throttled = simulator.throttled
        simulator.step(power, dt_s)
        if simulator.throttled and not was_throttled:
            throttle_events += 1
        if simulator.shutdown and shutdown_time is None:
            shutdown_time = simulator.time_s
        completed += dt_s / latency
        last_latency = latency
        trace.append((simulator.time_s, simulator.temperature_c, latency))

    return SustainedResult(
        device=device.name,
        model=session.deployed.graph.name,
        burst_latency_s=base_latency,
        sustained_latency_s=last_latency,
        completed_inferences=int(completed),
        duration_s=min(simulator.time_s, duration_s),
        shutdown=simulator.shutdown,
        shutdown_time_s=shutdown_time,
        throttle_events=throttle_events,
        trace=trace,
    )
