"""Energy-per-inference measurement (Section VI-E, Figure 11).

The paper computes energy as measured device power (total draw, including
idle) integrated over the inference loop, divided by the number of
inferences — total watts times latency reproduces every Figure 11 point
(e.g. EdgeTPU MobileNet-v2: 2.9 ms x 4.14 W = 12 mJ vs the reported
11 mJ).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import Measurement
from repro.engine.executor import InferenceSession
from repro.measurement.power_meter import PowerAnalyzer, USBMultimeter, average_power_w

# Devices the paper powers over USB use the multimeter; others the analyzer.
USB_POWERED = ("Raspberry Pi 3B", "EdgeTPU", "Movidius NCS")


@dataclass
class EnergyMeter:
    """Pairs a power instrument with the timing loop."""

    seed: int = 0

    def instrument_for(self, device_name: str):
        if device_name in USB_POWERED:
            return USBMultimeter(seed=self.seed)
        return PowerAnalyzer(seed=self.seed)

    def measure(self, session: InferenceSession, loop_seconds: float = 30.0) -> Measurement:
        """Energy per inference (joules) of a session's timing loop."""
        device = session.deployed.device
        return self.energy_per_inference(
            device.name, device.power.power(session.utilization),
            session.latency_s, loop_seconds)

    def energy_per_inference(self, device_name: str, power_w: float,
                             latency_s: float,
                             loop_seconds: float = 30.0) -> Measurement:
        """Energy per inference (joules) over a recorded power trace.

        Args:
            device_name: the deployed device, which picks the instrument.
            power_w: the device's true draw while inferencing.
            latency_s: seconds per inference of the timed loop.
        """
        meter = self.instrument_for(device_name)
        samples = meter.record(lambda _t: power_w, loop_seconds)
        mean_power = average_power_w(samples)
        inferences = loop_seconds / latency_s
        energy_per_inference = mean_power * loop_seconds / inferences
        return Measurement(
            value=energy_per_inference,
            unit="J",
            samples=len(samples),
        )


def measure_energy_per_inference(session: InferenceSession, seed: int = 0) -> Measurement:
    """Convenience wrapper: one EnergyMeter measurement with defaults."""
    return EnergyMeter(seed=seed).measure(session)


def active_power_w(session: InferenceSession) -> float:
    """Device draw while inferencing — the x-axis of Figure 12."""
    device = session.deployed.device
    return device.power.power(session.utilization)
