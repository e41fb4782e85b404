"""Request workloads and serving simulation.

The paper frames edge inference as single-batch because of "the limited
number of available requests in a given time" (Section I).  This package
makes that workload explicit: arrival processes (periodic sensor frames,
Poisson request streams, bursts) and a single-server FIFO serving
simulation that turns a device's per-inference latency into the latency
percentiles and utilization a deployment actually experiences.
"""

from repro.workloads.arrivals import (
    Arrivals,
    BurstyArrivals,
    DiurnalArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    first_n,
    reseeded,
)
from repro.workloads.batch_server import BatchServerStats, simulate_batch_serving
from repro.workloads.energy_budget import EnergyBudget, duty_cycle_budget
from repro.workloads.queueing import QueueStats, simulate_serving

__all__ = [
    "Arrivals",
    "BatchServerStats",
    "BurstyArrivals",
    "DiurnalArrivals",
    "EnergyBudget",
    "PeriodicArrivals",
    "PoissonArrivals",
    "QueueStats",
    "duty_cycle_budget",
    "first_n",
    "reseeded",
    "simulate_batch_serving",
    "simulate_serving",
]
