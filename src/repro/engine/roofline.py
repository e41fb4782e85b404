"""Per-op roofline timing.

Each op's latency is ``max(compute term, memory term) + dispatch``:

* compute term — effective MACs over the unit's peak at the deployment
  datatype, derated by the framework's kernel efficiency;
* memory term — weight traffic (weights are re-streamed every single-batch
  inference; there is no batch reuse, the core reason the paper studies
  single-batch separately) plus activation input/output traffic, over the
  bandwidth the storage mode dictates (DRAM, on-chip buffer, or the SD-card
  paging path of the Table V dynamic-graph fallback).

This is intentionally a first-order model: it reproduces which of the
paper's workloads are compute- versus memory-bound, which is what drives
every cross-platform shape in the evaluation (Section VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.ops import Op

# On-chip scratchpads run an order of magnitude faster than edge DRAM.
ON_CHIP_BANDWIDTH_MULTIPLIER = 10.0
# DDR access through an FPGA overlay contends with the fabric (Table V ^^).
FABRIC_SPILL_BANDWIDTH_FACTOR = 0.25


@dataclass(frozen=True)
class RooflineInputs:
    """Device-side constants resolved once per deployment."""

    peak_macs_per_s: float
    memory_bandwidth_bytes_per_s: float
    weight_bandwidth_bytes_per_s: float
    dispatch_overhead_s: float

    def __post_init__(self) -> None:
        for name in ("peak_macs_per_s", "memory_bandwidth_bytes_per_s",
                     "weight_bandwidth_bytes_per_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class OpTiming:
    """Timing decomposition of one op for one inference."""

    op: Op
    compute_s: float
    memory_s: float
    dispatch_s: float

    @property
    def roofline_s(self) -> float:
        return max(self.compute_s, self.memory_s)

    @property
    def latency_s(self) -> float:
        return self.roofline_s + self.dispatch_s

    @property
    def bound(self) -> str:
        return "compute" if self.compute_s >= self.memory_s else "memory"


def time_op(
    op: Op,
    inputs: RooflineInputs,
    efficiency: float,
    exploit_sparsity: bool = False,
    per_op_overhead_s: float = 0.0,
    batch_size: int = 1,
    include_memory_term: bool = True,
) -> OpTiming:
    """Time one op under the roofline model, PER INFERENCE.

    The scalar reference for :func:`lower_rooflines_s`: plans are priced
    through the array program, and the property tests pin every element
    of it to this function bit for bit.

    Args:
        op: the graph op (fused-away ops should be filtered by the caller).
        inputs: resolved device constants.
        efficiency: fraction of peak the kernel achieves (framework
            kernel quality x calibration x batch-fill), must be positive.
        exploit_sparsity: whether pruned weights skip compute/traffic.
        per_op_overhead_s: framework dispatch cost above the kernel launch.
        batch_size: weights are read once per *batch* and the kernel is
            launched once per batch, so both amortize across the batch;
            compute and activation traffic scale with it and cancel out.
        include_memory_term: ablation switch for the pure-FLOP model.
    """
    if efficiency <= 0:
        raise ValueError(f"efficiency must be positive, got {efficiency}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    macs = op.effective_macs(exploit_sparsity)
    compute_s = macs / (inputs.peak_macs_per_s * efficiency) if macs else 0.0

    if include_memory_term:
        weight_bytes = op.traffic_weight_bytes(exploit_sparsity)
        io_bytes = op.input_bytes() + op.output_bytes()
        # Absorbed followers' outputs are produced in-register by the fused
        # kernel, but the final output of the chain still hits memory once;
        # the anchor op's own output_bytes already covers that.
        memory_s = (
            weight_bytes / batch_size / inputs.weight_bandwidth_bytes_per_s
            + io_bytes / inputs.memory_bandwidth_bytes_per_s
        )
    else:
        memory_s = 0.0
    dispatch_s = (inputs.dispatch_overhead_s + per_op_overhead_s) / batch_size
    return OpTiming(op=op, compute_s=compute_s, memory_s=memory_s, dispatch_s=dispatch_s)


def lower_rooflines_s(
    macs,
    efficiency,
    peak_macs_per_s,
    weight_bytes,
    io_bytes,
    batch_size,
    weight_bandwidth_bytes_per_s,
    memory_bandwidth_bytes_per_s,
    overhead_s,
):
    """The roofline array program: elementwise timing over parallel arrays.

    Every argument broadcasts; :func:`repro.engine.executor.lower_specs`
    passes per-op arrays for every quantity, concatenated across the plans
    it prices.  Each element goes through the identical IEEE-754 double
    operations as :func:`time_op`, in the same order, so results are
    bit-identical to it no matter how ops are batched.

    Args:
        macs / efficiency / weight_bytes / io_bytes: per-op gathers.
            Callers ablating the memory term pass zero byte arrays — the
            quotient is then exactly ``0.0``, matching the scalar branch.
        peak_macs_per_s / batch_size / weight_bandwidth_bytes_per_s /
            memory_bandwidth_bytes_per_s / overhead_s: device/plan
            constants, scalar or expanded per op.  ``overhead_s`` is the
            dispatch overhead plus the framework's per-op overhead.

    Returns:
        ``(compute_s, memory_s, dispatch_s)`` with the argument broadcast
        shape.
    """
    compute_s = macs / (peak_macs_per_s * efficiency)
    memory_s = (
        weight_bytes / batch_size / weight_bandwidth_bytes_per_s
        + io_bytes / memory_bandwidth_bytes_per_s
    )
    dispatch_s = overhead_s / batch_size
    return compute_s, memory_s, dispatch_s
