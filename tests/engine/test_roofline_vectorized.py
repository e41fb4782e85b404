"""The shared spec lowering agrees with scalar ``time_op`` bit-for-bit.

Every plan — a lone session's or a whole compiled grid's — is priced by
``lower_specs`` in one numpy pass; these tests pin it to the scalar
reference: identical IEEE-754 results for every op, datatype, batch size
and ablation switch, plus the lowering's input checks.
"""

from __future__ import annotations

import pytest

from repro.engine.executor import PlanSpec, lower_specs
from repro.engine.roofline import RooflineInputs, time_op
from repro.frameworks import load_framework
from repro.graphs import ops as O
from repro.graphs.tensor import TensorShape
from repro.hardware import load_device
from repro.models import load_model


def _inputs(**overrides) -> RooflineInputs:
    defaults = dict(
        peak_macs_per_s=665.6e9,
        memory_bandwidth_bytes_per_s=25.6e9,
        weight_bandwidth_bytes_per_s=25.6e9,
        dispatch_overhead_s=12e-6,
    )
    defaults.update(overrides)
    return RooflineInputs(**defaults)


def time_ops(ops, inputs, efficiencies, exploit_sparsity=False,
             per_op_overhead_s=0.0, batch_size=1, include_memory_term=True):
    """The timings ``lower_specs`` prices for one spec of these ops."""
    spec = PlanSpec(
        ops=tuple(ops), inputs=inputs, efficiencies=tuple(efficiencies),
        exploit_sparsity=exploit_sparsity, per_op_overhead_s=per_op_overhead_s,
        batch_size=batch_size, include_memory_term=include_memory_term,
        session_overhead_s=0.0, input_transfer_s=0.0)
    (plan,) = lower_specs([spec]).plans
    return plan.timings


def _assert_bit_identical(ops, inputs, efficiencies, **kwargs):
    vectorized = time_ops(ops, inputs, efficiencies, **kwargs)
    assert len(vectorized) == len(ops)
    for op, efficiency, batched in zip(ops, efficiencies, vectorized):
        scalar = time_op(op, inputs, efficiency, **kwargs)
        assert batched.op is op
        # Exact equality, not approx: both paths must run the same
        # float64 operations in the same order.
        assert batched.compute_s == scalar.compute_s, op.name
        assert batched.memory_s == scalar.memory_s, op.name
        assert batched.dispatch_s == scalar.dispatch_s, op.name
        assert batched.bound == scalar.bound, op.name


class TestAgreementOnModels:
    @pytest.mark.parametrize("model_name,framework_name,device_name", [
        ("ResNet-18", "PyTorch", "Jetson TX2"),
        ("MobileNet-v2", "TFLite", "Raspberry Pi 3B"),
        ("Inception-v4", "TensorFlow", "Jetson Nano"),
        ("VGG16", "PyTorch", "Raspberry Pi 3B"),  # paged weights
        ("MobileNet-v2", "TensorRT", "Jetson Nano"),
    ])
    def test_deployed_graphs_bit_identical(self, model_name, framework_name,
                                           device_name):
        deployed = load_framework(framework_name).deploy(
            load_model(model_name), load_device(device_name))
        ops = deployed.graph.schedulable_ops()
        efficiencies = [
            deployed.framework.kernel_efficiency(
                op, deployed.unit, deployed.weight_dtype, deployed.graph)
            for op in ops
        ]
        _assert_bit_identical(ops, _inputs(), efficiencies,
                              exploit_sparsity=deployed.exploit_sparsity,
                              per_op_overhead_s=deployed.per_op_overhead_s)

    @pytest.mark.parametrize("batch_size", [1, 4, 32])
    def test_batch_sizes(self, batch_size):
        deployed = load_framework("PyTorch").deploy(
            load_model("ResNet-18"), load_device("Jetson TX2"))
        ops = deployed.graph.schedulable_ops()
        efficiencies = [0.4 + 0.01 * (i % 7) for i in range(len(ops))]
        _assert_bit_identical(ops, _inputs(), efficiencies,
                              batch_size=batch_size, per_op_overhead_s=3e-6)

    def test_pure_flop_ablation(self):
        deployed = load_framework("PyTorch").deploy(
            load_model("MobileNet-v2"), load_device("Jetson TX2"))
        ops = deployed.graph.schedulable_ops()
        timings = time_ops(ops, _inputs(), [0.5] * len(ops),
                           include_memory_term=False)
        assert all(t.memory_s == 0.0 for t in timings)
        _assert_bit_identical(ops, _inputs(), [0.5] * len(ops),
                              include_memory_term=False)

    def test_sparsity(self):
        graph = load_model("ResNet-18")
        for op in graph.ops:
            if hasattr(op, "weight_sparsity"):
                op.weight_sparsity = 0.6
        ops = graph.schedulable_ops()
        _assert_bit_identical(ops, _inputs(), [0.37] * len(ops),
                              exploit_sparsity=True)


class TestSharedProgram:
    def test_specs_lowered_together_equal_specs_lowered_alone(self):
        deployed = load_framework("PyTorch").deploy(
            load_model("MobileNet-v2"), load_device("Jetson TX2"))
        ops = tuple(deployed.graph.schedulable_ops())

        def spec(batch_size, memory, efficiency, overhead):
            return PlanSpec(
                ops=ops, inputs=_inputs(dispatch_overhead_s=overhead),
                efficiencies=(efficiency,) * len(ops), exploit_sparsity=False,
                per_op_overhead_s=3e-6, batch_size=batch_size,
                include_memory_term=memory, session_overhead_s=1e-4,
                input_transfer_s=0.0)

        empty = PlanSpec(ops=(), inputs=_inputs(), efficiencies=(),
                         exploit_sparsity=False, per_op_overhead_s=0.0,
                         batch_size=1, include_memory_term=True,
                         session_overhead_s=0.0, input_transfer_s=0.0)
        specs = [spec(1, True, 0.4, 12e-6), empty, spec(8, False, 0.7, 5e-6),
                 spec(3, True, 0.55, 20e-6)]
        together = lower_specs(specs).plans
        assert [plan.timings for plan in together] == [
            lower_specs([one]).plans[0].timings for one in specs]
        assert together[1].timings == []


class TestEdgeCasesAndValidation:
    def test_empty_ops(self):
        assert time_ops([], _inputs(), []) == []
        assert lower_specs([]).plans == []

    def test_zero_mac_op_exact_zero_compute(self):
        flat = O.Flatten("f", [O.Input("in", TensorShape(4, 4, 4))])
        (timing,) = time_ops([flat], _inputs(), [0.5])
        assert timing.compute_s == 0.0
        assert timing.memory_s > 0.0

    def test_mismatched_lengths_rejected(self):
        conv = O.Conv2D("c", [O.Input("in", TensorShape(3, 8, 8))], 8, 3)
        with pytest.raises(ValueError, match="efficiencies"):
            time_ops([conv], _inputs(), [0.5, 0.5])

    def test_nonpositive_efficiency_rejected(self):
        conv = O.Conv2D("c", [O.Input("in", TensorShape(3, 8, 8))], 8, 3)
        with pytest.raises(ValueError, match="efficiency"):
            time_ops([conv], _inputs(), [0.0])

    def test_bad_batch_size_rejected(self):
        conv = O.Conv2D("c", [O.Input("in", TensorShape(3, 8, 8))], 8, 3)
        with pytest.raises(ValueError, match="batch_size"):
            time_ops([conv], _inputs(), [0.5], batch_size=0)

    def test_results_are_plain_floats(self):
        conv = O.Conv2D("c", [O.Input("in", TensorShape(3, 8, 8))], 8, 3)
        (timing,) = time_ops([conv], _inputs(), [0.5])
        assert type(timing.compute_s) is float
        assert type(timing.memory_s) is float
