"""Lowering rules: split and pipeline Deployments carry the priced floats.

The naive split oracle and the pipeline DP's own plan are the ground
truth; the lowered Deployments must carry their numbers at ZERO float
tolerance — that exactness is what lets the fleet serve what the
pricing produced.
"""

import pytest

from repro.distribution import (
    load_link,
    lower_pipeline,
    lower_split,
    partition_pipeline_heterogeneous,
    split_deployments,
)
from repro.placement import Deployment
from repro.runtime import Scenario, default_runner
from tests.distribution.oracles import oracle_split_rows

EDGE = Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite")
REMOTE = Scenario("MobileNet-v2", "GTX Titan X", "PyTorch")


@pytest.fixture(scope="module")
def runner():
    return default_runner()


@pytest.fixture(scope="module")
def reference_rows(runner):
    return oracle_split_rows(runner.session(EDGE).deployed,
                             runner.session(REMOTE).deployed,
                             load_link("wifi"))


def _row(deployment):
    """The (cut index, edge_s, transfer_s, remote_s) a split carries."""
    head, tail = deployment.stages
    return (len(head.op_names), head.compute_s, head.transfer_s,
            tail.compute_s)


def _oracle_row(row):
    cut, edge_s, transfer_s, remote_s = row
    return (cut.index, edge_s, transfer_s, remote_s)


class TestSplitLowering:
    def test_every_cut_projects_back_exactly(self, runner, reference_rows):
        """All cuts, zero tolerance: the deployment IS the priced cut."""
        lowered = split_deployments(EDGE, REMOTE, "wifi", runner=runner)
        assert len(lowered) == len(reference_rows)
        for deployment, row in zip(lowered[:-1], reference_rows):
            assert _row(deployment) == _oracle_row(row)
            assert deployment.stages[0].transfer_bytes == row[0].transfer_bytes

    def test_default_cut_is_the_latency_optimal_one(self, runner,
                                                    reference_rows):
        deployment = lower_split(EDGE, REMOTE, "wifi", runner=runner)
        totals = [edge_s + transfer_s + remote_s
                  for _, edge_s, transfer_s, remote_s in reference_rows]
        best = totals.index(min(totals))
        if deployment.kind == "split":
            assert _row(deployment) == _oracle_row(reference_rows[best])
        else:  # all-edge optimum normalizes to a single-node deployment
            assert best == len(reference_rows) - 1

    def test_all_edge_cut_normalizes_to_single_node(self, runner,
                                                    reference_rows):
        all_edge = lower_split(EDGE, REMOTE, "wifi",
                               cut_index=len(reference_rows) - 1,
                               runner=runner)
        assert all_edge.kind == "single"
        assert all_edge.devices == ("Raspberry Pi 3B",)
        assert all_edge.stages[0].op_names is None
        assert all_edge.stages[0].compute_s == reference_rows[-1][1]

    def test_all_remote_cut_ships_the_input(self, runner):
        all_remote = lower_split(EDGE, REMOTE, "wifi", cut_index=0,
                                 runner=runner)
        assert all_remote.kind == "split"
        head, tail = all_remote.stages
        assert head.op_names == () and head.compute_s == pytest.approx(0.0)
        assert head.transfer_bytes > 0
        assert tail.scenario.device == "GTX Titan X"

    def test_stages_carry_power_and_init_pricing(self, runner):
        deployment = lower_split(EDGE, REMOTE, "wifi", cut_index=5,
                                 runner=runner)
        for stage in deployment.stages:
            assert stage.power_w > 0
            assert stage.idle_w > 0
            assert stage.init_time_s > 0

    def test_lowered_deployment_survives_json(self, runner):
        deployment = lower_split(EDGE, REMOTE, "lte", cut_index=3,
                                 runner=runner)
        clone = Deployment.from_dict(deployment.to_dict())
        assert clone == deployment
        assert _row(clone) == _row(deployment)


class TestPipelineLowering:
    CHAIN = (Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite"),
             Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite"))

    @staticmethod
    def _assert_stages_match(deployment, reference):
        assert len(deployment.stages) == len(reference.stages)
        for stage, planned in zip(deployment.stages, reference.stages):
            assert stage.op_names == planned.op_names
            assert stage.compute_s == planned.compute_s
            assert stage.transfer_s == planned.outgoing_transfer_s

    def test_projection_equals_the_partitioner_exactly(self, runner):
        deployment = lower_pipeline(self.CHAIN, "lan", runner=runner)
        reference = partition_pipeline_heterogeneous(
            [runner.session(s) for s in self.CHAIN], load_link("lan"))
        self._assert_stages_match(deployment, reference)

    def test_heterogeneous_chain_lowerable(self, runner):
        chain = (Scenario("MobileNet-v2", "Jetson Nano", "PyTorch"),
                 Scenario("MobileNet-v2", "Jetson TX2", "PyTorch"))
        deployment = lower_pipeline(chain, "wifi", runner=runner)
        assert deployment.kind == "pipeline"
        assert deployment.devices == ("Jetson Nano", "Jetson TX2")
        reference = partition_pipeline_heterogeneous(
            [runner.session(s) for s in chain], load_link("wifi"))
        self._assert_stages_match(deployment, reference)

    def test_interior_stages_record_crossing_bytes(self, runner):
        deployment = lower_pipeline(self.CHAIN, "lan", runner=runner)
        assert deployment.stages[0].transfer_bytes > 0
        assert deployment.stages[-1].transfer_bytes == 0

    def test_single_scenario_chain_rejected(self, runner):
        with pytest.raises(ValueError, match="at least two"):
            lower_pipeline(self.CHAIN[:1], "lan", runner=runner)
