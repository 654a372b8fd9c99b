"""The shared chunk planner (:func:`repro.experiments.batch.plan_chunks`),
tested directly: no pool, no sockets, no simulation -- only the plan a
given cost-model state produces."""

from __future__ import annotations

from repro.experiments import CostModel, matrix_spec
from repro.experiments.batch import plan_chunks
from repro.experiments.traces import request_key
from repro.harness.configs import fig5_configs

INSTS = 1500


def spec_of(workloads, n_configs=4, n_insts=INSTS):
    configs = dict(list(fig5_configs().items())[:n_configs])
    return matrix_spec("plan", configs, list(workloads), n_insts=n_insts)


def taught(requests, seconds_by_label):
    """A fresh model that measured each config label at the given seconds."""
    model = CostModel()
    for request in requests:
        model.observe(request.config, request.n_insts, seconds_by_label[request.config_label])
    return model


def chunk_cost(model, requests, indices):
    return sum(model.cost(requests[i]) for i in indices)


class TestGrouping:
    def test_every_cell_planned_once_and_chunks_share_a_trace(self):
        requests = spec_of(["gcc", "vortex", "mcf"]).cells()
        for parallelism in (1, 2, 5, 100):
            chunks = plan_chunks(requests, CostModel(), parallelism)
            assert sorted(i for _, indices in chunks for i in indices) == list(
                range(len(requests))
            )
            for key, indices in chunks:
                assert indices == sorted(indices)  # request order within a chunk
                assert {request_key(requests[i]) for i in indices} == {key}

    def test_deterministic_for_a_given_model_state(self):
        requests = spec_of(["gcc", "vortex", "mcf", "bzip2"]).cells()
        labels = {r.config_label for r in requests}
        seconds = {label: 1.0 + position for position, label in enumerate(sorted(labels))}
        first = plan_chunks(requests, taught(requests, seconds), 6)
        again = plan_chunks(requests, taught(requests, seconds), 6)
        assert first == again
        # Equal-cost groups tie-break on the workload name, not on the
        # order the workloads were declared in.
        unsplit = plan_chunks(requests, CostModel(), 1)
        names = [requests[indices[0]].workload.name for _, indices in unsplit]
        assert names == sorted(names)

    def test_costliest_first(self):
        # Same configs everywhere, so expected cost follows the budget.
        requests = (
            spec_of(["gcc"]).cells()
            + spec_of(["vortex"], n_insts=4 * INSTS).cells()
            + spec_of(["mcf"], n_insts=2 * INSTS).cells()
        )
        model = CostModel()
        chunks = plan_chunks(requests, model, 1)
        names = [requests[indices[0]].workload.name for _, indices in chunks]
        assert names == ["vortex", "mcf", "gcc"]
        # Splitting the costliest group re-sorts: its halves tie with mcf
        # and the tie goes to the workload name.
        chunks = plan_chunks(requests, model, 4)
        costs = [chunk_cost(model, requests, indices) for _, indices in chunks]
        assert costs == sorted(costs, reverse=True)
        names = [requests[indices[0]].workload.name for _, indices in chunks]
        assert names == ["mcf", "vortex", "vortex", "gcc"]


class TestSplitting:
    def test_no_split_once_chunks_reach_parallelism(self):
        requests = spec_of(["gcc", "vortex"]).cells()
        for parallelism in (1, 2):
            chunks = plan_chunks(requests, CostModel(), parallelism)
            assert [len(indices) for _, indices in chunks] == [4, 4]

    def test_splits_only_up_to_parallelism(self):
        requests = spec_of(["gcc", "vortex"]).cells()
        assert len(plan_chunks(requests, CostModel(), 3)) == 3
        assert len(plan_chunks(requests, CostModel(), 4)) == 4

    def test_split_at_the_balanced_prefix_cost_point(self):
        requests = spec_of(["gcc"]).cells()
        labels = [r.config_label for r in requests]
        # Cell costs 1, 1, 1, 3 (total 6): the first prefix reaching half
        # the cost is the first three cells.
        model = taught(requests, dict(zip(labels, (1.0, 1.0, 1.0, 3.0))))
        chunks = plan_chunks(requests, model, 2)
        assert sorted(indices for _, indices in chunks) == [[0, 1, 2], [3]]
        # Costs 3, 1, 1, 1: the costly head cell alone is already half.
        model = taught(requests, dict(zip(labels, (3.0, 1.0, 1.0, 1.0))))
        chunks = plan_chunks(requests, model, 2)
        assert sorted(indices for _, indices in chunks) == [[0], [1, 2, 3]]

    def test_single_cell_chunks_never_split(self):
        requests = spec_of(["gcc", "vortex"], n_configs=2).cells()
        chunks = plan_chunks(requests, CostModel(), 100)
        # Parallelism far beyond the cell count stops at one cell a chunk.
        assert len(chunks) == len(requests)
        assert all(len(indices) == 1 for _, indices in chunks)
        lone = spec_of(["mcf"], n_configs=1).cells()
        assert plan_chunks(lone, CostModel(), 8) == [(request_key(lone[0]), [0])]

    def test_empty_request_list(self):
        assert plan_chunks([], CostModel(), 4) == []
