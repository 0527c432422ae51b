"""The greedy/LPT parallel schedules and runner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BootstrapAnalyzer,
    Cluster,
    ParallelRunner,
    RelevantSlice,
    cluster_cost,
    greedy_parts,
    lpt_parts,
    schedule_indices,
)
from repro.core.parallel import BACKENDS, greedy_index_parts, lpt_index_parts
from repro.ir import Var

from .helpers import figure5_program


def make_clusters(sizes):
    out = []
    for i, s in enumerate(sizes):
        members = frozenset(Var(f"c{i}v{j}") for j in range(s))
        sl = RelevantSlice(cluster=members, vp=members,
                           statements=frozenset())
        out.append(Cluster(members=members, slice=sl,
                           origin="steensgaard", parent_size=s))
    return out


class TestGreedyParts:
    def test_every_cluster_scheduled_once(self):
        clusters = make_clusters([5, 3, 8, 1, 1, 4, 2])
        parts = greedy_parts(clusters, 3)
        flat = [c for p in parts for c in p]
        assert len(flat) == len(clusters)
        assert {id(c) for c in flat} == {id(c) for c in clusters}

    def test_at_most_requested_parts(self):
        clusters = make_clusters([1] * 20)
        assert len(greedy_parts(clusters, 5)) <= 5

    def test_single_part(self):
        clusters = make_clusters([3, 3, 3])
        parts = greedy_parts(clusters, 1)
        assert len(parts) == 1

    def test_part_closes_when_target_exceeded(self):
        """The paper's rule: close the part as soon as the accumulated
        pointer count strictly exceeds total/k."""
        clusters = make_clusters([7, 7, 7, 7])  # total 28, target 7
        parts = greedy_parts(clusters, 4)
        target = 28 / 4
        for part in parts[:-1]:
            acc = sum(c.size for c in part)
            assert acc > target                       # it closed because...
            assert acc - part[-1].size <= target      # ...of its last cluster

    def test_empty_cluster_list(self):
        assert greedy_parts([], 5) == [[]]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            greedy_parts(make_clusters([1]), 0)

    def test_more_parts_than_clusters(self):
        clusters = make_clusters([2, 2])
        parts = greedy_parts(clusters, 10)
        assert sum(len(p) for p in parts) == 2


class TestLptParts:
    def test_every_cluster_scheduled_once(self):
        clusters = make_clusters([5, 3, 8, 1, 1, 4, 2])
        parts = lpt_parts(clusters, 3)
        flat = [c for p in parts for c in p]
        assert len(flat) == len(clusters)
        assert {id(c) for c in flat} == {id(c) for c in clusters}

    def test_at_most_requested_parts(self):
        clusters = make_clusters([1] * 20)
        assert len(lpt_parts(clusters, 5)) <= 5

    def test_empty_cluster_list(self):
        assert lpt_parts([], 5) == [[]]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            lpt_parts(make_clusters([1]), 0)

    def test_balances_adversarial_input(self):
        """[5, 5, 4, 3, 3] on 2 parts separates the schedulers: the
        paper's sweep closes {5,5,4}=14, LPT lands at {5,4}/{5,3,3}=11."""
        costs = [5, 5, 4, 3, 3]
        greedy = greedy_index_parts(costs, 2)
        lpt = lpt_index_parts(costs, 2)

        def max_cost(schedule):
            return max(sum(costs[i] for i in p) for p in schedule)

        assert max_cost(greedy) == 14
        assert max_cost(lpt) == 11

    def test_cluster_cost_floors_at_one(self):
        (c,) = make_clusters([0])
        assert c.slice.size == 0
        assert cluster_cost(c) == 1

    def test_schedule_indices_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError):
            schedule_indices(make_clusters([1]), 2, scheduler="fifo")


class TestLptProperties:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=40),
           st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_schedule_invariants(self, costs, parts):
        schedule = lpt_index_parts(costs, parts)
        flat = sorted(i for p in schedule for i in p)
        # Coverage without drop or duplication, within the part cap.
        assert flat == list(range(len(costs)))
        assert 1 <= len(schedule) <= parts

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=40),
           st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_never_worse_than_greedy(self, costs, parts):
        """The portfolio guarantee: LPT's max part cost never exceeds
        the paper's greedy sweep on the same costs."""
        def max_cost(schedule):
            return max((sum(costs[i] for i in p) for p in schedule),
                       default=0.0)

        lpt = max_cost(lpt_index_parts(costs, parts))
        greedy = max_cost(greedy_index_parts(costs, parts))
        assert lpt <= greedy


class TestParallelRunner:
    def test_simulated_run(self):
        clusters = make_clusters([2, 3, 4])
        runner = ParallelRunner(parts=2)
        report = runner.run(clusters, lambda c: c.size)
        assert sorted(report.results) == [2, 3, 4]
        assert len(report.cluster_times) == 3
        assert report.max_part_time <= report.total_time + 1e-9

    def test_results_order_matches_clusters(self):
        clusters = make_clusters([1, 2, 3])
        runner = ParallelRunner(parts=3)
        report = runner.run(clusters, lambda c: c.size)
        assert report.results == [1, 2, 3]

    def test_duplicate_clusters_keep_distinct_slots(self):
        """Regression: results/cluster_times were once keyed by
        ``id(cluster)``, so the same cluster listed twice collapsed to a
        single slot.  Index keying must run the task once per listing."""
        (c,) = make_clusters([3])
        calls = []

        def task(cluster):
            calls.append(cluster)
            return len(calls)

        runner = ParallelRunner(parts=2)
        report = runner.run([c, c], task)
        assert report.results == [1, 2]
        assert calls == [c, c]
        assert sorted(report.cluster_times) == [0, 1]
        assert sorted(i for p in report.schedule for i in p) == [0, 1]

    def test_lpt_runner_restores_input_order(self):
        """LPT visits clusters largest-first, but results still line up
        with the input sequence."""
        clusters = make_clusters([1, 5, 2, 4, 3])
        runner = ParallelRunner(parts=2, scheduler="lpt")
        report = runner.run(clusters, lambda c: c.size)
        assert report.results == [1, 5, 2, 4, 3]
        assert report.scheduler == "lpt"

    def test_run_rejects_processes_backend(self):
        runner = ParallelRunner(parts=2, backend="processes")
        with pytest.raises(ValueError):
            runner.run(make_clusters([1]), lambda c: c.size)

    def test_unknown_backend(self):
        assert BACKENDS == ("simulate", "processes")
        for backend in ("mpi", "threads"):
            with pytest.raises(ValueError):
                ParallelRunner(backend=backend)

    def test_integration_with_bootstrap(self):
        prog = figure5_program()
        boot = BootstrapAnalyzer(prog).run()
        report = boot.analyze_all()
        assert all(isinstance(r, dict) for r in report.results)


class TestGreedyProperties:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=40),
           st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_schedule_invariants(self, sizes, parts):
        clusters = make_clusters(sizes)
        schedule = greedy_parts(clusters, parts)
        # Order-preserving coverage, no duplication, part-count cap.
        flat = [c for p in schedule for c in p]
        assert [id(c) for c in flat] == [id(c) for c in clusters]
        assert 1 <= len(schedule) <= parts
        # The paper's closing rule: every non-final part exceeded the
        # target only because of its last cluster.
        target = sum(sizes) / parts
        for part in schedule[:-1]:
            acc = sum(c.size for c in part)
            assert acc - part[-1].size <= target
