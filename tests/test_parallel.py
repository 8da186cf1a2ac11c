"""The parallel campaign runner: determinism and budget propagation.

The key property (and acceptance criterion): campaigns are *partition
transparent* — the merged result of a fanned campaign is the same as the
sequential one, regardless of worker count.  First fuzz failures match
bit-for-bit (seed + schedule + history); explore shards concatenate into
exactly the sequential enumeration order.
"""

from __future__ import annotations

import time

import pytest

from repro.checkers import (
    explore_parallel,
    fuzz_cal,
    fuzz_cal_parallel,
    fuzz_linearizability,
    fuzz_linearizability_parallel,
)
from repro.checkers.parallel import _chunk, campaign_runner
from repro.checkers.result import Verdict
from repro.core.catrace import swap_element
from repro.objects.base import operation
from repro.objects.exchanger import Exchanger
from repro.obs.metrics import Metrics
from repro.specs import ExchangerSpec, RegisterSpec
from repro.substrate import Program, World
from repro.substrate.explore import ExploreBudget, explore_all
from repro.workloads.programs import exchanger_program


class Broken(Exchanger):
    """Logs a swap with a ghost partner — never CAL."""

    @operation
    def exchange(self, ctx, v):
        yield from ctx.log_trace(
            swap_element(self.oid, ctx.tid, v, "ghost", 0)
        )
        return (True, 0)


def broken_setup(scheduler):
    world = World()
    exchanger = Broken(world, "E")
    program = Program(world)
    for index, value in enumerate([1, 2, 3]):
        program.thread(
            f"t{index}", lambda ctx, v=value: exchanger.exchange(ctx, v)
        )
    return program.runtime(scheduler)


class TestChunking:
    def test_contiguous_and_order_preserving(self):
        chunks = _chunk(list(range(10)), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert [s for c in chunks for s in c] == list(range(10))

    def test_more_workers_than_seeds(self):
        assert _chunk([1, 2], 8) == [[1], [2]]

    def test_empty(self):
        assert _chunk([], 4) == [[]]


class TestFuzzDeterminism:
    def test_report_tallies_match_sequential(self):
        setup = exchanger_program([1, 2, 3, 4])
        spec = ExchangerSpec("E")
        kwargs = dict(seeds=range(40), max_steps=2000, check_witness=True)
        sequential = fuzz_cal(setup, spec, **kwargs)
        for workers in (1, 3):
            parallel = fuzz_cal_parallel(setup, spec, workers=workers, **kwargs)
            assert parallel.runs == sequential.runs
            assert parallel.incomplete == sequential.incomplete
            assert parallel.crashed == sequential.crashed
            assert parallel.ok and sequential.ok

    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_first_failure_identical_regardless_of_workers(self, workers):
        spec = ExchangerSpec("E")
        kwargs = dict(seeds=range(30), max_steps=300)
        sequential = fuzz_cal(broken_setup, spec, **kwargs)
        parallel = fuzz_cal_parallel(
            broken_setup, spec, workers=workers, **kwargs
        )
        assert sequential.failures and parallel.failures
        first_seq, first_par = sequential.failures[0], parallel.failures[0]
        assert first_par.seed == first_seq.seed
        assert first_par.schedule == first_seq.schedule
        assert first_par.reason == first_seq.reason
        assert first_par.history == first_seq.history

    @pytest.mark.parametrize(
        "workers, every", [(1, 7), (1, 200), (1, 450), (2, 0), (2, 200)]
    )
    def test_every_chunked_failure_equals_inline(self, workers, every):
        """Chunks shrink their own failures, so every failure — not just
        the first — and the shrink counters equal the inline campaign's."""
        spec = ExchangerSpec("E")
        kwargs = dict(seeds=range(450), max_steps=300)
        inline_metrics, chunked_metrics = Metrics(), Metrics()
        inline = fuzz_cal(broken_setup, spec, metrics=inline_metrics, **kwargs)
        chunked = fuzz_cal_parallel(
            broken_setup,
            spec,
            workers=workers,
            checkpoint_every=every,
            metrics=chunked_metrics,
            **kwargs,
        )
        assert len(inline.failures) == 450
        assert [
            (f.seed, f.schedule, f.plan, f.history, f.reason)
            for f in chunked.failures
        ] == [
            (f.seed, f.schedule, f.plan, f.history, f.reason)
            for f in inline.failures
        ]
        assert inline_metrics.counters["shrink.accepted"] > 0
        assert chunked_metrics.counters == inline_metrics.counters
        assert chunked_metrics.maxima == inline_metrics.maxima

    def test_linearizability_variant(self):
        setup = exchanger_program([1, 2])
        spec = RegisterSpec("R")  # wrong object: no R operations, vacuous
        sequential = fuzz_linearizability(
            setup, spec, seeds=range(10), max_steps=500
        )
        parallel = fuzz_linearizability_parallel(
            setup, spec, seeds=range(10), max_steps=500, workers=2
        )
        assert parallel.runs == sequential.runs
        assert parallel.ok == sequential.ok

    def test_deadline_skips_remaining_seeds(self):
        setup = exchanger_program(list(range(8)))
        report = fuzz_cal_parallel(
            setup,
            ExchangerSpec("E"),
            seeds=range(5000),
            max_steps=5000,
            deadline=0.05,
            workers=2,
        )
        assert report.skipped > 0
        assert report.runs + report.incomplete + report.skipped == 5000


class TestExploreSharding:
    def test_shards_concatenate_to_sequential_order(self):
        setup = exchanger_program([1, 2])
        sequential = list(explore_all(setup, max_steps=400))
        for workers in (1, 2, 4):
            parallel = explore_parallel(setup, max_steps=400, workers=workers)
            assert [r.schedule for r in parallel] == [
                r.schedule for r in sequential
            ]
            assert [r.history for r in parallel] == [
                r.history for r in sequential
            ]

    def test_pin_prefix_partitions_the_space(self):
        setup = exchanger_program([1, 2])
        sequential = [tuple(r.schedule) for r in explore_all(setup, max_steps=400)]
        # Probe the first decision's arity, then enumerate each subtree.
        from repro.substrate.schedulers import ReplayScheduler

        scheduler = ReplayScheduler(())
        setup(scheduler).run(max_steps=400)
        arity = scheduler.log[0][0]
        assert arity > 1
        sharded = []
        for pin in range(arity):
            sharded.extend(
                tuple(r.schedule)
                for r in explore_all(setup, max_steps=400, pin_prefix=[pin])
            )
        assert sharded == sequential

    def test_budget_counters_are_merged(self):
        setup = exchanger_program([1, 2])
        budget = ExploreBudget()
        results = explore_parallel(setup, max_steps=400, budget=budget, workers=2)
        assert budget.runs >= len(results)
        assert budget.steps > 0
        assert not budget.tripped

    def test_shared_deadline_trips_workers(self):
        setup = exchanger_program([1, 2, 3])
        budget = ExploreBudget(deadline=0.05)
        results = explore_parallel(
            setup, max_steps=2000, budget=budget, workers=2
        )
        assert budget.tripped
        # A cut sweep yields fewer runs than the full factorial space.
        assert len(results) < 100_000


class TestBudgetBoundsTheWholeSweep:
    """A budget bounds the whole exhaustive sweep at any worker count.
    The parent gave each shard its own copy of the limits (200 runs for
    ``max_runs=100`` at two workers), and its verify runner dropped the
    budget from the merged report (OK after 10 of 4,622 schedules)."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_explore_stops_at_the_run_budget(self, workers):
        budget = ExploreBudget(max_runs=100)
        results = explore_parallel(
            exchanger_program([1, 2]), max_steps=400, budget=budget,
            workers=workers,
        )
        assert len(results) == 100
        assert budget.runs == 100
        assert budget.tripped
        assert budget.reason == "run budget exhausted (100 runs)"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_verify_runner_reports_a_cut_sweep_unknown(self, workers):
        budget = ExploreBudget(max_runs=10)
        report = campaign_runner("verify", "cal")(
            exchanger_program([1, 2]), ExchangerSpec("E"), max_steps=400,
            budget=budget, workers=workers,
        )
        assert report.verdict is Verdict.UNKNOWN
        assert report.budget is budget
        assert report.runs == budget.runs == 10

    def test_budget_and_checkpoint_are_refused_for_both_kinds(self):
        setup, budget = exchanger_program([1, 2]), ExploreBudget(max_runs=10)
        with pytest.raises(ValueError, match="no stable boundary"):
            explore_parallel(setup, max_steps=400, budget=budget, checkpoint=object())
        with pytest.raises(ValueError, match="no stable boundary"):
            campaign_runner("verify", "cal")(
                setup, ExchangerSpec("E"), max_steps=400, budget=budget,
                checkpoint=object(),
            )
        assert budget.runs == 0


class TestBudgetClock:
    def test_start_is_idempotent_and_counts_setup_time(self):
        budget = ExploreBudget(deadline=0.02)
        budget.start()
        time.sleep(0.03)  # "setup" happening after campaign entry
        setup = exchanger_program([1, 2])
        results = list(explore_all(setup, max_steps=400, budget=budget))
        assert budget.tripped
        assert results == []

