"""Randomized verification drivers: scale past exhaustive exploration."""

from __future__ import annotations

import pytest

from repro.checkers import fuzz_cal, fuzz_linearizability, shrink_failure
from repro.objects import (
    POP_SENTINEL,
    EliminationStack,
    NaiveEliminationQueue,
)
from repro.rg.views import (
    compose_views,
    elim_array_view,
    elimination_stack_view,
)
from repro.specs import ExchangerSpec, QueueSpec, StackSpec
from repro.substrate import Program, World
from repro.substrate.explore import run_schedule
from repro.substrate.faults import FaultCampaign
from repro.workloads.programs import exchanger_program


class TestFuzzCal:
    def test_four_thread_exchanger(self):
        """Four concurrent exchangers: beyond exhaustive reach, easily
        fuzzable — every sampled schedule must be CAL."""
        report = fuzz_cal(
            exchanger_program([1, 2, 3, 4]),
            ExchangerSpec("E"),
            seeds=range(200),
            max_steps=2000,
            check_witness=True,
            search=True,
        )
        assert report.ok
        assert report.runs == 200

    def test_eight_thread_exchanger_witness_only(self):
        report = fuzz_cal(
            exchanger_program(list(range(8))),
            ExchangerSpec("E"),
            seeds=range(100),
            max_steps=5000,
            check_witness=True,
            search=False,
        )
        assert report.ok

    def test_failures_record_seed(self):
        from repro.objects.base import operation
        from repro.objects.exchanger import Exchanger
        from repro.core.catrace import swap_element

        class Broken(Exchanger):
            @operation
            def exchange(self, ctx, v):
                yield from ctx.log_trace(
                    swap_element(self.oid, ctx.tid, v, "ghost", 0)
                )
                return (True, 0)

        def setup(scheduler):
            world = World()
            exchanger = Broken(world, "E")
            program = Program(world)
            program.thread("t1", lambda ctx: exchanger.exchange(ctx, 1))
            return program.runtime(scheduler)

        report = fuzz_cal(
            setup, ExchangerSpec("E"), seeds=range(3), max_steps=100
        )
        assert not report.ok
        assert all(f.seed in range(3) for f in report.failures)


class TestFuzzLinearizability:
    def _es_setup_and_view(self, threads=6):
        holder = {}

        def setup(scheduler):
            world = World()
            stack = EliminationStack(
                world, "ES", slots=2, max_attempts=None
            )
            holder["view"] = compose_views(
                elimination_stack_view(
                    stack.oid, stack.central.oid, stack.elim.oid, POP_SENTINEL
                ),
                elim_array_view(stack.elim.oid, stack.elim.subobject_ids),
            )
            program = Program(world)
            for index in range(1, threads + 1):
                if index % 2:
                    program.thread(
                        f"t{index}",
                        lambda ctx, v=index: stack.push(ctx, v),
                    )
                else:
                    program.thread(
                        f"t{index}", lambda ctx: stack.pop(ctx)
                    )
            return program.runtime(scheduler)

        return setup, (lambda trace: holder["view"](trace))

    def test_six_thread_elimination_stack(self):
        """Six threads on the elimination stack — far beyond exhaustive
        exploration; the modular witness pipeline fuzz-verifies it."""
        setup, view = self._es_setup_and_view(6)
        report = fuzz_linearizability(
            setup,
            StackSpec("ES"),
            seeds=range(60),
            max_steps=5000,
            check_witness=True,
            view=view,
        )
        assert report.runs > 0
        assert report.ok

    @staticmethod
    def _naive_queue_setup(scheduler):
        # Both enqueues on one thread, so enq(1) ≺ enq(2) in real time by
        # construction: whenever the dequeue eliminates with enq(2), the
        # still-queued value 1 has been jumped — the FIFO violation.
        from repro.substrate import spawn

        world = World()
        queue = NaiveEliminationQueue(
            world, "EQ", slots=1, max_attempts=3, wait_rounds=3
        )
        program = Program(world)
        program.thread(
            "producer",
            spawn(
                lambda ctx: queue.enqueue(ctx, 1),
                lambda ctx: queue.enqueue(ctx, 2),
            ),
        )
        program.thread("consumer", lambda ctx: queue.dequeue(ctx))
        return program.runtime(scheduler)

    def test_fuzz_finds_elimination_queue_bug(self):
        """Random schedules also expose the E13 FIFO violation."""
        report = fuzz_linearizability(
            self._naive_queue_setup,
            QueueSpec("EQ"),
            seeds=range(400),
            max_steps=1000,
        )
        assert not report.ok, "fuzzing should hit the FIFO violation"

    def test_failure_seed_reproduces(self):
        # Without shrinking, the stored history is the seeded run's own.
        report = fuzz_linearizability(
            self._naive_queue_setup,
            QueueSpec("EQ"),
            seeds=range(400),
            max_steps=1000,
            shrink=False,
        )
        failure = report.failures[0]
        from repro.substrate.explore import run_random

        rerun = run_random(
            self._naive_queue_setup, seed=failure.seed, max_steps=1000
        )
        assert rerun.history == failure.history

    def test_failure_schedule_replays_identically(self):
        """Counterexamples reproduce from their stored decision schedule
        alone — no re-derivation from the seed (shrunk ones included)."""
        from repro.checkers import replay

        for shrink in (False, True):
            report = fuzz_linearizability(
                self._naive_queue_setup,
                QueueSpec("EQ"),
                seeds=range(400),
                max_steps=1000,
                shrink=shrink,
            )
            assert not report.ok
            failure = report.failures[0]
            assert failure.schedule
            rerun = replay(self._naive_queue_setup, failure, max_steps=1000)
            assert rerun.history == failure.history

    def test_shrinking_never_grows_the_counterexample(self):
        unshrunk = fuzz_linearizability(
            self._naive_queue_setup,
            QueueSpec("EQ"),
            seeds=range(400),
            max_steps=1000,
            shrink=False,
        )
        shrunk = fuzz_linearizability(
            self._naive_queue_setup,
            QueueSpec("EQ"),
            seeds=range(400),
            max_steps=1000,
            shrink=True,
        )
        assert len(shrunk.failures) == len(unshrunk.failures)
        for small, big in zip(shrunk.failures, unshrunk.failures):
            assert len(small.schedule) <= len(big.schedule)


#: Shrink-table differential cases: (guidance, faults) on treiber-reuse.
#: Greybox finds many failures of one bug; the fault campaign makes plans
#: part of every table key.
_TABLE_CASES = {
    "greybox": ("greybox", None),
    "fault-campaign": ("uniform", FaultCampaign(crashes=1, delays=1, window=8)),
}


def _normalized(schedule, plan):
    """A shrink-table key: the prefix without trailing 0s, and the plan."""
    prefix = list(schedule)
    while prefix and prefix[-1] == 0:
        prefix.pop()
    return tuple(prefix), plan


class TestShrinkTable:
    """Shrinking through the campaign's one shrink table is a pure
    speed-up: failures, counters and ``shrink_step`` events equal those
    of a fresh table per failure, and of no table at all."""

    def _campaign(self, monkeypatch, case, table):
        """Fuzz treiber-reuse with each failure shrunk through ``table``:
        ``"shared"`` (the campaign's own), ``"fresh"`` (a new one per
        failure) or ``None``.  Returns the report, its counters, the
        ``shrink_step`` events, the replayed keys and the tables used."""
        from repro.checkers import fuzz as fuzz_module
        from repro.cli import WORKLOADS
        from repro.obs.metrics import Metrics
        from repro.obs.tracing import TraceSink

        replayed, tables = [], []

        def counted(setup, schedule, **kwargs):
            replayed.append(_normalized(schedule, kwargs.get("faults")))
            return run_schedule(setup, schedule, **kwargs)

        def tabled(*args, replays, **kwargs):
            if table != "shared":
                replays = {} if table == "fresh" else None
            tables.append(replays)
            return shrink_failure(*args, replays=replays, **kwargs)

        monkeypatch.setattr(fuzz_module, "run_schedule", counted)
        monkeypatch.setattr(fuzz_module, "shrink_failure", tabled)
        guidance, faults = _TABLE_CASES[case]
        workload = WORKLOADS["treiber-reuse"]
        metrics, sink = Metrics(), TraceSink()
        report = fuzz_linearizability(
            workload.make_setup(),
            workload.make_spec(),
            seeds=range(600),
            max_steps=workload.max_steps,
            yield_bias=workload.yield_bias,
            guidance=guidance,
            faults=faults,
            metrics=metrics,
            trace=sink,
        )
        steps = [e for e in sink.events if e["event"] == "shrink_step"]
        return report, metrics.counters, steps, replayed, tables

    @pytest.mark.parametrize("case", sorted(_TABLE_CASES))
    def test_shared_table_changes_nothing_but_replays(self, monkeypatch, case):
        shared = self._campaign(monkeypatch, case, "shared")
        report, counters, steps, replayed, tables = shared
        assert len(report.failures) > 10
        assert counters["shrink.accepted"] > 0
        assert len({id(t) for t in tables}) == 1  # one table per campaign
        for table in ("fresh", None):
            other, other_counters, other_steps, other_replayed, _ = (
                self._campaign(monkeypatch, case, table)
            )
            assert [
                (f.seed, f.schedule, f.plan, f.history, f.reason)
                for f in report.failures
            ] == [
                (f.seed, f.schedule, f.plan, f.history, f.reason)
                for f in other.failures
            ]
            assert counters == other_counters
            assert steps == other_steps
        # ``other_replayed`` is the untabled campaign's: one replay per
        # attempt.  The shared table replays each distinct key once.
        assert len(other_replayed) == counters["shrink.attempts"]
        assert len(replayed) <= len(set(other_replayed))
        assert len(replayed) == len(set(replayed))
        assert len(replayed) < counters["shrink.attempts"]
        if case == "fault-campaign":
            assert all(plan is not None for _, plan in replayed)

    def test_a_full_table_is_cleared_without_changing_results(self, monkeypatch):
        from repro.checkers import fuzz as fuzz_module

        report, counters, steps, replayed, _ = self._campaign(
            monkeypatch, "greybox", "shared"
        )
        monkeypatch.setattr(fuzz_module, "_SHRINK_CAP", 8)
        capped, capped_counters, capped_steps, capped_replayed, tables = (
            self._campaign(monkeypatch, "greybox", "shared")
        )
        assert len(tables[0]) <= 8
        assert len(capped_replayed) > len(replayed)  # evictions cost replays
        assert [(f.seed, f.schedule, f.history) for f in capped.failures] == [
            (f.seed, f.schedule, f.history) for f in report.failures
        ]
        assert capped_counters == counters and capped_steps == steps

    def test_hits_never_alias_a_stored_schedule(self, monkeypatch):
        report = self._campaign(monkeypatch, "greybox", "shared")[0]
        schedules = [f.schedule for f in report.failures]
        assert len({id(s) for s in schedules}) == len(schedules)
        schedules[0].append(7)
        again = self._campaign(monkeypatch, "greybox", "shared")[0]
        assert [f.schedule for f in again.failures][1:] == schedules[1:]
