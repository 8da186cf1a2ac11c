"""Substrate: memory, effects, schedulers, runtime, exploration."""

from __future__ import annotations

import pytest

from repro.core.catrace import failed_exchange_element
from repro.substrate import (
    Program,
    RandomScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    World,
    explore_all,
    run_once,
    run_random,
    spawn,
)
from repro.substrate.errors import ExplorationCut
from repro.substrate.explore import ExploreBudget
from repro.substrate.memory import Heap, Ref
from repro.substrate.runtime import AssertionFailed, Runtime, ThreadCrashed
from repro.substrate.schedulers import FixedScheduler


class TestMemory:
    def test_ref_peek_poke(self):
        ref = Ref("x", 1)
        assert ref.peek() == 1
        ref.poke(2)
        assert ref.peek() == 2

    def test_heap_allocates_unique_names(self):
        heap = Heap()
        a = heap.ref("x", 1)
        b = heap.ref("x", 2)
        assert a.name != b.name
        assert len(heap) == 2

    def test_heap_snapshot(self):
        heap = Heap()
        heap.ref("x", 1)
        heap.ref("y", "hello")
        snap = heap.snapshot()
        assert snap == {"x": 1, "y": "hello"}

    def test_snapshot_is_a_copy(self):
        heap = Heap()
        cell = heap.ref("x", 1)
        snap = heap.snapshot()
        cell.poke(99)
        assert snap["x"] == 1


def _counter_program(world: World):
    cell = world.heap.ref("count", 0)

    def body(ctx):
        for _ in range(3):
            value = yield from ctx.read(cell)
            yield from ctx.write(cell, value + 1)
        return "done"

    return cell, body


class TestRuntime:
    def test_single_thread_runs_to_completion(self):
        world = World()
        cell, body = _counter_program(world)
        program = Program(world).thread("t1", body)
        result = program.runtime(RoundRobinScheduler()).run()
        assert result.completed
        assert result.returns == {"t1": "done"}
        assert cell.peek() == 3

    def test_lost_update_under_interleaving(self):
        # Two increment threads with a read/write race must be able to
        # lose updates under some schedule.
        def setup(scheduler):
            world = World()
            cell, body = _counter_program(world)
            setup.cell = cell
            program = Program(world).thread("a", body).thread("b", body)
            return program.runtime(scheduler)

        finals = set()
        for run in explore_all(setup, max_steps=100):
            finals.add(setup.cell.peek())
        assert 6 in finals  # fully serialized
        assert min(finals) < 6  # lost updates observed

    def test_max_steps_cuts_run(self):
        world = World()
        cell = world.heap.ref("x", 0)

        def spinner(ctx):
            while True:
                yield from ctx.pause()

        program = Program(world).thread("t1", spinner)
        result = program.runtime(RoundRobinScheduler()).run(max_steps=10)
        assert not result.completed
        assert result.steps == 10

    def test_cas_semantics(self):
        world = World()
        cell = world.heap.ref("x", 0)

        def body(ctx):
            first = yield from ctx.cas(cell, 0, 1)
            second = yield from ctx.cas(cell, 0, 2)
            return (first, second)

        program = Program(world).thread("t1", body)
        result = program.runtime(RoundRobinScheduler()).run()
        assert result.returns["t1"] == (True, False)
        assert cell.peek() == 1

    def test_cas_on_success_runs_atomically(self):
        world = World()
        cell = world.heap.ref("x", 0)

        def log(w):
            w.append_trace([failed_exchange_element("E", "t1", 5)])

        def body(ctx):
            yield from ctx.cas(cell, 0, 1, on_success=log)

        program = Program(world).thread("t1", body)
        result = program.runtime(RoundRobinScheduler()).run()
        assert len(result.trace) == 1

    def test_cas_identity_compare_for_objects(self):
        world = World()

        class Box:
            pass

        a, b = Box(), Box()
        cell = world.heap.ref("x", a)

        def body(ctx):
            wrong = yield from ctx.cas(cell, b, None)
            right = yield from ctx.cas(cell, a, b)
            return (wrong, right)

        program = Program(world).thread("t1", body)
        result = program.runtime(RoundRobinScheduler()).run()
        assert result.returns["t1"] == (False, True)

    def test_thread_crash_is_recorded(self):
        world = World()

        def bad(ctx):
            yield from ctx.pause()
            raise RuntimeError("boom")

        program = Program(world).thread("t1", bad)
        result = program.runtime(RoundRobinScheduler()).run()
        assert result.completed
        assert "RuntimeError" in result.crashed["t1"]
        assert "t1" not in result.returns

    def test_thread_crash_raises_on_request(self):
        world = World()

        def bad(ctx):
            yield from ctx.pause()
            raise RuntimeError("boom")

        def ok(ctx):
            yield from ctx.pause()
            return 42

        program = Program(world).thread("t1", bad).thread("t2", ok)
        runtime = Runtime(
            world, {"t1": bad, "t2": ok}, RoundRobinScheduler(), on_crash="raise"
        )
        with pytest.raises(ThreadCrashed):
            runtime.run()

    def test_crash_does_not_abort_other_threads(self):
        world = World()

        def bad(ctx):
            yield from ctx.pause()
            raise RuntimeError("boom")

        def ok(ctx):
            yield from ctx.pause()
            yield from ctx.pause()
            return 42

        program = Program(world).thread("t1", bad).thread("t2", ok)
        result = program.runtime(RoundRobinScheduler()).run()
        assert result.completed
        assert result.returns["t2"] == 42
        assert set(result.crashed) == {"t1"}

    def test_exploration_cut_reports_incomplete(self):
        world = World()

        def bounded(ctx):
            yield from ctx.pause()
            raise ExplorationCut("budget")

        program = Program(world).thread("t1", bounded)
        result = program.runtime(RoundRobinScheduler()).run()
        assert not result.completed

    def test_assert_now_failure_raises(self):
        world = World()

        def body(ctx):
            yield from ctx.assert_now("always-false", lambda w: False)

        program = Program(world).thread("t1", body)
        with pytest.raises(AssertionFailed):
            program.runtime(RoundRobinScheduler()).run()

    def test_query_returns_value(self):
        world = World()
        cell = world.heap.ref("x", 42)

        def body(ctx):
            value = yield from ctx.query(lambda w: w.heap.snapshot()["x"])
            return value

        program = Program(world).thread("t1", body)
        result = program.runtime(RoundRobinScheduler()).run()
        assert result.returns["t1"] == 42

    def test_counters_track_effects(self):
        world = World()
        cell = world.heap.ref("x", 0)

        def body(ctx):
            yield from ctx.read(cell)
            yield from ctx.write(cell, 1)
            yield from ctx.cas(cell, 1, 2)
            yield from ctx.cas(cell, 1, 3)
            yield from ctx.pause()

        program = Program(world).thread("t1", body)
        result = program.runtime(RoundRobinScheduler()).run()
        assert result.counters["read"] == 1
        assert result.counters["write"] == 1
        assert result.counters["cas_success"] == 1
        assert result.counters["cas_failure"] == 1
        assert result.counters["pause"] == 1


class TestSchedulers:
    def test_round_robin_rotates(self):
        scheduler = RoundRobinScheduler()
        picks = [scheduler.choose_thread(["a", "b"]) for _ in range(4)]
        assert picks == ["a", "b", "a", "b"]

    def test_random_scheduler_is_reproducible(self):
        a = [
            RandomScheduler(seed=7).choose_thread(["a", "b", "c"])
            for _ in range(1)
        ]
        b = [
            RandomScheduler(seed=7).choose_thread(["a", "b", "c"])
            for _ in range(1)
        ]
        assert a == b

    def test_replay_follows_prefix(self):
        scheduler = ReplayScheduler([1, 0])
        assert scheduler.choose_thread(["a", "b"]) == "b"
        assert scheduler.choose_thread(["a", "b"]) == "a"
        assert scheduler.choose_thread(["a", "b"]) == "a"  # default 0
        assert scheduler.choices() == [1, 0, 0]

    def test_replay_rejects_out_of_range_prefix(self):
        scheduler = ReplayScheduler([5])
        with pytest.raises(ValueError):
            scheduler.choose_thread(["a", "b"])

    def test_replay_logs_value_choices(self):
        scheduler = ReplayScheduler([])
        assert scheduler.choose_value([10, 20, 30]) == 10
        assert scheduler.log == [(3, 0)]

    def test_preemption_bound_pins_thread(self):
        scheduler = ReplayScheduler([1], preemption_bound=1)
        first = scheduler.choose_thread(["a", "b"])  # b: not a preemption
        assert first == "b"
        # prefix exhausted → default 0 → a: preemption #1
        second = scheduler.choose_thread(["a", "b"])
        assert second == "a"
        # budget used up: pinned to a, no decision point logged
        log_before = len(scheduler.log)
        third = scheduler.choose_thread(["a", "b"])
        assert third == "a"
        assert len(scheduler.log) == log_before

    def test_fixed_scheduler(self):
        scheduler = FixedScheduler(["a", "b", "a"], values=[2])
        assert scheduler.choose_thread(["a", "b"]) == "a"
        assert scheduler.choose_thread(["a", "b"]) == "b"
        assert scheduler.choose_value([1, 2, 3]) == 2
        with pytest.raises(RuntimeError):
            scheduler.choose_value([1])


class TestExploration:
    def _two_thread_setup(self, steps_per_thread=2):
        def setup(scheduler):
            world = World()

            def body(ctx):
                for _ in range(steps_per_thread):
                    yield from ctx.pause()

            program = Program(world).thread("a", body).thread("b", body)
            return program.runtime(scheduler)

        return setup

    def test_interleaving_count_matches_binomial(self):
        # Each thread takes 3 atomic steps (2 pauses + 1 final return step
        # is not a decision point once the other finished)... the exact
        # count: interleavings of two 3-step threads = C(6,3) = 20.
        runs = list(explore_all(self._two_thread_setup(2)))
        assert len(runs) == 20

    def test_single_thread_has_one_run(self):
        def setup(scheduler):
            world = World()

            def body(ctx):
                yield from ctx.pause()
                yield from ctx.pause()

            return Program(world).thread("a", body).runtime(scheduler)

        assert len(list(explore_all(setup))) == 1

    def test_all_schedules_are_distinct(self):
        seen = set()
        for run in explore_all(self._two_thread_setup(2)):
            key = tuple(run.schedule)
            assert key not in seen
            seen.add(key)

    def test_limit_caps_results(self):
        budget = ExploreBudget(max_runs=5)
        results = list(explore_all(self._two_thread_setup(3), budget=budget))
        assert len(results) == 5
        assert budget.tripped

    def test_preemption_bound_reduces_runs(self):
        full = list(explore_all(self._two_thread_setup(3)))
        bounded = list(
            explore_all(self._two_thread_setup(3), preemption_bound=1)
        )
        assert len(bounded) < len(full)

    def test_choose_values_are_explored(self):
        def setup(scheduler):
            world = World()

            def body(ctx):
                value = yield from ctx.choose([10, 20, 30])
                return value

            return Program(world).thread("a", body).runtime(scheduler)

        values = {run.returns["a"] for run in explore_all(setup)}
        assert values == {10, 20, 30}

    def test_run_once_and_run_random(self):
        setup = self._two_thread_setup(1)
        assert run_once(setup).completed
        assert run_random(setup, seed=3).completed


class TestProgram:
    def test_duplicate_thread_rejected(self):
        program = Program(World())
        program.thread("a", lambda ctx: iter(()))
        with pytest.raises(ValueError):
            program.thread("a", lambda ctx: iter(()))

    def test_spawn_sequences_calls(self):
        world = World()
        cell = world.heap.ref("x", 0)

        def write_one(ctx):
            yield from ctx.write(cell, 1)
            return "first"

        def write_two(ctx):
            yield from ctx.write(cell, 2)
            return "second"

        program = Program(world).thread("a", spawn(write_one, write_two))
        result = program.runtime(RoundRobinScheduler()).run()
        assert result.returns["a"] == ["first", "second"]
        assert cell.peek() == 2
