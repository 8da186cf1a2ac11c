"""The runtime's cached enabled set and its effect dispatch table.

The enabled set is cached between the events that change it (a thread
finishing, crashing or halting; a write into an empty store buffer; a
flush or drain emptying one).  These tests recompute it from the thread
and buffer state after every step and compare.  The dispatch tests pin
how effect types map to handlers: subclasses run as their base, and an
unlisted type still fails loudly.
"""

from __future__ import annotations

import inspect

import pytest

from repro import cli
from repro.substrate import effects
from repro.substrate.effects import Effect, Read
from repro.substrate.faults import CrashThread, FaultCampaign, FaultPlan, StallThread
from repro.substrate.program import Program
from repro.substrate.runtime import (
    _HANDLERS,
    MEMORY_TSO,
    Runtime,
    SubstrateError,
    ThreadCrashed,
    World,
)
from repro.substrate.schedulers import (
    FixedScheduler,
    RandomScheduler,
    flush_id,
    flush_owner,
    is_flush,
)
from repro.workloads.programs import store_buffer_litmus


def _reference_enabled(runtime: Runtime):
    """The enabled set recomputed from scratch: live threads in program
    order, then a flush id per non-empty buffer in program order."""
    threads = runtime._threads
    live = [tid for tid, thread in threads.items() if not thread.finished]
    flushes = [flush_id(tid) for tid in threads if runtime._buffers.get(tid)]
    return live + flushes


def _advance(runtime: Runtime, tid: str) -> None:
    """One step from outside the run loop, as ``Runtime.run`` takes it."""
    if is_flush(tid):
        runtime._flush_one(flush_owner(tid))
        return
    try:
        runtime.step_thread(tid)
    except ThreadCrashed:
        pass


class TestEnabledSetCache:
    def _runtime(self):
        world = World()
        x = world.heap.ref("x", 0)
        y = world.heap.ref("y", 0)
        z = world.heap.ref("z", 0)
        w = world.heap.ref("w", 0)

        def a(ctx):  # crashed with two writes buffered
            yield from ctx.write(x, 1)
            yield from ctx.write(y, 1)
            yield from ctx.read(x)

        def b(ctx):  # stalled with one write buffered
            yield from ctx.write(x, 2)
            yield from ctx.read(y)

        def c(ctx):  # a CAS drains, then finishes with one write buffered
            yield from ctx.write(z, 3)
            yield from ctx.cas(w, 0, 1)
            yield from ctx.write(z, 4)

        def d(ctx):  # its generator raises with one write buffered
            yield from ctx.write(y, 5)
            raise RuntimeError("boom")

        program = Program(world)
        for tid, body in (("a", a), ("b", b), ("c", c), ("d", d)):
            program.thread(tid, body)
        runtime = program.runtime(FixedScheduler([]), memory_model=MEMORY_TSO)
        runtime.inject(FaultPlan((CrashThread("a", 2), StallThread("b", 1))))
        return runtime

    def test_outside_stepping_matches_reference(self):
        fa, fb, fc, fd = (flush_id(t) for t in "abcd")
        script = [
            ("a", ["a", "b", "c", "d", fa]),  # write: a's buffer opens
            ("a", ["a", "b", "c", "d", fa]),  # second write: no change
            ("b", ["a", "b", "c", "d", fa, fb]),
            ("c", ["a", "b", "c", "d", fa, fb, fc]),
            ("a", ["b", "c", "d", fb, fc]),  # crash drops two writes
            ("b", ["c", "d", fb, fc]),  # stall keeps its buffer
            ("c", ["c", "d", fb]),  # CAS drains c's buffer
            ("c", ["c", "d", fb, fc]),
            (fb, ["c", "d", fc]),  # flush empties b's buffer
            ("c", ["d", fc]),  # c finishes, its buffer still pending
            ("d", ["d", fc, fd]),
            ("d", [fc, fd]),  # generator raised
            (fc, [fd]),
            (fd, []),  # final flush
        ]
        runtime = self._runtime()
        assert runtime.enabled() == ["a", "b", "c", "d"]
        for tid, expected in script:
            _advance(runtime, tid)
            assert runtime.enabled() == _reference_enabled(runtime) == expected, tid
        assert runtime.counters["tso_dropped"] == 2
        assert sorted(runtime.crashed) == ["a", "b"]
        assert runtime.world.heap.snapshot() == {"x": 2, "y": 5, "z": 4, "w": 1}

    def test_enabled_returns_a_fresh_list(self):
        runtime = self._runtime()
        first = runtime.enabled()
        first.append("intruder")
        assert runtime.enabled() == ["a", "b", "c", "d"]
        assert runtime.enabled() is not runtime.enabled()

    def test_run_hands_the_scheduler_the_reference_set(self):
        """Every decision of seeded faulty runs sees the recomputed set."""

        class Checking(RandomScheduler):
            runtime: Runtime

            def choose_thread(self, enabled):
                assert isinstance(enabled, tuple)
                assert list(enabled) == _reference_enabled(self.runtime)
                return super().choose_thread(enabled)

        cases = [
            (store_buffer_litmus(), 100, FaultCampaign(crashes=1, stalls=1, window=4)),
            (store_buffer_litmus(), 100, FaultCampaign(crashes=0, stalls=1, window=4)),
        ]
        tso = cli.WORKLOADS["treiber-hazard-tso"]
        cases.append(
            (
                tso.make_setup(),
                tso.max_steps,
                FaultCampaign(crashes=1, stalls=1, delays=1, window=12),
            )
        )
        decisions = 0
        for setup, max_steps, campaign in cases:
            for seed in range(60):
                scheduler = Checking(seed, yield_bias=0.5)
                runtime = setup(scheduler)
                scheduler.runtime = runtime
                runtime.inject(campaign.plan(seed, runtime.thread_ids))
                runtime.run(max_steps=max_steps)
                decisions += len(scheduler.log)
        assert decisions > 1000


class TaggedRead(Read):
    """A ``Read`` subclass with no handler of its own."""


class TestDispatch:
    def _run(self, body):
        world = World()
        ref = world.heap.ref("x", 7)
        program = Program(world)
        program.thread("t", lambda ctx: body(ref))
        return program.runtime(FixedScheduler(["t"] * 4)).run()

    def test_subclass_runs_as_its_base(self):
        seen = []

        def body(ref):
            value = yield TaggedRead(ref, lambda world, v: seen.append(v))
            return value

        run = self._run(body)
        assert run.returns == {"t": 7}
        assert seen == [7]
        assert run.counters == {"read": 1}

    def test_bare_effect_is_unknown(self):
        def body(ref):
            yield Effect()

        with pytest.raises(SubstrateError, match="unknown effect"):
            self._run(body)

    def test_every_effect_type_has_a_handler(self):
        declared = {
            cls
            for _, cls in inspect.getmembers(effects, inspect.isclass)
            if issubclass(cls, Effect) and cls is not Effect
        }
        assert declared == set(_HANDLERS)
