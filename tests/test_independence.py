"""Property tests for the effect-footprint independence relation.

The relation carries the reduction engine (DPOR's races and its sleep
sets), so its contract is tested directly, independently of any
explorer:

* **symmetry** — commutation is a property of the pair;
* **conservatism** — OPAQUE footprints (faults, queries, unknown
  effects) and TSO flush pseudo-threads never commute with anything
  they could possibly disturb;
* **soundness** — steps the relation calls independent actually
  commute, checked by *executing* both orders on the real runtime and
  comparing the complete observable outcome (returns, history,
  auxiliary trace, crash set, final memory as read back by the
  program itself).

The last property is the ground truth: footprint bookkeeping bugs
(a missing ``hist`` token, a forgotten buffer slot) surface here as a
pair the relation calls independent whose two orders disagree.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.substrate import Program, World
from repro.substrate.effects import Write
from repro.substrate.independence import (
    EMPTY,
    OPAQUE,
    WILDCARD,
    Footprint,
    footprint_of,
    independent,
)
from repro.substrate.schedulers import Scheduler, flush_id

_TOKENS = [
    ("mem", "c0"),
    ("mem", "c1"),
    ("buffer", "t0"),
    ("buffer", "t1"),
    ("hist",),
    ("heap",),
    WILDCARD,
]

_token_sets = st.lists(
    st.sampled_from(_TOKENS), max_size=4, unique=True
).map(tuple)

footprints = st.builds(Footprint, reads=_token_sets, writes=_token_sets)


class TestAlgebraicProperties:
    @given(a=footprints, b=footprints)
    def test_symmetry(self, a, b):
        assert independent(a, b) == independent(b, a)

    @given(b=footprints)
    def test_opaque_commutes_with_nothing(self, b):
        assert not independent(OPAQUE, b)
        assert not independent(b, OPAQUE)

    @given(b=footprints)
    def test_empty_commutes_unless_wildcard_write(self, b):
        assert independent(EMPTY, b) == (WILDCARD not in b.writes)

    @given(a=footprints, b=footprints)
    def test_write_overlap_is_always_dependent(self, a, b):
        if a.writes & (b.reads | b.writes) or b.writes & a.reads:
            assert not independent(a, b)


class TestTsoFlushConservatism:
    """A flush pseudo-step commits ``tid``'s oldest buffered write: it
    drains the buffer slot and publishes the cell.  It must therefore
    conflict with every same-cell access, with everything its owner
    thread does to memory, and with same-cell flushes of other
    threads."""

    def _flush_footprint(self, owner, ref, on_commit=None):
        return footprint_of(
            flush_id(owner), Write(ref, 1, on_commit), "tso"
        )

    def test_flush_conflicts_with_owner_memory_ops(self):
        world = World()
        c0 = world.heap.ref("c0", 0)
        c1 = world.heap.ref("c1", 0)
        flush = self._flush_footprint("t0", c0)
        from repro.substrate.effects import CAS, Read

        # Same-thread accesses to ANY cell hit the shared buffer slot
        # (store-to-load forwarding, FIFO order, fence draining).
        for effect in (Read(c1), Write(c1, 2), CAS(c1, 0, 2)):
            other = footprint_of("t0", effect, "tso")
            assert not independent(flush, other), effect

    def test_flush_conflicts_with_same_cell_access_by_others(self):
        world = World()
        c0 = world.heap.ref("c0", 0)
        flush = self._flush_footprint("t0", c0)
        from repro.substrate.effects import CAS, Read

        for effect in (Read(c0), CAS(c0, 0, 2)):
            other = footprint_of("t1", effect, "tso")
            assert not independent(flush, other), effect

    def test_flushes_commute_iff_different_cells(self):
        world = World()
        c0 = world.heap.ref("c0", 0)
        c1 = world.heap.ref("c1", 0)
        assert not independent(
            self._flush_footprint("t0", c0), self._flush_footprint("t1", c0)
        )
        assert independent(
            self._flush_footprint("t0", c0), self._flush_footprint("t1", c1)
        )

    def test_flush_with_commit_callback_writes_history(self):
        world = World()
        c0 = world.heap.ref("c0", 0)
        with_cb = self._flush_footprint("t0", c0, on_commit=lambda w: None)
        hist_writer = Footprint(writes=(("hist",),))
        assert not independent(with_cb, hist_writer)
        without = self._flush_footprint("t0", c0)
        assert independent(without, hist_writer)


# --- "independent steps commute" against the real runtime -------------

_ops = st.tuples(
    st.sampled_from(("write", "read", "cas", "invoke", "pause")),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=3),
)


class _ScriptedScheduler(Scheduler):
    """Runs the given thread ids first (skipping any not enabled), then
    drains deterministically by always picking the first enabled
    agent."""

    def __init__(self, first):
        self._queue = list(first)

    def choose_thread(self, enabled):
        while self._queue:
            want = self._queue.pop(0)
            if want in enabled:
                return want
        return enabled[0]

    def choose_value(self, options):
        return options[0]


def _one_op_body(op, refs):
    kind, cell, value = op
    ref = refs[cell]

    def body(ctx):
        out = []
        if kind == "write":
            yield from ctx.write(ref, value)
        elif kind == "read":
            out.append((yield from ctx.read(ref)))
        elif kind == "cas":
            out.append((yield from ctx.cas(ref, 0, value)))
        elif kind == "invoke":
            yield from ctx.invoke("R", "note", (cell, value))
        else:  # pause
            yield from ctx.pause("p")
        # Read back every cell so the final memory state is part of the
        # observable outcome being compared.
        for readback in refs:
            out.append((yield from ctx.read(readback)))
        return tuple(out)

    return body


def _run_order(op_a, op_b, order, memory_model):
    """Execute both threads' ops with the given first-step order and
    return (first-step footprints, observable outcome)."""
    scheduler = _ScriptedScheduler(order)
    world = World()
    refs = [world.heap.ref(f"c{i}", 0) for i in range(2)]
    program = Program(world)
    program.thread("t0", _one_op_body(op_a, refs))
    program.thread("t1", _one_op_body(op_b, refs))
    runtime = program.runtime(scheduler, memory_model=memory_model)
    steps = []
    runtime.observer = lambda tid, effect: steps.append(
        footprint_of(tid, effect, memory_model)
    )
    result = runtime.run(max_steps=100)
    # With a two-id prefix the first two observed steps are exactly the
    # two threads' first steps, in prefix order.
    by_order = dict(zip(order, steps[:2]))
    outcome = (
        tuple(sorted((tid, repr(v)) for tid, v in result.returns.items())),
        tuple(repr(action) for action in result.history.actions),
        repr(result.trace),
        tuple(sorted(result.crashed)),
    )
    return by_order, outcome


class TestIndependentStepsCommute:
    @settings(max_examples=200, deadline=None)
    @given(op_a=_ops, op_b=_ops, memory_model=st.sampled_from(("sc", "tso")))
    def test_both_orders_agree(self, op_a, op_b, memory_model):
        ab_footprints, ab = _run_order(op_a, op_b, ["t0", "t1"], memory_model)
        ba_footprints, ba = _run_order(op_a, op_b, ["t1", "t0"], memory_model)
        if independent(ab_footprints["t0"], ab_footprints["t1"]):
            assert ab == ba, (op_a, op_b, memory_model)
