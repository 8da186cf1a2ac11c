"""Deeper property-based tests (hypothesis) across the core and the
checkers: metamorphic properties of agreement, spec round-trips, checker
consistency."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.checkers import CALChecker, LinearizabilityChecker, SingletonAdapter
from repro.core.actions import Invocation, Response
from repro.core.agreement import agrees
from repro.core.catrace import (
    CAElement,
    CATrace,
    failed_exchange_element,
    swap_element,
)
from repro.core.history import History
from repro.core.objectsystem import is_prefix_closed, prefix_closure
from repro.specs import ExchangerSpec, QueueSpec, RegisterSpec, StackSpec
from repro.workloads.synthetic import corrupted

from tests.helpers import op

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
THREADS = ["t1", "t2", "t3", "t4"]


@st.composite
def exchanger_traces(draw):
    """Random CA-traces in the exchanger specification."""
    elements = []
    pool = list(THREADS)
    rounds = draw(st.integers(0, 4))
    counter = 0
    for _ in range(rounds):
        kind = draw(st.sampled_from(["swap", "fail"]))
        if kind == "swap" and len(pool) >= 2:
            pair = draw(
                st.lists(
                    st.sampled_from(THREADS), min_size=2, max_size=2,
                    unique=True,
                )
            )
            elements.append(
                swap_element("E", pair[0], counter, pair[1], counter + 1)
            )
            counter += 2
        else:
            tid = draw(st.sampled_from(THREADS))
            elements.append(failed_exchange_element("E", tid, counter))
            counter += 1
    return CATrace(elements)


@st.composite
def stack_op_sequences(draw):
    """Random *legal* sequential stack op sequences."""
    ops = []
    stack = []
    tid_source = st.sampled_from(THREADS)
    for _ in range(draw(st.integers(0, 8))):
        tid = draw(tid_source)
        if stack and draw(st.booleans()):
            value = stack.pop()
            ops.append(op(tid, "S", "pop", (), (True, value)))
        else:
            value = draw(st.integers(0, 9))
            stack.append(value)
            ops.append(op(tid, "S", "push", (value,), (True,)))
    return ops


# ----------------------------------------------------------------------
# Agreement properties
# ----------------------------------------------------------------------
@given(exchanger_traces())
@settings(max_examples=150, deadline=None)
def test_canonical_history_of_spec_trace_is_cal(trace):
    """Spec trace → canonical history → CAL checker accepts, and the
    recorded trace is a valid witness."""
    checker = CALChecker(ExchangerSpec("E"))
    history = trace.canonical_history()
    assume(history.is_well_formed())
    assert checker.check_witness(history, trace).ok
    assert checker.check(history).ok


@given(exchanger_traces())
@settings(max_examples=100, deadline=None)
def test_agreement_invariant_under_element_internal_order(trace):
    """Reordering actions *within* a CA-element's overlap window (here:
    reversing invocation order in the canonical history) preserves
    agreement."""
    history = trace.canonical_history()
    assume(history.is_well_formed())
    reordered_actions = []
    for element in trace:
        ops = sorted(element.operations, key=str)
        reordered_actions.extend(o.invocation for o in reversed(ops))
        reordered_actions.extend(o.response for o in reversed(ops))
    reordered = History(reordered_actions)
    assume(reordered.is_well_formed())
    assert agrees(reordered, trace)


@given(exchanger_traces(), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_prefix_of_spec_trace_still_explains_prefix_history(trace, cut):
    prefix = CATrace(trace.elements[: cut % (len(trace) + 1)])
    history = prefix.canonical_history()
    assume(history.is_well_formed())
    assert agrees(history, prefix)


# ----------------------------------------------------------------------
# Checker consistency
# ----------------------------------------------------------------------
@given(stack_op_sequences())
@settings(max_examples=150, deadline=None)
def test_stack_spec_accepts_generated_legal_sequences(ops):
    assert StackSpec("S").accepts(ops)


@given(stack_op_sequences())
@settings(max_examples=100, deadline=None)
def test_sequential_stack_histories_linearizable_both_ways(ops):
    from repro.core.history import history_of_operations

    history = history_of_operations(ops)
    classic = LinearizabilityChecker(StackSpec("S"))
    cal = CALChecker(SingletonAdapter(StackSpec("S")))
    assert classic.check(history).ok
    assert cal.check(history).ok


@given(stack_op_sequences())
@settings(max_examples=100, deadline=None)
def test_value_corruption_rejected_by_both_checkers(ops):
    pops = [i for i, o in enumerate(ops) if o.method == "pop"]
    assume(pops)
    from repro.core.actions import Operation
    from repro.core.history import history_of_operations

    index = pops[0]
    bad = Operation.of(
        ops[index].tid, "S", "pop", (), (True, ops[index].value[1] + 100)
    )
    corrupted = ops[:index] + [bad] + ops[index + 1 :]
    history = history_of_operations(corrupted)
    classic = LinearizabilityChecker(StackSpec("S"))
    cal = CALChecker(SingletonAdapter(StackSpec("S")))
    assert classic.check(history).ok == cal.check(history).ok == False  # noqa: E712


@st.composite
def concurrent_histories(draw):
    """(sequential spec, history): a random concurrent register, queue or
    stack history, produced by running the sequential object under a
    random interleaving of invocations, linearization points and
    responses.  Some are cut short (pending invocations), some have a
    corrupted response value."""
    kind = draw(st.sampled_from(["register", "queue", "stack"]))
    spec, writer, reader = {
        "register": (RegisterSpec("R"), "write", "read"),
        "queue": (QueueSpec("Q"), "enqueue", "dequeue"),
        "stack": (StackSpec("S"), "push", "pop"),
    }[kind]
    oid = spec.oid
    contents = []  # register: the last write; queue/stack: the values
    idle = list(THREADS[:3])
    invoked, linearized, actions = [], [], []
    operations = draw(st.integers(1, 7))
    while True:
        moves = []
        if operations and idle:
            moves.append("invoke")
        if invoked:
            moves.append("linearize")
        if linearized:
            moves.append("respond")
        if not moves:
            break
        move = draw(st.sampled_from(moves))
        if move == "invoke":
            operations -= 1
            tid = idle.pop(draw(st.integers(0, len(idle) - 1)))
            if draw(st.booleans()):
                method, args = writer, (draw(st.integers(0, 3)),)
            else:
                method, args = reader, ()
            invoked.append((tid, method, args))
            actions.append(Invocation(tid, oid, method, args))
        elif move == "linearize":
            tid, method, args = invoked.pop(draw(st.integers(0, len(invoked) - 1)))
            if method == writer:
                if kind == "register":
                    contents[:] = [args[0]]
                    value = (None,)
                else:
                    contents.append(args[0])
                    value = (True,)
            elif kind == "register":
                value = (contents[-1] if contents else 0,)
            elif not contents:
                value = (False, 0)
            else:
                value = (True, contents.pop(0 if kind == "queue" else -1))
            linearized.append((tid, method, value))
        else:
            tid, method, value = linearized.pop(
                draw(st.integers(0, len(linearized) - 1))
            )
            actions.append(Response(tid, oid, method, value))
            idle.append(tid)
    history = History(actions)
    if draw(st.booleans()):
        history = History(actions[: draw(st.integers(0, len(actions)))])
    if history.operations() and draw(st.booleans()):
        history = corrupted(history, oid)
    return spec, history


@given(concurrent_histories(), st.sampled_from([None, 1, 2, 5]))
@settings(max_examples=300, deadline=None)
def test_linearizability_is_cal_over_singletons_node_for_node(case, node_budget):
    """§3: classic linearizability w.r.t. S is CAL w.r.t. the singleton
    CA-spec of S — same verdict, same search nodes, same witness."""
    spec, history = case
    classic = LinearizabilityChecker(spec).check(history, node_budget=node_budget)
    cal = CALChecker(SingletonAdapter(spec)).check(history, node_budget=node_budget)
    assert classic.verdict == cal.verdict
    assert classic.nodes == cal.nodes
    assert classic.witness == cal.witness
    assert classic.completion == cal.completion


# ----------------------------------------------------------------------
# Prefix closure
# ----------------------------------------------------------------------
@given(exchanger_traces())
@settings(max_examples=80, deadline=None)
def test_prefix_closure_of_canonical_histories(trace):
    history = trace.canonical_history()
    assume(history.is_well_formed())
    closed = prefix_closure([history])
    assert is_prefix_closed(closed)
    assert len(closed) == len(history) + 1


# ----------------------------------------------------------------------
# Exchanger spec invariances
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.sampled_from(THREADS), min_size=2, max_size=2, unique=True
    ),
    st.integers(0, 9),
    st.integers(0, 9),
)
@settings(max_examples=60, deadline=None)
def test_swap_element_symmetry_in_spec(pair, v1, v2):
    spec = ExchangerSpec("E")
    a = swap_element("E", pair[0], v1, pair[1], v2)
    b = swap_element("E", pair[1], v2, pair[0], v1)
    assert a == b
    assert spec.accepts(CATrace([a]))


@given(st.sampled_from(THREADS), st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_failed_exchange_must_echo_argument(tid, offered, returned):
    spec = ExchangerSpec("E")
    element = CAElement(
        "E", [op(tid, "E", "exchange", (offered,), (False, returned))]
    )
    assert spec.accepts(CATrace([element])) == (offered == returned)
