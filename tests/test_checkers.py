"""The classic (Wing–Gong) and CAL checkers on hand-built histories."""

from __future__ import annotations

import pytest

from repro.checkers import (
    CALChecker,
    LinearizabilityChecker,
    SingletonAdapter,
)
from repro.core.catrace import (
    CAElement,
    CATrace,
    failed_exchange_element,
    swap_element,
)
from repro.core.history import History
from repro.obs import Metrics
from repro.specs import ExchangerSpec, QueueSpec, RegisterSpec, StackSpec

from tests.helpers import inv, op, overlapped_history, res, seq_history


class TestLinearizabilityChecker:
    def test_herlihy_wing_queue_example(self):
        # The classic positive example: overlapping enqueues can
        # linearize in either order to explain the dequeues.
        spec = QueueSpec("Q")
        checker = LinearizabilityChecker(spec)
        history = History(
            [
                inv("t1", "Q", "enqueue", 1),
                inv("t2", "Q", "enqueue", 2),
                res("t2", "Q", "enqueue", True),
                res("t1", "Q", "enqueue", True),
                inv("t1", "Q", "dequeue"),
                res("t1", "Q", "dequeue", True, 2),
                inv("t1", "Q", "dequeue"),
                res("t1", "Q", "dequeue", True, 1),
            ]
        )
        assert checker.check(history).ok

    def test_non_linearizable_register(self):
        # Read of a value that was never current at any consistent point:
        # write(1) finishes before read, yet read returns the initial 0.
        spec = RegisterSpec("R", initial_value=0)
        checker = LinearizabilityChecker(spec)
        history = seq_history(
            op("t1", "R", "write", (1,), (None,)),
            op("t2", "R", "read", (), (0,)),
        )
        result = checker.check(history)
        assert not result.ok
        assert result.nodes > 0

    def test_concurrent_read_may_be_stale(self):
        spec = RegisterSpec("R", initial_value=0)
        checker = LinearizabilityChecker(spec)
        history = overlapped_history(
            op("t1", "R", "write", (1,), (None,)),
            op("t2", "R", "read", (), (0,)),
        )
        assert checker.check(history).ok

    def test_witness_is_reported(self):
        spec = StackSpec("S")
        checker = LinearizabilityChecker(spec)
        history = seq_history(
            op("t1", "S", "push", (1,), (True,)),
            op("t2", "S", "pop", (), (True, 1)),
        )
        result = checker.check(history)
        assert result.ok
        methods = [e.single().method for e in result.witness]
        assert methods == ["push", "pop"]

    def test_projection_by_default(self):
        spec = StackSpec("S")
        checker = LinearizabilityChecker(spec)
        history = seq_history(
            op("t1", "S", "push", (1,), (True,)),
            op("t1", "X", "frob", (), (None,)),  # another object's op
            op("t2", "S", "pop", (), (True, 1)),
        )
        assert checker.check(history).ok

    def test_pending_invocation_completed(self):
        spec = StackSpec("S")
        checker = LinearizabilityChecker(spec)
        history = History(
            [
                inv("t1", "S", "push", 1),  # pending push
                inv("t2", "S", "pop"),
                res("t2", "S", "pop", True, 1),
            ]
        )
        # Only explainable if the pending push is completed and
        # linearized before the pop.
        assert checker.check(history).ok

    def test_pending_invocation_dropped(self):
        spec = StackSpec("S")
        checker = LinearizabilityChecker(spec)
        history = History(
            [
                inv("t1", "S", "pop"),
                inv("t2", "S", "push", 1),
                res("t2", "S", "push", True),
            ]
        )
        assert checker.check(history).ok

    def test_check_order_valid(self):
        spec = StackSpec("S")
        checker = LinearizabilityChecker(spec)
        push = op("t1", "S", "push", (1,), (True,))
        pop = op("t2", "S", "pop", (), (True, 1))
        history = overlapped_history(push, pop)
        assert checker.check_order(history, [push, pop])
        assert not checker.check_order(history, [pop, push])

    def test_check_witness_validates_singleton_witnesses(self):
        checker = LinearizabilityChecker(StackSpec("S"))
        push = op("t1", "S", "push", (1,), (True,))
        pop = op("t2", "S", "pop", (), (True, 1))
        history = overlapped_history(push, pop)
        metrics = Metrics()
        good = CATrace([CAElement("S", [push]), CAElement("S", [pop])])
        result = checker.check_witness(history, good, metrics=metrics)
        assert result.ok and result.nodes == 0
        assert result.witness == good and result.completion == history
        cases = [
            (CATrace([CAElement("S", [push, pop])]),
             "witness contains non-singleton elements"),
            (CATrace([CAElement("S", [pop]), CAElement("S", [push])]),
             "witness rejected by sequential spec"),
            (CATrace([CAElement("S", [push])]),
             "history does not agree with witness (Def. 5)"),
        ]
        for witness, reason in cases:
            result = checker.check_witness(history, witness, metrics=metrics)
            assert not result.ok and result.reason == reason
        assert metrics.counters == {
            "lin.witness_checks": 4,
            "lin.witness_failures": 3,
        }

    def test_check_witness_resolves_pending_invocations(self):
        checker = LinearizabilityChecker(StackSpec("S"))
        history = History(
            [
                inv("t1", "S", "push", 1),  # pending: the witness completes it
                inv("t2", "S", "pop"),
                res("t2", "S", "pop", True, 1),
                inv("t3", "S", "push", 2),  # pending: the witness drops it
            ]
        )
        push = op("t1", "S", "push", (1,), (True,))
        pop = op("t2", "S", "pop", (), (True, 1))
        result = checker.check_witness(
            history, CATrace([CAElement("S", [push]), CAElement("S", [pop])])
        )
        assert result.ok
        assert result.completion is not None
        assert result.completion.operations() == [push, pop]


class TestCALChecker:
    def setup_method(self):
        self.checker = CALChecker(ExchangerSpec("E"))

    def test_overlapping_swap_ok(self):
        history = History(
            [
                inv("t1", "E", "exchange", 3),
                inv("t2", "E", "exchange", 4),
                res("t1", "E", "exchange", True, 4),
                res("t2", "E", "exchange", True, 3),
            ]
        )
        result = self.checker.check(history)
        assert result.ok
        assert len(result.witness) == 1
        assert is_swap(result.witness[0])

    def test_sequential_swap_rejected(self):
        history = seq_history(
            op("t1", "E", "exchange", (3,), (True, 4)),
            op("t2", "E", "exchange", (4,), (True, 3)),
        )
        assert not self.checker.check(history).ok

    def test_sequential_failures_ok(self):
        history = seq_history(
            op("t1", "E", "exchange", (3,), (False, 3)),
            op("t2", "E", "exchange", (4,), (False, 4)),
        )
        assert self.checker.check(history).ok

    def test_one_sided_success_rejected(self):
        history = seq_history(op("t1", "E", "exchange", (3,), (True, 4)))
        assert not self.checker.check(history).ok

    def test_overlapping_failures_ok(self):
        history = overlapped_history(
            op("t1", "E", "exchange", (3,), (False, 3)),
            op("t2", "E", "exchange", (4,), (False, 4)),
        )
        assert self.checker.check(history).ok

    def test_check_witness_accepts_recorded_trace(self):
        history = History(
            [
                inv("t1", "E", "exchange", 3),
                inv("t2", "E", "exchange", 4),
                res("t1", "E", "exchange", True, 4),
                res("t2", "E", "exchange", True, 3),
            ]
        )
        witness = CATrace([swap_element("E", "t1", 3, "t2", 4)])
        assert self.checker.check_witness(history, witness).ok

    def test_check_witness_rejects_spec_violation(self):
        from repro.core.catrace import CAElement

        history = seq_history(op("t1", "E", "exchange", (3,), (True, 4)))
        # A one-sided success is not a legal spec element at all.
        bad = CATrace(
            [CAElement("E", [op("t1", "E", "exchange", (3,), (True, 4))])]
        )
        result = self.checker.check_witness(history, bad)
        assert not result.ok
        assert "specification" in result.reason

    def test_check_witness_rejects_value_mismatch(self):
        history = seq_history(op("t1", "E", "exchange", (3,), (False, 3)))
        bad = CATrace([failed_exchange_element("E", "t1", 99)])
        result = self.checker.check_witness(history, bad)
        assert not result.ok
        assert "agree" in result.reason

    def test_check_witness_rejects_disagreement(self):
        history = seq_history(
            op("t1", "E", "exchange", (3,), (False, 3)),
            op("t2", "E", "exchange", (4,), (False, 4)),
        )
        # Legal spec trace, but in the wrong order w.r.t. real time.
        wrong_order = CATrace(
            [
                failed_exchange_element("E", "t2", 4),
                failed_exchange_element("E", "t1", 3),
            ]
        )
        result = self.checker.check_witness(history, wrong_order)
        assert not result.ok
        assert "agree" in result.reason

    def test_pending_exchange_completed_as_failure(self):
        history = History(
            [
                inv("t1", "E", "exchange", 3),
                inv("t2", "E", "exchange", 4),
                res("t1", "E", "exchange", False, 3),
            ]
        )
        assert self.checker.check(history).ok

    def test_pending_partner_completed_as_success(self):
        # t1 already returned from a successful swap with value 4 while
        # t2's matching exchange is still pending — a real reachable
        # prefix.  Def. 2 allows completing t2 with (True, 3), so the
        # history is CAL.
        history = History(
            [
                inv("t1", "E", "exchange", 3),
                inv("t2", "E", "exchange", 4),
                res("t1", "E", "exchange", True, 4),
            ]
        )
        assert self.checker.check(history).ok

    def test_success_without_any_possible_partner_rejected(self):
        # t1 claims to have received 5, but the only other invocation
        # offered 4 — no completion can produce a matching swap.
        history = History(
            [
                inv("t1", "E", "exchange", 3),
                inv("t2", "E", "exchange", 4),
                res("t1", "E", "exchange", True, 5),
            ]
        )
        assert not self.checker.check(history).ok


def is_swap(element) -> bool:
    from repro.specs.exchanger_spec import is_swap_pair

    return is_swap_pair(element)


class TestSingletonAdapter:
    def test_adapter_accepts_singleton_trace(self):
        from repro.core.catrace import CAElement

        adapter = SingletonAdapter(StackSpec("S"))
        trace = CATrace(
            [
                CAElement("S", [op("t1", "S", "push", (1,), (True,))]),
                CAElement("S", [op("t2", "S", "pop", (), (True, 1))]),
            ]
        )
        assert adapter.accepts(trace)

    def test_adapter_rejects_pair_elements(self):
        from repro.core.catrace import CAElement

        adapter = SingletonAdapter(StackSpec("S"))
        pair = CAElement(
            "S",
            [
                op("t1", "S", "push", (1,), (True,)),
                op("t2", "S", "pop", (), (True, 1)),
            ],
        )
        assert not adapter.accepts(CATrace([pair]))

    def test_cal_with_adapter_equals_classic_on_examples(self):
        spec = RegisterSpec("R", initial_value=0)
        classic = LinearizabilityChecker(spec)
        cal = CALChecker(SingletonAdapter(spec))
        histories = [
            seq_history(
                op("t1", "R", "write", (1,), (None,)),
                op("t2", "R", "read", (), (1,)),
            ),
            seq_history(
                op("t1", "R", "write", (1,), (None,)),
                op("t2", "R", "read", (), (0,)),
            ),
            overlapped_history(
                op("t1", "R", "write", (1,), (None,)),
                op("t2", "R", "read", (), (0,)),
            ),
            overlapped_history(
                op("t1", "R", "write", (1,), (None,)),
                op("t2", "R", "read", (), (7,)),
            ),
        ]
        for history in histories:
            assert classic.check(history).ok == cal.check(history).ok
