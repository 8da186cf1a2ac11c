"""Edge cases and error paths across the library."""

from __future__ import annotations

import pytest

from repro.checkers import CALChecker, LinearizabilityChecker, SingletonAdapter
from repro.checkers.result import CheckResult
from repro.core.actions import Invocation, Operation, Response
from repro.core.catrace import CATrace, failed_exchange_element
from repro.core.history import History
from repro.specs import ExchangerSpec, RegisterSpec
from repro.substrate.effects import same_value
from repro.substrate.memory import Ref

from tests.helpers import inv, op, res, seq_history


class TestSameValue:
    def test_identity(self):
        marker = object()
        assert same_value(marker, marker)

    def test_plain_values_by_equality(self):
        assert same_value(1, 1)
        assert same_value("a", "a")
        assert same_value((1, 2), (1, 2))
        assert same_value(True, True)

    def test_distinct_objects_not_equal(self):
        class Box:
            def __eq__(self, other):  # even with misleading __eq__
                return True

            __hash__ = object.__hash__

        assert not same_value(Box(), Box())

    def test_none_handling(self):
        assert same_value(None, None)
        assert not same_value(None, 0)


class TestActions:
    def test_operation_from_actions_mismatch(self):
        invocation = Invocation("t1", "o", "f", (1,))
        response = Response("t2", "o", "f", (2,))
        with pytest.raises(ValueError):
            Operation.from_actions(invocation, response)

    def test_operation_round_trip(self):
        operation = op("t1", "o", "f", (1,), (2,))
        rebuilt = Operation.from_actions(
            operation.invocation, operation.response
        )
        assert rebuilt == operation

    def test_action_str_forms(self):
        assert "inv" in str(inv("t1", "o", "f", 1))
        assert "res" in str(res("t1", "o", "f", 2))
        assert "▷" in str(op("t1", "o", "f", (1,), (2,)))

    def test_operation_of_normalizes_scalars(self):
        operation = Operation.of("t1", "o", "f", 5, True)
        assert operation.args == (5,)
        assert operation.value == (True,)


class TestHistoryErrors:
    def test_response_without_invocation(self):
        history = History([res("t1", "o", "f", 1)])
        with pytest.raises(ValueError):
            history.spans()

    def test_agreement_requires_completeness(self):
        from repro.core.agreement import agrees

        with pytest.raises(ValueError):
            agrees(History([inv("t1", "o", "f", 1)]), CATrace())

    def test_history_equality_and_hash(self):
        a = seq_history(op("t1", "o", "f", (1,), (2,)))
        b = seq_history(op("t1", "o", "f", (1,), (2,)))
        assert a == b and hash(a) == hash(b)
        assert a != History()

    def test_history_repr(self):
        text = repr(seq_history(op("t1", "o", "f", (1,), (2,))))
        assert "History[" in text


class TestCheckerEdges:
    def test_ill_formed_history_rejected(self):
        checker = CALChecker(ExchangerSpec("E"))
        bad = History(
            [inv("t1", "E", "exchange", 1), inv("t1", "E", "exchange", 2)]
        )
        result = checker.check(bad)
        assert not result.ok
        assert "ill-formed" in result.reason
        # Witness validation answers FAIL too, for both checker families.
        witness = checker.check_witness(bad, CATrace())
        assert not witness.ok
        assert witness.reason == "ill-formed history"
        nested = History([inv("t1", "R", "read"), inv("t1", "R", "read")])
        lin = LinearizabilityChecker(RegisterSpec("R"))
        for result in (
            lin.check(nested),
            lin.check_witness(nested, CATrace()),
            lin._check_witness_impl(nested, CATrace(), True),
        ):
            assert not result.ok
            assert result.reason == "ill-formed history"

    def test_empty_history_is_trivially_ok(self):
        assert CALChecker(ExchangerSpec("E")).check(History()).ok
        assert LinearizabilityChecker(
            RegisterSpec("R")
        ).check(History()).ok

    def test_project_false_checks_raw_history(self):
        checker = CALChecker(ExchangerSpec("E"))
        other_object = seq_history(op("t1", "X", "frob", (), (None,)))
        # With projection the X op disappears and the check passes...
        assert checker.check(other_object, project=True).ok
        # ... without projection the spec rejects the foreign element.
        assert not checker.check(other_object, project=False).ok
        # An R2 write cannot explain an R read: without projection the
        # classic checker rejects the raw history, exactly as CAL over
        # singleton elements does (§3).
        history = seq_history(
            op("t1", "R2", "write", (1,), (None,)),
            op("t2", "R", "read", (), (1,)),
        )
        classic = LinearizabilityChecker(RegisterSpec("R"))
        singleton_cal = CALChecker(SingletonAdapter(RegisterSpec("R")))
        reason = "history contains other objects' operations"
        for checker in (classic, singleton_cal):
            result = checker.check(history, project=False)
            assert not result.ok
            assert result.reason == reason
        # Projected, the read of 1 has no write to explain it.
        assert not classic.check(history).ok
        assert classic.check(history).reason == "no linearization found"

    def test_check_witness_resolves_pending_against_witness(self):
        # A pending invocation the witness knows nothing about never took
        # effect: it is dropped, and the empty witness explains the rest.
        checker = CALChecker(ExchangerSpec("E"))
        pending = History([inv("t1", "E", "exchange", 1)])
        result = checker.check_witness(pending, CATrace())
        assert result.ok
        assert result.completion is not None
        assert result.completion.is_complete()
        assert len(result.completion) == 0

    def test_check_result_booliness(self):
        assert CheckResult(True)
        assert not CheckResult(False)
        assert "OK" in repr(CheckResult(True))
        assert "FAIL" in repr(CheckResult(False, reason="nope"))


class TestRefEdges:
    def test_ref_repr(self):
        assert "x=1" in repr(Ref("x", 1))

    def test_heap_cell_lookup(self):
        from repro.substrate.memory import Heap

        heap = Heap()
        cell = heap.ref("x", 1)
        assert heap.cell(cell.name) is cell
        assert heap.cell("missing") is None

    def test_heap_iteration(self):
        from repro.substrate.memory import Heap

        heap = Heap()
        a = heap.ref("a")
        b = heap.ref("b")
        assert set(heap) == {a, b}


class TestViewEdges:
    def test_view_repr(self):
        from repro.rg.views import identity_view

        assert "F_E" in repr(identity_view("E"))

    def test_compose_empty_inner(self):
        from repro.rg.views import compose_views, identity_view

        composed = compose_views(identity_view("E"))
        trace = CATrace([failed_exchange_element("E", "t1", 1)])
        assert composed(trace) == trace


class TestSpecReprs:
    def test_spec_reprs_mention_oid(self):
        assert "'E'" in repr(ExchangerSpec("E"))
        assert "'R'" in repr(RegisterSpec("R"))


class TestRunResultRepr:
    def test_repr_mentions_status(self):
        from repro.substrate import Program, RoundRobinScheduler, World

        world = World()

        def body(ctx):
            yield from ctx.pause()

        result = (
            Program(world)
            .thread("t1", body)
            .runtime(RoundRobinScheduler())
            .run()
        )
        assert "completed" in repr(result)
