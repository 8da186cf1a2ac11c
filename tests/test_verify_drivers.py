"""Whole-program verification drivers: failure reporting, views,
witness/search modes."""

from __future__ import annotations

import pytest

from repro.checkers import verify_cal, verify_linearizability
from repro.checkers.result import Verdict
from repro.core.catrace import failed_exchange_element, swap_element
from repro.objects import Exchanger
from repro.objects.base import operation
from repro.objects.exchanger import Offer
from repro.obs.provenance import ExplorationLedger
from repro.specs import ExchangerSpec, RegisterSpec
from repro.substrate import Program, World
from repro.substrate.explore import ExploreBudget
from repro.workloads.programs import exchanger_program, register_program


class SneakySuccessExchanger(Exchanger):
    """Returns a successful exchange without any partner: the §3
    "undesired behaviour" made real.  Not CAL — the drivers must flag it."""

    @operation
    def exchange(self, ctx, v):
        yield from ctx.pause()
        yield from ctx.log_trace(
            swap_element(self.oid, ctx.tid, v, f"ghost-{ctx.tid}", 0)
        )
        return (True, 0)


class SilentExchanger(Exchanger):
    """Correct algorithm but no instrumentation at all: search-based
    checking passes, witness validation fails (surjectivity)."""

    @operation
    def exchange(self, ctx, v):
        n = Offer(self.world, ctx.tid, v)
        installed = yield from ctx.cas(self.g, None, n)
        if installed:
            yield from ctx.sleep(self.wait_rounds)
            withdrew = yield from ctx.cas(n.hole, None, self.fail_sentinel)
            if withdrew:
                return (False, v)
            partner = yield from ctx.read(n.hole)
            return (True, partner.data)
        cur = yield from ctx.read(self.g)
        if cur is not None:
            matched = yield from ctx.cas(cur.hole, None, n)
            yield from ctx.cas(self.g, cur, None)
            if matched:
                return (True, cur.data)
        return (False, v)


def custom_exchanger_program(cls, values):
    def setup(scheduler):
        world = World()
        exchanger = cls(world, "E")
        program = Program(world)
        for index, value in enumerate(values, start=1):
            program.thread(
                f"t{index}", lambda ctx, v=value: exchanger.exchange(ctx, v)
            )
        return program.runtime(scheduler)

    return setup


class TestVerifyCal:
    def test_good_exchanger_passes_both_modes(self):
        report = verify_cal(
            exchanger_program([1, 2]),
            ExchangerSpec("E"),
            max_steps=200,
            check_witness=True,
            search=True,
        )
        assert report.ok
        assert not report.failures

    def test_sneaky_success_fails_search(self):
        report = verify_cal(
            custom_exchanger_program(SneakySuccessExchanger, [1]),
            ExchangerSpec("E"),
            max_steps=50,
            check_witness=False,
            search=True,
        )
        assert not report.ok
        assert report.failures
        failure = report.failures[0]
        assert "CA-trace" in failure.reason

    def test_sneaky_success_fails_witness_too(self):
        # The logged ghost swap is a legal spec element but disagrees
        # with the actual single-threaded history.
        report = verify_cal(
            custom_exchanger_program(SneakySuccessExchanger, [1]),
            ExchangerSpec("E"),
            max_steps=50,
            check_witness=True,
            search=False,
        )
        assert not report.ok

    def test_silent_exchanger_passes_search_but_fails_witness(self):
        search_only = verify_cal(
            custom_exchanger_program(SilentExchanger, [1, 2]),
            ExchangerSpec("E"),
            max_steps=200,
            check_witness=False,
            search=True,
        )
        assert search_only.ok
        witness_mode = verify_cal(
            custom_exchanger_program(SilentExchanger, [1, 2]),
            ExchangerSpec("E"),
            max_steps=200,
            check_witness=True,
            search=False,
        )
        assert not witness_mode.ok

    def test_failure_carries_schedule_for_replay(self):
        report = verify_cal(
            custom_exchanger_program(SneakySuccessExchanger, [1]),
            ExchangerSpec("E"),
            max_steps=50,
        )
        failure = report.failures[0]
        assert isinstance(failure.schedule, list)
        # Replay the failing schedule deterministically.
        from repro.substrate.schedulers import ReplayScheduler

        runtime = custom_exchanger_program(SneakySuccessExchanger, [1])(
            ReplayScheduler(failure.schedule)
        )
        result = runtime.run(max_steps=50)
        assert result.history == failure.history

    @pytest.mark.parametrize(
        "reduction, runs, incomplete", [("dpor", 8, 50), ("none", 1036, 3586)]
    )
    def test_cut_runs_are_counted_incomplete(
        self, reduction, runs, incomplete
    ):
        """Runs cut at ``max_steps`` are tallied ``incomplete``, not
        dropped: at 14 steps most exchanger2 schedules are cut."""
        ledger = ExplorationLedger()
        report = verify_cal(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            max_steps=14,
            reduction=reduction,
            provenance=ledger,
        )
        assert (report.runs, report.incomplete) == (runs, incomplete)
        assert report.verdict is Verdict.OK
        if reduction == "dpor":
            assert ledger.counters["schedule.executed"] == runs + incomplete

    def test_run_budget_cuts_the_sweep(self):
        report = verify_cal(
            exchanger_program([1, 2]),
            ExchangerSpec("E"),
            max_steps=200,
            budget=ExploreBudget(max_runs=10),
        )
        assert report.runs == 10
        assert report.verdict is Verdict.UNKNOWN


class TestVerifyLinearizability:
    def test_register_driver_modes(self):
        for check_witness in (False, True):
            report = verify_linearizability(
                register_program([1], readers=1),
                RegisterSpec("R", initial_value=0),
                max_steps=100,
                check_witness=check_witness,
            )
            assert report.ok

    def test_report_repr_mentions_verdict(self):
        report = verify_linearizability(
            register_program([1], readers=0),
            RegisterSpec("R", initial_value=0),
            max_steps=50,
        )
        assert "OK" in repr(report)

    def test_empty_exploration_is_not_ok(self):
        from repro.checkers.verify import VerificationReport

        assert not VerificationReport().ok
