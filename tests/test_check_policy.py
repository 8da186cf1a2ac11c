"""One campaign loop per execution mode: the check policy and its drivers.

Every fuzz and verify campaign runs through one loop per mode; a
:class:`~repro.checkers.verify.CheckPolicy` decides each run.  The
paper's §3 says classic linearizability is CAL over singleton elements,
so the CAL drivers over :class:`~repro.checkers.adapter.SingletonAdapter`
must reproduce the linearizability drivers campaign for campaign — the
driver-level counterpart of the checker-level E7 agreement.  The fuzz
verdict follows the verification rule: a campaign that lost or could
not decide runs is ``UNKNOWN``, never ``OK``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.checkers import (
    Verdict,
    fuzz_cal,
    fuzz_cal_parallel,
    fuzz_linearizability,
    verify_cal,
    verify_linearizability,
)
from repro.checkers.adapter import SingletonAdapter
from repro.checkers.parallel import _fork_context
from repro.checkers.verify import CheckPolicy
from repro.cli import WORKLOADS
from repro.specs import ExchangerSpec, RegisterSpec
from repro.substrate.explore import ExploreBudget
from repro.workloads.programs import exchanger_program, register_program


def _fuzz_outcome(report):
    return (
        report.runs,
        report.unknown,
        [failure.seed for failure in report.failures],
        [failure.schedule for failure in report.failures],
    )


def _verify_outcome(report):
    return (
        report.runs,
        report.incomplete,
        report.unknown,
        report.verdict,
        [failure.schedule for failure in report.failures],
    )


class TestSection3DriverParity:
    """CAL over singleton elements is linearizability, driver for driver."""

    @pytest.mark.parametrize(
        "name, yield_bias, failures",
        [("naive-queue", 0.0, 5), ("treiber-reuse", 0.85, 1)],
    )
    def test_fuzz_cal_over_singletons_equals_fuzz_linearizability(
        self, name, yield_bias, failures
    ):
        workload = WORKLOADS[name]
        spec = workload.make_spec()
        kwargs = dict(
            seeds=range(300), max_steps=workload.max_steps, yield_bias=yield_bias
        )
        lin = fuzz_linearizability(workload.make_setup(), spec, **kwargs)
        cal = fuzz_cal(
            workload.make_setup(),
            SingletonAdapter(spec),
            check_witness=False,
            search=True,
            **kwargs,
        )
        assert len(lin.failures) == failures
        assert _fuzz_outcome(cal) == _fuzz_outcome(lin)

    def test_verify_cal_over_singletons_equals_verify_linearizability_register(
        self,
    ):
        setup, spec = register_program([1], readers=1), RegisterSpec("R")
        lin = verify_linearizability(setup, spec)
        cal = verify_cal(setup, SingletonAdapter(spec), check_witness=False)
        assert lin.verdict is Verdict.OK
        assert _verify_outcome(cal) == _verify_outcome(lin)

    def test_verify_cal_over_singletons_equals_verify_linearizability_queue(
        self,
    ):
        workload = WORKLOADS["naive-queue"]
        spec = workload.make_spec()
        lin = verify_linearizability(
            workload.make_setup(),
            spec,
            max_steps=workload.max_steps,
            budget=ExploreBudget(max_runs=400),
        )
        cal = verify_cal(
            workload.make_setup(),
            SingletonAdapter(spec),
            check_witness=False,
            max_steps=workload.max_steps,
            budget=ExploreBudget(max_runs=400),
        )
        assert _verify_outcome(cal) == _verify_outcome(lin)


class TestCheckPolicy:
    def test_family_defaults_and_fallback_rule(self):
        cal = CheckPolicy.cal(ExchangerSpec("E"), True, False, None)
        assert (cal.family, cal.check_witness, cal.search) == ("cal", True, False)
        assert cal.fallback  # CAL always falls back to its witness
        lin = CheckPolicy.linearizability(RegisterSpec("R"), False, None)
        assert (lin.family, lin.search) == ("linearizability", True)
        assert not lin.fallback  # no view, no singleton witness
        viewed = CheckPolicy.linearizability(RegisterSpec("R"), False, lambda t: t)
        assert viewed.fallback

    def test_family_keywords_are_keyword_only(self):
        setup, spec = exchanger_program([3, 4]), ExchangerSpec("E")
        with pytest.raises(TypeError):
            verify_cal(setup, spec, 200)
        with pytest.raises(TypeError):
            fuzz_cal(setup, spec, range(3))


class TestFuzzVerdict:
    def test_clean_campaign_is_ok(self):
        report = fuzz_cal(
            exchanger_program([3, 4]), ExchangerSpec("E"), seeds=range(5)
        )
        assert report.verdict is Verdict.OK and report.ok

    def test_budget_cut_search_is_unknown(self):
        report = fuzz_cal(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            seeds=range(5),
            search=True,
            node_budget=1,
        )
        assert report.unknown > 0 and not report.failures
        assert report.verdict is Verdict.UNKNOWN
        assert not report.ok
        assert "UNKNOWN" in repr(report)

    def test_deadline_cut_is_unknown(self):
        report = fuzz_cal(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            seeds=range(5),
            deadline_at=time.monotonic() - 1.0,
        )
        assert report.skipped == 5
        assert report.verdict is Verdict.UNKNOWN

    @pytest.mark.skipif(
        _fork_context() is None, reason="fork start method unavailable"
    )
    def test_partially_quarantined_campaign_is_unknown(self):
        base = exchanger_program([1, 2])
        parent = os.getpid()
        calls = [0]

        def setup(scheduler):
            # Chunks are seeds [0, 1, 2] and [3, 4]: a worker dies on its
            # third run, so only the first chunk is lost, on every retry.
            if os.getpid() != parent:
                calls[0] += 1
                if calls[0] == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
            return base(scheduler)

        report = fuzz_cal_parallel(
            setup,
            ExchangerSpec("E"),
            seeds=range(5),
            max_steps=500,
            workers=2,
            max_retries=1,
        )
        assert report.runs == 2 and report.skipped == 3
        assert len(report.quarantined) == 1
        assert not report.failures
        assert report.verdict is Verdict.UNKNOWN
        assert not report.ok
