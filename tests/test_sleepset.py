"""The deprecated ``reduction="sleep-set"`` synonym: differential equivalence.

The sleep-set engine is gone; ``reduction="sleep-set"`` now runs DPOR,
and stays accepted so stored campaign configs that name it still run.
Its contract is unchanged: *observational transparency with strictly
less work*.  On every workload the reduced enumeration must reproduce
exactly the outcome set (and therefore every verdict and
counterexample) of the unreduced one while visiting fewer schedules,
and it must visit exactly the schedules ``reduction="dpor"`` visits.
The counts are pinned — they are DPOR's, so the TSO count is half the
retired engine's 112.
"""

from __future__ import annotations

import pytest

from repro.checkers.parallel import explore_parallel
from repro.checkers.verify import verify_cal
from repro.specs import ExchangerSpec
from repro.substrate import Program, World
from repro.substrate.explore import REDUCTIONS, explore_all
from repro.workloads.programs import (
    StackWorkload,
    dual_stack_program,
    exchanger_program,
    manual_treiber_program,
)
from tests.test_parallel import Broken
from tests.test_rendezvous import rv_setup


def _outcomes(runs):
    """Hashable per-run outcome: thread → repr(return value)."""
    return {
        tuple(sorted((tid, repr(v)) for tid, v in run.returns.items()))
        for run in runs
    }


def _schedules(runs):
    return [run.schedule for run in runs]


def broken2_setup(scheduler):
    """Two threads on the never-CAL exchanger (ghost-partner swaps)."""
    world = World()
    exchanger = Broken(world, "E")
    program = Program(world)
    for index, value in enumerate([1, 2]):
        program.thread(
            f"t{index}", lambda ctx, v=value: exchanger.exchange(ctx, v)
        )
    return program.runtime(scheduler)


#: (name, setup factory, max_steps, unreduced count, sleep-set count).
#: Three CAL workloads with exhaustible spaces; the counts are the
#: pruning contract.
CASES = [
    ("exchanger", lambda: exchanger_program([3, 4]), 200, 4622, 58),
    (
        "dual-stack",
        lambda: dual_stack_program(
            StackWorkload(scripts=[[("push", 1)], [("pop",)]])
        ),
        150,
        17742,
        41,
    ),
    ("rendezvous", lambda: rv_setup([3, 4], slots=1), 300, 70080, 208),
]


class TestExploreDifferential:
    @pytest.mark.parametrize(
        "name, factory, max_steps, full_count, reduced_count",
        CASES,
        ids=[case[0] for case in CASES],
    )
    def test_same_outcomes_strictly_fewer_schedules(
        self, name, factory, max_steps, full_count, reduced_count
    ):
        full = list(explore_all(factory(), max_steps=max_steps))
        reduced = list(
            explore_all(
                factory(), max_steps=max_steps, reduction="sleep-set"
            )
        )
        dpor = list(
            explore_all(factory(), max_steps=max_steps, reduction="dpor")
        )
        assert len(full) == full_count
        assert len(reduced) == reduced_count
        assert len(reduced) < len(full)
        assert _outcomes(reduced) == _outcomes(full)
        assert all(run.completed for run in reduced)
        assert _schedules(reduced) == _schedules(dpor)

    def test_tso_store_buffer_differential(self):
        """Flush pseudo-threads participate in the independence
        relation; the reduction must stay transparent under TSO."""
        workload = StackWorkload(scripts=[[("push", 3)], [("pop",)]])
        setup = manual_treiber_program(
            workload,
            policy="gc",
            seed_values=(1,),
            max_attempts=1,
            memory_model="tso",
        )
        full = list(explore_all(setup, max_steps=200))
        reduced = list(
            explore_all(setup, max_steps=200, reduction="sleep-set")
        )
        dpor = list(explore_all(setup, max_steps=200, reduction="dpor"))
        assert len(full) == 16875
        assert len(reduced) == 56
        assert _outcomes(reduced) == _outcomes(full)
        assert _schedules(reduced) == _schedules(dpor)

    def test_reduction_none_is_default_and_validated(self):
        assert REDUCTIONS == ("none", "sleep-set", "dpor")
        with pytest.raises(ValueError, match="reduction"):
            list(explore_all(broken2_setup, reduction="odd-sets"))

    def test_sleep_set_rejects_preemption_bound(self):
        with pytest.raises(ValueError, match="preemption_bound"):
            list(
                explore_all(
                    broken2_setup, reduction="sleep-set", preemption_bound=1
                )
            )


class TestVerifyDifferential:
    def test_passing_cal_verdict_identical(self):
        spec = ExchangerSpec("E")
        full = verify_cal(
            exchanger_program([3, 4]), spec, max_steps=200
        )
        reduced = verify_cal(
            exchanger_program([3, 4]),
            spec,
            max_steps=200,
            reduction="sleep-set",
        )
        assert reduced.verdict == full.verdict
        assert not full.failures and not reduced.failures
        assert reduced.runs < full.runs

    def test_failing_cal_counterexample_identical(self):
        spec = ExchangerSpec("E")
        full = verify_cal(broken2_setup, spec, max_steps=100)
        reduced = verify_cal(
            broken2_setup, spec, max_steps=100, reduction="sleep-set"
        )
        assert reduced.verdict == full.verdict
        assert full.failures and reduced.failures
        first_full, first_reduced = full.failures[0], reduced.failures[0]
        assert first_reduced.reason == first_full.reason
        assert first_reduced.schedule == first_full.schedule
        assert first_reduced.history == first_full.history


class TestParallelAndDurable:
    def test_explore_parallel_matches_sequential_sleep_set(self):
        sequential = list(
            explore_all(
                exchanger_program([3, 4]),
                max_steps=200,
                reduction="sleep-set",
            )
        )
        fanned = explore_parallel(
            exchanger_program([3, 4]),
            max_steps=200,
            workers=2,
            reduction="sleep-set",
        )
        assert _outcomes(fanned) == _outcomes(sequential)
        assert len(fanned) < 4622
