"""The flat-combining synchronous queue: same CA-spec as the
exchanger-based one, third implementation strategy (§6, [11])."""

from __future__ import annotations

from itertools import islice

import pytest

from repro.checkers import CALChecker, fuzz_cal, verify_cal
from repro.objects.fc_sync_queue import FCSyncQueue
from repro.specs import SyncQueueSpec
from repro.substrate import Program, World, explore_all


def fc_setup(puts, takers, max_attempts=3):
    def setup(scheduler):
        world = World()
        queue = FCSyncQueue(world, "FC", max_attempts=max_attempts)
        program = Program(world)
        for index, value in enumerate(puts, start=1):
            program.thread(f"p{index}", lambda ctx, v=value: queue.put(ctx, v))
        for index in range(1, takers + 1):
            program.thread(f"c{index}", lambda ctx: queue.take(ctx))
        return program.runtime(scheduler)

    return setup


class TestHandoff:
    def test_one_pair_all_interleavings(self):
        report = verify_cal(
            fc_setup([5], 1),
            SyncQueueSpec("FC"),
            max_steps=250,
            preemption_bound=2,
        )
        assert report.ok
        assert report.runs > 0

    def test_outcomes(self):
        for run in explore_all(
            fc_setup([5], 1), max_steps=250, preemption_bound=2
        ):
            if run.completed:
                assert run.returns == {"p1": True, "c1": (True, 5)}

    def test_two_pairs(self):
        # 2×2 needs at least two preemptions to complete; cap the number
        # of checked runs to keep the exhaustive sweep fast.
        checker = CALChecker(SyncQueueSpec("FC"))
        complete = 0
        runs = explore_all(
            fc_setup([5, 6], 2), max_steps=400, preemption_bound=2
        )
        for run in islice(runs, 300):
            complete += 1
            witness = run.trace.project_object("FC")
            assert checker.check_witness(run.history, witness).ok
            taken = sorted(run.returns[c][1] for c in ("c1", "c2"))
            assert taken == [5, 6]
        assert complete > 0

    def test_lone_put_never_completes(self):
        for run in explore_all(fc_setup([5], 0), max_steps=200):
            assert not run.completed

    def test_combiner_matches_other_threads(self):
        """Some run must have a *third* thread's combining session match
        a put/take pair it does not own — the one-atomic-action-many-
        operations device executed by a bystander."""
        found = False
        for run in explore_all(
            fc_setup([5], 1, max_attempts=3), max_steps=300,
            preemption_bound=2,
        ):
            if not run.completed:
                continue
            # The pair element's operations belong to p1 and c1; if the
            # element was appended during one of their steps we can't
            # tell from the trace alone, so approximate: in runs where
            # both p1 and c1 results exist the match happened in exactly
            # one combining session.
            pairs = [e for e in run.trace if len(e) == 2]
            if pairs:
                found = True
                assert pairs[0].threads() == {"p1", "c1"}
        assert found


class TestScale:
    def test_fuzz_three_pairs(self):
        report = fuzz_cal(
            fc_setup([1, 2, 3], 3, max_attempts=None),
            SyncQueueSpec("FC"),
            seeds=range(60),
            max_steps=4000,
            check_witness=True,
            search=False,
        )
        assert report.ok
        assert report.runs > 0

    def test_fuzz_unbalanced_cut(self):
        # Two puts, one take: exactly one put can never complete.
        report = fuzz_cal(
            fc_setup([1, 2], 1, max_attempts=4),
            SyncQueueSpec("FC"),
            seeds=range(30),
            max_steps=2000,
            check_witness=True,
        )
        # every run is cut (the unmatched put exhausts its attempts)
        assert report.runs == 0
        assert report.incomplete == 30
