"""The worker supervisor: retry, quarantine, and failure diagnosis.

The regression at stake (ISSUE 6): a worker hard-killed mid-chunk
(SIGKILL, OOM) used to abort the whole campaign with an opaque
``RuntimeError``.  Now the supervisor retries the chunk with backoff, a
chunk whose workers keep dying is quarantined into explicit ``skipped``
seeds, and a deterministic in-task exception aborts with the worker's
full traceback.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.checkers import (
    explore_parallel,
    fuzz_cal,
    fuzz_cal_parallel,
)
from repro.checkers.parallel import _fork_context
from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import Metrics
from repro.obs.tracing import TraceSink
from repro.specs import ExchangerSpec
from repro.workloads.programs import exchanger_program

needs_fork = pytest.mark.skipif(
    _fork_context() is None, reason="fork start method unavailable"
)


def _kill_once_setup(base_setup, marker: str, parent_pid: int):
    """A setup whose first call in a *worker* SIGKILLs that worker.

    The marker file makes the kill one-shot (retries run clean) and the
    pid guard keeps the parent (and the inline fallback) safe.
    """

    def setup(scheduler):
        if os.getpid() != parent_pid and not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return base_setup(scheduler)

    return setup


def _kill_always_setup(base_setup, parent_pid: int):
    """A setup that SIGKILLs every worker that ever calls it."""

    def setup(scheduler):
        if os.getpid() != parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return base_setup(scheduler)

    return setup


@needs_fork
class TestWorkerDeathRecovery:
    def test_sigkilled_worker_is_retried_and_report_matches_sequential(
        self, tmp_path
    ):
        base = exchanger_program([1, 2, 3])
        spec = ExchangerSpec("E")
        kwargs = dict(seeds=range(12), max_steps=2000, check_witness=True)
        seq_cov = CoverageTracker()
        sequential = fuzz_cal(
            base, spec, coverage=seq_cov, metrics=Metrics(), **kwargs
        )
        killing = _kill_once_setup(
            base, str(tmp_path / "killed.marker"), os.getpid()
        )
        trace = TraceSink()
        par_cov = CoverageTracker()
        parallel = fuzz_cal_parallel(
            killing,
            spec,
            workers=2,
            trace=trace,
            coverage=par_cov,
            metrics=Metrics(),
            **kwargs,
        )
        events = [e["event"] for e in trace.events]
        assert "worker_retry" in events, "the killed chunk must be retried"
        assert "worker_quarantine" not in events
        # The retried chunk reruns from scratch, so the merged report —
        # tallies and coverage — equals the sequential run's exactly.
        assert parallel.runs == sequential.runs
        assert parallel.skipped == sequential.skipped == 0
        assert parallel.quarantined == []
        assert len(parallel.failures) == len(sequential.failures)
        assert par_cov.snapshot() == seq_cov.snapshot()

    def test_repeatedly_dying_chunk_is_quarantined_not_fatal(self):
        base = exchanger_program([1, 2])
        spec = ExchangerSpec("E")
        killing = _kill_always_setup(base, os.getpid())
        trace = TraceSink()
        report = fuzz_cal_parallel(
            killing,
            spec,
            seeds=range(6),
            max_steps=500,
            workers=2,
            trace=trace,
            max_retries=1,
        )
        events = [e["event"] for e in trace.events]
        assert "worker_quarantine" in events
        # Never silent loss: every seed of a lost chunk is an explicit
        # skip, and the quarantine entries say which chunks and why.
        assert report.runs == 0
        assert report.skipped == 6
        assert report.quarantined
        assert sum(q["seed_count"] for q in report.quarantined) == 6
        for entry in report.quarantined:
            assert entry["attempts"] == 2  # initial try + 1 retry
            assert "died" in entry["error"]

    def test_worker_spawn_records_attempt(self):
        base = exchanger_program([1, 2])
        trace = TraceSink()
        fuzz_cal_parallel(
            base,
            ExchangerSpec("E"),
            seeds=range(4),
            max_steps=500,
            workers=2,
            trace=trace,
        )
        spawns = [e for e in trace.events if e["event"] == "worker_spawn"]
        assert spawns and all("attempt" in e for e in spawns)


@needs_fork
class TestDeterministicFailures:
    def test_task_exception_aborts_with_full_traceback(self):
        def exploding(scheduler):
            raise ValueError("deliberate kaboom")

        with pytest.raises(RuntimeError) as excinfo:
            fuzz_cal_parallel(
                exploding,
                ExchangerSpec("E"),
                seeds=range(4),
                max_steps=100,
                workers=2,
            )
        message = str(excinfo.value)
        # Satellite fix: the parent gets the worker's full traceback,
        # not just repr(exc).
        assert "Traceback (most recent call last)" in message
        assert "ValueError: deliberate kaboom" in message


@needs_fork
class TestExploreQuarantine:
    def test_lost_shard_without_budget_raises(self):
        killing = _kill_always_setup(exchanger_program([1, 2]), os.getpid())
        with pytest.raises(RuntimeError, match="quarantined"):
            explore_parallel(killing, max_steps=400, workers=2)
