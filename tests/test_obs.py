"""The observability layer: metrics, trace sinks, counterexample reports.

Three pillars, each with its determinism contract:

* **Metrics merging is a monoid** — counters sum, maxima max, timers
  sum — so any partition of a campaign across fork workers totals
  exactly what the sequential campaign records (verified here against
  real ``fuzz_cal_parallel`` runs, not just unit snapshots).
* **Trace events round-trip** through the JSON-lines sink byte-exactly
  (modulo the documented repr-coercion of non-JSON payloads).
* **Counterexample reports replay**: the schedule and fault plan stored
  in a report re-produce the very failure the report describes.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.checkers import (
    CALChecker,
    fuzz_cal,
    fuzz_cal_parallel,
    fuzz_linearizability,
    verify_cal,
)
from repro.obs import (
    CounterexampleReport,
    JsonLinesTraceSink,
    Metrics,
    TeeTraceSink,
    TraceSink,
    observe_run,
    read_trace,
)
from repro.core.catrace import swap_element
from repro.objects.base import operation
from repro.objects.exchanger import Exchanger
from repro.specs import ExchangerSpec, QueueSpec
from repro.substrate import Program, World
from repro.substrate.explore import run_schedule
from repro.substrate.faults import FaultCampaign
from repro.workloads.programs import exchanger_program
from repro.workloads.synthetic import wide_overlap_history

from tests.test_fuzz import TestFuzzLinearizability
from tests.test_parallel import broken_setup

_naive_queue_setup = TestFuzzLinearizability._naive_queue_setup


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_count_get_and_len(self):
        metrics = Metrics()
        assert metrics.get("search.nodes") == 0
        metrics.count("search.nodes")
        metrics.count("search.nodes", 4)
        metrics.record_max("search.frontier_width_max", 3)
        metrics.add_time("cal.check_s", 0.5)
        assert metrics.get("search.nodes") == 5
        assert len(metrics) == 3
        assert "1 counters" in repr(metrics)

    def test_record_max_keeps_largest(self):
        metrics = Metrics()
        metrics.record_max("m", 2)
        metrics.record_max("m", 7)
        metrics.record_max("m", 5)
        assert metrics.maxima["m"] == 7

    def test_span_times_exception_safely(self):
        metrics = Metrics()
        with pytest.raises(RuntimeError):
            with metrics.span("phase_s"):
                raise RuntimeError("boom")
        assert metrics.timers["phase_s"] >= 0.0

    def test_snapshot_round_trip(self):
        metrics = Metrics()
        metrics.count("a", 2)
        metrics.record_max("b", 9)
        metrics.add_time("c", 1.25)
        clone = Metrics.from_snapshot(metrics.snapshot())
        assert clone.snapshot() == metrics.snapshot()
        # Snapshots are detached copies.
        snapshot = metrics.snapshot()
        metrics.count("a")
        assert snapshot["counters"]["a"] == 2

    def test_snapshot_is_json_serializable(self):
        metrics = Metrics()
        metrics.count("a", 3)
        metrics.record_max("b", 1)
        metrics.add_time("c", 0.1)
        assert json.loads(json.dumps(metrics.snapshot())) == metrics.snapshot()

    def _random_metrics(self, seed: int) -> Metrics:
        import random

        rng = random.Random(seed)
        metrics = Metrics()
        for name in "abcde":
            if rng.random() < 0.8:
                metrics.count(f"counter.{name}", rng.randrange(100))
            if rng.random() < 0.5:
                metrics.record_max(f"max.{name}", rng.randrange(100))
            if rng.random() < 0.5:
                metrics.add_time(f"timer.{name}", rng.random())
        return metrics

    def test_merge_is_associative_and_commutative(self):
        for seed in range(10):
            a, b, c = (self._random_metrics(seed * 3 + k) for k in range(3))

            def total(*parts):
                out = Metrics()
                for part in parts:
                    out.merge(Metrics.from_snapshot(part.snapshot()))
                return out.snapshot()

            left = total(a, b, c)
            right = total(c, a, b)
            assert left["counters"] == right["counters"]
            assert left["maxima"] == right["maxima"]
            for name, value in left["timers"].items():
                assert value == pytest.approx(right["timers"][name])

    def test_merge_returns_self_and_sums(self):
        a, b = Metrics(), Metrics()
        a.count("n", 1)
        b.count("n", 2)
        b.record_max("m", 5)
        assert a.merge(b) is a
        assert a.get("n") == 3
        assert a.maxima["m"] == 5


class TestObserveRun:
    def test_flushes_runtime_counters(self):
        setup = exchanger_program([1, 2])
        run = run_schedule(setup, [], max_steps=500, clamp=True)
        metrics = Metrics()
        observe_run(metrics, run)
        assert metrics.get("runtime.runs") == 1
        assert metrics.get("runtime.steps") == run.steps
        for name, value in run.counters.items():
            assert metrics.get(f"runtime.{name}") == value


# ----------------------------------------------------------------------
# Trace sinks
# ----------------------------------------------------------------------
class TestTraceSinks:
    def test_in_memory_sink_collects_events(self):
        sink = TraceSink()
        sink.emit("check_begin", checker="cal", oid="E")
        with sink.span("search", depth=2):
            pass
        events = [e["event"] for e in sink.events]
        assert events == ["check_begin", "phase_begin", "phase_end"]
        assert sink.events[-1]["elapsed_s"] >= 0.0

    def test_non_json_payloads_are_repr_coerced(self):
        sink = TraceSink()
        sink.emit("odd", payload=object(), nested={"k": (1, 2)}, ok=True)
        event = sink.events[0]
        assert event["payload"].startswith("<object object")
        assert event["nested"] == {"k": [1, 2]}
        assert json.dumps(event)  # always serializable

    def test_jsonl_round_trip_via_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonLinesTraceSink(path) as sink:
            sink.emit("campaign_begin", seeds=5)
            sink.emit("worker_spawn", task=0, pid=1234)
            with sink.span("shrink", seed=3):
                pass
        events = read_trace(path)
        assert [e["event"] for e in events] == [
            "campaign_begin",
            "worker_spawn",
            "phase_begin",
            "phase_end",
        ]
        assert events[0]["seeds"] == 5
        assert events[1] == {"event": "worker_spawn", "task": 0, "pid": 1234}

    def test_jsonl_borrowed_file_stays_open(self):
        handle = io.StringIO()
        sink = JsonLinesTraceSink(handle)
        sink.emit("e", x=1)
        sink.close()
        assert not handle.closed
        assert json.loads(handle.getvalue()) == {"event": "e", "x": 1}

    def test_each_event_is_one_flushed_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonLinesTraceSink(path)
        sink.emit("a")
        # Flushed per event: readable before close (crash-resilience).
        assert read_trace(path) == [{"event": "a"}]
        sink.close()

    def test_timer_entries_survive_snapshot_round_trip(self):
        metrics = Metrics()
        metrics.add_time("phase.search", 0.125)
        metrics.add_time("phase.shrink", 2.5)
        clone = Metrics.from_snapshot(metrics.snapshot())
        assert clone.timers == {"phase.search": 0.125, "phase.shrink": 2.5}
        # The rebuilt registry keeps merging like the original.
        clone.merge(Metrics.from_snapshot(metrics.snapshot()))
        assert clone.timers["phase.search"] == pytest.approx(0.25)
        # Detached: mutating the clone leaves the source untouched.
        clone.add_time("phase.search", 1.0)
        assert metrics.timers["phase.search"] == 0.125


class TestSinkLifecycle:
    def test_owned_handle_double_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonLinesTraceSink(path)
        sink.emit("a", x=1)
        sink.close()
        sink.close()  # second close must not raise
        assert read_trace(path) == [{"event": "a", "x": 1}]

    def test_owned_handle_emit_after_close_raises(self, tmp_path):
        sink = JsonLinesTraceSink(str(tmp_path / "trace.jsonl"))
        sink.close()
        with pytest.raises(ValueError):
            sink.emit("late")

    def test_borrowed_handle_usable_after_close(self):
        handle = io.StringIO()
        sink = JsonLinesTraceSink(handle)
        sink.emit("a")
        sink.close()  # borrowed: left open by contract
        sink.emit("b")
        events = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert [e["event"] for e in events] == ["a", "b"]

    def test_context_manager_closes_owned_handle(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonLinesTraceSink(path) as sink:
            sink.emit("a")
        assert sink._handle.closed

    def test_tee_fans_out_isolated_copies(self):
        class Mutating(TraceSink):
            def _write(self, record):
                record["mutated"] = True
                super()._write(record)

        first, second = Mutating(), TraceSink()
        tee = TeeTraceSink(first, second)
        tee.emit("e", x=1)
        assert first.events == [{"event": "e", "x": 1, "mutated": True}]
        # The first sink's mutation must not leak into the second's copy.
        assert second.events == [{"event": "e", "x": 1}]
        tee.close()


class TestReadTraceTruncation:
    """A worker killed mid-write leaves a cut final line; the sink
    flushes per line, so that is the only corruption shape truncation
    can produce — and the reader must survive it (satellite of PR-4)."""

    def test_truncated_final_line_yields_warning_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"event": "a"}\n{"event": "b"}\n{"event": "campaign_pro'
        )
        events = read_trace(str(path))
        assert [e["event"] for e in events[:2]] == ["a", "b"]
        warning = events[2]
        assert warning["event"] == "trace_truncated"
        assert warning["line"] == 3
        assert warning["prefix"].startswith('{"event": "campaign_pro')
        assert "error" in warning

    def test_trailing_newline_is_not_truncation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "a"}\n')
        assert read_trace(str(path)) == [{"event": "a"}]

    def test_malformed_interior_line_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "a"}\n{oops\n{"event": "b"}\n')
        with pytest.raises(json.JSONDecodeError):
            read_trace(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        assert read_trace(str(path)) == []


class TestCampaignProgressEvents:
    """``campaign_progress`` must be emittable standalone — a trace sink
    and ``progress_every`` suffice, no coverage tracker required — and
    must carry the live-rendering fields the CLI consumes."""

    def _progress(self, sink):
        return [e for e in sink.events if e["event"] == "campaign_progress"]

    def test_fuzz_emits_periodic_progress_without_coverage(self):
        sink = TraceSink()
        fuzz_cal(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            seeds=range(12),
            max_steps=200,
            trace=sink,
            progress_every=5,
        )
        progress = self._progress(sink)
        assert [e["attempted"] for e in progress] == [5, 10]
        for event in progress:
            assert event["driver"] == "fuzz_cal"
            assert event["total"] == 12
            assert event["elapsed_s"] >= 0.0
            for key in ("runs", "failures", "unknown", "skipped"):
                assert key in event
            assert "distinct_histories" not in event

    def test_fuzz_progress_reports_live_coverage_when_tracked(self):
        from repro.obs import CoverageTracker

        sink = TraceSink()
        fuzz_cal(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            seeds=range(10),
            max_steps=200,
            trace=sink,
            coverage=CoverageTracker(),
            progress_every=5,
        )
        progress = self._progress(sink)
        assert progress
        assert all(e["distinct_histories"] >= 1 for e in progress)

    def test_explore_emits_progress(self):
        from repro.substrate.explore import explore_all

        sink = TraceSink()
        runs = list(
            explore_all(
                exchanger_program([3, 4]),
                max_steps=200,
                trace=sink,
                progress_every=1000,
            )
        )
        progress = self._progress(sink)
        assert progress
        assert progress[-1]["driver"] == "explore"
        assert progress[-1]["attempted"] % 1000 == 0
        assert progress[-1]["runs"] <= len(runs)

    def test_parallel_fuzz_emits_cumulative_chunk_progress(self):
        sink = TraceSink()
        fuzz_cal_parallel(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            seeds=range(12),
            workers=3,
            max_steps=200,
            trace=sink,
            progress_every=1,
        )
        progress = self._progress(sink)
        assert progress
        assert [e["chunks_done"] for e in progress] == [1, 2, 3]
        last = progress[-1]
        assert last["attempted"] == 12
        assert last["total"] == 12


# ----------------------------------------------------------------------
# Fork-worker merge determinism (the acceptance criterion)
# ----------------------------------------------------------------------
class TestParallelStatsDeterminism:
    def _stats(self, report):
        assert report.stats is not None
        return report.stats

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_clean_campaign_stats_match_sequential(self, workers):
        setup = exchanger_program([1, 2, 3, 4])
        spec = ExchangerSpec("E")
        kwargs = dict(seeds=range(24), max_steps=2000, shrink=False)
        sequential = fuzz_cal(setup, spec, metrics=Metrics(), **kwargs)
        parallel = fuzz_cal_parallel(
            setup, spec, workers=workers, metrics=Metrics(), **kwargs
        )
        seq, par = self._stats(sequential), self._stats(parallel)
        assert par["counters"] == seq["counters"]
        assert par["maxima"] == seq["maxima"]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failing_campaign_stats_match_sequential(self, workers):
        spec = ExchangerSpec("E")
        kwargs = dict(seeds=range(18), max_steps=300, shrink=False)
        sequential = fuzz_cal(broken_setup, spec, metrics=Metrics(), **kwargs)
        parallel = fuzz_cal_parallel(
            broken_setup, spec, workers=workers, metrics=Metrics(), **kwargs
        )
        assert not sequential.ok and not parallel.ok
        seq, par = self._stats(sequential), self._stats(parallel)
        assert par["counters"] == seq["counters"]
        assert par["maxima"] == seq["maxima"]

    def test_caller_metrics_receive_the_campaign(self):
        setup = exchanger_program([1, 2])
        metrics = Metrics()
        report = fuzz_cal_parallel(
            setup,
            ExchangerSpec("E"),
            seeds=range(6),
            max_steps=1000,
            workers=2,
            shrink=False,
            metrics=metrics,
        )
        assert metrics.get("fuzz.seeds") == 6
        assert metrics.counters == report.stats["counters"]

    def test_search_campaign_stats_match_sequential(self):
        """With search=True the search.* counters must also partition
        cleanly (node counts are per-history facts)."""
        setup = exchanger_program([1, 2, 3])
        spec = ExchangerSpec("E")
        kwargs = dict(
            seeds=range(12),
            max_steps=1500,
            check_witness=False,
            search=True,
            shrink=False,
        )
        sequential = fuzz_cal(setup, spec, metrics=Metrics(), **kwargs)
        parallel = fuzz_cal_parallel(
            setup, spec, workers=3, metrics=Metrics(), **kwargs
        )
        seq, par = self._stats(sequential), self._stats(parallel)
        assert seq["counters"]["search.nodes"] > 0
        assert par["counters"] == seq["counters"]


# ----------------------------------------------------------------------
# Counterexample reports
# ----------------------------------------------------------------------
class TestCounterexampleReport:
    def _failing_report(self):
        report = fuzz_linearizability(
            _naive_queue_setup,
            QueueSpec("EQ"),
            seeds=range(400),
            max_steps=1000,
        )
        assert not report.ok
        return report

    def test_every_fail_carries_a_report(self):
        report = self._failing_report()
        assert report.reports
        for failure in report.failures:
            assert failure.report is not None
            assert failure.report.verdict == "fail"
            assert failure.report.reason == failure.reason
            assert failure.report.schedule == failure.schedule
            assert failure.report.seed == failure.seed

    def test_report_schedule_replays_to_the_reported_failure(self):
        """The acceptance criterion: a report is self-sufficient — its
        schedule (plus plan) reproduces the failing history."""
        report = self._failing_report()
        failure = report.failures[0]
        rerun = run_schedule(
            _naive_queue_setup,
            failure.report.schedule,
            max_steps=1000,
            faults=failure.report.plan,
        )
        assert rerun.history == failure.history
        from repro.checkers import LinearizabilityChecker

        result = LinearizabilityChecker(QueueSpec("EQ")).check(rerun.history)
        assert not result.ok
        assert result.reason == failure.report.reason

    def test_unknown_runs_carry_reports(self):
        setup = exchanger_program([1, 2, 3, 4])
        report = fuzz_cal(
            setup,
            ExchangerSpec("E"),
            seeds=range(4),
            max_steps=2000,
            check_witness=False,
            search=True,
            node_budget=1,
            shrink=False,
        )
        assert report.unknown == report.runs > 0
        unknown_reports = [r for r in report.reports if r.verdict == "unknown"]
        assert len(unknown_reports) == report.unknown
        for cex in unknown_reports:
            assert "budget" in cex.reason or "deadline" in cex.reason

    def test_report_render_and_serialization(self):
        report = self._failing_report()
        cex = report.failures[0].report
        text = cex.render()
        assert "FAIL:" in text
        assert "timeline:" in text and "replay:" in text
        assert "run_schedule" in cex.replay_snippet
        payload = json.loads(cex.to_json())
        assert payload["verdict"] == "fail"
        assert payload["schedule"] == cex.schedule
        assert payload["oid"] == "EQ"
        assert isinstance(payload["timeline"], str) and payload["timeline"]

    def test_report_timeline_projects_to_object(self):
        history = wide_overlap_history(3)
        cex = CounterexampleReport.build(
            history, "synthetic", verdict="fail", oid="E"
        )
        assert cex.operations == 3
        assert cex.pending == 0
        assert "exchange" in cex.timeline

    def test_fault_plan_survives_into_report(self):
        class Crashy(Exchanger):
            @operation
            def exchange(self, ctx, v):
                yield from ctx.log_trace(
                    swap_element(self.oid, ctx.tid, v, "ghost", 0)
                )
                return (True, 0)

        def setup(scheduler):
            world = World()
            exchanger = Crashy(world, "E")
            program = Program(world)
            program.thread("t1", lambda ctx: exchanger.exchange(ctx, 1))
            program.thread("t2", lambda ctx: exchanger.exchange(ctx, 2))
            return program.runtime(scheduler)

        report = fuzz_cal(
            setup,
            ExchangerSpec("E"),
            seeds=range(5),
            max_steps=200,
            faults=FaultCampaign(crashes=1),
            shrink=False,
        )
        assert not report.ok
        with_plan = [f for f in report.failures if f.plan is not None]
        assert with_plan
        for failure in with_plan:
            assert failure.report.plan is failure.plan
            assert failure.report.to_dict()["fault_plan"]

    def test_verify_failures_carry_reports(self):
        report = verify_cal(broken_setup, ExchangerSpec("E"), max_steps=300)
        assert not report.ok
        assert report.failures
        for failure in report.failures:
            assert failure.report is not None
            assert failure.report.reason == failure.reason


# ----------------------------------------------------------------------
# Checker trace streams end-to-end
# ----------------------------------------------------------------------
class TestCheckerTracing:
    def test_check_emits_begin_end(self):
        sink = TraceSink()
        history = wide_overlap_history(3)
        result = CALChecker(ExchangerSpec("E")).check(history, trace=sink)
        assert result.ok
        assert [e["event"] for e in sink.events] == ["check_begin", "check_end"]
        assert sink.events[1]["nodes"] == result.nodes
        assert sink.events[1]["verdict"] == "ok"

    def test_fuzz_campaign_stream_is_jsonl_round_trippable(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with JsonLinesTraceSink(path) as sink:
            fuzz_cal(
                exchanger_program([1, 2]),
                ExchangerSpec("E"),
                seeds=range(3),
                max_steps=1000,
                trace=sink,
            )
        events = [e["event"] for e in read_trace(path)]
        assert events[0] == "campaign_begin"
        assert events[-1] == "campaign_end"

    def test_parallel_campaign_emits_worker_lifecycle(self):
        sink = TraceSink()
        fuzz_cal_parallel(
            exchanger_program([1, 2]),
            ExchangerSpec("E"),
            seeds=range(8),
            max_steps=1000,
            workers=2,
            shrink=False,
            trace=sink,
        )
        events = [e["event"] for e in sink.events]
        assert "worker_spawn" in events or "workers_inline" in events
        if "worker_spawn" in events:
            spawns = events.count("worker_spawn")
            assert events.count("worker_done") == spawns
