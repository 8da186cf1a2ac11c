"""The one chunk commit every campaign shares.

Three promises of the runner in :mod:`repro.checkers.parallel`:

* progress is campaign-wide — a chunk run in this process counts from
  the chunks committed before it, so ``attempted`` never steps back and
  the last event is the campaign's total, at any worker count;
* explore campaigns, inline and store-backed, report progress through
  the same path as fuzz and verify;
* a store holds the same chunk payloads as before — a bare result list
  or ``{"results", "provenance"}`` per explore shard, a rebased
  :class:`~repro.checkers.verify.VerificationReport` per verify shard —
  so a campaign interrupted under that layout resumes to the artifact an
  uninterrupted run produces.
"""

from __future__ import annotations

import json
from io import StringIO

import pytest

from repro.checkers.parallel import explore_parallel
from repro.checkers.verify import verify_cal
from repro.cli import WORKLOADS, ProgressRenderer, main
from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import Metrics
from repro.obs.provenance import ExplorationLedger
from repro.obs.tracing import TraceSink, read_trace
from repro.store import (
    CHUNK_DONE,
    STATUS_INTERRUPTED,
    CampaignStore,
    CheckpointWriter,
    durable_explore,
    durable_fuzz,
    durable_verify,
    plan_resume,
)
from repro.store.checkpoint import dump_report
from repro.substrate.explore import ExploreBudget, explore_all, shard_plan

X2 = WORKLOADS["exchanger2"]
VERIFY_KW = dict(search=True, check_witness=X2.check_witness)


def _progress(events):
    return [e for e in events if e["event"] == "campaign_progress"]


def _verify(store, trace=None, workers=1, abort_after=0, coverage=None):
    return durable_verify(
        store, "v", "exchanger2", "cal", X2.make_setup(), X2.make_spec(),
        {"max_steps": X2.max_steps}, workers=workers, trace=trace,
        coverage=coverage, metrics=Metrics(), progress_every=200,
        abort_after=abort_after, driver_kwargs=dict(VERIFY_KW),
    )


class TestCampaignWideProgress:
    def test_durable_verify_progress_never_steps_back(self, tmp_path):
        for workers in (1, 2):
            sink = TraceSink()
            with CampaignStore(str(tmp_path / f"w{workers}.db")) as store:
                report = _verify(store, trace=sink, workers=workers)
            attempted = [e["attempted"] for e in _progress(sink.events)]
            assert attempted == sorted(attempted), (workers, attempted)
            assert attempted[-1] == report.runs + report.incomplete
            assert _progress(sink.events)[-1]["runs"] == report.runs

    def test_resumed_progress_counts_the_restored_chunks(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.db")) as store:
            try:
                _verify(store, abort_after=1)
            except KeyboardInterrupt:
                pass
            sink = TraceSink()
            report = _verify(store, trace=sink)
        progress = _progress(sink.events)
        restored = progress[0]["attempted"] - 200
        assert 0 < restored < report.runs
        assert progress[-1]["attempted"] == report.runs + report.incomplete
        assert progress[-1]["chunks_done"] == progress[-1]["chunks"]

    def test_checkpointed_fuzz_counts_from_the_chunks_before(self, tmp_path):
        w = WORKLOADS["figure3"]
        sink = TraceSink()
        with CampaignStore(str(tmp_path / "s.db")) as store:
            durable_fuzz(
                store, "f", "figure3", "cal", w.make_setup(), w.make_spec(),
                {"seeds": 30, "checkpoint_every": 10, "max_steps": 2000},
                trace=sink, progress_every=5,
                driver_kwargs=dict(search=w.search, check_witness=w.check_witness),
            )
        progress = _progress(sink.events)
        attempted = [e["attempted"] for e in progress]
        assert attempted == sorted(attempted)
        assert attempted[-1] == 30
        assert {e["total"] for e in progress} == {30}
        # One chunk span per chunk, fuzz included.
        chunks = [
            e["span_id"] for e in sink.events
            if e["event"] == "phase_begin" and e["phase"] == "chunk"
        ]
        assert chunks == [f"campaign=f/chunk={k}" for k in range(3)]

    def test_explore_reports_progress_inline_and_durable(self, tmp_path):
        for extra in ([], ["--reduction", "dpor", "--store", str(tmp_path / "s.db")]):
            trace, artifact = tmp_path / "t.jsonl", tmp_path / "a.json"
            code = main([
                "explore", "--workload", "exchanger2", "--progress", "100",
                "--quiet", "--trace", str(trace), "--json", str(artifact),
                *extra,
            ])
            assert code == 0
            progress = _progress(read_trace(str(trace)))
            assert progress, extra
            attempted = [e["attempted"] for e in progress]
            assert attempted == sorted(attempted)
            runs = json.loads(artifact.read_text())["tallies"]["runs"]
            final = progress[-1]
            assert final["runs"] == runs
            assert final["chunks_done"] == final["chunks"]
            stream = StringIO()
            ProgressRenderer(stream=stream).emit(**final)
            assert "[explore]" in stream.getvalue()
            assert f"ok={runs}" in stream.getvalue()


def _sanitized(results):
    results = list(results)
    for result in results:
        result.world = None
    return results


def _interrupted(store, campaign_id, kind, config, chunks):
    """A campaign as an interrupted run leaves it: the row plus the given
    ``{index: payload}`` chunks, pickled as the checkpoint writer does."""
    store.create_campaign(campaign_id, kind, "exchanger2", "cal", config)
    for index, payload in chunks.items():
        store.record_chunk(
            campaign_id, index, index, 1, CHUNK_DONE, dump_report(payload)
        )
    store.set_status(campaign_id, STATUS_INTERRUPTED)


def _commits(sink):
    return [e["chunk"] for e in sink.events if e["event"] == "checkpoint"]


class TestStoredLayoutsResume:
    def test_bare_list_explore_chunk(self, tmp_path):
        setup, config = X2.make_setup(), {"max_steps": X2.max_steps}
        pins, _ = shard_plan(setup, X2.max_steps, "none")
        first = _sanitized(
            explore_all(setup, max_steps=X2.max_steps, pin_prefix=pins[0])
        )
        sink = TraceSink()
        with CampaignStore(str(tmp_path / "s.db")) as store:
            _interrupted(store, "e", "explore", config, {0: first})
            resumed = durable_explore(
                store, "e", "exchanger2", "cal", setup, config, trace=sink
            )
        assert _commits(sink) == list(range(1, len(pins)))
        sequential = list(explore_all(setup, max_steps=X2.max_steps))
        assert [r.schedule for r in resumed] == [r.schedule for r in sequential]

    def test_ledger_explore_chunk(self, tmp_path):
        setup = X2.make_setup()
        config = {"max_steps": X2.max_steps, "reduction": "dpor"}
        pins, seeds = shard_plan(setup, X2.max_steps, "dpor")
        ledger = ExplorationLedger()
        first = _sanitized(
            explore_all(
                setup, max_steps=X2.max_steps, pin_prefix=pins[0],
                reduction="dpor", sleep_seed=seeds[0], provenance=ledger,
            )
        )
        payload = {"results": first, "provenance": ledger.snapshot()}
        outcomes = {}
        for name, chunks in (("fresh", {}), ("resumed", {0: payload})):
            audit, sink = ExplorationLedger(), TraceSink()
            with CampaignStore(str(tmp_path / f"{name}.db")) as store:
                _interrupted(store, "e", "explore", config, chunks)
                results = durable_explore(
                    store, "e", "exchanger2", "cal", setup, config,
                    trace=sink, provenance=audit,
                )
            outcomes[name] = (
                [r.schedule for r in results], json.dumps(audit.snapshot())
            )
            assert _commits(sink) == list(range(len(chunks), len(pins)))
        assert outcomes["resumed"] == outcomes["fresh"]

    def test_rebased_verify_chunk(self, tmp_path):
        setup, spec = X2.make_setup(), X2.make_spec()
        pins, _ = shard_plan(setup, X2.max_steps, "none")
        assert len(pins) == 2

        def shard(pin):
            return verify_cal(
                setup, spec, max_steps=X2.max_steps, metrics=Metrics(),
                coverage=CoverageTracker(), pin_prefix=pin, **VERIFY_KW,
            )

        # The second shard as stored: coverage positions shifted by the
        # runs attempted in the shard before it.
        before, second = shard(pins[0]), shard(pins[1])
        offset = before.runs + before.incomplete
        second.coverage = dict(
            second.coverage,
            samples=[[p + offset, f] for p, f in second.coverage["samples"]],
        )
        resumed_cov, sink = CoverageTracker(), TraceSink()
        with CampaignStore(str(tmp_path / "s.db")) as store:
            _interrupted(
                store, "v", "verify", {"max_steps": X2.max_steps}, {1: second}
            )
            resumed = _verify(store, trace=sink, coverage=resumed_cov)
        assert _commits(sink) == [0]
        sequential_cov = CoverageTracker()
        sequential = verify_cal(
            setup, spec, max_steps=X2.max_steps, metrics=Metrics(),
            coverage=sequential_cov, **VERIFY_KW,
        )
        assert resumed.runs == sequential.runs
        assert resumed.nodes == sequential.nodes
        assert resumed.verdict == sequential.verdict
        assert resumed_cov.snapshot() == sequential_cov.snapshot()


class TestExploreHooks:
    def test_a_budget_cannot_be_checkpointed(self, tmp_path):
        """A budget-cut shard would be stored as if it were complete."""
        with CampaignStore(str(tmp_path / "s.db")) as store:
            writer = CheckpointWriter(store, "e")
            with pytest.raises(ValueError, match="budget"):
                explore_parallel(
                    X2.make_setup(), max_steps=X2.max_steps,
                    budget=ExploreBudget(max_runs=5), checkpoint=writer,
                )
            assert store.chunk_rows("e") == []


class TestResumePlanReadsNoPayload:
    def test_done_chunks_are_counted_without_unpickling(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.db")) as store:
            store.create_campaign("c1", "explore", "exchanger2", "cal", {})
            store.record_chunk("c1", 0, 0, 1, CHUNK_DONE, b"not a pickle")
            plan = plan_resume(store, "c1")
        assert list(plan.completed) == [0]
        assert "1 chunk(s) checkpointed" in plan.describe()
