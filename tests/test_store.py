"""The durable campaign store: checkpoint, resume, and cross-run dedup.

The acceptance criterion under test: an interrupted campaign (SIGINTed
parent — simulated deterministically via the checkpoint writer's
``abort_after`` hook, which raises :class:`KeyboardInterrupt` on the
exact code path a real Ctrl-C takes) leaves a resumable campaign, and
resuming produces an artifact equal to an uninterrupted run's —
verdicts, failures, seed accounting and coverage snapshots, compared
byte-for-byte after dropping wall-clock-derived fields.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.checkers import fuzz_cal, fuzz_cal_parallel
from repro.checkers.parallel import _fork_context
from repro.checkers.verify import verify_cal
from repro.cli import WORKLOADS, _durable_config, build_parser, main
from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import Metrics
from repro.obs.tracing import TraceSink
from repro.specs import ExchangerSpec
from repro.store import (
    CHUNK_DONE,
    CHUNK_QUARANTINED,
    STATUS_COMPLETE,
    STATUS_INTERRUPTED,
    CampaignStore,
    CheckpointWriter,
    ScheduleDedup,
    StoreError,
    default_campaign_id,
    durable_explore,
    durable_fuzz,
    durable_verify,
    load_dedup,
    plan_resume,
    probe_width,
)
from repro.store.checkpoint import dump_report, load_report
from repro.substrate.explore import explore_all
from repro.workloads.programs import exchanger_program


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "campaigns.db")) as s:
        yield s


class TestCampaignStore:
    def test_campaign_round_trip(self, store):
        created = store.create_campaign(
            "c1", "fuzz", "figure3", "cal", {"seeds": 10}
        )
        assert created["status"] == "running"
        assert store.get_campaign("c1")["config"] == {"seeds": 10}
        store.set_status("c1", STATUS_COMPLETE)
        assert store.get_campaign("c1")["status"] == STATUS_COMPLETE
        assert [c["id"] for c in store.list_campaigns()] == ["c1"]

    def test_reopening_with_same_config_is_resume(self, store):
        store.create_campaign("c1", "fuzz", "figure3", "cal", {"seeds": 10})
        again = store.create_campaign(
            "c1", "fuzz", "figure3", "cal", {"seeds": 10}
        )
        assert again["id"] == "c1"

    def test_config_mismatch_raises(self, store):
        store.create_campaign("c1", "fuzz", "figure3", "cal", {"seeds": 10})
        with pytest.raises(StoreError, match="different"):
            store.create_campaign(
                "c1", "fuzz", "figure3", "cal", {"seeds": 20}
            )

    def test_chunks_partition_by_status(self, store):
        store.create_campaign("c1", "fuzz", "figure3", "cal", {})
        store.record_chunk("c1", 0, 0, 10, CHUNK_DONE, b"payload-0")
        store.record_chunk(
            "c1", 1, 10, 10, CHUNK_QUARANTINED, None, error="kaboom"
        )
        assert store.completed_payloads("c1") == {0: b"payload-0"}
        [quarantined] = store.quarantined_chunks("c1")
        assert quarantined["chunk_index"] == 1
        assert quarantined["error"] == "kaboom"
        # A retried chunk replaces its quarantine row with a success.
        store.record_chunk("c1", 1, 10, 10, CHUNK_DONE, b"payload-1")
        assert store.quarantined_chunks("c1") == []
        assert store.completed_payloads("c1") == {0: b"payload-0", 1: b"payload-1"}

    def test_fingerprints_union(self, store):
        assert store.add_fingerprints("scope", "schedule", ["a", "b"]) == 2
        assert store.add_fingerprints("scope", "schedule", ["b", "c"]) == 1
        assert store.fingerprints("scope", "schedule") == {"a", "b", "c"}
        assert store.fingerprints("other", "schedule") == set()

    def test_trajectory_round_trip(self, store):
        e20 = {
            "experiment": "E20",
            "recorded_at": "2026-08-07T00:00:00+00:00",
            "commit": "abcdef1234567890",
            "reclamation_overhead": {"free-list": 0.12, "hazard": 0.07},
            "tso_overhead": 0.14,
        }
        e22 = {
            "experiment": "E22",
            "recorded_at": "2026-08-08T00:00:00+00:00",
            "commit": "2222222222222222",
            "dpor_reduction": 301.3,
        }
        store.append_trajectory(e20)
        store.append_trajectory(e22)
        assert store.trajectory() == [e20, e22]
        assert store.trajectory(experiment="E22") == [e22]
        assert store.trajectory(experiment="E20") == [e20]
        assert store.trajectory(experiment="E17") == []

    def test_store_survives_reopen(self, tmp_path):
        path = str(tmp_path / "campaigns.db")
        with CampaignStore(path) as first:
            first.create_campaign("c1", "fuzz", "figure3", "cal", {})
            first.record_chunk("c1", 0, 0, 5, CHUNK_DONE, b"x")
        with CampaignStore(path) as second:
            assert second.get_campaign("c1") is not None
            assert second.completed_payloads("c1") == {0: b"x"}

    def test_report_payload_round_trip(self, store):
        report = fuzz_cal(
            exchanger_program([1, 2]),
            ExchangerSpec("E"),
            seeds=range(3),
            max_steps=500,
        )
        restored = load_report(dump_report(report))
        assert restored.runs == report.runs
        assert restored.skipped == report.skipped
        assert len(restored.failures) == len(report.failures)


class TestCheckpointWriter:
    def test_writes_emit_trace_events(self, store):
        store.create_campaign("c1", "fuzz", "figure3", "cal", {})
        trace = TraceSink()
        writer = CheckpointWriter(store, "c1", trace=trace)
        writer.chunk_done(0, 0, 10, {"fake": "report"})
        writer.chunk_quarantined(1, 10, 10, "kaboom")
        events = [e["event"] for e in trace.events]
        assert events == ["checkpoint", "checkpoint"]
        assert trace.events[0]["status"] == CHUNK_DONE
        assert trace.events[1]["status"] == CHUNK_QUARANTINED

    def test_abort_after_commits_then_interrupts(self, store):
        store.create_campaign("c1", "fuzz", "figure3", "cal", {})
        writer = CheckpointWriter(store, "c1", abort_after=2)
        writer.chunk_done(0, 0, 10, {})
        with pytest.raises(KeyboardInterrupt):
            writer.chunk_done(1, 10, 10, {})
        # Both writes committed before the interrupt fired.
        assert set(store.completed_payloads("c1")) == {0, 1}


class TestResumePlanner:
    def test_unknown_campaign_raises_with_known_ids(self, store):
        store.create_campaign("real", "fuzz", "figure3", "cal", {})
        with pytest.raises(StoreError, match="real"):
            plan_resume(store, "imaginary")

    def test_plan_reflects_store_state(self, store):
        store.create_campaign("c1", "fuzz", "figure3", "cal", {"seeds": 30})
        store.record_chunk("c1", 0, 0, 10, CHUNK_DONE, dump_report({"r": 1}))
        store.record_chunk("c1", 2, 20, 10, CHUNK_QUARANTINED, None, error="x")
        plan = plan_resume(store, "c1")
        assert plan.kind == "fuzz"
        assert plan.config == {"seeds": 30}
        assert set(plan.completed) == {0}
        assert [q["chunk_index"] for q in plan.quarantined] == [2]
        assert "1 chunk(s) checkpointed" in plan.describe()


def _strip_clock(artifact):
    """Drop wall-clock-derived fields; everything else must be equal."""
    artifact = json.loads(json.dumps(artifact))
    artifact.pop("elapsed_s", None)
    artifact.pop("campaign", None)  # carries the store path
    artifact.pop("profile", None)  # shares of wall-clock timers
    if artifact.get("stats"):
        artifact["stats"].pop("timers", None)
    return json.dumps(artifact, sort_keys=True)


class TestDurableFuzz:
    WORKLOAD = "figure3"
    CONFIG = {
        "seeds": 30,
        "checkpoint_every": 10,
        "max_steps": 2000,
        "dedup": False,
    }

    def _run(self, store, abort_after=0, workers=1):
        w = WORKLOADS[self.WORKLOAD]
        coverage = CoverageTracker()
        report = durable_fuzz(
            store,
            "job",
            self.WORKLOAD,
            "cal",
            w.make_setup(),
            w.make_spec(),
            dict(self.CONFIG),
            workers=workers,
            metrics=Metrics(),
            coverage=coverage,
            abort_after=abort_after,
            driver_kwargs=dict(
                search=w.search, check_witness=w.check_witness
            ),
        )
        return report, coverage

    def test_interrupt_marks_campaign_and_keeps_checkpoints(self, store):
        with pytest.raises(KeyboardInterrupt):
            self._run(store, abort_after=1)
        assert store.get_campaign("job")["status"] == STATUS_INTERRUPTED
        assert len(store.completed_payloads("job")) == 1

    def test_resume_equals_uninterrupted(self, store, tmp_path):
        with CampaignStore(str(tmp_path / "fresh.db")) as fresh:
            base, base_cov = self._run(fresh)
        with pytest.raises(KeyboardInterrupt):
            self._run(store, abort_after=1)
        resumed, resumed_cov = self._run(store)
        assert store.get_campaign("job")["status"] == STATUS_COMPLETE
        assert resumed.runs == base.runs
        assert resumed.skipped == base.skipped
        assert [f.seed for f in resumed.failures] == [
            f.seed for f in base.failures
        ]
        assert resumed_cov.snapshot() == base_cov.snapshot()

    def test_completed_campaign_replays_from_checkpoints(self, store):
        base, base_cov = self._run(store)
        again, again_cov = self._run(store)  # no chunk re-runs
        assert again.runs == base.runs
        assert again_cov.snapshot() == base_cov.snapshot()

    @pytest.mark.skipif(
        _fork_context() is None, reason="fork start method unavailable"
    )
    def test_sigkilled_worker_leaves_resumable_quarantine(
        self, store, tmp_path
    ):
        """A chunk lost to worker deaths is recorded ``quarantined`` in
        the store (explicit skip, campaign still completes) and a later
        re-entry retries exactly that chunk."""
        w = WORKLOADS[self.WORKLOAD]
        base_setup = w.make_setup()
        marker = str(tmp_path / "healthy.marker")
        parent = os.getpid()

        def flaky_setup(scheduler):
            # Workers die until the marker exists; the parent is immune.
            if os.getpid() != parent and not os.path.exists(marker):
                os.kill(os.getpid(), signal.SIGKILL)
            return base_setup(scheduler)

        kwargs = dict(
            workers=2,
            metrics=Metrics(),
            coverage=CoverageTracker(),
            driver_kwargs=dict(search=w.search, check_witness=w.check_witness),
        )
        first = durable_fuzz(
            store, "job", self.WORKLOAD, "cal", flaky_setup,
            w.make_spec(), dict(self.CONFIG), **kwargs,
        )
        assert store.get_campaign("job")["status"] == STATUS_COMPLETE
        assert first.skipped == self.CONFIG["seeds"]
        assert store.quarantined_chunks("job")
        with open(marker, "w"):
            pass  # heal the workload
        second, second_cov = None, CoverageTracker()
        second = durable_fuzz(
            store, "job", self.WORKLOAD, "cal", flaky_setup,
            w.make_spec(), dict(self.CONFIG),
            workers=2, metrics=Metrics(), coverage=second_cov,
            driver_kwargs=dict(search=w.search, check_witness=w.check_witness),
        )
        assert second.skipped == 0
        assert second.runs == self.CONFIG["seeds"]
        assert store.quarantined_chunks("job") == []


class TestDurableVerify:
    def test_interrupt_resume_equals_sequential(self, store):
        w = WORKLOADS["exchanger2"]
        setup, spec = w.make_setup(), w.make_spec()
        kw = dict(search=True, check_witness=w.check_witness)
        seq_cov = CoverageTracker()
        sequential = verify_cal(
            setup,
            spec,
            max_steps=w.max_steps,
            coverage=seq_cov,
            metrics=Metrics(),
            **kw,
        )
        config = {"max_steps": w.max_steps}
        with pytest.raises(KeyboardInterrupt):
            durable_verify(
                store, "v1", "exchanger2", "cal", setup, spec, config,
                metrics=Metrics(), coverage=CoverageTracker(),
                abort_after=1, driver_kwargs=kw,
            )
        assert store.get_campaign("v1")["status"] == STATUS_INTERRUPTED
        resumed_cov = CoverageTracker()
        resumed = durable_verify(
            store, "v1", "exchanger2", "cal", setup, spec, config,
            metrics=Metrics(), coverage=resumed_cov, driver_kwargs=kw,
        )
        assert resumed.runs == sequential.runs
        assert resumed.nodes == sequential.nodes
        assert resumed.verdict == sequential.verdict
        assert resumed_cov.snapshot() == seq_cov.snapshot()


class TestDurableExplore:
    def test_interrupt_resume_equals_sequential(self, store):
        w = WORKLOADS["exchanger2"]
        setup = w.make_setup()
        sequential = list(explore_all(setup, max_steps=w.max_steps))
        config = {"max_steps": w.max_steps}
        with pytest.raises(KeyboardInterrupt):
            durable_explore(
                store, "e1", "exchanger2", "cal", setup, config,
                abort_after=1,
            )
        resumed = durable_explore(
            store, "e1", "exchanger2", "cal", setup, config,
            metrics=Metrics(), coverage=CoverageTracker(),
        )
        assert [r.schedule for r in resumed] == [
            r.schedule for r in sequential
        ]


class TestScheduleDedup:
    def test_second_campaign_skips_verified_schedules(self, store):
        w = WORKLOADS["figure3"]
        config = {
            "seeds": 25,
            "checkpoint_every": 25,
            "max_steps": 2000,
            "dedup": True,
        }
        kw = dict(
            use_dedup=True,
            driver_kwargs=dict(search=w.search, check_witness=w.check_witness),
        )
        first = durable_fuzz(
            store, "d1", "figure3", "cal", w.make_setup(), w.make_spec(),
            dict(config), **kw,
        )
        assert first.deduped == 0
        assert first.fresh_schedules
        second = durable_fuzz(
            store, "d2", "figure3", "cal", w.make_setup(), w.make_spec(),
            dict(config, seeds=26), **kw,
        )
        # Same seeds ⇒ same schedules: all 25 shared seeds skip checking
        # but still count as runs (the accounting invariant holds).
        assert second.deduped >= 25
        assert second.runs == 26

    def test_dedup_is_partition_transparent(self, store):
        """Sequential and parallel campaigns with the same frozen
        known-set dedup identically — worker count cannot change what is
        skipped, because fresh digests never enter ``seen()``."""
        setup = exchanger_program([1, 2, 3])
        spec = ExchangerSpec("E")
        kwargs = dict(seeds=range(20), max_steps=2000)
        width = probe_width(setup)
        # Seed the store with every passing schedule of a first campaign.
        first = fuzz_cal(
            setup, spec, dedup=load_dedup(store, "x", "cal", width), **kwargs
        )
        store.add_fingerprints(
            f"x|cal|w{width}", "schedule", first.fresh_schedules
        )
        dedup = load_dedup(store, "x", "cal", width)
        sequential = fuzz_cal(setup, spec, dedup=dedup, **kwargs)
        assert sequential.deduped > 0
        for workers in (2, 4):
            parallel = fuzz_cal_parallel(
                setup, spec, workers=workers, dedup=dedup, **kwargs
            )
            assert parallel.deduped == sequential.deduped
            assert parallel.runs == sequential.runs
            assert sorted(parallel.fresh_schedules) == sorted(
                sequential.fresh_schedules
            )

    def test_failing_runs_are_never_deduped(self, store):
        """Only passing schedules enter the skip set: a workload with
        failures re-reports them on every campaign."""
        w = WORKLOADS["naive-queue"]
        config = {
            "seeds": 120,
            "checkpoint_every": 120,
            "max_steps": 1000,
            "dedup": True,
        }
        kw = dict(
            use_dedup=True,
            driver_kwargs=dict(check_witness=w.check_witness),
        )
        first = durable_fuzz(
            store, "f1", "naive-queue", "lin", w.make_setup(), w.make_spec(),
            dict(config), **kw,
        )
        second = durable_fuzz(
            store, "f2", "naive-queue", "lin", w.make_setup(), w.make_spec(),
            dict(config), **kw,
        )
        assert len(second.failures) == len(first.failures)
        if first.failures:
            assert second.failures[0].seed == first.failures[0].seed


class TestCLIResume:
    """End-to-end through ``python -m repro``: interrupt, resume, compare."""

    ARGS = [
        "fuzz",
        "--workload",
        "figure3",
        "--seeds",
        "60",
        "--checkpoint-every",
        "20",
        "--quiet",
    ]

    def test_interrupt_resume_artifact_byte_identical(self, tmp_path):
        interrupted_store = str(tmp_path / "campaign.db")
        fresh_store = str(tmp_path / "fresh.db")
        resumed_json = str(tmp_path / "resumed.json")
        base_json = str(tmp_path / "base.json")

        rc = main(
            self.ARGS
            + ["--store", interrupted_store, "--abort-after-checkpoints", "1"]
        )
        assert rc == 130
        with CampaignStore(interrupted_store) as store:
            [campaign] = store.list_campaigns()
            assert campaign["status"] == STATUS_INTERRUPTED
            campaign_id = campaign["id"]
            done_before = len(store.completed_payloads(campaign_id))
            assert done_before == 1

        rc = main(
            [
                "resume",
                campaign_id,
                "--store",
                interrupted_store,
                "--quiet",
                "--json",
                resumed_json,
            ]
        )
        assert rc == 0
        with CampaignStore(interrupted_store) as store:
            assert (
                store.get_campaign(campaign_id)["status"] == STATUS_COMPLETE
            )

        rc = main(self.ARGS + ["--store", fresh_store, "--json", base_json])
        assert rc == 0

        with open(resumed_json) as handle:
            resumed = json.load(handle)
        with open(base_json) as handle:
            base = json.load(handle)
        assert resumed["campaign"]["id"] == campaign_id == base["campaign"]["id"]
        assert _strip_clock(resumed) == _strip_clock(base)

    def test_resume_unknown_campaign_exits_with_error(self, tmp_path):
        store_path = str(tmp_path / "empty.db")
        with CampaignStore(store_path):
            pass
        with pytest.raises(SystemExit, match="no campaign"):
            main(["resume", "ghost", "--store", store_path, "--quiet"])

    def test_storeless_campaign_unchanged(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz",
                "--workload",
                "figure3",
                "--seeds",
                "10",
                "--quiet",
                "--json",
                str(tmp_path / "plain.json"),
            ]
        )
        assert rc == 0
        with open(tmp_path / "plain.json") as handle:
            artifact = json.load(handle)
        assert "campaign" not in artifact
        assert artifact["tallies"]["runs"] == 10


class TestCampaignIds:
    """The ids the CLI derives from a command line are the keys every
    stored campaign lives under: a changed id would silently orphan
    them (``resume`` and ``--dedup`` would start afresh)."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                "fuzz --workload figure3 --seeds 60 --checkpoint-every 20",
                "fuzz-figure3-f1ed48807b",
            ),
            (
                "fuzz --workload treiber-reuse --seeds 2000 "
                "--checkpoint-every 200 --guidance greybox",
                "fuzz-treiber-reuse-28171bb17a",
            ),
            (
                "fuzz --workload sync-queue --seeds 100 --dedup",
                "fuzz-sync-queue-e2e83bfd2b",
            ),
            ("verify --workload exchanger2", "verify-exchanger2-8bbef0b54a"),
            (
                "verify --workload exchanger3 --reduction dpor",
                "verify-exchanger3-b614dc4007",
            ),
            (
                "explore --workload exchanger2 --reduction dpor",
                "explore-exchanger2-018042ff67",
            ),
        ],
    )
    def test_cli_derived_campaign_id_is_pinned(self, argv, expected):
        args = build_parser().parse_args(argv.split())
        kind = args.command
        config = _durable_config(kind, WORKLOADS[args.workload], args)
        assert default_campaign_id(kind, args.workload, config) == expected
