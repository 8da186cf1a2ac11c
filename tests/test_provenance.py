"""Exploration provenance: ledger laws, reconciliation, zero impact.

The :class:`ExplorationLedger` is pure observation with an audit
obligation, so the contracts under test are:

* **merge law** — counters and race counts sum, evidence min-merges
  under a total order, and any partition of the same records folds to
  the identical snapshot (associative, commutative, evidence-idempotent);
* **reconciliation** — on real reduced sweeps the books balance
  exactly: ``visited == executed + pruned == roots + advances``, under
  budget cuts, sharding and durable resume alike;
* **zero impact** — the schedules an engine visits, the outcomes it
  produces and the greybox proposals it makes are identical with the
  ledger on and off;
* **surfacing** — drivers snapshot campaign-local ledgers onto reports,
  durable campaigns checkpoint and re-merge them, ``repro report``
  audits artifacts, and its page — audit and span timeline included —
  renders as one well-formed self-contained HTML page.
"""

from __future__ import annotations

import itertools
import json
import random
from html.parser import HTMLParser

import pytest

from repro.checkers.fuzz import fuzz_cal
from repro.checkers.parallel import campaign_runner, explore_parallel
from repro.checkers.verify import verify_cal
from repro.cli import main
from repro.obs.provenance import (
    ENERGY_BUCKETS,
    ExplorationLedger,
    energy_bucket,
    ledger_report,
    render_ledger,
)
from repro.obs.tracing import (
    JsonLinesTraceSink,
    TraceSink,
    assemble_spans,
    read_trace,
    span_path,
)
from repro.specs import ExchangerSpec
from repro.store import CampaignStore
from repro.store.campaigns import durable_explore, durable_fuzz
from repro.substrate.explore import ExploreBudget, explore_all
from repro.workloads.programs import exchanger_program
from repro.workloads.randomprog import random_program


def _setup():
    return exchanger_program([3, 4])


# ----------------------------------------------------------------------
# recording and reading
# ----------------------------------------------------------------------
class TestLedgerRecording:
    def test_dispositions_land_in_named_counters(self):
        ledger = ExplorationLedger()
        ledger.record_executed(completed=True)
        ledger.record_executed(completed=False)
        ledger.record_pruned("sleep_set")
        ledger.record_advance("race_reversal")
        ledger.record_wakeup("queued")
        assert ledger.get("schedule.executed") == 2
        assert ledger.get("schedule.completed") == 1
        assert ledger.prune_causes() == {"sleep_set": 1}
        assert ledger.get("schedule.race_reversal") == 1
        assert ledger.get("wakeup.queued") == 1
        assert ledger.get("never.recorded") == 0

    def test_race_edges_count_and_keep_one_exemplar(self):
        ledger = ExplorationLedger()
        ledger.record_race("t1", "t2", evidence={"i": 3, "j": 5})
        ledger.record_race("t1", "t2", evidence={"i": 0, "j": 1})
        ledger.record_race("t2", "t1", pinned=True)
        assert ledger.races == {"t1->t2": 2, "t2->t1": 1}
        assert ledger.get("race.immediate") == 2
        assert ledger.get("race.pinned") == 1
        assert ledger.evidence["t1->t2"] == {"i": 0, "j": 1}
        assert "t2->t1" not in ledger.evidence  # no evidence given

    def test_energy_buckets_partition_the_line(self):
        assert energy_bucket(9.0) == "8+"
        assert energy_bucket(1.0) == "1-2"
        assert energy_bucket(0.1) == "<0.25"
        # bucket floors are the documented edges, in descending order
        floors = [floor for floor, _ in ENERGY_BUCKETS]
        assert floors == sorted(floors, reverse=True)

    def test_greybox_counters(self):
        ledger = ExplorationLedger()
        ledger.record_pick(1.5)
        ledger.record_mutation("splice", novel=True)
        ledger.record_admission("history")
        ledger.record_rejection("duplicate")
        assert ledger.get("greybox.pick.1-2") == 1
        assert ledger.get("greybox.op.splice.novel") == 1
        report = ledger_report(ledger)
        assert report["greybox"]["admitted.history"] == 1
        assert report["greybox"]["rejected.duplicate"] == 1


class TestReconcile:
    def _balanced(self):
        ledger = ExplorationLedger()
        ledger.count("schedule.root")
        ledger.record_executed(True)
        for _ in range(3):
            ledger.record_advance("sibling_advance")
            ledger.record_executed(True)
        ledger.record_advance("value_flip")
        ledger.record_pruned()
        return ledger

    def test_balanced_books(self):
        audit = self._balanced().reconcile(visited=5)
        assert audit == {
            "visited": 5,
            "executed": 4,
            "completed": 4,
            "pruned": 1,
            "roots": 1,
            "advances": 4,
            "race_reversals": 0,
            "balanced": True,
        }

    def test_visited_mismatch_breaks_balance(self):
        assert not self._balanced().reconcile(visited=6)["balanced"]

    def test_missing_advance_breaks_balance(self):
        ledger = self._balanced()
        ledger.record_executed(True)  # a schedule nothing advanced into
        assert not ledger.reconcile()["balanced"]

    def test_render_ledger_names_the_verdict(self):
        text = render_ledger(self._balanced(), visited=5)
        assert "[balanced]" in text
        assert "visited 5  = executed 4 + pruned 1" in text
        ledger = self._balanced()
        ledger.record_executed(True)
        assert "UNACCOUNTED" in render_ledger(ledger)


# ----------------------------------------------------------------------
# the merge law
# ----------------------------------------------------------------------
def _record(ledger, op):
    kind, payload = op
    if kind == "count":
        ledger.count(*payload)
    elif kind == "race":
        ledger.record_race(**payload)


OPS = [
    ("count", ("schedule.executed", 2)),
    ("count", ("schedule.completed", 1)),
    ("count", ("wakeup.queued", 3)),
    ("race", dict(earlier="t1", later="t2", evidence={"i": 2, "j": 4})),
    ("race", dict(earlier="t1", later="t2", evidence={"i": 0, "j": 3})),
    ("race", dict(earlier="t2", later="t1", pinned=True,
                  evidence={"i": 0, "j": 1, "clock": {"t2": 0}})),
    ("count", ("greybox.pick.1-2", 1)),
    ("race", dict(earlier="t1", later="t2", evidence={"i": 0, "j": 1})),
]


class TestMergeLaw:
    def test_any_partition_folds_to_the_sequential_ledger(self):
        sequential = ExplorationLedger()
        for op in OPS:
            _record(sequential, op)
        want = sequential.snapshot()
        for cut_a, cut_b in itertools.combinations(range(len(OPS) + 1), 2):
            parts = [OPS[:cut_a], OPS[cut_a:cut_b], OPS[cut_b:]]
            merged = ExplorationLedger()
            for part in parts:
                shard = ExplorationLedger()
                for op in part:
                    _record(shard, op)
                merged.merge(shard)
            assert merged.snapshot() == want, (cut_a, cut_b)

    def test_merge_is_commutative(self):
        a, b = ExplorationLedger(), ExplorationLedger()
        for op in OPS[:4]:
            _record(a, op)
        for op in OPS[4:]:
            _record(b, op)
        ab = ExplorationLedger().merge(a).merge(b).snapshot()
        ba = ExplorationLedger().merge(b).merge(a).snapshot()
        assert ab == ba

    def test_evidence_merge_is_idempotent(self):
        a = ExplorationLedger()
        for op in OPS:
            _record(a, op)
        twice = ExplorationLedger().merge(a).merge(a)
        assert twice.evidence == a.evidence

    def test_snapshot_round_trips_byte_identically(self):
        ledger = ExplorationLedger()
        for op in OPS:
            _record(ledger, op)
        snapshot = ledger.snapshot()
        clone = ExplorationLedger.from_snapshot(
            json.loads(json.dumps(snapshot))
        )
        assert json.dumps(clone.snapshot()) == json.dumps(snapshot)

    def test_evidence_gate_never_changes_what_is_kept(self):
        """`wants_race_evidence` may only skip records that would lose:
        recording through the gate keeps the exact same exemplars as
        recording everything, for any arrival order."""
        rng = random.Random(7)
        records = [
            {"i": rng.randrange(6), "j": rng.randrange(6, 12),
             "clock": {"t": rng.randrange(3)}}
            for _ in range(40)
        ]
        for trial in range(10):
            rng.shuffle(records)
            plain, gated = ExplorationLedger(), ExplorationLedger()
            for record in records:
                plain.record_race("a", "b", evidence=dict(record))
                evidence = None
                if gated.wants_race_evidence(
                    "a", "b", record["i"], record["j"]
                ):
                    evidence = dict(record)
                gated.record_race("a", "b", evidence=evidence)
            assert gated.evidence == plain.evidence, trial


# ----------------------------------------------------------------------
# engine integration: zero impact + exact reconciliation
# ----------------------------------------------------------------------
def _fingerprint(runs):
    return [
        (tuple(r.schedule), r.completed, repr(sorted(r.returns.items())))
        for r in runs
    ]


class TestEngineDifferential:
    @pytest.mark.parametrize("reduction", ["dpor"])
    def test_ledger_does_not_change_the_exploration(self, reduction):
        off = list(explore_all(_setup(), max_steps=200, reduction=reduction))
        on = list(
            explore_all(
                _setup(),
                max_steps=200,
                reduction=reduction,
                provenance=ExplorationLedger(),
            )
        )
        assert _fingerprint(on) == _fingerprint(off)

    def test_dpor_books_balance_on_exchanger2(self):
        ledger = ExplorationLedger()
        budget = ExploreBudget()
        runs = list(
            explore_all(
                _setup(),
                max_steps=200,
                reduction="dpor",
                provenance=ledger,
                budget=budget,
            )
        )
        audit = ledger.reconcile(budget.runs)
        assert audit["balanced"], audit
        assert len(runs) == 58
        assert audit == {
            "visited": 58,
            "executed": 58,
            "completed": 58,
            "pruned": 0,
            "roots": 1,
            "advances": 57,
            "race_reversals": 57,
            "balanced": True,
        }
        # every executed schedule beyond the root came from a reversal,
        # and the race graph carries step-pair evidence for each edge
        assert set(ledger.races) == {"t1->t2", "t2->t1"}
        for exemplar in ledger.evidence.values():
            assert exemplar["i"] < exemplar["j"]
            assert "clock" in exemplar

    def test_books_count_prunes_as_visits(self):
        ledger = ExplorationLedger()
        budget = ExploreBudget()
        list(
            explore_all(
                random_program(6, memory_model="tso").setup,
                max_steps=200,
                reduction="dpor",
                provenance=ledger,
                budget=budget,
            )
        )
        audit = ledger.reconcile(budget.runs)
        assert audit["balanced"], audit
        assert audit["visited"] == 8  # 4 executed + 4 pruned
        assert audit["pruned"] == 4
        assert ledger.prune_causes() == {"sleep_set": 4}

    @pytest.mark.parametrize("max_runs", [1, 7, 50])
    def test_budget_cuts_leave_the_books_balanced(self, max_runs):
        ledger = ExplorationLedger()
        budget = ExploreBudget(max_runs=max_runs)
        list(
            explore_all(
                _setup(),
                max_steps=200,
                reduction="dpor",
                provenance=ledger,
                budget=budget,
            )
        )
        audit = ledger.reconcile(budget.runs)
        assert audit["balanced"], (max_runs, audit)

    @pytest.mark.parametrize("reduction", ["dpor"])
    def test_sharded_explore_reconciles_with_one_root_per_shard(
        self, reduction
    ):
        ledger = ExplorationLedger()
        runs = explore_parallel(
            _setup(),
            max_steps=200,
            workers=2,
            reduction=reduction,
            provenance=ledger,
        )
        audit = ledger.reconcile()
        assert audit["balanced"], audit
        assert audit["executed"] == len(runs) == 58
        assert audit["roots"] == 2  # exchanger-2 has two first steps


class TestGreyboxTelemetry:
    def _fuzz(self, ledger, corpus=None):
        return fuzz_cal(
            _setup(),
            ExchangerSpec("E"),
            seeds=range(30),
            max_steps=200,
            search=True,
            guidance="greybox",
            corpus=corpus,
            provenance=ledger,
        )

    def test_every_seed_gets_an_admission_verdict(self):
        ledger = ExplorationLedger()
        report = self._fuzz(ledger)
        greybox = ledger_report(ledger)["greybox"]
        admitted = sum(
            v for k, v in greybox.items() if k.startswith("admitted.")
        )
        rejected = sum(
            v for k, v in greybox.items() if k.startswith("rejected.")
        )
        assert admitted + rejected == report.runs + len(report.failures)
        picks = sum(v for k, v in greybox.items() if k.startswith("pick."))
        ops = sum(v for k, v in greybox.items() if k.startswith("op."))
        assert picks == ops > 0  # every pick resolves to an op outcome

    def test_telemetry_does_not_change_the_campaign(self):
        off = self._fuzz(None)
        on = self._fuzz(ExplorationLedger())
        assert on.runs == off.runs
        assert [f.seed for f in on.failures] == [f.seed for f in off.failures]
        assert on.corpus == off.corpus


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestHierarchicalSpans:
    def test_span_path_and_parent_derivation(self):
        assert span_path(("campaign", "c1"), ("chunk", 3)) == (
            "campaign=c1/chunk=3"
        )
        sink = TraceSink()
        with sink.span("campaign", span_id=span_path(("campaign", "c1"))):
            with sink.span(
                "chunk", span_id=span_path(("campaign", "c1"), ("chunk", 0))
            ):
                pass
        begin = sink.events[1]
        assert begin["span_id"] == "campaign=c1/chunk=0"
        assert begin["parent"] == "campaign=c1"
        assert "parent" not in sink.events[0]

    def test_assemble_spans_nests_counts_and_flags_open(self):
        sink = TraceSink()
        with sink.span("campaign", span_id="campaign=c1"):
            with sink.span("chunk", span_id="campaign=c1/chunk=0"):
                pass
        # a resumed visit of the same campaign, crashing mid-chunk
        sink.emit(
            "phase_begin", phase="campaign", span_id="campaign=c1"
        )
        sink.emit(
            "phase_begin",
            phase="chunk",
            span_id="campaign=c1/chunk=1",
            parent="campaign=c1",
        )
        roots = assemble_spans(sink.events)
        assert [r["span_id"] for r in roots] == ["campaign=c1"]
        campaign = roots[0]
        assert campaign["visits"] == 2
        assert campaign["open"]  # second visit never ended
        chunks = {c["span_id"]: c for c in campaign["children"]}
        assert not chunks["campaign=c1/chunk=0"]["open"]
        assert chunks["campaign=c1/chunk=1"]["open"]


# ----------------------------------------------------------------------
# drivers and durable campaigns
# ----------------------------------------------------------------------
class TestDriverSurfacing:
    def test_verify_snapshots_a_campaign_local_ledger(self):
        ledger = ExplorationLedger()
        report = verify_cal(
            _setup(),
            ExchangerSpec("E"),
            max_steps=200,
            search=True,
            reduction="dpor",
            provenance=ledger,
        )
        assert report.provenance is not None
        assert report.provenance == ledger.snapshot()
        audit = ExplorationLedger.from_snapshot(report.provenance).reconcile()
        assert audit["balanced"]
        assert audit["executed"] == report.runs + report.incomplete

    def test_caller_ledger_accumulates_across_campaigns(self):
        ledger = ExplorationLedger()
        for _ in range(2):
            verify_cal(
                _setup(),
                ExchangerSpec("E"),
                max_steps=200,
                search=True,
                reduction="dpor",
                provenance=ledger,
            )
        assert ledger.get("schedule.executed") == 2 * 58

    @pytest.mark.parametrize("path", ["verify_cal", "campaign_runner"])
    def test_report_carries_the_campaign_ledger_on_every_path(self, path):
        """``report.provenance`` is the campaign's own ledger, like
        ``report.stats``, whether the sequential driver or the campaign
        runner ran it; the caller's ledger accumulates both campaigns."""
        driver = {
            "verify_cal": verify_cal,
            "campaign_runner": campaign_runner("verify", "cal"),
        }[path]
        ledger = ExplorationLedger()
        for _ in range(2):
            report = driver(
                _setup(),
                ExchangerSpec("E"),
                max_steps=200,
                search=True,
                reduction="dpor",
                provenance=ledger,
            )
        assert report.provenance["counters"]["schedule.executed"] == 58
        assert ledger.get("schedule.executed") == 2 * 58


class TestDurableProvenance:
    CONFIG = {"max_steps": 200, "reduction": "dpor"}

    def _explore(self, store, ledger, trace=None, abort_after=0):
        return durable_explore(
            store,
            "e1",
            "exchanger2",
            "cal",
            _setup(),
            dict(self.CONFIG),
            provenance=ledger,
            trace=trace,
            abort_after=abort_after,
        )

    def test_resume_rebuilds_the_identical_ledger(self, tmp_path):
        fresh = ExplorationLedger()
        with CampaignStore(str(tmp_path / "fresh.db")) as store:
            self._explore(store, fresh)
        interrupted = ExplorationLedger()
        with CampaignStore(str(tmp_path / "resume.db")) as store:
            with pytest.raises(KeyboardInterrupt):
                self._explore(store, interrupted, abort_after=1)
            resumed = ExplorationLedger()
            self._explore(store, resumed)
        assert json.dumps(resumed.snapshot()) == json.dumps(fresh.snapshot())
        assert resumed.reconcile()["balanced"]

    def test_spans_and_corpus_events_on_durable_campaigns(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        trace = JsonLinesTraceSink(trace_path)
        with CampaignStore(str(tmp_path / "c.db")) as store:
            self._explore(store, ExplorationLedger(), trace=trace)
            durable_fuzz(
                store,
                "f1",
                "exchanger2",
                "cal",
                _setup(),
                ExchangerSpec("E"),
                {"seeds": 10, "checkpoint_every": 5, "max_steps": 200,
                 "guidance": "greybox"},
                trace=trace,
                driver_kwargs={"search": True},
            )
        trace.close()
        events = read_trace(trace_path)
        roots = assemble_spans(events)
        by_id = {r["span_id"]: r for r in roots}
        assert "campaign=e1" in by_id
        assert [c["phase"] for c in by_id["campaign=e1"]["children"]] == [
            "chunk",
            "chunk",
        ]
        assert not by_id["campaign=e1"]["open"]
        kinds = [e["event"] for e in events]
        assert "corpus_loaded" in kinds
        assert "corpus_persisted" in kinds
        persisted = next(
            e for e in events if e["event"] == "corpus_persisted"
        )
        assert persisted["campaign"] == "f1"
        assert persisted["entries"] > 0
        assert "exchanger2" in persisted["scope"]


# ----------------------------------------------------------------------
# CLI: repro report audits the ledger
# ----------------------------------------------------------------------
class _WellFormed(HTMLParser):
    VOID = {"meta", "br", "hr", "img", "input", "link"}

    def __init__(self):
        super().__init__()
        self.stack = []

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        assert self.stack and self.stack[-1] == tag, (tag, self.stack[-3:])
        self.stack.pop()


def _assert_well_formed(markup):
    parser = _WellFormed()
    parser.feed(markup)
    parser.close()
    assert not parser.stack


class TestExplainCommand:
    """``report`` audits the ledger: it exits 1 on an artifact without
    one, on books that do not balance and on a ledger that disagrees
    with the tallies, and its page carries the same audit."""

    def _explore(self, tmp_path, *extra):
        artifact = tmp_path / "campaign.json"
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "explore",
                "--workload",
                "exchanger2",
                "--reduction",
                "dpor",
                "--quiet",
                "--json",
                str(artifact),
                "--trace",
                str(trace),
                *extra,
            ]
        )
        assert code == 0
        return artifact, trace

    def test_balanced_artifact_exits_zero(self, tmp_path, capsys):
        artifact, trace = self._explore(tmp_path)
        assert main(["report", "--json", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "[balanced]" in out
        assert "race graph" in out

    def test_span_timeline_renders_from_the_trace(self, tmp_path, capsys):
        artifact, trace = self._explore(
            tmp_path, "--store", str(tmp_path / "c.db"), "--campaign-id", "c1"
        )
        assert (
            main(["report", "--json", str(artifact), "--trace", str(trace)])
            == 0
        )
        out = capsys.readouterr().out
        assert "span timeline" in out
        assert "campaign=c1" in out

    def test_artifact_without_provenance_exits_nonzero(
        self, tmp_path, capsys
    ):
        artifact = tmp_path / "bare.json"
        artifact.write_text(
            json.dumps(
                {
                    "kind": "explore",
                    "workload": "exchanger2",
                    "verdict": "OK",
                    "tallies": {},
                }
            )
        )
        assert main(["report", "--json", str(artifact)]) == 1
        assert "no provenance" in capsys.readouterr().out

    def test_doctored_artifact_fails_the_audit(self, tmp_path, capsys):
        artifact, _ = self._explore(tmp_path)
        doctored = json.loads(artifact.read_text())
        doctored["provenance"]["counters"]["schedule.executed"] += 1
        artifact.write_text(json.dumps(doctored))
        assert main(["report", "--json", str(artifact)]) == 1

    def test_flight_recorder_is_one_well_formed_page(self, tmp_path, capsys):
        artifact, trace = self._explore(
            tmp_path, "--store", str(tmp_path / "c.db"), "--campaign-id", "c1"
        )
        html_path = tmp_path / "flight.html"
        assert (
            main(
                [
                    "report",
                    "--json",
                    str(artifact),
                    "--trace",
                    str(trace),
                    "--html",
                    str(html_path),
                ]
            )
            == 0
        )
        markup = html_path.read_text()
        _assert_well_formed(markup)
        for section in (
            "Schedule dispositions",
            "Race graph",
            "Wakeup-tree admissions",
            "Span timeline",
            "balanced",
        ):
            assert section in markup, section

    def test_doctored_tallies_fail_the_audit_and_the_page(
        self, tmp_path, capsys
    ):
        artifact, _ = self._explore(tmp_path)
        doctored = json.loads(artifact.read_text())
        doctored["tallies"]["runs"] += 1
        artifact.write_text(json.dumps(doctored))
        html_path = tmp_path / "doctored.html"
        assert (
            main(["report", "--json", str(artifact), "--html", str(html_path)])
            == 1
        )
        assert "RECONCILIATION MISMATCH" in capsys.readouterr().out
        markup = html_path.read_text()
        _assert_well_formed(markup)
        assert "RECONCILIATION MISMATCH" in markup
        assert "verdict-ok'>balanced" not in markup

    def test_doctored_verify_tallies_fail_the_audit(self, tmp_path, capsys):
        artifact = tmp_path / "verify.json"
        argv = ["verify", "--workload", "exchanger2", "--reduction", "dpor"]
        assert main([*argv, "--quiet", "--json", str(artifact)]) == 0
        assert main(["report", "--json", str(artifact)]) == 0
        doctored = json.loads(artifact.read_text())
        doctored["tallies"]["incomplete"] += 1
        artifact.write_text(json.dumps(doctored))
        assert main(["report", "--json", str(artifact)]) == 1
        assert "runs+incomplete" in capsys.readouterr().out

    def test_report_prints_every_section_in_order(self, tmp_path, capsys):
        artifact, trace = self._explore(
            tmp_path, "--store", str(tmp_path / "c.db"), "--campaign-id", "c1"
        )
        capsys.readouterr()
        html_path = tmp_path / "page.html"
        argv = ["--json", str(artifact), "--trace", str(trace)]
        assert main(["report", *argv, "--html", str(html_path)]) == 0
        out = capsys.readouterr().out
        marks = [
            "explore exchanger2",
            "schedule-space coverage",
            "schedule dispositions",
            "span timeline",
            "HTML report written",
        ]
        positions = [out.index(mark) for mark in marks]
        assert positions == sorted(positions)

    def test_report_page_carries_the_provenance_section(self, tmp_path):
        artifact, _ = self._explore(tmp_path)
        html_path = tmp_path / "report.html"
        assert (
            main(
                ["report", "--json", str(artifact), "--html", str(html_path)]
            )
            == 0
        )
        markup = html_path.read_text()
        _assert_well_formed(markup)
        assert "Exploration provenance" in markup
