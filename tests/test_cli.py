"""The ``python -m repro`` campaign CLI: subcommands, artifacts, HTML.

Everything drives :func:`repro.cli.main` in-process with ``--quiet`` (no
live stderr line to pollute pytest output) and asserts on the three
artifact channels: exit codes, the JSON campaign artifact, and the
JSON-lines trace stream.  The HTML export is checked by actually parsing
it — the report must be a single well-formed, self-contained page.
"""

from __future__ import annotations

import json
import os
import re
from html.parser import HTMLParser
from io import StringIO
from pathlib import Path

import pytest

from repro.cli import (
    WORKLOADS,
    ProgressRenderer,
    Workload,
    _durable_config,
    build_parser,
    main,
)
from repro.obs.tracing import read_trace
from repro.specs import RegisterSpec
from repro.store import STATUS_INTERRUPTED, CampaignStore, default_campaign_id
from repro.workloads.programs import register_program
from tests.test_supervisor import (
    _kill_always_setup,
    _kill_once_setup,
    needs_fork,
)


def _run(*argv):
    return main(list(argv))


class TestWorkloadRegistry:
    def test_workloads_subcommand_lists_everything(self, capsys):
        assert _run("workloads") == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out

    def test_unknown_workload_exits_with_message(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            _run("fuzz", "--workload", "nope", "--quiet")


class TestFuzzCommand:
    def test_round_trip_artifact_and_trace(self, tmp_path, capsys):
        artifact_path = tmp_path / "campaign.json"
        trace_path = tmp_path / "trace.jsonl"
        code = _run(
            "fuzz",
            "--workload",
            "figure3",
            "--seeds",
            "40",
            "--quiet",
            "--json",
            str(artifact_path),
            "--trace",
            str(trace_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz figure3 — OK" in out
        assert "schedule-space coverage" in out

        artifact = json.loads(artifact_path.read_text())
        assert artifact["verdict"] == "OK"
        assert artifact["kind"] == "fuzz"
        assert artifact["tallies"]["runs"] == 40
        assert artifact["tallies"]["failures"] == 0
        assert artifact["coverage"]["observed"] == 40
        assert artifact["stats"]["counters"]["fuzz.seeds"] == 40
        assert artifact["counterexamples"] == []

        events = read_trace(str(trace_path))
        kinds = {event["event"] for event in events}
        assert "campaign_begin" in kinds
        assert "campaign_progress" in kinds
        assert "campaign_end" in kinds
        progress = [e for e in events if e["event"] == "campaign_progress"]
        assert progress[-1]["attempted"] == 40
        assert progress[-1]["total"] == 40
        assert "distinct_histories" in progress[-1]

    def test_parallel_fuzz_matches_sequential_artifact(self, tmp_path):
        paths = []
        for label, workers in (("seq", "0"), ("par", "3")):
            path = tmp_path / f"{label}.json"
            paths.append(path)
            assert (
                _run(
                    "fuzz",
                    "--workload",
                    "figure3",
                    "--seeds",
                    "24",
                    "--workers",
                    workers,
                    "--quiet",
                    "--json",
                    str(path),
                )
                == 0
            )
        seq, par = (json.loads(p.read_text()) for p in paths)
        assert par["coverage"] == seq["coverage"]
        assert par["tallies"] == seq["tallies"]

    def test_failing_workload_exits_nonzero(self, tmp_path):
        artifact_path = tmp_path / "fail.json"
        code = _run(
            "fuzz",
            "--workload",
            "naive-queue",
            "--seeds",
            "300",
            "--quiet",
            "--json",
            str(artifact_path),
        )
        assert code == 1
        artifact = json.loads(artifact_path.read_text())
        assert artifact["verdict"] == "FAIL"
        assert artifact["tallies"]["failures"] > 0
        assert artifact["counterexamples"]
        first = artifact["counterexamples"][0]
        assert first["verdict"] == "fail"
        assert first["timeline"]


class TestExploreAndVerify:
    def test_explore_command(self, tmp_path):
        artifact_path = tmp_path / "explore.json"
        code = _run(
            "explore",
            "--workload",
            "exchanger2",
            "--quiet",
            "--json",
            str(artifact_path),
        )
        assert code == 0
        artifact = json.loads(artifact_path.read_text())
        assert artifact["kind"] == "explore"
        assert artifact["tallies"]["runs"] == 4622
        assert artifact["coverage"]["observed"] == 4622

    def test_explore_budget_trips_to_unknown(self, tmp_path):
        artifact_path = tmp_path / "explore.json"
        code = _run(
            "explore",
            "--workload",
            "exchanger2",
            "--max-runs",
            "10",
            "--quiet",
            "--json",
            str(artifact_path),
        )
        assert code == 1
        artifact = json.loads(artifact_path.read_text())
        assert artifact["verdict"] == "UNKNOWN"
        assert artifact["tallies"]["budget_tripped"] is True

    def test_verify_reproduces_e2(self, tmp_path):
        artifact_path = tmp_path / "verify.json"
        code = _run(
            "verify",
            "--workload",
            "exchanger2",
            "--quiet",
            "--json",
            str(artifact_path),
        )
        assert code == 0
        artifact = json.loads(artifact_path.read_text())
        # The paper's E2 scale: all interleavings of two exchangers.
        assert artifact["tallies"]["runs"] == 4622
        assert artifact["tallies"]["nodes"] == 12830
        assert artifact["profile"], "verify should populate profile buckets"
        row = artifact["profile"][0]
        assert row["checker"] == "cal"
        assert row["oid"] == "E"


def _readme_verdicts():
    """Workload name -> the verdict the README's workload table promises."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    verdicts = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or cells[2].strip("*") not in ("OK", "FAIL"):
            continue
        for name in re.findall(r"`([^`]+)`", cells[0]):
            verdicts[name] = cells[2].strip("*")
    return verdicts


class TestRegistryVerdicts:
    """Every registry workload's default fuzz campaign gives the verdict
    the README table promises (a witness check that cannot see the
    object's elements, for one, shows up here as spurious failures)."""

    def test_readme_table_covers_the_registry(self):
        assert set(_readme_verdicts()) == set(WORKLOADS)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_fuzz_verdict_matches_readme(self, name, tmp_path):
        expected = _readme_verdicts()[name]
        path = tmp_path / "campaign.json"
        code = _run(
            "fuzz", "--workload", name, "--seeds", "200", "--quiet",
            "--json", str(path),
        )
        artifact = json.loads(path.read_text())
        assert artifact["verdict"] == expected, artifact["tallies"]
        assert code == (0 if expected == "OK" else 1)


class TestCampaignOptions:
    """Options are registered only where they take effect."""

    @pytest.mark.parametrize(
        "flags", [["--dedup"], ["--checkpoint-every", "10"]]
    )
    def test_store_options_need_a_store(self, flags):
        with pytest.raises(SystemExit, match="--store"):
            _run("fuzz", "--workload", "figure3", "--quiet", *flags)

    def test_max_runs_is_not_split_across_workers(self, tmp_path):
        """A budgeted sweep runs unsharded in one process, so
        ``--max-runs 100`` stops at 100 runs at two workers too (per-shard
        budgets once ran 200)."""
        artifact_path = tmp_path / "explore.json"
        code = _run(
            "explore", "--workload", "exchanger2", "--quiet",
            "--max-runs", "100", "--workers", "2",
            "--json", str(artifact_path),
        )
        assert code == 1
        artifact = json.loads(artifact_path.read_text())
        assert artifact["verdict"] == "UNKNOWN"
        assert artifact["tallies"]["runs"] == 100
        assert artifact["tallies"]["budget_tripped"] is True

    def test_max_runs_refuses_a_store(self, tmp_path):
        with pytest.raises(SystemExit, match="--store") as refused:
            _run(
                "explore", "--workload", "exchanger2", "--quiet",
                "--max-runs", "100", "--store", str(tmp_path / "c.db"),
            )
        assert "\n" not in refused.value.code

    @pytest.mark.parametrize(
        "kind, campaign_id",
        [
            ("explore", "explore-exchanger2-42429a172c"),
            ("verify", "verify-exchanger2-b523267a2a"),
        ],
        ids=["explore", "verify"],
    )
    def test_resume_refuses_a_sleep_set_campaign(
        self, tmp_path, capsys, kind, campaign_id
    ):
        """A campaign stored with the retired ``--reduction sleep-set``
        (which ran dpor) is refused on resume in one line, and its row
        and chunks stay as they were."""
        path = str(tmp_path / "c.db")
        code = _run(
            kind, "--workload", "exchanger2", "--quiet", "--reduction", "dpor",
            "--store", path, "--abort-after-checkpoints", "1",
        )
        assert code == 130
        config = {"max_steps": WORKLOADS["exchanger2"].max_steps}
        with CampaignStore(path) as store:
            assert default_campaign_id(
                kind, "exchanger2", dict(config, reduction="sleep-set")
            ) == campaign_id
            dpor = default_campaign_id(
                kind, "exchanger2", dict(config, reduction="dpor")
            )
            store.create_campaign(
                campaign_id, kind, "exchanger2", "cal",
                dict(config, reduction="sleep-set"),
            )
            for row in store.chunk_rows(dpor):
                store.record_chunk(
                    campaign_id, row["chunk_index"], row["seed_start"],
                    row["seed_count"], row["status"], row["payload"],
                )
            store.set_status(campaign_id, STATUS_INTERRUPTED)
            stored = (
                store.get_campaign(campaign_id), store.chunk_rows(campaign_id)
            )
        capsys.readouterr()
        with pytest.raises(SystemExit) as refused:
            _run("resume", campaign_id, "--store", path, "--quiet")
        # A string exit code: the process prints it and exits 1.
        assert refused.value.code == (
            f"campaign {campaign_id} uses the retired reduction 'sleep-set'; "
            "start a new campaign with --reduction dpor"
        )
        assert capsys.readouterr().err == ""
        with CampaignStore(path) as store:
            assert (
                store.get_campaign(campaign_id), store.chunk_rows(campaign_id)
            ) == stored

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--workers", "2"],
            ["verify", "--dedup"],
            ["verify", "--checkpoint-every", "10"],
            ["explore", "--dedup"],
            ["explore", "--checkpoint-every", "10"],
        ],
    )
    def test_options_without_effect_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            _run(*argv, "--workload", "exchanger2", "--quiet")
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--seeds", "-3"],
            ["fuzz", "--workers", "-1"],
            ["fuzz", "--store", "s.db", "--checkpoint-every", "-4"],
            ["fuzz", "--progress", "-5"],
            ["verify", "--max-steps", "-1"],
            ["explore", "--max-runs", "-1"],
            ["resume", "c1", "--store", "s.db", "--workers", "-2"],
        ],
    )
    def test_negative_counts_are_rejected(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            _run(*argv, "--quiet")
        assert exit_info.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "s.db").exists()


def _strip_clock(path):
    """A campaign artifact without its wall-clock-derived fields."""
    artifact = json.loads(Path(path).read_text())
    for key in ("elapsed_s", "campaign", "profile"):
        artifact.pop(key, None)
    (artifact.get("stats") or {}).pop("timers", None)
    return json.dumps(artifact, sort_keys=True)


@needs_fork
class TestCutRuns:
    """Runs cut at ``--max-steps`` are tallied ``incomplete``, so a verify
    artifact balances against its ledger, and a resumed store-backed
    sweep tallies them exactly as an inline one.  Only the ledgers
    differ: a sharded sweep books one root per shard and its races
    across the pinned first decision, but executes the same schedules."""

    VERIFY = (
        "verify", "--workload", "exchanger2", "--max-steps", "14",
        "--reduction", "dpor", "--quiet",
    )

    def test_inline_store_and_resume_tally_cut_runs(self, tmp_path):
        inline = str(tmp_path / "inline.json")
        assert _run(*self.VERIFY, "--json", inline) == 0
        artifact = json.loads(Path(inline).read_text())
        tallies = artifact["tallies"]
        assert (tallies["runs"], tallies["incomplete"]) == (8, 50)
        assert artifact["provenance"]["counters"]["schedule.executed"] == 58
        assert _run("report", "--json", inline) == 0
        store = str(tmp_path / "c.db")
        code = _run(
            *self.VERIFY, "--store", store, "--campaign-id", "c1",
            "--abort-after-checkpoints", "1",
        )
        assert code == 130
        resumed = str(tmp_path / "resumed.json")
        code = _run(
            "resume", "c1", "--store", store, "--quiet", "--workers", "2",
            "--json", resumed,
        )
        assert code == 0
        sharded, unsharded = (
            json.loads(_strip_clock(path)) for path in (resumed, inline)
        )
        ledgers = sharded.pop("provenance"), unsharded.pop("provenance")
        assert sharded == unsharded
        for ledger in ledgers:
            assert ledger["counters"]["schedule.executed"] == 58
            assert ledger["counters"]["schedule.completed"] == 8


@pytest.fixture
def register3(monkeypatch):
    """A three-shard workload small enough for a reduced exhaustive
    campaign in well under a second: two register writers and a reader.
    Returns a function that swaps in another setup for it."""

    def install(make_setup=lambda setup: setup):
        base = register_program([1, 2], readers=1)
        monkeypatch.setitem(
            WORKLOADS,
            "register3",
            Workload(
                "register3",
                "lin",
                "two writers and a reader on an atomic register",
                lambda: make_setup(base),
                lambda: RegisterSpec("R"),
                max_steps=200,
            ),
        )

    install()
    return install


@needs_fork
class TestDurableWorkers:
    """Store-backed explore and verify campaigns fan their first-decision
    shards out across ``--workers`` (verify through ``resume --workers``)
    and commit them in pin order, so the artifact does not depend on the
    worker count — interrupted and resumed or not."""

    CASES = [
        ("explore", "exchanger2", "none"),
        ("explore", "exchanger2", "dpor"),
        ("verify", "exchanger2", "none"),
        ("verify", "exchanger2", "dpor"),
        ("explore", "register3", "dpor"),
        ("verify", "register3", "dpor"),
    ]

    def _campaign(self, tmp_path, name, kind, workload, reduction, *extra):
        """Run a store-backed campaign at one worker; returns its exit
        code, artifact path and store path."""
        store = str(tmp_path / f"{name}.db")
        artifact = str(tmp_path / f"{name}.json")
        code = _run(
            kind, "--workload", workload, "--reduction", reduction,
            "--quiet", "--store", store, "--campaign-id", "c1",
            "--json", artifact, *extra,
        )
        return code, artifact, store

    def _resume(self, tmp_path, store, *extra):
        artifact = str(tmp_path / "resumed.json")
        code = _run(
            "resume", "c1", "--store", store, "--quiet", "--json", artifact,
            *extra,
        )
        return code, artifact

    def _fanned_out(self, tmp_path, kind, workload, reduction):
        """The whole campaign at ``--workers 2``: explore takes the option
        directly; verify runs every shard in one ``resume --workers 2``
        of a campaign that has none committed yet."""
        if kind == "explore":
            return self._campaign(
                tmp_path, "fanned", kind, workload, reduction, "--workers", "2"
            )[:2]
        args = build_parser().parse_args(
            [kind, "--workload", workload, "--reduction", reduction]
        )
        store = str(tmp_path / "fanned.db")
        with CampaignStore(store) as campaigns:
            campaigns.create_campaign(
                "c1", kind, workload, WORKLOADS[workload].kind,
                _durable_config(kind, WORKLOADS[workload], args),
            )
        return self._resume(tmp_path, store, "--workers", "2")

    @pytest.mark.parametrize("kind, workload, reduction", CASES)
    def test_two_workers_equal_one(
        self, kind, workload, reduction, tmp_path, register3
    ):
        code, serial, _ = self._campaign(
            tmp_path, "serial", kind, workload, reduction
        )
        assert code == 0
        code, fanned = self._fanned_out(tmp_path, kind, workload, reduction)
        assert code == 0
        assert _strip_clock(fanned) == _strip_clock(serial)
        # Coverage positions are campaign-wide, as in a storeless sweep.
        inline = str(tmp_path / "inline.json")
        _run(
            kind, "--workload", workload, "--reduction", reduction,
            "--quiet", "--json", inline,
        )
        coverage = json.loads(Path(fanned).read_text())["coverage"]
        assert coverage == json.loads(Path(inline).read_text())["coverage"]

    @pytest.mark.parametrize("kind, workload, reduction", CASES)
    def test_interrupt_then_resume_at_two_workers_equals_one(
        self, kind, workload, reduction, tmp_path, register3
    ):
        code, serial, _ = self._campaign(
            tmp_path, "serial", kind, workload, reduction
        )
        assert code == 0
        workers = ["--workers", "2"] if kind == "explore" else []
        code, _, store = self._campaign(
            tmp_path, "cut", kind, workload, reduction,
            "--abort-after-checkpoints", "1", *workers,
        )
        assert code == 130
        code, resumed = self._resume(tmp_path, store, "--workers", "2")
        assert code == 0
        assert _strip_clock(resumed) == _strip_clock(serial)

    @pytest.mark.parametrize("kind", ["explore", "verify"])
    def test_shard_killed_once_is_retried(self, kind, tmp_path, register3):
        code, serial, _ = self._campaign(
            tmp_path, "serial", kind, "register3", "dpor"
        )
        assert code == 0
        marker = str(tmp_path / "killed.marker")
        register3(lambda base: _kill_once_setup(base, marker, os.getpid()))
        code, fanned = self._fanned_out(tmp_path, kind, "register3", "dpor")
        assert os.path.exists(marker), "no worker was killed"
        assert code == 0
        assert _strip_clock(fanned) == _strip_clock(serial)

    @pytest.mark.parametrize("kind", ["explore", "verify"])
    def test_lost_shard_stops_the_campaign_until_resume(
        self, kind, tmp_path, register3
    ):
        code, serial, _ = self._campaign(
            tmp_path, "serial", kind, "register3", "dpor"
        )
        assert code == 0
        register3(lambda base: _kill_always_setup(base, os.getpid()))
        with pytest.raises(SystemExit) as excinfo:
            self._fanned_out(tmp_path, kind, "register3", "dpor")
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "shard" in message and "resume" in message
        store = str(tmp_path / "fanned.db")
        with CampaignStore(store) as campaigns:
            assert campaigns.get_campaign("c1")["status"] == STATUS_INTERRUPTED
            assert campaigns.quarantined_chunks("c1")
        # One worker runs the shards in this process, out of the
        # killer's reach.
        code, resumed = self._resume(tmp_path, store)
        assert code == 0
        assert _strip_clock(resumed) == _strip_clock(serial)


class _PageChecker(HTMLParser):
    def __init__(self):
        super().__init__()
        self.tags = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)


class TestReportCommand:
    @pytest.fixture()
    def artifact_path(self, tmp_path):
        path = tmp_path / "campaign.json"
        assert (
            _run(
                "fuzz",
                "--workload",
                "figure3",
                "--seeds",
                "30",
                "--quiet",
                "--json",
                str(path),
            )
            == 0
        )
        return path

    def test_ascii_report(self, artifact_path, capsys):
        capsys.readouterr()
        assert _run("report", "--json", str(artifact_path)) == 0
        out = capsys.readouterr().out
        assert "fuzz figure3 — OK" in out
        assert "schedule-space coverage" in out

    def test_html_report_is_well_formed(self, artifact_path, tmp_path):
        html_path = tmp_path / "report.html"
        assert (
            _run(
                "report",
                "--json",
                str(artifact_path),
                "--html",
                str(html_path),
            )
            == 0
        )
        page = html_path.read_text()
        assert page.startswith("<!DOCTYPE html>")
        checker = _PageChecker()
        checker.feed(page)
        assert "svg" in checker.tags  # the saturation curve
        assert "table" in checker.tags
        assert "figure3" in page
        assert "Schedule-space coverage" in page

    def test_html_report_embeds_counterexamples(self, tmp_path):
        artifact_path = tmp_path / "fail.json"
        _run(
            "fuzz",
            "--workload",
            "naive-queue",
            "--seeds",
            "300",
            "--quiet",
            "--json",
            str(artifact_path),
        )
        html_path = tmp_path / "fail.html"
        assert (
            _run(
                "report",
                "--json",
                str(artifact_path),
                "--html",
                str(html_path),
            )
            == 0
        )
        page = html_path.read_text()
        assert "Counterexamples" in page
        assert "verdict-fail" in page


class TestBadArtifacts:
    """``report`` exits with one line naming the path when the artifact
    is missing, unreadable or not a JSON object."""

    COMMANDS = pytest.mark.parametrize("command", ["report"])

    def _exit_message(self, *argv):
        with pytest.raises(SystemExit) as excinfo:
            _run(*argv)
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    @COMMANDS
    def test_missing_file(self, command, tmp_path):
        path = tmp_path / "nope.json"
        message = self._exit_message(command, "--json", str(path))
        assert message.startswith(f"{command}: ")
        assert str(path) in message and "No such file" in message

    @COMMANDS
    def test_invalid_json(self, command, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"kind": "fuzz", ')
        message = self._exit_message(command, "--json", str(path))
        assert str(path) in message and "not valid JSON" in message

    @COMMANDS
    def test_non_object_root(self, command, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        message = self._exit_message(command, "--json", str(path))
        assert str(path) in message and "not a JSON object" in message

    def test_report_names_the_missing_keys(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"kind": "fuzz"}))
        message = self._exit_message("report", "--json", str(path))
        assert str(path) in message
        assert "missing workload, verdict, tallies" in message


class TestProgressRenderer:
    def test_renders_campaign_progress(self):
        stream = StringIO()
        renderer = ProgressRenderer(stream=stream)
        renderer.emit(
            "campaign_progress",
            driver="fuzz_cal",
            attempted=50,
            total=100,
            elapsed_s=2.0,
            runs=49,
            failures=1,
            unknown=0,
            skipped=0,
            distinct_histories=12,
        )
        line = stream.getvalue()
        assert "[fuzz_cal]" in line
        assert "50/100" in line
        assert "25 runs/s" in line
        assert "eta" in line
        assert "fail=1" in line
        assert "hist=12" in line

    def test_other_events_pass_silently(self):
        stream = StringIO()
        renderer = ProgressRenderer(stream=stream)
        renderer.emit("campaign_begin", driver="fuzz_cal")
        assert stream.getvalue() == ""
        renderer.finish()  # nothing rendered, nothing to terminate
        assert stream.getvalue() == ""

    def test_finish_terminates_the_live_line_once(self):
        stream = StringIO()
        renderer = ProgressRenderer(stream=stream)
        renderer.emit("campaign_progress", attempted=1, elapsed_s=1.0)
        renderer.finish()
        renderer.finish()
        assert stream.getvalue().count("\n") == 1


class TestHazardWorkloads:
    def test_reclamation_workloads_registered(self):
        for name in (
            "treiber-reuse",
            "treiber-hazard",
            "treiber-epoch",
            "treiber-gc",
            "treiber-hazard-tso",
            "msqueue-reclaim",
        ):
            assert name in WORKLOADS
        assert WORKLOADS["treiber-reuse"].yield_bias > 0

    def test_treiber_reuse_fails_with_aba_counterexample(self, tmp_path):
        artifact_path = tmp_path / "aba.json"
        code = _run(
            "fuzz",
            "--workload",
            "treiber-reuse",
            "--seeds",
            "200",
            "--quiet",
            "--json",
            str(artifact_path),
        )
        assert code == 1
        artifact = json.loads(artifact_path.read_text())
        assert artifact["verdict"] == "FAIL"
        first = artifact["counterexamples"][0]
        assert first["verdict"] == "fail"
        assert "pop" in first["timeline"]
        assert first["schedule"]  # replayable from the artifact alone

    def test_checkpointed_chunks_trace_like_the_inline_campaign(
        self, tmp_path
    ):
        """Chunks run in this process get the campaign's trace sink, so a
        one-worker store campaign traces every check and shrink step."""
        argv = ["fuzz", "--workload", "treiber-reuse", "--seeds", "200"]
        _run(*argv, "--quiet", "--trace", str(tmp_path / "inline.jsonl"))
        _run(
            *argv, "--quiet", "--trace", str(tmp_path / "durable.jsonl"),
            "--store", str(tmp_path / "s.db"), "--checkpoint-every", "50",
            "--workers", "1",
        )
        counts = {}
        for name in ("inline", "durable"):
            events = [
                e["event"] for e in read_trace(str(tmp_path / f"{name}.jsonl"))
            ]
            counts[name] = {
                kind: events.count(kind)
                for kind in ("check_begin", "check_end", "shrink_step")
            }
        assert counts["inline"]["check_begin"] > 0
        assert counts["inline"]["shrink_step"] > 0
        assert counts["durable"] == counts["inline"]

    def test_treiber_hazard_passes_the_same_campaign(self, tmp_path):
        artifact_path = tmp_path / "hazard.json"
        code = _run(
            "fuzz",
            "--workload",
            "treiber-hazard",
            "--seeds",
            "100",
            "--quiet",
            "--json",
            str(artifact_path),
        )
        assert code == 0
        assert json.loads(artifact_path.read_text())["verdict"] == "OK"


class TestTrendReport:
    """``report`` takes one artifact and nothing else: ``--json`` is
    required, and ``--trace`` and ``--html`` are the only other options."""

    def test_report_without_json_still_requires_it(self):
        with pytest.raises(SystemExit, match="--json is required"):
            _run("report")

    def test_report_options_are_json_html_and_trace(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _run("report", "--help")
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage))
        assert options == {"--help", "--json", "--html", "--trace"}
