"""The ``python -m repro`` campaign CLI: subcommands, artifacts, HTML.

Everything drives :func:`repro.cli.main` in-process with ``--quiet`` (no
live stderr line to pollute pytest output) and asserts on the three
artifact channels: exit codes, the JSON campaign artifact, and the
JSON-lines trace stream.  The HTML export is checked by actually parsing
it — the report must be a single well-formed, self-contained page.
"""

from __future__ import annotations

import json
import re
from html.parser import HTMLParser
from io import StringIO
from pathlib import Path

import pytest

from repro.cli import WORKLOADS, ProgressRenderer, main
from repro.obs.tracing import read_trace


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


class TestDurableWorkers:
    """Store-backed explore and verify campaigns run their shards in one
    process, so ``--workers`` above one is refused with one line rather
    than ignored."""

    def _exit_message(self, *argv):
        with pytest.raises(SystemExit) as excinfo:
            _run(*argv)
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "--workers" in message
        return message

    def test_explore_store_refuses_workers(self, tmp_path):
        store = tmp_path / "w.db"
        self._exit_message(
            "explore", "--workload", "exchanger2", "--quiet",
            "--store", str(store), "--workers", "2",
        )
        assert not store.exists()

    @pytest.mark.parametrize("kind", ["explore", "verify"])
    def test_resume_refuses_workers(self, kind, tmp_path):
        store = str(tmp_path / "w.db")
        code = _run(
            kind, "--workload", "exchanger2", "--reduction", "dpor",
            "--quiet", "--store", store, "--campaign-id", "c1",
            "--abort-after-checkpoints", "1",
        )
        assert code == 130
        message = self._exit_message(
            "resume", "c1", "--store", store, "--quiet", "--workers", "2"
        )
        assert kind in message
        assert _run("resume", "c1", "--store", store, "--quiet") == 0


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
    """``report`` and ``explain`` exit with one line naming the path
    when the artifact is missing, unreadable or not a JSON object."""

    COMMANDS = pytest.mark.parametrize("command", ["report", "explain"])

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
    required, and ``--html`` is the only other option."""

    def test_report_without_json_still_requires_it(self):
        with pytest.raises(SystemExit, match="--json is required"):
            _run("report")

    def test_report_options_are_json_and_html(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _run("report", "--help")
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage))
        assert options == {"--help", "--json", "--html"}
