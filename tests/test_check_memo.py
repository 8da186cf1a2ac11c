"""The per-campaign decision memo changes no observable output.

:mod:`repro.checkers.memo` answers a repeated (history) or (history,
witness) decision from a cache.  These tests hold it to the contract in
``docs/checkers.md``: against a fresh checker per call, the memo returns
equal results, records equal ``Metrics``/``SearchProfiler`` counters and
maxima, and emits equal trace events; keys are type-exact; ``UNKNOWN``
is never stored; and neither eviction nor an unhashable history changes
anything.  The driver-level tests run whole campaigns with the memo cap
forced to 0 (every call misses) and compare the artifacts.
"""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.checkers import memo as memo_module
from repro.checkers.adapter import SingletonAdapter
from repro.checkers.cal import CALChecker
from repro.checkers.linearizability import LinearizabilityChecker
from repro.checkers.memo import MemoCALChecker, MemoLinearizabilityChecker
from repro.checkers.seqspec import SequentialSpec
from repro.checkers.verify import verify_cal
from repro.core.actions import Invocation, Response
from repro.core.history import History
from repro.obs import CoverageTracker, ExplorationLedger, SearchProfiler, TraceSink
from repro.obs import coverage as coverage_module
from repro.specs import ExchangerSpec, RegisterSpec, SequentializedExchangerSpec
from repro.substrate.explore import ExploreBudget, explore_all
from repro.workloads.programs import exchanger_program
from repro.workloads.randomprog import random_program
from repro.workloads.synthetic import wide_overlap_history


class NoteSpec(SequentialSpec):
    """Accepts ``note`` operations (the random programs' only method);
    the state counts them."""

    def initial(self):
        return 0

    def apply(self, state, op):
        return state + 1 if op.method == "note" else None


def _specs(family: str):
    """(CA-spec, sequential spec) for one pool family."""
    if family == "note":
        return SingletonAdapter(NoteSpec("R")), NoteSpec("R")
    return ExchangerSpec("E"), SequentializedExchangerSpec("E")


@functools.lru_cache(maxsize=None)
def _pool():
    """(family, history, witness or None) inputs with repeated histories."""
    pool = []
    for run in explore_all(exchanger_program([3, 4]), max_steps=200, limit=40):
        pool.append(("exchanger", run.history, run.trace.project_object("E")))
    for width in (2, 3, 4, 5):
        pool.append(("exchanger", wide_overlap_history(width), None))
    for seed in (0, 1, 2):
        program = random_program(seed)
        for run in explore_all(program.setup, max_steps=200, limit=10):
            pool.append(("note", run.history, None))
    return tuple(pool)


def _strip_timing(events):
    return [
        {key: value for key, value in event.items() if key != "elapsed_s"}
        for event in events
    ]


def _counts(metrics):
    return metrics.counters, metrics.maxima


def _same_result(left, right):
    assert left.ok == right.ok
    assert left.verdict == right.verdict
    assert left.reason == right.reason
    assert left.nodes == right.nodes
    assert left.witness == right.witness
    assert left.completion == right.completion


class _Side:
    """One side of the differential: its checkers, registry and sink."""

    def __init__(self, memoized: bool) -> None:
        self.memoized = memoized
        self.metrics = SearchProfiler()
        self.sink = TraceSink()
        self.memos = {}

    def checkers(self, family: str):
        cal_spec, seq_spec = _specs(family)
        if not self.memoized:
            return CALChecker(cal_spec), LinearizabilityChecker(seq_spec)
        if family not in self.memos:
            self.memos[family] = (
                MemoCALChecker(cal_spec),
                MemoLinearizabilityChecker(seq_spec),
            )
        return self.memos[family]

    def run(self, family, history, witness):
        cal, lin = self.checkers(family)
        out = [
            # A caller recording nothing first: its entry has no deltas,
            # so the recording caller after it must decide afresh.
            cal.check(history),
            cal.check(history, metrics=self.metrics, trace=self.sink),
            lin.check(history, metrics=self.metrics, trace=self.sink),
        ]
        if witness is not None:
            out.append(cal.check_witness(history, witness, metrics=self.metrics))
            out.append(lin._check_witness_impl(history, witness, True))
        return out


def _differential(indices):
    pool = _pool()
    memoized, fresh = _Side(True), _Side(False)
    for index in indices:
        family, history, witness = pool[index]
        for got, want in zip(
            memoized.run(family, history, witness),
            fresh.run(family, history, witness),
        ):
            if isinstance(want, str) or want is None:
                assert got == want
            else:
                _same_result(got, want)
    assert _counts(memoized.metrics) == _counts(fresh.metrics)
    assert _strip_timing(memoized.sink.events) == _strip_timing(fresh.sink.events)
    return memoized


class TestDifferential:
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_memo_matches_a_fresh_checker_per_call(self, raw):
        pool = _pool()
        _differential([index % len(pool) for index in raw])

    def test_repeats_are_served_from_the_memo(self):
        indices = list(range(10)) * 3
        memoized = _differential(indices)
        cal, lin = memoized.memos["exchanger"]
        pairs = {
            (history.content_key(), witness.content_key())
            for _, history, witness in (_pool()[i] for i in indices)
        }
        histories = {history for history, _ in pairs}
        assert len(histories) < len(set(indices))  # schedules repeat histories
        # One search entry per history plus one witness entry per pair.
        assert len(cal._entries) == len(lin._entries) == len(histories) + len(pairs)

    def test_evicting_every_entry_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(memo_module, "_MEMO_CAP", 1)
        pool = _pool()
        _differential([index % len(pool) for index in range(0, 120, 7)] * 2)


def _register_history(value) -> History:
    return History(
        [
            Invocation("t1", "R", "write", (value,)),
            Response("t1", "R", "write", (None,)),
            Invocation("t2", "R", "read", ()),
            Response("t2", "R", "read", (value,)),
        ]
    )


class TestTypeExactKeys:
    VALUES = (1, True, 1.0)

    def test_equal_but_differently_typed_values_get_distinct_entries(self):
        checker = MemoLinearizabilityChecker(RegisterSpec("R"))
        for value in self.VALUES:
            result = checker.check(_register_history(value))
            assert result.ok
            # A conflating memo would hand back the first history.
            assert type(result.completion[3].value[0]) is type(value)
        assert len(checker._entries) == len(self.VALUES)
        keys = {_register_history(value).content_key() for value in self.VALUES}
        assert len(keys) == len(self.VALUES)

    def test_coverage_digests_stay_distinct(self):
        tracker = CoverageTracker()
        for position, value in enumerate(self.VALUES * 2):
            tracker.observe_run(position, [0], _register_history(value))
        assert len(tracker.histories) == len(self.VALUES)
        assert len(tracker.history_shapes) == 1

    def test_signed_zeros_are_distinct(self):
        assert (
            _register_history(0.0).content_key()
            != _register_history(-0.0).content_key()
        )


class TestUnknownIsNeverStored:
    def test_every_repeat_trips_and_emits_budget_trip(self):
        checker = MemoCALChecker(ExchangerSpec("E"))
        history = wide_overlap_history(4)
        sink, metrics = TraceSink(), SearchProfiler()
        for _ in range(3):
            result = checker.check(
                history, node_budget=1, metrics=metrics, trace=sink
            )
            assert result.unknown
        trips = [e for e in sink.events if e["event"] == "budget_trip"]
        assert len(trips) == 3
        assert metrics.counters["search.budget_trips"] == 3
        assert checker._entries == {}


class RejectAll(SequentialSpec):
    def initial(self):
        return 0

    def apply(self, state, op):
        return None


class TestUnhashableHistories:
    def test_a_list_argument_falls_back_to_the_plain_check(self):
        history = History(
            [
                Invocation("t1", "R", "note", ([1, 2],)),
                Response("t1", "R", "note", (None,)),
            ]
        )
        with pytest.raises(TypeError):
            hash(history.content_key())
        memoized = MemoLinearizabilityChecker(RejectAll("R"))
        for _ in range(2):
            left, right = SearchProfiler(), SearchProfiler()
            _same_result(
                memoized.check(history, metrics=left),
                LinearizabilityChecker(RejectAll("R")).check(history, metrics=right),
            )
            assert _counts(left) == _counts(right)
        assert memoized._entries == {}

    def test_coverage_fingerprints_unhashable_histories(self, monkeypatch):
        history = History([Invocation("t1", "R", "note", ([1],))])

        def snapshot():
            tracker = CoverageTracker()
            for position in range(2):
                tracker.observe_run(position, [0, 1], history)
            return tracker.snapshot()

        memoized = snapshot()
        monkeypatch.setattr(coverage_module, "_DIGEST_MEMO_CAP", 0)
        assert memoized == snapshot()


# ----------------------------------------------------------------------
# Driver level: whole campaigns with every memo lookup forced to miss
# ----------------------------------------------------------------------
def _no_memo(monkeypatch) -> None:
    monkeypatch.setattr(memo_module, "_MEMO_CAP", 0)
    monkeypatch.setattr(coverage_module, "_DIGEST_MEMO_CAP", 0)


def _artifact(tmp_path, name: str, argv) -> dict:
    path = tmp_path / f"{name}.json"
    cli.main(argv + ["--quiet", "--json", str(path)])
    artifact = json.loads(path.read_text(encoding="utf-8"))
    artifact.pop("elapsed_s")
    artifact["stats"].pop("timers")
    return artifact


def _dpor_x3(metrics, coverage, ledger):
    return verify_cal(
        exchanger_program([3, 4, 7]),
        ExchangerSpec("E"),
        max_steps=2000,
        reduction="dpor",
        budget=ExploreBudget(max_runs=500),
        metrics=metrics,
        coverage=coverage,
        provenance=ledger,
    )


def _report_view(report, metrics, coverage, ledger) -> dict:
    stats = metrics.snapshot()
    stats.pop("timers")
    return {
        "verdict": report.verdict,
        "runs": report.runs,
        "nodes": report.nodes,
        "unknown": report.unknown,
        "failures": [(f.schedule, f.reason) for f in report.failures],
        "stats": stats,
        "coverage": coverage.snapshot(),
        "provenance": ledger.snapshot(),
    }


class TestDriverIdentity:
    VERIFY = ["verify", "--workload", "exchanger2"]
    FUZZ = [
        "fuzz", "--workload", "treiber-reuse", "--seeds", "300",
        "--guidance", "greybox",
    ]

    @pytest.mark.parametrize("argv", [VERIFY, FUZZ], ids=["verify", "fuzz"])
    def test_cli_artifact_equals_the_unmemoized_run(
        self, argv, tmp_path, monkeypatch
    ):
        memoized = _artifact(tmp_path, "memo", argv)
        _no_memo(monkeypatch)
        assert _artifact(tmp_path, "plain", argv) == memoized

    def test_dpor_verify_equals_the_unmemoized_run(self, monkeypatch):
        def campaign():
            parts = (SearchProfiler(), CoverageTracker(), ExplorationLedger())
            return _report_view(_dpor_x3(*parts), *parts)

        memoized = campaign()
        assert memoized["runs"] == 500
        _no_memo(monkeypatch)
        assert campaign() == memoized
