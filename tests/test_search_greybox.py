"""The greybox search layer: corpus, mutations, RNG streams, campaigns.

Three contracts:

* **Seed compatibility** — the named RNG streams must reproduce the
  substrate's historical draws byte-for-byte: the ``schedule`` stream
  seeds like :class:`~repro.substrate.schedulers.RandomScheduler`, the
  ``fault`` stream like ``FaultCampaign.plan``'s literal.  Any drift
  silently re-keys every pinned seed in the repo.
* **Determinism** — greybox campaigns are a pure function of
  ``(corpus state, seed range)``: re-running one reproduces the same
  failures, and every corpus-derived failure replays from its recorded
  schedule alone.
* **Uniform transparency** — ``guidance="uniform"`` must be the
  historical campaign decision-for-decision, so every existing pinned
  failure and verdict stays byte-identical.
"""

from __future__ import annotations

import random

import pytest

from repro.checkers.fuzz import (
    GUIDANCE_MODES,
    FuzzReport,
    fuzz_linearizability,
    replay,
)
from repro.search.corpus import CorpusEntry, ScheduleCorpus
from repro.search.greybox import (
    FAILURE_ENERGY,
    MUTATION_OPS,
    GreyboxEngine,
    mutate_prefix,
)
from repro.search.rng import FAULT_LABEL, named_stream, stream_label
from repro.specs import StackSpec
from repro.workloads.programs import StackWorkload, manual_treiber_program

#: The treiber-reuse ABA workload (the E13/E21 bug): victim pop racing
#: an adversary pop/pop/push/pop on a free-list stack seeded (2, 1).
_WORKLOAD = StackWorkload(
    scripts=[
        [("pop",)],
        [("pop",), ("pop",), ("push", 3), ("pop",)],
    ]
)

#: A seed whose uniform biased run violates the stack spec (found by
#: sweeping seeds 0–400; pinned so the warm-start tests are exact).
FAILING_SEED = 94


def _treiber_setup():
    return manual_treiber_program(
        _WORKLOAD, policy="free-list", seed_values=(2, 1), max_attempts=20
    )


def _fuzz(seeds, guidance="uniform", corpus=None, **kwargs):
    return fuzz_linearizability(
        _treiber_setup(),
        StackSpec("S", initial=(2, 1)),
        seeds=seeds,
        max_steps=400,
        yield_bias=0.85,
        shrink=False,
        guidance=guidance,
        corpus=corpus,
        **kwargs,
    )


class TestNamedStreams:
    def test_schedule_stream_matches_random_scheduler(self):
        for seed in (0, 7, 12345):
            assert stream_label(seed, "schedule") == seed
            ours = named_stream(seed, "schedule")
            theirs = random.Random(seed)
            assert [ours.random() for _ in range(8)] == [
                theirs.random() for _ in range(8)
            ]

    def test_fault_stream_matches_fault_campaign_literal(self):
        for seed in (0, 7, 12345):
            label = stream_label(seed, "fault")
            assert label == f"fault-campaign:{seed}"
            assert label == FAULT_LABEL.format(seed=seed)
            ours = named_stream(seed, "fault")
            theirs = random.Random(f"fault-campaign:{seed}")
            assert [ours.random() for _ in range(8)] == [
                theirs.random() for _ in range(8)
            ]

    def test_streams_are_pairwise_independent(self):
        seed = 42
        draws = {
            purpose: named_stream(seed, purpose).random()
            for purpose in ("schedule", "fault", "mutation", "corpus")
        }
        assert len(set(draws.values())) == len(draws)

    def test_mutation_label_is_purpose_prefixed(self):
        assert stream_label(9, "mutation") == "mutation:9"


class TestScheduleCorpus:
    def test_add_returns_entry_once(self):
        corpus = ScheduleCorpus()
        entry = corpus.add((1, 2, 3))
        assert isinstance(entry, CorpusEntry)
        assert corpus.add((1, 2, 3)) is None  # duplicate
        assert corpus.add(()) is None  # empty
        assert len(corpus) == 1

    def test_pick_is_energy_weighted_and_deterministic(self):
        corpus = ScheduleCorpus()
        cold = corpus.add((0,))
        hot = corpus.add((1,))
        hot.hits += 50
        rng = random.Random(3)
        picks = [corpus.pick(rng).prefix for _ in range(200)]
        assert picks.count((1,)) > picks.count((0,))
        rng2 = random.Random(3)
        assert picks == [corpus.pick(rng2).prefix for _ in range(200)]
        assert cold.energy < hot.energy

    def test_merge_sums_counters(self):
        a, b = ScheduleCorpus(), ScheduleCorpus()
        a.add((1, 2)).hits = 3
        b.add((1, 2)).hits = 4
        b.add((9,)).children = 2
        a.merge(b)
        entries = {tuple(e["prefix"]): e for e in a.snapshot()}
        assert entries[(1, 2)]["hits"] == 7
        assert entries[(9,)]["children"] == 2

    def test_snapshot_round_trip(self):
        corpus = ScheduleCorpus()
        corpus.add((5, 1)).hits = 2
        corpus.add((7,)).children = 1
        clone = ScheduleCorpus.from_snapshot(corpus.snapshot())
        assert clone.snapshot() == corpus.snapshot()


class TestMutations:
    def test_pure_function_of_rng_state(self):
        base, donor = (1, 2, 3, 0, 2), (3, 3, 1)
        first = [
            mutate_prefix(random.Random(seed), base, donor)
            for seed in range(50)
        ]
        second = [
            mutate_prefix(random.Random(seed), base, donor)
            for seed in range(50)
        ]
        assert first == second

    def test_always_returns_nonempty_ints(self):
        for seed in range(100):
            rng = random.Random(seed)
            out = mutate_prefix(rng, (2, 1), (0,))
            assert out and all(isinstance(d, int) for d in out)
            # degenerate inputs fall back to extend
            assert mutate_prefix(random.Random(seed), (), ())

    def test_operator_vocabulary_is_pinned(self):
        assert MUTATION_OPS == ("truncate", "perturb", "extend", "splice")


class TestGuidanceModes:
    def test_invalid_guidance_rejected(self):
        assert GUIDANCE_MODES == ("uniform", "greybox")
        with pytest.raises(ValueError, match="guidance"):
            _fuzz(range(2), guidance="whitebox")

    def test_uniform_is_byte_identical_to_no_guidance(self):
        baseline = fuzz_linearizability(
            _treiber_setup(),
            StackSpec("S", initial=(2, 1)),
            seeds=range(80, 130),
            max_steps=400,
            yield_bias=0.85,
            shrink=False,
        )
        uniform = _fuzz(range(80, 130), guidance="uniform")
        assert uniform.runs == baseline.runs
        assert [f.seed for f in uniform.failures] == [
            f.seed for f in baseline.failures
        ]
        assert [f.schedule for f in uniform.failures] == [
            f.schedule for f in baseline.failures
        ]
        assert uniform.corpus is None

    def test_greybox_campaign_is_deterministic(self):
        first = _fuzz(range(60), guidance="greybox")
        second = _fuzz(range(60), guidance="greybox")
        assert first.runs == second.runs
        assert [f.seed for f in first.failures] == [
            f.seed for f in second.failures
        ]
        assert first.corpus == second.corpus
        assert first.corpus  # coverage minting populated the corpus


class TestFailureFeedback:
    def test_record_failure_donates_full_schedule_with_energy(self):
        report = _fuzz(range(FAILING_SEED, FAILING_SEED + 1))
        assert report.failures
        failure = report.failures[0]
        engine = GreyboxEngine()

        class _Run:
            schedule = failure.schedule

        entry = engine.record_failure(_Run())
        assert entry is not None
        assert entry.hits == FAILURE_ENERGY
        assert entry.prefix == tuple(failure.schedule)
        # a re-found failure keeps its original entry
        assert engine.record_failure(_Run()) is None

    def test_warm_started_campaign_refinds_the_bug_fast(self):
        """The E21 protocol in miniature: a corpus carrying one failing
        schedule re-finds the ABA bug within a few runs on fresh
        seeds, where uniform needs hundreds (median ≈ 180)."""
        cold = _fuzz(range(FAILING_SEED, FAILING_SEED + 1))
        engine = GreyboxEngine()
        engine.record_failure(cold.failures[0])
        warm_corpus = engine.corpus.snapshot()
        warm = _fuzz(range(7000, 7030), guidance="greybox", corpus=warm_corpus)
        assert warm.failures
        runs_to_bug = min(f.seed for f in warm.failures) - 7000 + 1
        assert runs_to_bug <= 30

    def test_greybox_failures_replay_from_schedule_alone(self):
        cold = _fuzz(range(FAILING_SEED, FAILING_SEED + 1))
        engine = GreyboxEngine()
        engine.record_failure(cold.failures[0])
        warm = _fuzz(
            range(7000, 7030),
            guidance="greybox",
            corpus=engine.corpus.snapshot(),
        )
        failure = warm.failures[0]
        rerun = replay(_treiber_setup(), failure, max_steps=400)
        assert rerun.history == failure.history


class TestReportMerge:
    def test_merge_folds_corpora(self):
        left, right = FuzzReport(), FuzzReport()
        left.corpus = [{"prefix": [1], "children": 0, "hits": 2}]
        right.corpus = [
            {"prefix": [1], "children": 1, "hits": 1},
            {"prefix": [2], "children": 0, "hits": 0},
        ]
        left.merge(right)
        merged = {tuple(e["prefix"]): e for e in left.corpus}
        assert merged[(1,)]["hits"] == 3
        assert merged[(1,)]["children"] == 1
        assert (2,) in merged

    def test_merge_tolerates_missing_corpus(self):
        left, right = FuzzReport(), FuzzReport()
        right.corpus = [{"prefix": [4], "children": 0, "hits": 1}]
        left.merge(right)
        assert left.corpus == right.corpus
        right.merge(FuzzReport())
        assert right.corpus  # unchanged by a corpus-less merge


class TestDurableCorpus:
    def test_corpus_persists_and_warm_starts(self, tmp_path):
        from repro.store import CampaignStore, dedup_scope, durable_fuzz
        from repro.store.dedup import probe_width

        spec = StackSpec("S", initial=(2, 1))
        config = {"seeds": 40, "max_steps": 400, "checkpoint_every": 40,
                  "guidance": "greybox"}
        with CampaignStore(str(tmp_path / "store.db")) as store:
            durable_fuzz(
                store,
                "greybox-1",
                "treiber-reuse",
                "lin",
                _treiber_setup(),
                spec,
                config,
                driver_kwargs={
                    "yield_bias": 0.85,
                    "check_witness": False,
                },
            )
            scope = dedup_scope(
                "treiber-reuse", "lin", probe_width(_treiber_setup())
            )
            saved = store.corpus_entries(scope)
            assert saved  # coverage minting persisted entries
            # Second campaign auto-loads the corpus for the same scope.
            report = durable_fuzz(
                store,
                "greybox-2",
                "treiber-reuse",
                "lin",
                _treiber_setup(),
                spec,
                {"seeds": 20, "max_steps": 400, "checkpoint_every": 20,
                 "guidance": "greybox"},
                driver_kwargs={
                    "yield_bias": 0.85,
                    "check_witness": False,
                },
            )
            grown = store.corpus_entries(scope)
            assert len(grown) >= len(saved)
            assert report.corpus
