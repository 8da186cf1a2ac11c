"""Schedule-space coverage: fingerprints, merge law, saturation curves.

The tracker's contracts (see ``src/repro/obs/coverage.py``):

* **Fingerprints are content digests** — pure functions of the observed
  runs, independent of ``PYTHONHASHSEED`` and of set/dict iteration
  order, so two processes fingerprint the same behaviour identically.
* **Merging obeys the same monoid law as Metrics** — set unions plus a
  position-keyed sample union — so any partition of a campaign across
  fork workers merges to *exactly* the sequential tracker (verified
  against real parallel campaigns for several worker counts).
* **Snapshots are canonical** — equal trackers serialize byte-equal, and
  ``from_snapshot`` round-trips losslessly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checkers.fuzz import fuzz_cal
from repro.checkers.parallel import explore_parallel, fuzz_cal_parallel
from repro.core.catrace import failed_exchange_element, swap_element
from repro.obs.coverage import CoverageTracker, canonical_repr
from repro.specs import ExchangerSpec
from repro.substrate.explore import explore_all
from repro.workloads.figure3 import figure3_program
from repro.workloads.programs import exchanger_program
from repro.workloads.synthetic import wide_overlap_history


# ----------------------------------------------------------------------
# Canonical repr
# ----------------------------------------------------------------------
class TestCanonicalRepr:
    def test_sets_are_order_insensitive(self):
        assert canonical_repr(frozenset("ba")) == canonical_repr(
            frozenset("ab")
        )
        assert canonical_repr({2, 1, 3}) == canonical_repr({3, 2, 1})

    def test_dicts_are_key_order_insensitive(self):
        assert canonical_repr({"b": 1, "a": 2}) == canonical_repr(
            {"a": 2, "b": 1}
        )

    def test_sequences_keep_order_and_kind(self):
        assert canonical_repr((1, 2)) != canonical_repr((2, 1))
        assert canonical_repr((1, 2)) != canonical_repr([1, 2])

    def test_nested_containers(self):
        left = canonical_repr({"k": frozenset([(1, 2), (3, 4)])})
        right = canonical_repr({"k": frozenset([(3, 4), (1, 2)])})
        assert left == right


# ----------------------------------------------------------------------
# Tracker unit behaviour
# ----------------------------------------------------------------------
class TestCoverageTracker:
    def test_observe_run_reports_novelty(self):
        tracker = CoverageTracker()
        assert tracker.observe_run(0, [0, 1], wide_overlap_history(2))
        assert not tracker.observe_run(1, [1, 0], wide_overlap_history(2))
        assert tracker.observe_run(2, [0, 1], wide_overlap_history(4))
        assert tracker.observed == 3
        assert len(tracker.histories) == 2

    def test_prefixes_recorded_per_depth(self):
        tracker = CoverageTracker()
        tracker.observe_run(0, [0, 1, 2], wide_overlap_history(2))
        assert tracker.prefix_depths() == {1: 1, 2: 1, 3: 1}
        # Same first two decisions, divergent third: only depth 3 grows.
        tracker.observe_run(1, [0, 1, 5], wide_overlap_history(2))
        assert tracker.prefix_depths() == {1: 1, 2: 1, 3: 2}

    def test_prefix_depth_bounds_the_fingerprint(self):
        tracker = CoverageTracker(prefix_depth=2)
        tracker.observe_run(0, [0, 1, 2, 3, 4], wide_overlap_history(2))
        assert set(tracker.prefix_depths()) == {1, 2}

    def test_offset_shifts_sample_positions(self):
        tracker = CoverageTracker(offset=10)
        tracker.observe_run(0, [0], wide_overlap_history(2))
        assert list(tracker.samples) == [10]

    def test_shapes_dedup_value_variants(self):
        # Same span structure, different values: one shape, two histories.
        tracker = CoverageTracker()
        tracker.observe_run(0, [0], wide_overlap_history(2))
        tracker.observe_run(1, [0], wide_overlap_history(2, oid="F"))
        assert len(tracker.histories) == 2
        assert len(tracker.history_shapes) == 1

    def test_merge_is_set_union(self):
        left, right = CoverageTracker(), CoverageTracker(offset=1)
        left.observe_run(0, [0, 1], wide_overlap_history(2))
        right.observe_run(0, [0, 2], wide_overlap_history(3))
        merged = left.merge(right)
        assert merged is left
        assert merged.observed == 2
        assert len(merged.histories) == 2
        assert sorted(merged.samples) == [0, 1]

    def test_snapshot_round_trip(self):
        tracker = CoverageTracker(prefix_depth=3)
        tracker.observe_run(0, [0, 1], wide_overlap_history(2))
        tracker.observe_run(1, [2], wide_overlap_history(3))
        rebuilt = CoverageTracker.from_snapshot(tracker.snapshot())
        assert rebuilt.snapshot() == tracker.snapshot()
        assert rebuilt.prefix_depth == 3
        assert rebuilt.report() == tracker.report()

    def test_equal_trackers_snapshot_byte_equal(self):
        def build():
            tracker = CoverageTracker()
            # Insertion order differs run to run; snapshots must not.
            for position, width in enumerate([4, 2, 3]):
                tracker.observe_run(
                    position, [position], wide_overlap_history(width)
                )
            return tracker

        one = json.dumps(build().snapshot(), sort_keys=True)
        two = json.dumps(build().snapshot(), sort_keys=True)
        assert one == two

    def test_saturation_counts_first_occurrences_per_bucket(self):
        tracker = CoverageTracker.from_snapshot(
            {
                "samples": [
                    [0, "a"],
                    [1, "b"],
                    [2, "a"],
                    [1000, "c"],
                    [1001, "b"],
                ]
            }
        )
        assert tracker.saturation(bucket=1000) == [(0, 2), (1000, 1)]
        assert tracker.saturation(bucket=2) == [(0, 2), (2, 0), (1000, 1)]

    def test_saturation_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            CoverageTracker().saturation(bucket=0)

    def test_report_and_render(self):
        tracker = CoverageTracker()
        tracker.observe_run(0, [0, 1], wide_overlap_history(2))
        report = tracker.report(bucket=10)
        assert report["observed"] == 1
        assert report["distinct_histories"] == 1
        assert report["saturation"] == [[0, 1]]
        text = tracker.render(bucket=10)
        assert "schedule-space coverage" in text
        assert "new histories per 10 runs" in text

    def test_repr_is_compact(self):
        assert "0 runs" in repr(CoverageTracker())


# ----------------------------------------------------------------------
# Merge algebra (property-based)
# ----------------------------------------------------------------------
_run_lists = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
        st.integers(min_value=2, max_value=5),
    ),
    max_size=8,
)


def _build_tracker(runs, offset=0):
    tracker = CoverageTracker(prefix_depth=4, offset=offset)
    for position, (schedule, width) in enumerate(runs):
        tracker.observe_run(position, schedule, wide_overlap_history(width))
    return tracker


class TestMergeLaws:
    """The laws the parallel runner and the durable store lean on:
    shard snapshots merge in any order to the same snapshot, and a
    re-delivered snapshot cannot invent fingerprints.  ``observed`` is
    deliberately additive (it counts run *attempts*, not distinct
    facts), so self-merge idempotence holds on every set facet and on
    the samples — not on the attempt counter."""

    @given(left_runs=_run_lists, right_runs=_run_lists)
    def test_merge_commutes_on_disjoint_positions(
        self, left_runs, right_runs
    ):
        # Disjoint offsets, as the parallel runner guarantees per shard.
        one = _build_tracker(left_runs, offset=0).merge(
            _build_tracker(right_runs, offset=100)
        )
        other = _build_tracker(right_runs, offset=100).merge(
            _build_tracker(left_runs, offset=0)
        )
        assert one.snapshot() == other.snapshot()

    @given(runs=_run_lists)
    def test_self_merge_is_idempotent_on_facts(self, runs):
        tracker = _build_tracker(runs)
        before = tracker.snapshot()
        tracker.merge(_build_tracker(runs))
        after = tracker.snapshot()
        assert after["observed"] == 2 * before["observed"]
        for facet in (
            "schedule_prefixes",
            "histories",
            "history_shapes",
            "spec_transitions",
            "samples",
        ):
            assert after[facet] == before[facet]

    @given(runs=_run_lists)
    def test_merge_round_trips_through_snapshot(self, runs):
        tracker = _build_tracker(runs)
        rebuilt = CoverageTracker.from_snapshot(tracker.snapshot())
        merged = CoverageTracker(prefix_depth=4).merge(rebuilt)
        for facet in ("schedule_prefixes", "histories", "history_shapes"):
            assert tracker.snapshot()[facet] == merged.snapshot()[facet]


# ----------------------------------------------------------------------
# Spec-state transition coverage
# ----------------------------------------------------------------------
class TestSpecTraceCoverage:
    def test_ca_spec_transitions_dedup(self):
        spec = ExchangerSpec("E")
        tracker = CoverageTracker()
        trace = [
            swap_element("E", "t1", 3, "t2", 4),
            failed_exchange_element("E", "t3", 7),
        ]
        tracker.observe_spec_trace(spec, trace)
        assert len(tracker.spec_transitions) == 2
        tracker.observe_spec_trace(spec, trace)  # replay: nothing new
        assert len(tracker.spec_transitions) == 2

    def test_rejection_records_terminal_transition(self):
        spec = ExchangerSpec("E")
        tracker = CoverageTracker()
        tracker.observe_spec_trace(
            spec,
            [
                # method mismatch → spec.step returns None → REJECT, stop.
                swap_element("E", "t1", 3, "t2", 4, method="bogus"),
                swap_element("E", "t1", 3, "t2", 4),
            ],
        )
        assert len(tracker.spec_transitions) == 1

    def test_foreign_object_elements_are_ignored(self):
        spec = ExchangerSpec("E")
        tracker = CoverageTracker()
        tracker.observe_spec_trace(spec, [swap_element("F", "t1", 3, "t2", 4)])
        assert not tracker.spec_transitions

    def test_sequential_spec_walks_singletons(self):
        class CountTo2:
            oid = "C"

            def initial(self):
                return 0

            def apply(self, state, op):
                return state + 1 if state < 2 else None

        from repro.core.actions import Operation
        from repro.core.catrace import CAElement

        ops = [
            Operation.of(f"t{i}", "C", "tick", (), (i,)) for i in range(3)
        ]
        tracker = CoverageTracker()
        tracker.observe_spec_trace(
            CountTo2(), [CAElement("C", [op]) for op in ops]
        )
        # 0→1, 1→2, then 2 rejects the third tick: three transitions.
        assert len(tracker.spec_transitions) == 3

    def test_sequential_spec_stops_at_non_singleton(self):
        class Anything:
            oid = "E"

            def initial(self):
                return 0

            def apply(self, state, op):
                return state

        tracker = CoverageTracker()
        tracker.observe_spec_trace(
            Anything(), [swap_element("E", "t1", 3, "t2", 4)]
        )
        assert not tracker.spec_transitions


# ----------------------------------------------------------------------
# Campaign integration: sequential == merged parallel, for any partition
# ----------------------------------------------------------------------
class TestParallelCoverageDeterminism:
    SEEDS = range(24)

    def _sequential(self):
        tracker = CoverageTracker()
        fuzz_cal(
            figure3_program,
            ExchangerSpec("E"),
            seeds=self.SEEDS,
            max_steps=2000,
            coverage=tracker,
        )
        return tracker

    def test_fuzz_campaign_populates_all_facets(self):
        tracker = self._sequential()
        assert tracker.observed == len(self.SEEDS)
        assert tracker.histories
        assert tracker.history_shapes
        assert tracker.schedule_prefixes
        assert tracker.spec_transitions
        assert len(tracker.samples) == len(self.SEEDS)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_parallel_merges_to_sequential_exactly(self, workers):
        sequential = self._sequential().snapshot()
        tracker = CoverageTracker()
        fuzz_cal_parallel(
            figure3_program,
            ExchangerSpec("E"),
            seeds=self.SEEDS,
            workers=workers,
            max_steps=2000,
            coverage=tracker,
        )
        assert tracker.snapshot() == sequential

    def test_report_coverage_field_matches_tracker(self):
        tracker = CoverageTracker()
        report = fuzz_cal(
            figure3_program,
            ExchangerSpec("E"),
            seeds=range(8),
            max_steps=2000,
            coverage=tracker,
        )
        assert report.coverage == tracker.snapshot()

    def test_explore_parallel_matches_sequential_coverage(self):
        setup = exchanger_program([3, 4])
        sequential = CoverageTracker()
        for position, result in enumerate(
            explore_all(setup, max_steps=200)
        ):
            sequential.observe_run(position, result.schedule, result.history)
        parallel = CoverageTracker()
        explore_parallel(setup, max_steps=200, workers=2, coverage=parallel)
        assert parallel.snapshot() == sequential.snapshot()
