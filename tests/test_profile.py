"""Search profiling: bucket naming, breakdown parsing, partition law.

:class:`SearchProfiler` piggybacks on the Metrics monoid — every bucket
is an ordinary counter or maximum — so the contracts under test are:

* the checker hooks land tallies in ``profile.<checker>.<oid>.w<width>.*``
  buckets keyed by the *current* check context;
* ``profile_breakdown`` parses buckets back (dotted oids included) and
  derives rates deterministically;
* parallel campaigns partition transparently: a profiler handed to the
  parallel driver ends up with exactly the sequential profiler's
  counters and maxima, for any worker count.
"""

from __future__ import annotations

import pytest

from repro.checkers.fuzz import fuzz_cal
from repro.checkers.parallel import fuzz_cal_parallel
from repro.checkers.verify import verify_cal
from repro.obs.profile import SearchProfiler, profile_breakdown, render_profile
from repro.specs import ExchangerSpec
from repro.workloads.programs import exchanger_program


def _observe(profiler, **overrides):
    tallies = dict(
        nodes=5,
        memo_hits=3,
        memo_misses=1,
        candidates=8,
        rejections=2,
        frames=4,
        frontier_sum=6,
        frontier_max=3,
    )
    tallies.update(overrides)
    profiler.observe_search(**tallies)


class TestSearchProfilerHooks:
    def test_tallies_land_in_the_context_bucket(self):
        profiler = SearchProfiler()
        profiler.begin_check("cal", "E")
        profiler.enter_completion(2)
        _observe(profiler)
        assert profiler.counters["profile.cal.E.w2.completions"] == 1
        assert profiler.counters["profile.cal.E.w2.nodes"] == 5
        assert profiler.counters["profile.cal.E.w2.memo_hits"] == 3
        assert profiler.maxima["profile.cal.E.w2.nodes_max"] == 5
        assert profiler.maxima["profile.cal.E.w2.frontier_max"] == 3

    def test_zero_tallies_create_no_counters(self):
        profiler = SearchProfiler()
        profiler.begin_check("cal", "E")
        profiler.enter_completion(1)
        _observe(
            profiler,
            nodes=0,
            memo_hits=0,
            memo_misses=0,
            candidates=0,
            rejections=0,
            frames=0,
            frontier_sum=0,
            frontier_max=0,
        )
        assert "profile.cal.E.w1.nodes" not in profiler.counters
        # nodes_max is always recorded — 0 is a legitimate maximum.
        assert profiler.maxima["profile.cal.E.w1.nodes_max"] == 0
        assert "profile.cal.E.w1.frontier_max" not in profiler.maxima

    def test_context_switches_rebucket(self):
        profiler = SearchProfiler()
        profiler.begin_check("cal", "E")
        profiler.enter_completion(2)
        _observe(profiler)
        profiler.begin_check("lin", "Q")
        profiler.enter_completion(3)
        _observe(profiler, nodes=7)
        assert profiler.counters["profile.cal.E.w2.nodes"] == 5
        assert profiler.counters["profile.lin.Q.w3.nodes"] == 7

    def test_is_a_drop_in_metrics(self):
        profiler = SearchProfiler()
        profiler.count("search.nodes", 4)
        snapshot = profiler.snapshot()
        assert snapshot["counters"]["search.nodes"] == 4
        # merge folds profiles like any other counters
        other = SearchProfiler()
        other.begin_check("cal", "E")
        other.enter_completion(2)
        _observe(other)
        profiler.merge(other)
        assert profiler.counters["profile.cal.E.w2.nodes"] == 5


class TestProfileBreakdown:
    def _profiler(self):
        profiler = SearchProfiler()
        profiler.begin_check("cal", "E.left")  # dotted oid
        profiler.enter_completion(2)
        _observe(profiler)
        profiler.enter_completion(2)
        _observe(profiler, nodes=7, frontier_max=5)
        profiler.begin_check("lin", "Q")
        profiler.enter_completion(1)
        _observe(profiler, memo_hits=0, memo_misses=0)
        return profiler

    def test_rows_and_derived_rates(self):
        rows = profile_breakdown(self._profiler())
        assert [(r["checker"], r["oid"], r["width"]) for r in rows] == [
            ("cal", "E.left", 2),
            ("lin", "Q", 1),
        ]
        cal, lin = rows
        assert cal["completions"] == 2
        assert cal["nodes"] == 12
        assert cal["nodes_per_completion"] == pytest.approx(6.0)
        assert cal["nodes_max"] == 7
        assert cal["memo_hit_rate"] == pytest.approx(6 / 8)
        assert cal["frontier_mean"] == pytest.approx(12 / 8)
        assert cal["frontier_max"] == 5
        assert lin["memo_hit_rate"] == 0.0

    def test_accepts_registry_and_snapshot_alike(self):
        profiler = self._profiler()
        assert profile_breakdown(profiler) == profile_breakdown(
            profiler.snapshot()
        )

    def test_non_profile_counters_are_ignored(self):
        rows = profile_breakdown(
            {
                "counters": {
                    "search.nodes": 9,
                    "profile.short": 1,  # too few parts
                    "profile.cal.E.nodes.extra": 1,  # no w<width> part
                    "profile.cal.E.w2.nodes": 3,
                },
                "maxima": {},
            }
        )
        assert len(rows) == 1
        assert rows[0]["nodes"] == 3

    def test_render_profile(self):
        text = render_profile(self._profiler())
        assert "search effort by checker / object / width" in text
        assert "search quality" in text
        assert "E.left" in text
        assert render_profile(SearchProfiler()) == "(no profiled searches)"


class TestCampaignProfiling:
    SEEDS = range(16)

    def _run(self, metrics, **kwargs):
        return fuzz_cal(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            seeds=self.SEEDS,
            max_steps=200,
            search=True,
            metrics=metrics,
            **kwargs,
        )

    def test_buckets_account_for_every_search_node(self):
        profiler = SearchProfiler()
        self._run(profiler)
        bucketed = sum(
            value
            for name, value in profiler.counters.items()
            if name.startswith("profile.") and name.endswith(".nodes")
        )
        assert bucketed == profiler.counters["search.nodes"] > 0
        completions = sum(
            value
            for name, value in profiler.counters.items()
            if name.startswith("profile.") and name.endswith(".completions")
        )
        assert completions == profiler.counters["cal.completions"]

    @pytest.mark.parametrize("reduction", ["dpor"])
    def test_profiles_reduced_verification(self, reduction):
        """The profiler buckets reduced sweeps like unreduced ones: one
        completion per checked run, every search node attributed."""
        profiler = SearchProfiler()
        report = verify_cal(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            max_steps=200,
            search=True,
            metrics=profiler,
            reduction=reduction,
        )
        assert report.verdict.value == "ok"
        completions = sum(
            value
            for name, value in profiler.counters.items()
            if name.startswith("profile.") and name.endswith(".completions")
        )
        assert completions == report.runs > 0
        bucketed = sum(
            value
            for name, value in profiler.counters.items()
            if name.startswith("profile.") and name.endswith(".nodes")
        )
        assert bucketed == profiler.counters["search.nodes"] > 0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parallel_partition_transparency(self, workers):
        sequential = SearchProfiler()
        self._run(sequential)
        parallel = SearchProfiler()
        fuzz_cal_parallel(
            exchanger_program([3, 4]),
            ExchangerSpec("E"),
            seeds=self.SEEDS,
            workers=workers,
            max_steps=200,
            search=True,
            metrics=parallel,
        )
        assert parallel.counters == sequential.counters
        assert parallel.maxima == sequential.maxima
