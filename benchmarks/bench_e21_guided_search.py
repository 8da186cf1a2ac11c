"""E21: guided search — greybox corpus guidance and sleep-set reduction.

Two claims, one per tentpole half of the search layer:

**Greybox guidance (runs-to-bug).**  Cold greybox fuzzing cannot beat
tuned biased sampling on the treiber-reuse ABA bug — the coverage signal
carries no gradient toward it (double-free corruption has no near
misses).  Where the corpus pays off is the *regression hunt*, which is
exactly the flow the campaign store persists: a first campaign finds the
failure once and :meth:`~repro.search.greybox.GreyboxEngine.record_failure`
donates its full schedule at high energy; every later campaign
warm-starts from that corpus and re-finds the bug in a handful of runs
because mutations of a complete failing schedule re-trigger the
corruption at very high rates.  This benchmark measures that protocol:

* phase A — uniform baseline: runs-to-first-failure per seed base;
* phase B — one cold greybox campaign runs until it records a failure
  and snapshots its corpus (what ``durable_fuzz`` persists);
* phase C — warm greybox campaigns over the *same* seed bases re-find
  the bug from the snapshot.

The headline ``guided_speedup`` is median(warm) / median(uniform) and
must stay ≤ 0.5 (observed ≈ 0.01–0.05).

**Sleep-set reduction (schedules-to-saturation).**  For exhaustive
exploration the question is how many schedules must run before the
history set saturates.  ``reduction="sleep-set"`` visits strictly fewer
schedules than ``reduction="none"`` while producing the same history
set; ``sleep_set_reduction`` reports the shrink factor on the exchanger
workload (observed ≈ 80×).

Runs two ways:

* under pytest (``pytest benchmarks/bench_e21_guided_search.py``) —
  assertions plus pytest-benchmark records;
* standalone (``python benchmarks/bench_e21_guided_search.py --quick
  --json out.json``) — the CI smoke mode: a table on stdout,
  machine-readable JSON, non-zero exit if a bar is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional

from repro.checkers.fuzz import fuzz_linearizability
from repro.search.corpus import ScheduleCorpus
from repro.search.greybox import GreyboxEngine
from repro.specs import StackSpec
from repro.substrate.explore import explore_all
from repro.workloads.programs import (
    StackWorkload,
    dual_stack_program,
    exchanger_program,
    manual_treiber_program,
)

#: Warm-greybox median runs-to-bug must be at most this fraction of the
#: uniform median at equal seeds.  Observed ≈ 0.01–0.05; the bar leaves
#: a wide margin for unlucky base draws.
GUIDED_BAR = 0.5

#: Sleep sets must shrink the exchanger schedule count at least this
#: much while reproducing the same history set.  Observed ≈ 80×.
REDUCTION_BAR = 10.0

#: Per-base budget: runs-to-bug values are censored here.  The uniform
#: median on treiber-reuse is ≈ 180, so the budget keeps most baseline
#: campaigns uncensored while bounding the worst case.
BUDGET = 400

#: Seed budget for the phase-B cold campaign.  It only needs to record
#: one failure; ~2000 biased runs find the first one with near
#: certainty (p ≈ 0.005 per run).
COLD_BUDGET = 4000

FULL_BASES = 24
QUICK_BASES = 8

#: First seed base per campaign; bases are spaced a budget apart so the
#: uniform campaigns never share a seed.
BASE_STRIDE = 1000
FIRST_BASE = 50_000

_WORKLOAD = StackWorkload(
    scripts=[
        [("pop",)],
        [("pop",), ("pop",), ("push", 3), ("pop",)],
    ]
)


def _treiber_setup():
    return manual_treiber_program(
        _WORKLOAD, policy="free-list", seed_values=(2, 1), max_attempts=20
    )


def _runs_to_bug(
    base: int, corpus: Optional[List[Dict]], guidance: str
) -> int:
    """Runs until the first failure in ``seeds=[base, base+BUDGET)``.

    Censored campaigns report ``BUDGET`` — a floor on the true value,
    which only makes the uniform baseline look *better* (the comparison
    stays conservative).
    """
    report = fuzz_linearizability(
        _treiber_setup(),
        StackSpec("S", initial=(2, 1)),
        seeds=range(base, base + BUDGET),
        max_steps=400,
        yield_bias=0.85,
        shrink=False,
        guidance=guidance,
        corpus=corpus,
    )
    if not report.failures:
        return BUDGET
    return min(f.seed for f in report.failures) - base + 1


def _cold_corpus(base: int) -> List[Dict]:
    """Phase B: one cold greybox campaign, run until a failure is
    recorded, returning the corpus snapshot ``durable_fuzz`` would
    persist.  ``record_failure`` fires inside the driver; the snapshot
    therefore carries the full failing schedule at high energy."""
    engine = GreyboxEngine()
    report = fuzz_linearizability(
        _treiber_setup(),
        StackSpec("S", initial=(2, 1)),
        seeds=range(base, base + COLD_BUDGET),
        max_steps=400,
        yield_bias=0.85,
        shrink=False,
        guidance="greybox",
        corpus=engine.corpus,
    )
    if not report.failures:
        raise RuntimeError(
            f"cold campaign found no failure in {COLD_BUDGET} seeds — "
            "cannot warm-start phase C"
        )
    return report.corpus


def run_guided(bases: int) -> Dict:
    """Phases A–C: uniform vs warm-greybox runs-to-bug at equal seeds."""
    seed_bases = [FIRST_BASE + i * BASE_STRIDE for i in range(bases)]
    uniform = [_runs_to_bug(b, None, "uniform") for b in seed_bases]
    corpus = _cold_corpus(FIRST_BASE - BASE_STRIDE)  # disjoint from bases
    warm = [_runs_to_bug(b, list(corpus), "greybox") for b in seed_bases]
    uniform_median = statistics.median(uniform)
    warm_median = statistics.median(warm)
    return {
        "bases": bases,
        "budget": BUDGET,
        "uniform_runs_to_bug": uniform,
        "warm_runs_to_bug": warm,
        "uniform_median": uniform_median,
        "warm_median": warm_median,
        "uniform_censored": sum(1 for v in uniform if v >= BUDGET),
        "warm_censored": sum(1 for v in warm if v >= BUDGET),
        "corpus_size": len(corpus),
        "guided_speedup": warm_median / uniform_median,
    }


#: Sleep-set workloads: (name, setup factory, max_steps).  All three
#: are CAL workloads with exhaustible schedule spaces.
REDUCTION_CASES = (
    ("exchanger-2", lambda: exchanger_program([3, 4]), 200),
    (
        "dual-stack",
        lambda: dual_stack_program(
            StackWorkload(scripts=[[("push", 1)], [("pop",)]])
        ),
        150,
    ),
)


def _history_key(run) -> tuple:
    # repr: return values may be unhashable (lists of stack contents)
    return tuple(sorted((tid, repr(v)) for tid, v in run.returns.items()))


def run_reduction(quick: bool) -> Dict:
    """Schedules-to-saturation: sleep-set vs none, same history sets."""
    out: Dict[str, Dict] = {}
    for name, factory, max_steps in REDUCTION_CASES:
        full = list(explore_all(factory(), max_steps=max_steps))
        reduced = list(
            explore_all(factory(), max_steps=max_steps, reduction="sleep-set")
        )
        assert {_history_key(r) for r in full} == {
            _history_key(r) for r in reduced
        }, f"{name}: sleep-set changed the outcome set"
        out[name] = {
            "full": len(full),
            "sleep_set": len(reduced),
            "factor": len(full) / len(reduced),
        }
    return out


def run_all(bases: int, quick: bool) -> Dict:
    guided = run_guided(bases)
    reduction = run_reduction(quick)
    headline = reduction["exchanger-2"]
    return {
        "experiment": "E21",
        "guided_bar": GUIDED_BAR,
        "reduction_bar": REDUCTION_BAR,
        **guided,
        "reduction": reduction,
        "guided_speedup": guided["guided_speedup"],
        "sleep_set_reduction": headline["factor"],
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_e21_guided_search_under_bars(record):
    summary = run_all(QUICK_BASES, quick=True)
    record(
        guided_speedup=round(summary["guided_speedup"], 4),
        uniform_median=summary["uniform_median"],
        warm_median=summary["warm_median"],
        sleep_set_reduction=round(summary["sleep_set_reduction"], 1),
    )
    assert summary["guided_speedup"] <= GUIDED_BAR, summary
    assert summary["warm_censored"] == 0, summary
    assert summary["sleep_set_reduction"] >= REDUCTION_BAR, summary


# ----------------------------------------------------------------------
# standalone (CI smoke) entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fewer seed bases, CI smoke mode"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the summary dict as JSON"
    )
    args = parser.parse_args(argv)

    bases = QUICK_BASES if args.quick else FULL_BASES
    summary = run_all(bases, quick=args.quick)

    print(f"{'phase':<28} {'median runs-to-bug':>19} {'censored':>9}")
    print("-" * 58)
    print(
        f"{'uniform baseline':<28} {summary['uniform_median']:>19.1f} "
        f"{summary['uniform_censored']:>9}"
    )
    print(
        f"{'warm greybox':<28} {summary['warm_median']:>19.1f} "
        f"{summary['warm_censored']:>9}"
    )
    print(
        f"\nguided speedup {summary['guided_speedup']:.4f} "
        f"(bar {GUIDED_BAR}); corpus {summary['corpus_size']} entries"
    )
    print(f"\n{'workload':<14} {'full':>8} {'sleep-set':>10} {'factor':>8}")
    print("-" * 42)
    for name, row in summary["reduction"].items():
        print(
            f"{name:<14} {row['full']:>8} {row['sleep_set']:>10} "
            f"{row['factor']:>7.1f}x"
        )
    print(
        f"\nsleep-set reduction {summary['sleep_set_reduction']:.1f}x "
        f"(bar {REDUCTION_BAR:.0f}x)"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    ok = (
        summary["guided_speedup"] <= GUIDED_BAR
        and summary["sleep_set_reduction"] >= REDUCTION_BAR
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
