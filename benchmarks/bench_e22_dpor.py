"""E22: source-set DPOR — schedule reduction over the sleep-set engine.

The claim: ``reduction="dpor"`` explores a representative of every
Mazurkiewicz trace *without* the sleep-set engine's enumerate-then-skip
cost, so on every workload it visits at most as many schedules as that
engine did — and strictly fewer where sleep sets only skip the first
step of a covered sibling (TSO, where flush pseudo-threads multiply the
redundant suffixes).  DPOR replaced the sleep-set engine, whose counts
are pinned in :data:`SLEEP_SET_COUNTS`.  Outcome sets must be identical
to the unreduced enumeration on every workload; a reduction that loses
an outcome loses a counterexample.

Reported numbers:

* per workload — unreduced / pinned sleep-set / dpor schedule counts
  and the wall-clock of the unreduced and dpor sweeps;
* ``dpor_reduction`` (headline, gated) — unreduced-to-dpor shrink
  factor on the TSO treiber workload, where both the baseline blow-up
  and the dpor advantage over sleep sets are visible (observed ≈ 300×,
  vs ≈ 150× for sleep sets on the same workload);
* ``dpor_vs_sleep_set`` — sleep-set-to-dpor shrink on that workload
  (observed 2×).

Runs two ways:

* under pytest (``pytest benchmarks/bench_e22_dpor.py``) — assertions
  plus pytest-benchmark records;
* standalone (``python benchmarks/bench_e22_dpor.py --quick --json
  out.json``) — the CI smoke mode: a table on stdout, machine-readable
  JSON, non-zero exit if a bar is missed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from repro.substrate.explore import explore_all
from repro.workloads.programs import (
    StackWorkload,
    dual_stack_program,
    exchanger_program,
    manual_treiber_program,
)

#: The headline workload's unreduced-to-dpor shrink factor must clear
#: this.  Observed ≈ 301× (16875 → 56).
REDUCTION_BAR = 50.0

#: dpor must visit at most as many schedules as sleep-set everywhere.
#: On the headline TSO workload it must be a strict improvement of at
#: least this factor.  Observed 2.0× (112 → 56).
VS_SLEEP_SET_BAR = 1.5

#: The workload whose factors the two bars gate.
HEADLINE = "treiber-gc-tso"

#: Schedules the retired sleep-set engine visited on each workload
#: (``reduction="sleep-set"`` at fbfb47c, the last commit with it).
SLEEP_SET_COUNTS = {
    "exchanger-2": 58,
    "dual-stack": 41,
    "treiber-gc-sc": 56,
    "treiber-gc-tso": 112,
    "rendezvous": 208,
}


def _treiber(memory_model: str):
    return manual_treiber_program(
        StackWorkload(scripts=[[("push", 3)], [("pop",)]]),
        policy="gc",
        seed_values=(1,),
        max_attempts=1,
        memory_model=memory_model,
    )


def _rendezvous_factory():
    from repro.objects.rendezvous import RingRendezvous
    from repro.substrate import Program, World

    def setup(scheduler):
        world = World()
        ring = RingRendezvous(
            world, "RV", slots=1, wait_rounds=1, max_attempts=1
        )
        program = Program(world)
        for index, value in enumerate([3, 4], start=1):
            program.thread(
                f"t{index}", lambda ctx, v=value: ring.exchange(ctx, v)
            )
        return program.runtime(scheduler)

    return setup


#: (name, setup factory, max_steps, in_quick).  The rendezvous space is
#: the largest (70k unreduced schedules) and only runs in full mode.
CASES = (
    ("exchanger-2", lambda: exchanger_program([3, 4]), 200, True),
    (
        "dual-stack",
        lambda: dual_stack_program(
            StackWorkload(scripts=[[("push", 1)], [("pop",)]])
        ),
        150,
        True,
    ),
    ("treiber-gc-sc", lambda: _treiber("sc"), 200, True),
    ("treiber-gc-tso", lambda: _treiber("tso"), 200, True),
    ("rendezvous", _rendezvous_factory, 300, False),
)


def _outcome_set(runs):
    return {
        tuple(sorted((tid, repr(v)) for tid, v in run.returns.items()))
        for run in runs
    }


def _sweep(setup, max_steps: int, reduction: str):
    started = time.perf_counter()
    runs = list(explore_all(setup, max_steps=max_steps, reduction=reduction))
    return runs, time.perf_counter() - started


def run_all(quick: bool) -> Dict:
    workloads: Dict[str, Dict] = {}
    for name, factory, max_steps, in_quick in CASES:
        if quick and not in_quick:
            continue
        setup = factory()
        full, full_s = _sweep(setup, max_steps, "none")
        dpor, dpor_s = _sweep(setup, max_steps, "dpor")
        sleep = SLEEP_SET_COUNTS[name]
        assert _outcome_set(dpor) == _outcome_set(full), (
            f"{name}: dpor changed the outcome set"
        )
        assert len(dpor) <= sleep, (
            f"{name}: dpor visited more schedules than sleep-set"
        )
        workloads[name] = {
            "full": len(full),
            "sleep_set": sleep,
            "dpor": len(dpor),
            "full_s": round(full_s, 3),
            "dpor_s": round(dpor_s, 3),
            "factor": len(full) / len(dpor),
            "vs_sleep_set": sleep / len(dpor),
        }
    headline = workloads[HEADLINE]
    return {
        "experiment": "E22",
        "reduction_bar": REDUCTION_BAR,
        "vs_sleep_set_bar": VS_SLEEP_SET_BAR,
        "workloads": workloads,
        "dpor_reduction": headline["factor"],
        "dpor_vs_sleep_set": headline["vs_sleep_set"],
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_e22_dpor_under_bars(record):
    summary = run_all(quick=True)
    record(
        dpor_reduction=round(summary["dpor_reduction"], 1),
        dpor_vs_sleep_set=round(summary["dpor_vs_sleep_set"], 2),
    )
    assert summary["dpor_reduction"] >= REDUCTION_BAR, summary
    assert summary["dpor_vs_sleep_set"] >= VS_SLEEP_SET_BAR, summary


# ----------------------------------------------------------------------
# standalone (CI smoke) entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="skip the largest workload"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the summary dict as JSON"
    )
    args = parser.parse_args(argv)

    summary = run_all(quick=args.quick)

    print(
        f"{'workload':<15} {'full':>7} {'sleep-set':>10} {'dpor':>6} "
        f"{'factor':>8} {'vs-ss':>6}"
    )
    print("-" * 58)
    for name, row in summary["workloads"].items():
        print(
            f"{name:<15} {row['full']:>7} {row['sleep_set']:>10} "
            f"{row['dpor']:>6} {row['factor']:>7.1f}x {row['vs_sleep_set']:>5.1f}x"
        )
    print(
        f"\ndpor reduction {summary['dpor_reduction']:.1f}x "
        f"(bar {REDUCTION_BAR:.0f}x) on {HEADLINE}; "
        f"vs sleep-set {summary['dpor_vs_sleep_set']:.2f}x "
        f"(bar {VS_SLEEP_SET_BAR}x)"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    ok = (
        summary["dpor_reduction"] >= REDUCTION_BAR
        and summary["dpor_vs_sleep_set"] >= VS_SLEEP_SET_BAR
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
