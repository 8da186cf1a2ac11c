"""E23: exploration provenance — a free audit trail for reduced search.

The claim: the :class:`~repro.obs.provenance.ExplorationLedger` is pure
observation.  With the ledger **off** (the default) the reduced engines
are byte-identical to the pre-ledger code path — same schedules, in the
same order, with the same outcomes.  With the ledger **on**, recording
the disposition of every candidate schedule (executed / pruned /
race-reversed, with race evidence under dpor) costs less than
:data:`OVERHEAD_BAR` wall-clock on the E22 workload set, and the books
balance: ``visited == executed + pruned == roots + advances`` exactly.

Reported numbers:

* per workload — schedule counts and off/on wall-clock for the
  sleep-set and dpor sweeps, plus the reconciliation verdict;
* ``provenance_overhead`` (headline, gated) — the aggregate
  enabled-to-disabled wall-clock ratio (total on-time over total
  off-time across all sweeps) minus 1, so 0.04 means recording costs
  4%.  Aggregate rather than a per-sweep median: the shortest sweeps
  are ~10ms and their individual ratios are timer jitter.

Runs two ways:

* under pytest (``pytest benchmarks/bench_e23_provenance_overhead.py``)
  — assertions plus pytest-benchmark records;
* standalone (``python benchmarks/bench_e23_provenance_overhead.py
  --quick --json out.json``) — the CI smoke mode: a table on stdout,
  machine-readable JSON, non-zero exit if a bar is missed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from repro.obs.provenance import ExplorationLedger
from repro.substrate.explore import explore_all

try:  # package-style (pytest collects benchmarks/ as a package)
    from benchmarks.bench_e22_dpor import CASES
except ImportError:  # standalone: python benchmarks/bench_e23_provenance_overhead.py
    from bench_e22_dpor import CASES

#: Aggregate enabled-to-disabled wall-clock ratio must stay under this.
#: The acceptance bar is < 10%; observed ≈ 2–3% (the ledger is a
#: handful of dict increments per schedule).
OVERHEAD_BAR = 0.10

#: Off/on sweeps are timed interleaved this many times and the minimum
#: of each kept, so the ratio measures the recording cost rather than
#: scheduler jitter (the sweeps are tens of milliseconds).
REPEATS = 5

REDUCTIONS = ("sleep-set", "dpor")


def _fingerprint(runs):
    """Order-sensitive identity of a sweep: every schedule + outcome."""
    return [
        (tuple(run.schedule), run.completed,
         tuple(sorted((tid, repr(v)) for tid, v in run.returns.items())))
        for run in runs
    ]


def _timed_sweep(setup, max_steps: int, reduction: str, ledger):
    started = time.perf_counter()
    runs = list(
        explore_all(
            setup,
            max_steps=max_steps,
            reduction=reduction,
            provenance=ledger,
        )
    )
    return runs, time.perf_counter() - started


def run_all(quick: bool) -> Dict:
    workloads: Dict[str, Dict] = {}
    total_off = total_on = 0.0
    for name, factory, max_steps, in_quick in CASES:
        if quick and not in_quick:
            continue
        setup = factory()
        row: Dict = {}
        for reduction in REDUCTIONS:
            off_s = on_s = None
            off_runs = on_runs = ledger = None
            for _ in range(REPEATS):
                off_runs, elapsed = _timed_sweep(
                    setup, max_steps, reduction, None
                )
                off_s = elapsed if off_s is None else min(off_s, elapsed)
                ledger = ExplorationLedger()
                on_runs, elapsed = _timed_sweep(
                    setup, max_steps, reduction, ledger
                )
                on_s = elapsed if on_s is None else min(on_s, elapsed)

            assert _fingerprint(on_runs) == _fingerprint(off_runs), (
                f"{name}/{reduction}: the ledger changed the exploration"
            )
            visited = ledger.get("schedule.executed") + sum(
                ledger.prune_causes().values()
            )
            audit = ledger.reconcile(visited)
            assert audit["balanced"], f"{name}/{reduction}: {audit}"
            # include_incomplete=False yields only completed runs; cut
            # runs still executed (and count as such on the books).
            assert audit["completed"] == len(on_runs), (
                f"{name}/{reduction}: completed {audit['completed']} != "
                f"{len(on_runs)} results"
            )
            total_off += off_s
            total_on += on_s
            ratio = on_s / off_s if off_s else 1.0
            key = reduction.replace("-", "_")
            row[key] = {
                "schedules": len(on_runs),
                "pruned": audit["pruned"],
                "off_s": round(off_s, 4),
                "on_s": round(on_s, 4),
                "ratio": round(ratio, 3),
                "balanced": audit["balanced"],
            }
        workloads[name] = row
    # Aggregate, not per-sweep median: weighting by wall-clock keeps
    # the headline stable when the shortest sweeps (~10ms) jitter.
    overhead = total_on / total_off - 1.0 if total_off else 0.0
    return {
        "experiment": "E23",
        "overhead_bar": OVERHEAD_BAR,
        "workloads": workloads,
        "provenance_overhead": round(overhead, 4),
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_e23_provenance_under_bar(record):
    summary = run_all(quick=True)
    record(provenance_overhead=summary["provenance_overhead"])
    assert summary["provenance_overhead"] < OVERHEAD_BAR, summary


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
        f"{'workload':<15} {'engine':<10} {'sched':>6} {'pruned':>7} "
        f"{'off':>8} {'on':>8} {'ratio':>6}"
    )
    print("-" * 66)
    for name, row in summary["workloads"].items():
        for engine, cell in row.items():
            print(
                f"{name:<15} {engine:<10} {cell['schedules']:>6} "
                f"{cell['pruned']:>7} {cell['off_s']:>7.3f}s "
                f"{cell['on_s']:>7.3f}s {cell['ratio']:>5.2f}x"
            )
    print(
        f"\nprovenance overhead {summary['provenance_overhead']:+.1%} "
        f"(bar {OVERHEAD_BAR:.0%}); every sweep balanced and "
        f"byte-identical to the ledger-off path"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    return 0 if summary["provenance_overhead"] < OVERHEAD_BAR else 1


if __name__ == "__main__":
    sys.exit(main())
