"""E20: cost of the reclamation substrate and the TSO store-buffer mode.

The hazard substrate runs the *same* manual-reclamation Treiber workload
under every policy (the object code is policy-independent), so the
per-policy cost is pure heap bookkeeping: retired lists, epoch pins,
hazard tables.  The TSO mode adds flush pseudo-steps and store-to-load
forwarding on every read.  This benchmark times a fixed fuzz campaign
per configuration against the ``gc`` baseline and asserts the overheads
stay under generous bars — the substrate must stay cheap enough that
ABA campaigns are routine, not special-occasion.

Runs two ways:

* under pytest (``pytest benchmarks/bench_e20_reclamation_overhead.py``)
  — overhead assertions plus pytest-benchmark records;
* standalone (``python benchmarks/bench_e20_reclamation_overhead.py
  --quick --json out.json``) — the CI smoke mode: a table on stdout,
  machine-readable JSON, non-zero exit if a bar is missed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from repro.checkers.fuzz import fuzz_linearizability
from repro.specs import StackSpec
from repro.workloads.programs import StackWorkload, manual_treiber_program

#: Per-policy wall-clock overhead vs gc (ratio - 1).  Generous: the
#: policies differ only in heap bookkeeping, not in executed steps.
RECLAIM_BAR = 0.60
#: TSO overhead vs sc on the same (hazard) workload.  TSO genuinely
#: executes more steps (one flush per write), so the bar is wider.
TSO_BAR = 2.00

POLICIES = ("free-list", "epoch", "hazard")

FULL_SEEDS = 300
QUICK_SEEDS = 80
ROUNDS = 3

_WORKLOAD = StackWorkload(
    scripts=[
        [("pop",)],
        [("pop",), ("pop",), ("push", 3), ("pop",)],
    ]
)


def _campaign_seconds(policy: str, seeds: int, memory_model: str = "sc") -> float:
    setup = manual_treiber_program(
        _WORKLOAD,
        policy=policy,
        seed_values=(2, 1),
        max_attempts=20,
        memory_model=memory_model,
    )
    spec = StackSpec("S", initial=(2, 1))
    start = time.perf_counter()
    fuzz_linearizability(
        setup,
        spec,
        seeds=range(seeds),
        max_steps=400,
        yield_bias=0.85,
        shrink=False,
    )
    return time.perf_counter() - start


def run_overhead(seeds: int, rounds: int = ROUNDS) -> Dict:
    """Best-of-``rounds`` per-configuration campaign time vs gc."""
    _campaign_seconds("gc", max(4, seeds // 10))  # warm imports off the clock
    best: Dict[str, float] = {}
    for policy in ("gc",) + POLICIES:
        best[policy] = min(
            _campaign_seconds(policy, seeds) for _ in range(rounds)
        )
    tso_s = min(
        _campaign_seconds("hazard", seeds, memory_model="tso")
        for _ in range(rounds)
    )
    baseline = best["gc"]
    reclamation = {
        policy: best[policy] / baseline - 1.0 for policy in POLICIES
    }
    return {
        "experiment": "E20",
        "seeds": seeds,
        "bar": RECLAIM_BAR,
        "tso_bar": TSO_BAR,
        "gc_s": baseline,
        "policy_s": {policy: best[policy] for policy in POLICIES},
        "tso_s": tso_s,
        "reclamation_overhead": reclamation,
        "tso_overhead": tso_s / best["hazard"] - 1.0,
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_e20_reclamation_overhead_under_bar(record):
    summary = run_overhead(QUICK_SEEDS)
    record(
        reclamation_overhead={
            k: round(v, 3) for k, v in summary["reclamation_overhead"].items()
        },
        tso_overhead=round(summary["tso_overhead"], 3),
    )
    worst = max(summary["reclamation_overhead"].values())
    assert worst < RECLAIM_BAR, summary
    assert summary["tso_overhead"] < TSO_BAR, summary


# ----------------------------------------------------------------------
# standalone (CI smoke) entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fewer seeds, CI smoke mode"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the summary dict as JSON"
    )
    args = parser.parse_args(argv)

    seeds = QUICK_SEEDS if args.quick else FULL_SEEDS
    summary = run_overhead(seeds)

    print(f"{'configuration':<18} {'campaign (s)':>13} {'overhead':>9}")
    print("-" * 42)
    print(f"{'gc (baseline)':<18} {summary['gc_s']:>13.3f} {'—':>9}")
    for policy in POLICIES:
        print(
            f"{policy:<18} {summary['policy_s'][policy]:>13.3f} "
            f"{summary['reclamation_overhead'][policy] * 100:>8.1f}%"
        )
    print(
        f"{'hazard + tso':<18} {summary['tso_s']:>13.3f} "
        f"{summary['tso_overhead'] * 100:>8.1f}%"
    )
    worst = max(summary["reclamation_overhead"].values())
    print(
        f"\nworst reclamation overhead {worst * 100:.1f}% "
        f"(bar {RECLAIM_BAR * 100:.0f}%); "
        f"tso overhead {summary['tso_overhead'] * 100:.1f}% "
        f"(bar {TSO_BAR * 100:.0f}%)"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    return 0 if worst < RECLAIM_BAR and summary["tso_overhead"] < TSO_BAR else 1


if __name__ == "__main__":
    sys.exit(main())
