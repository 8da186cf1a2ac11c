"""E19: wall-clock overhead of durable (checkpointed) campaigns.

Times the same fuzz campaign two ways: today's in-memory path
(:func:`repro.checkers.fuzz.fuzz_cal`, what a store-less CLI run
executes) against the durable path
(:func:`repro.store.campaigns.durable_fuzz`: chunked driver, SQLite
campaign row, one committed checkpoint per ``checkpoint_every`` seeds).
The acceptance bar: **checkpointing costs < 5% wall-clock** on the
quick config — durability must be cheap enough to leave on.

The campaign is a six-thread exchanger: every seed yields a distinct
history, so the per-campaign decision memo saves nothing on either
path.  On a memo-friendly workload such as figure3 the durable path
also re-decides, in every chunk, histories that an earlier chunk
already decided, because each chunk starts a fresh memo.  That cost
is not the cost of a checkpoint.

Noise handling follows ``bench_e17``'s overhead check: per-check times
are small and shared machines are noisy, so the reported overhead is
the *best* (lowest) round estimate with an early exit once it drops
under the bar — a genuine regression shifts every round, a noise spike
only some.

Runs two ways:

* under pytest (``pytest benchmarks/bench_e19_checkpoint_overhead.py``);
* standalone (``python benchmarks/bench_e19_checkpoint_overhead.py
  --quick --json out.json``) — the CI smoke mode: a table on stdout,
  machine-readable JSON, non-zero exit if the bar is missed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Dict, List

from repro.checkers.fuzz import fuzz_cal
from repro.specs import ExchangerSpec
from repro.store import CampaignStore, durable_fuzz
from repro.workloads.programs import exchanger_program

OVERHEAD_BAR = 0.05  # durable vs in-memory, same campaign

QUICK = dict(seeds=600, checkpoint_every=25, max_steps=2000)
FULL = dict(seeds=2400, checkpoint_every=50, max_steps=2000)

WORKLOAD = "exchanger6"
SETUP = exchanger_program([3, 4, 7, 11, 13, 17])


def _plain_campaign(config: Dict) -> float:
    spec = ExchangerSpec("E")
    start = time.perf_counter()
    report = fuzz_cal(
        SETUP,
        spec,
        seeds=range(config["seeds"]),
        max_steps=config["max_steps"],
    )
    elapsed = time.perf_counter() - start
    assert report.runs == config["seeds"], report
    return elapsed


def _durable_campaign(config: Dict, directory: str, tag: int) -> float:
    spec = ExchangerSpec("E")
    store_config = dict(config, dedup=False)
    start = time.perf_counter()
    with CampaignStore(os.path.join(directory, f"bench-{tag}.db")) as store:
        report = durable_fuzz(
            store,
            f"bench-{tag}",
            WORKLOAD,
            "cal",
            SETUP,
            spec,
            store_config,
            driver_kwargs=dict(search=False, check_witness=True),
        )
    elapsed = time.perf_counter() - start
    assert report.runs == config["seeds"], report
    return elapsed


def run_overhead(
    config: Dict, rounds: int = 5, bar: float = OVERHEAD_BAR
) -> Dict:
    """Best-round overhead of the durable path over the in-memory path."""
    directory = tempfile.mkdtemp(prefix="bench_e19_")
    chunks = -(-config["seeds"] // config["checkpoint_every"])
    best = float("inf")
    best_plain = best_durable = 0.0
    estimates: List[float] = []
    try:
        _plain_campaign(config)  # warm imports/caches off the clock
        for round_index in range(rounds):
            plain_s = _plain_campaign(config)
            durable_s = _durable_campaign(config, directory, round_index)
            overhead = durable_s / plain_s - 1.0
            estimates.append(overhead)
            if overhead < best:
                best, best_plain, best_durable = overhead, plain_s, durable_s
            if best < bar:
                break
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "experiment": "E19",
        "bar": bar,
        "checkpoint_overhead": best,
        "plain_s": best_plain,
        "durable_s": best_durable,
        "seeds": config["seeds"],
        "checkpoints": chunks,
        "rounds": estimates,
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_e19_checkpoint_overhead_under_bar(record):
    summary = run_overhead(QUICK)
    record(
        checkpoint_overhead_pct=round(summary["checkpoint_overhead"] * 100, 2),
        checkpoints=summary["checkpoints"],
    )
    assert summary["checkpoint_overhead"] < OVERHEAD_BAR, summary


# ----------------------------------------------------------------------
# standalone (CI smoke) entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer seeds, CI smoke mode",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the summary dict as JSON"
    )
    args = parser.parse_args(argv)

    config = QUICK if args.quick else FULL
    summary = run_overhead(config)

    print(
        f"{'campaign':<22} {'plain (s)':>10} {'durable (s)':>12} {'overhead':>9}"
    )
    print("-" * 57)
    print(
        f"fuzz {WORKLOAD} x{summary['seeds']:<5} {summary['plain_s']:>10.3f} "
        f"{summary['durable_s']:>12.3f} "
        f"{summary['checkpoint_overhead'] * 100:>8.2f}%"
    )
    print(
        f"\ncheckpoint overhead ({summary['checkpoints']} commits): "
        f"{summary['checkpoint_overhead'] * 100:.2f}% "
        f"(bar: {OVERHEAD_BAR * 100:.0f}%)"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    return 0 if summary["checkpoint_overhead"] < OVERHEAD_BAR else 1


if __name__ == "__main__":
    sys.exit(main())
