"""Layer-attributed campaign benchmark: the harness side.

Spawns one child process per campaign (``child.py``), pools what the
children measured, and reports it.  Two ways to run it, both from the
repository root::

    # all four workloads, 15 interleaved rounds each, printed as a table
    python -m benchmarks.layers [--seed N] [--traced] [--json out.json] [--append]

    # one workload for a fixed time, one JSON line (the BENCHMARK.json contract)
    python -m benchmarks.layers --workload NAME --seed N --seconds S --trace 0|1

    # diagnostic: explore_parallel scaling on exchanger2 (not gated)
    python -m benchmarks.layers --probe parallel

End-to-end metrics come from untraced campaigns.  Per-layer metrics
come from traced campaigns, whose wall time against the untraced median
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.layers.child import WORKLOADS
from benchmarks.layers.seams import LAYERS, layer_metrics

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Campaign stores, artifacts and temp files; listed in .gitignore.
SCRATCH = ROOT / ".layers_bench"
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.jsonl"

#: A child that runs longer than this is killed and its campaign failed.
#: Campaigns take seconds; this keeps a hung one-workload run under 180 s.
CHILD_TIMEOUT_S = 120.0
#: Residual share above which a traced campaign counts as failed.
MAX_RESIDUAL = 0.10
#: Interleaved rounds per workload in the all-workload run: many short
#: campaigns, so a slow stretch of the host moves the median little.
ROUNDS = 15
#: Traced campaigns per workload in the all-workload run's traced pass.
TRACED_ROUNDS = 3

#: End-to-end metrics measured with tracing off, with their units.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sched_p50_ms", "ms"),
    ("sched_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end metrics too noisy on a shared host to gate with a bound:
#: the one-workload run reports them with the per-layer metrics.
UNGATED = ("sched_p99_ms",)

#: Per-layer metrics of the traced pass, with their units.
PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("self_s", "s"), ("calls", "count"))]
    + [
        ("core.history.per_run", "1/run"),
        ("checkers.fuzz.shrink.incl_s", "s"),
        ("checkers.fuzz.shrink.replays", "count"),
        ("search.greybox.admit_ratio", "ratio"),
        ("obs.self_s", "s"),
        ("store.schema.commits", "count"),
        ("substrate.runtime.steps", "count"),
        ("substrate.explore.schedules", "count"),
        ("checkers.nodes", "count"),
        ("residual_share", "ratio"),
        ("trace_overhead", "ratio"),
    ]
)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def prepare() -> None:
    """Fail fast outside a full checkout; byte-compile once.

    Compiling is set-up users pay once per install, not per campaign,
    so it happens before anything is timed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'repro'} not found; run from a full checkout")
    compileall.compile_dir(str(SRC), quiet=1)


def spawn(name: str, seed: int, traced: bool = False, smoke: bool = False) -> Dict[str, Any]:
    """Run one campaign in a fresh child; returns its result dict.

    A child that crashes, hangs or prints no result comes back as
    ``{"error": ...}``, so one bad campaign never stops the run.
    """
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=scratch, SQLITE_TMPDIR=scratch)
    try:
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "benchmarks.layers.child", name, str(seed),
                "smoke" if smoke else "full", "1" if traced else "0",
                repr(spawned_at), scratch,
            ],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{name}: child killed after {CHILD_TIMEOUT_S:.0f} s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"{name}: child exited {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(campaigns: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians over the good untraced campaigns, plus sample counts.

    Schedule latencies are pooled over every campaign before taking
    percentiles, so ``sched_p99_ms`` rests on thousands of samples.
    """
    good = [c for c in campaigns if "error" not in c]
    summary: Dict[str, Any] = {
        "campaigns": len(campaigns),
        "errors": len(campaigns) - len(good),
        "error_rate": (len(campaigns) - len(good)) / len(campaigns) if campaigns else 1.0,
        "metrics": {},
    }
    if not good:
        return summary
    pooled = [ms for c in good for ms in c["sched_ms"]]
    values = {
        "wall_s": (median(c["wall_s"] for c in good), len(good)),
        "setup_s": (median(c["setup_s"] for c in good), len(good)),
        "sched_p50_ms": (percentile(pooled, 50), len(pooled)),
        "sched_p99_ms": (percentile(pooled, 99), len(pooled)),
        "peak_rss_mb": (median(c["peak_rss_mb"] for c in good), len(good)),
    }
    for name, unit in END_TO_END:
        value, samples = values[name]
        summary["metrics"][name] = {"value": value, "unit": unit, "samples": samples}
    return summary


def per_layer(traced: Sequence[Dict[str, Any]], untraced_wall: Optional[float]) -> Dict[str, Any]:
    """Per-layer medians over the good traced campaigns.

    A traced campaign whose residual share reaches :data:`MAX_RESIDUAL`
    is turned into an error: time has left the named layers.
    """
    rows = []
    good = []
    for campaign in traced:
        if "error" in campaign:
            continue
        metrics = layer_metrics(campaign["trace"], campaign["wall_s"])
        if metrics["residual_share"] >= MAX_RESIDUAL:
            campaign["error"] = f"residual share {metrics['residual_share']:.3f}"
            continue
        rows.append(dict(metrics, wall_s=campaign["wall_s"]))
        good.append(campaign)
    summary: Dict[str, Any] = {
        "campaigns": len(traced),
        "errors": len(traced) - len(rows),
        "metrics": {},
    }
    if not rows:
        return summary
    for name, unit in PER_LAYER:
        if name == "trace_overhead":
            if untraced_wall is None:
                continue
            value = median(r["wall_s"] for r in rows) / untraced_wall - 1.0
        else:
            value = median(r[name] for r in rows)
        summary["metrics"][name] = {"value": value, "unit": unit, "samples": len(rows)}
    # Edges of the median campaign, for attributing time by caller.
    summary["edges"] = sorted(good, key=lambda c: c["wall_s"])[len(good) // 2]["trace"]["edges"]
    return summary


# ----------------------------------------------------------------------
# One workload for a fixed time (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def drive(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Campaigns of ``name`` until ``seconds`` would be exceeded.

    With ``trace`` the campaigns alternate untraced/traced (the
    untraced median is the base of ``trace_overhead``).  A campaign is
    not started when the median campaign time so far would overrun.
    """
    deadline = time.perf_counter() + seconds
    kinds = (False, True) if trace else (False,)
    done: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    durations: List[float] = []
    while True:
        traced = kinds[len(durations) % len(kinds)]
        started = time.perf_counter()
        done[traced].append(spawn(name, seed, traced=traced))
        durations.append(time.perf_counter() - started)
        enough = len(durations) >= len(kinds)
        if enough and time.perf_counter() + median(durations) > deadline:
            break
    plain = end_to_end(done[False])["metrics"]
    campaigns = done[False]
    if trace:
        wall = plain.get("wall_s", {}).get("value")
        metrics = dict(per_layer(done[True], wall)["metrics"])
        metrics.update((name, plain[name]) for name in UNGATED if name in plain)
        campaigns = campaigns + done[True]
        wanted = [(name, unit) for name, unit in END_TO_END if name in UNGATED]
        wanted += PER_LAYER
    else:
        metrics = plain
        wanted = [(name, unit) for name, unit in END_TO_END if name not in UNGATED]
    failed = sum(1 for c in campaigns if "error" in c)
    for campaign in campaigns:
        if "error" in campaign:
            print(f"campaign failed: {campaign['error']}", file=sys.stderr)
    complete = all(metric in metrics for metric, _ in wanted)
    return {
        "correct": failed == 0 and complete,
        "attempted": len(campaigns),
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric]["value"], "unit": unit}
            for metric, unit in wanted
            if metric in metrics
        },
    }


# ----------------------------------------------------------------------
# All workloads, interleaved rounds
# ----------------------------------------------------------------------
def campaign_set(seed: int, rounds: int, traced_rounds: int) -> Dict[str, Any]:
    """``rounds`` interleaved rounds of every workload, then a traced pass.

    Interleaving spreads slow spells of the host over every workload
    instead of landing on one.
    """
    plain: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    for round_index in range(rounds):
        for name in WORKLOADS:
            plain[name].append(spawn(name, seed))
        print(f"round {round_index + 1}/{rounds} done", file=sys.stderr)
    report: Dict[str, Any] = {"seed": seed, "rounds": rounds, "workloads": {}}
    for name in WORKLOADS:
        entry = end_to_end(plain[name])
        traced = [spawn(name, seed, traced=True) for _ in range(traced_rounds)]
        if traced:
            entry["layers"] = per_layer(traced, entry["metrics"].get("wall_s", {}).get("value"))
        report["workloads"][name] = entry
        for campaign in plain[name] + traced:
            if "error" in campaign:
                print(f"{name}: campaign failed: {campaign['error']}", file=sys.stderr)
    return report


def render(report: Dict[str, Any]) -> str:
    """The end-to-end table, then the per-layer table when traced."""
    names = list(report["workloads"])
    lines = [f"seed {report['seed']}, {report['rounds']} rounds, one child process per campaign", ""]
    header = f"{'metric':<34}" + "".join(f"{name:>24}" for name in names)
    lines += [header, "-" * len(header)]
    for metric, unit in END_TO_END:
        cells = []
        for name in names:
            cell = report["workloads"][name]["metrics"].get(metric)
            cells.append(
                "n/a" if cell is None else f"{cell['value']:.4g} {unit} (n={cell['samples']})"
            )
        lines.append(f"{metric:<34}" + "".join(f"{c:>24}" for c in cells))
    rates = []
    for name in names:
        entry = report["workloads"][name]
        rates.append(f"{entry['error_rate']:.3g} (n={entry['campaigns']})")
    lines.append(f"{'error_rate':<34}" + "".join(f"{r:>24}" for r in rates))
    if all("layers" in report["workloads"][name] for name in names):
        lines += ["", header, "-" * len(header)]
        for metric, unit in PER_LAYER:
            cells = []
            for name in names:
                cell = report["workloads"][name]["layers"]["metrics"].get(metric)
                cells.append("n/a" if cell is None else f"{cell['value']:.4g}")
            lines.append(f"{metric + ' [' + unit + ']':<34}" + "".join(f"{c:>24}" for c in cells))
    return "\n".join(lines)


def trajectory_row(report: Dict[str, Any]) -> Dict[str, Any]:
    """One compact trajectory row: commit, seed, end-to-end medians."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "seed": report["seed"],
        "medians": {
            name: dict(
                {metric: round(cell["value"], 6) for metric, cell in entry["metrics"].items()},
                error_rate=entry["error_rate"],
            )
            for name, entry in report["workloads"].items()
        },
    }


def failed(report: Dict[str, Any]) -> bool:
    for entry in report["workloads"].values():
        if entry["errors"] or entry.get("layers", {}).get("errors"):
            return True
    return False


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layers",
        description="Layer-attributed campaign benchmark (see README.md).",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload for --seconds and print one JSON line")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="with --workload: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="add a traced pass per workload (all-workload run)")
    parser.add_argument("--json", default="", help="write the full report here")
    parser.add_argument("--append", action="store_true",
                        help="append one row to benchmarks/layers/trajectory.jsonl")
    parser.add_argument("--probe", choices=("parallel",),
                        help="run a diagnostic instead of the benchmark")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    prepare()
    if args.probe:
        print(json.dumps(spawn("probe-parallel", args.seed), indent=2, sort_keys=True))
        return 0
    if args.workload:
        result = drive(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    report = campaign_set(args.seed, ROUNDS, TRACED_ROUNDS if args.traced else 0)
    print(render(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    if args.append:
        with open(TRAJECTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(trajectory_row(report), sort_keys=True) + "\n")
    return 1 if failed(report) else 0
