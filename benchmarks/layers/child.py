"""One campaign of one workload, timed from inside a fresh process.

The harness starts one child per campaign, because CLI users pay
interpreter start, imports and cold caches on every invocation::

    python -m benchmarks.layers.child <workload> <seed> <size> <traced> <spawned_at> <scratch>

``size`` is ``full`` or ``smoke`` (a tiny variant for the CI smoke
test); ``traced`` is ``1`` to install the layer seams first;
``spawned_at`` is the parent's ``time.perf_counter()`` just before the
spawn (CLOCK_MONOTONIC, shared by every process on the host), so set-up
time covers interpreter start; ``scratch`` is a fresh directory for the
campaign store and artifact.  The last line of stdout is one JSON
object; the campaign's own stdout and stderr never reach it.

The workload program receives only its generated inputs: nothing here
changes what the library or the CLI does, only when the clock is read.
This module imports nothing from ``repro`` at top level, so an untraced
child pays only for the imports a user of the workload would.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from typing import Any, Callable, Dict, List, Optional, Sequence

CLOCK = time.perf_counter

#: Schedulers that mark a fuzz *seed* run; shrink replays and probes use
#: others, so their cost lands in the latency of the seed that failed.
SEED_SCHEDULERS = ("RandomScheduler", "PrefixRandomScheduler")


class Campaign:
    """Clock readings and settings of the one campaign this child runs."""

    def __init__(self, seed: int, smoke: bool, scratch: str, tracer=None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.tracer = tracer
        self.stamps: List[float] = []
        self.started = 0.0
        self.ended = 0.0

    def setup(self, fn: Callable, seeds_only: bool) -> Callable:
        """Wrap a workload setup callable: a span when traced, else a
        timestamp per schedule (per seed run when ``seeds_only``)."""
        if self.tracer is not None:
            from benchmarks.layers.seams import SETUP_LAYER

            return self.tracer.wrap(SETUP_LAYER, fn)
        stamps = self.stamps

        def stamped(scheduler):
            if not seeds_only or type(scheduler).__name__ in SEED_SCHEDULERS:
                stamps.append(CLOCK())
            return fn(scheduler)

        return stamped

    def timed(self, fn: Callable[[], Any]) -> Any:
        """Run the campaign proper; its stdout is captured, stderr dropped."""
        out = io.StringIO()
        with open(os.devnull, "w") as devnull:
            with redirect_stdout(out), redirect_stderr(devnull):
                self.started = CLOCK()
                result = fn()
                self.ended = CLOCK()
        return result, out.getvalue()


def _stamp_registry(campaign: Campaign, cli, name: str, seeds_only: bool) -> None:
    """Route the CLI registry's setup for ``name`` through the campaign."""
    workload = cli.WORKLOADS[name]
    make_setup = workload.make_setup
    workload.make_setup = lambda: campaign.setup(make_setup(), seeds_only)


def _summary(text: str) -> Dict[str, Any]:
    """Verdict and tallies from the CLI's printed summary table."""
    lines = text.splitlines()
    title = next(line for line in lines if " — " in line)
    tallies: Dict[str, Any] = {"verdict": title.rsplit(" — ", 1)[1].strip()}
    for line in lines[lines.index(title) + 1:]:
        if not line.strip():
            break
        key, sep, value = line.partition("|")
        if sep and value.strip().isdigit():
            tallies[key.strip()] = int(value)
    return tallies


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def verify_x2_cli(c: Campaign) -> Dict[str, Any]:
    from repro import cli

    _stamp_registry(c, cli, "exchanger2", seeds_only=False)
    argv = ["verify", "--workload", "exchanger2"]
    if c.smoke:
        argv += ["--reduction", "dpor"]
    code, out = c.timed(lambda: cli.main(argv))
    return dict(_summary(out), exit=code)


def verify_x3_dpor(c: Campaign) -> Dict[str, Any]:
    from repro.checkers import verify
    from repro.specs import ExchangerSpec
    from repro.substrate.explore import ExploreBudget
    from repro.workloads.programs import exchanger_program

    setup = c.setup(exchanger_program([3, 4, 7]), seeds_only=False)
    spec = ExchangerSpec("E")
    budget = ExploreBudget(max_runs=200 if c.smoke else 5000)
    report, _ = c.timed(
        lambda: verify.verify_cal(
            setup,
            spec,
            max_steps=2000,
            check_witness=True,
            search=True,
            reduction="dpor",
            budget=budget,
        )
    )
    return {
        "verdict": report.verdict.value.upper(),
        "runs": report.runs,
        "nodes": report.nodes,
        "failures": len(report.failures),
        "incomplete": report.incomplete,
        "budget_tripped": int(budget.tripped),
    }


def fuzz_tso_lib(c: Campaign) -> Dict[str, Any]:
    from repro.checkers import fuzz
    from repro.cli import WORKLOADS

    workload = WORKLOADS["treiber-hazard-tso"]
    setup = c.setup(workload.make_setup(), seeds_only=True)
    spec = workload.make_spec()
    size = 200 if c.smoke else 5000
    report, _ = c.timed(
        lambda: fuzz.fuzz_linearizability(
            setup,
            spec,
            seeds=range(size * c.seed, size * (c.seed + 1)),
            max_steps=workload.max_steps,
            yield_bias=workload.yield_bias,
            check_witness=workload.check_witness,
            guidance="uniform",
        )
    )
    return {
        "verdict": "OK" if report.ok else ("FAIL" if report.failures else "UNKNOWN"),
        "runs": report.runs,
        "failures": len(report.failures),
        "incomplete": report.incomplete,
        "crashed": report.crashed,
        "unknown": report.unknown,
    }


def fuzz_reuse_durable(c: Campaign) -> Dict[str, Any]:
    from repro import cli

    _stamp_registry(c, cli, "treiber-reuse", seeds_only=True)
    seeds, every = ("200", "50") if c.smoke else ("2000", "200")
    artifact = os.path.join(c.scratch, "c.json")
    argv = [
        "fuzz", "--workload", "treiber-reuse", "--seeds", seeds,
        "--guidance", "greybox", "--store", os.path.join(c.scratch, "c.db"),
        "--checkpoint-every", every, "--json", artifact,
    ]
    code, out = c.timed(lambda: cli.main(argv))
    return dict(_summary(out), exit=code, artifact=artifact)


def replay_first_counterexample(outcome: Dict[str, Any]) -> Optional[str]:
    """Replay the artifact's first counterexample; None when it still fails."""
    from repro.checkers.linearizability import LinearizabilityChecker
    from repro.cli import WORKLOADS
    from repro.substrate.explore import run_schedule

    with open(outcome["artifact"], encoding="utf-8") as handle:
        examples = json.load(handle)["counterexamples"]
    if not examples:
        return "artifact embeds no counterexample"
    workload = WORKLOADS["treiber-reuse"]
    run = run_schedule(
        workload.make_setup(), examples[0]["schedule"], max_steps=workload.max_steps
    )
    if not run.completed:
        return "first counterexample replays to a cut run"
    if LinearizabilityChecker(workload.make_spec()).check(run.history).ok:
        return "first counterexample replays to a linearizable history"
    return None


class Workload:
    """A campaign runner with its expected answer and expected seams."""

    def __init__(
        self,
        run: Callable[[Campaign], Dict[str, Any]],
        seeded: bool,
        expect: Dict[str, Any],
        pinned: Dict[str, Any],
        seams: Sequence[str],
        replay: Optional[Callable[[Dict[str, Any]], Optional[str]]] = None,
    ) -> None:
        self.run = run
        #: Whether ``--seed`` changes the input (else every seed is seed 0).
        self.seeded = seeded
        #: Checked on every campaign (the verdict, and the exit code).
        self.expect = expect
        #: Tallies checked on full-size campaigns of the seed-0 input.
        self.pinned = pinned
        #: Layers a traced campaign must enter at least once.
        self.seams = tuple(seams)
        self.replay = replay

    def check(self, outcome: Dict[str, Any], seed: int, smoke: bool) -> Optional[str]:
        wanted = dict(self.expect)
        if not smoke and (seed == 0 or not self.seeded):
            wanted.update(self.pinned)
        wrong = [
            f"{key}={outcome.get(key)!r} (expected {value!r})"
            for key, value in wanted.items()
            if outcome.get(key) != value
        ]
        if wrong:
            return "unexpected answer: " + ", ".join(wrong)
        return self.replay(outcome) if self.replay is not None else None


_VERIFY_SEAMS = (
    "checkers.verify",
    "substrate.explore",
    "substrate.runtime",
    "workloads.setup",
    "core.history",
    "checkers.cal.search",
    "checkers.cal.witness",
)
_FUZZ_SEAMS = (
    "checkers.fuzz",
    "substrate.runtime",
    "workloads.setup",
    "core.history",
    "checkers.linearizability",
)

WORKLOADS: Dict[str, Workload] = {
    "verify-x2-cli": Workload(
        verify_x2_cli,
        seeded=False,
        expect={"verdict": "OK", "exit": 0},
        pinned={"runs": 4622, "nodes": 12830, "failures": 0, "incomplete": 0,
                "unknown": 0},
        seams=_VERIFY_SEAMS + ("cli", "obs.coverage", "obs.profile",
                               "obs.provenance", "obs.tracing"),
    ),
    "verify-x3-dpor": Workload(
        verify_x3_dpor,
        seeded=False,
        # The budget cuts the sweep, so the verdict is UNKNOWN by design.
        expect={"verdict": "UNKNOWN", "failures": 0, "budget_tripped": 1},
        pinned={"runs": 5000, "nodes": 20000, "incomplete": 0},
        seams=_VERIFY_SEAMS + ("substrate.dpor",),
    ),
    "fuzz-tso-lib": Workload(
        fuzz_tso_lib,
        seeded=True,
        expect={"verdict": "OK", "failures": 0},
        pinned={"runs": 5000, "incomplete": 0, "crashed": 0, "unknown": 0},
        seams=_FUZZ_SEAMS,
    ),
    "fuzz-reuse-durable": Workload(
        fuzz_reuse_durable,
        # The CLI fuzz driver always starts at seed 0.
        seeded=False,
        expect={"verdict": "FAIL", "exit": 1},
        pinned={"runs": 2000, "seeds": 2000, "failures": 171, "incomplete": 0},
        seams=_FUZZ_SEAMS + (
            "cli", "store.campaigns", "store.schema", "store.checkpoint",
            "checkers.parallel", "checkers.fuzz.shrink", "search.greybox",
            "obs.coverage", "obs.provenance", "obs.report", "obs.tracing",
        ),
        replay=replay_first_counterexample,
    ),
}


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
def probe_parallel() -> Dict[str, Any]:
    """``explore_parallel`` on exchanger2 inline and across ``nproc`` (≤2)
    forked workers: median wall of three sweeps each, and the pickled
    bytes of the sharded results (what crosses the worker pipes)."""
    import pickle
    from statistics import median

    from repro.checkers.parallel import explore_parallel
    from repro.cli import WORKLOADS as REGISTRY

    workload = REGISTRY["exchanger2"]
    setup = workload.make_setup()
    width = min(2, os.cpu_count() or 1)
    walls: Dict[int, float] = {}
    runs: Dict[int, int] = {}
    for workers in sorted({1, width}):
        times = []
        for _ in range(3):
            started = CLOCK()
            results = explore_parallel(setup, max_steps=workload.max_steps, workers=workers)
            times.append(CLOCK() - started)
        walls[workers] = median(times)
        runs[workers] = len(results)
    for result in results:
        result.world = None  # what the sharded path strips before pickling
    return {
        "probe": "parallel",
        "workers": width,
        "runs": runs[width],
        "wall_s_1": walls[1],
        f"wall_s_{width}": walls[width],
        "speedup": walls[1] / walls[width],
        "pickled_bytes": len(pickle.dumps(results)),
        "agree": runs[1] == runs[width],
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_child(argv: Sequence[str]) -> Dict[str, Any]:
    name, seed, size, traced, spawned_at, scratch = argv
    if name == "probe-parallel":
        return probe_parallel()
    workload = WORKLOADS[name]
    tracer = None
    if traced == "1":
        from benchmarks.layers.seams import Tracer

        tracer = Tracer()
        tracer.install()
    campaign = Campaign(int(seed), size == "smoke", scratch, tracer)
    outcome = workload.run(campaign)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result: Dict[str, Any] = {
        "workload": name,
        "wall_s": campaign.ended - campaign.started,
        "peak_rss_mb": rss_kb / 1024.0,
        "outcome": {k: v for k, v in outcome.items() if k != "artifact"},
    }
    if tracer is not None:
        from benchmarks.layers.seams import SeamError, check_fired

        result["trace"] = tracer.snapshot()
        try:
            check_fired(tracer, workload.seams)
        except SeamError as exc:
            result["error"] = str(exc)
    else:
        stamps = campaign.stamps
        if not stamps:
            result["error"] = "the campaign ran no schedule"
        else:
            result["setup_s"] = stamps[0] - float(spawned_at)
            ends = stamps[1:] + [campaign.ended]
            result["sched_ms"] = [
                round((end - start) * 1000.0, 5) for start, end in zip(stamps, ends)
            ]
    if "error" not in result:
        problem = workload.check(outcome, int(seed), size == "smoke")
        if problem is not None:
            result["error"] = problem
    return result


def main(argv: Sequence[str]) -> int:
    try:
        result = run_child(argv)
    except Exception:  # reported to the harness, which counts the campaign failed
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
