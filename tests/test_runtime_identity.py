"""Golden digests of seeded and exhaustive runs.

The interpreter's hot path (the enabled-set cache, the effect dispatch
table, the scheduler bookkeeping) may be optimised, but never allowed to
move a single decision.  Each case below replays a fixed family of runs
and hashes, per run, everything a stored counterexample or artifact
depends on: the scheduler's ``(arity, index)`` log, the counters in
insertion order, the history, the CA-trace, the step count, the crashed
threads and the returns.  Monitored cases also hash every observer and
monitor call with its arguments.

The ``_swept`` cases also hash the budget tallies and progress events
of ``explore_all`` under each of its options.  The pinned digests were
computed before the rewrites they guard.  Print the
current ones with ``PYTHONPATH=src python tests/test_runtime_identity.py``.
"""

from __future__ import annotations

import hashlib
import random
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

from repro import cli
from repro.obs.tracing import TraceSink
from repro.substrate.explore import ExploreBudget, explore_all
from repro.substrate.faults import FaultCampaign
from repro.substrate.schedulers import PrefixRandomScheduler, RandomScheduler
from repro.workloads.programs import store_buffer_litmus


def _run_record(run: Any, log: Any) -> Tuple:
    return (
        list(log),
        list(run.counters.items()),
        repr(run.history),
        repr(run.trace),
        run.steps,
        run.completed,
        sorted(run.crashed.items()),
        repr(run.returns),
    )


class _Recorder:
    """Observer and monitor that log every call with its arguments."""

    def __init__(self) -> None:
        self.calls: List[Tuple] = []

    def observe(self, tid: str, effect: Any) -> None:
        self.calls.append(("observe", tid, type(effect).__name__))

    def on_start(self, world: Any) -> None:
        self.calls.append(("start", repr(world.heap.snapshot())))

    def on_transition(
        self, tid, effect, result, pre, post, pre_trace, post_trace
    ) -> None:
        self.calls.append(
            (
                "transition",
                tid,
                type(effect).__name__,
                repr(result),
                repr(pre),
                repr(post),
                len(pre_trace),
                len(post_trace),
            )
        )

    def on_finish(self, world: Any) -> None:
        self.calls.append(("finish", repr(world.heap.snapshot())))


def _seeded(
    name: str,
    seeds: range,
    faults: Any = None,
    monitored: bool = False,
) -> Iterator[Tuple]:
    workload = cli.WORKLOADS[name]
    setup = workload.make_setup()
    for seed in seeds:
        scheduler = RandomScheduler(seed, yield_bias=workload.yield_bias)
        yield _one(setup, scheduler, seed, workload.max_steps, faults, monitored)


def _one(setup, scheduler, seed, max_steps, faults, monitored) -> Tuple:
    runtime = setup(scheduler)
    if faults is not None:
        runtime.inject(faults.plan(seed, runtime.thread_ids))
    recorder = _Recorder()
    if monitored:
        runtime.monitors.append(recorder)
        runtime.observer = recorder.observe
    run = runtime.run(max_steps=max_steps)
    return _run_record(run, scheduler.log) + (recorder.calls,)


def _prefixed(name: str, seeds: range) -> Iterator[Tuple]:
    """Greybox-style runs: a mutated prefix replayed modulo the arity,
    then the seeded random continuation."""
    workload = cli.WORKLOADS[name]
    setup = workload.make_setup()
    for seed in seeds:
        rng = random.Random(seed)
        prefix = [rng.randrange(5) for _ in range(rng.randrange(30))]
        scheduler = PrefixRandomScheduler(
            prefix, seed=seed, yield_bias=workload.yield_bias
        )
        run = setup(scheduler).run(max_steps=workload.max_steps)
        yield _run_record(run, scheduler.log)


def _litmus(campaign: FaultCampaign, monitored: bool = False) -> Iterator[Tuple]:
    setup = store_buffer_litmus()
    for seed in range(300):
        yield _one(setup, RandomScheduler(seed), seed, 100, campaign, monitored)


def _explored(reduction: str) -> Iterator[Tuple]:
    workload = cli.WORKLOADS["exchanger2"]
    for run in explore_all(
        workload.make_setup(),
        max_steps=workload.max_steps,
        reduction=reduction,
    ):
        yield _run_record(run, run.schedule)


def _swept(
    reduction: str = "none",
    max_steps: int = 0,
    budget: Any = None,
    first: Any = None,
    **options: Any,
) -> Iterator[Tuple]:
    """One ``explore_all`` sweep of exchanger2: every run (or only the
    ``first`` ones), then the budget's tallies, then the
    ``campaign_progress`` events without their clock."""
    workload = cli.WORKLOADS["exchanger2"]
    sink = TraceSink()
    runs = explore_all(
        workload.make_setup(),
        max_steps=max_steps or workload.max_steps,
        budget=budget,
        trace=sink,
        progress_every=97,
        reduction=reduction,
        **options,
    )
    for run in islice(runs, first):
        yield _run_record(run, run.schedule)
    if budget is not None:
        yield budget.stats()
    for event in sink.events:
        yield sorted((k, v) for k, v in event.items() if k != "elapsed_s")


#: name -> run family.  Fault campaigns draw one plan per seed.
CASES: Dict[str, Callable[[], Iterator[Tuple]]] = {
    "treiber-hazard-tso": lambda: _seeded("treiber-hazard-tso", range(300)),
    "treiber-reuse": lambda: _seeded("treiber-reuse", range(300)),
    "msqueue-reclaim": lambda: _seeded("msqueue-reclaim", range(300)),
    "treiber-reuse-prefix": lambda: _prefixed("treiber-reuse", range(200)),
    "treiber-hazard-tso-faults": lambda: _seeded(
        "treiber-hazard-tso",
        range(200),
        faults=FaultCampaign(
            crashes=1, stalls=1, delays=1, cas_failures=1, window=12,
            reuses=1, delayed_frees=1,
        ),
    ),
    "treiber-hazard-tso-monitored": lambda: _seeded(
        "treiber-hazard-tso",
        range(40),
        faults=FaultCampaign(crashes=1, delays=1, window=12),
        monitored=True,
    ),
    "sb-litmus-crash": lambda: _litmus(FaultCampaign(crashes=1, window=4)),
    "sb-litmus-crash-stall": lambda: _litmus(
        FaultCampaign(crashes=1, stalls=1, window=4)
    ),
    "sb-litmus-stall-delay": lambda: _litmus(
        FaultCampaign(crashes=0, stalls=1, delays=2, window=4)
    ),
    "sb-litmus-monitored": lambda: _litmus(
        FaultCampaign(crashes=1, delays=1, window=4), monitored=True
    ),
    "exchanger2-explore-all": lambda: _explored("none"),
    "exchanger2-explore-dpor": lambda: _explored("dpor"),
    "exchanger2-none-progress": lambda: _swept(),
    "exchanger2-none-preemption-bound": lambda: _swept(preemption_bound=2),
    "exchanger2-none-step-cut": lambda: _swept(
        max_steps=14, include_incomplete=True
    ),
    "exchanger2-none-pinned": lambda: _swept(pin_prefix=[1]),
    "exchanger2-none-limit": lambda: _swept(first=500),
    "exchanger2-none-run-budget": lambda: _swept(
        budget=ExploreBudget(max_runs=700)
    ),
    "exchanger2-none-step-budget": lambda: _swept(
        budget=ExploreBudget(step_budget=20_000)
    ),
    "exchanger2-dpor-run-budget": lambda: _swept(
        "dpor", budget=ExploreBudget(max_runs=40)
    ),
}

#: Digests computed at the commit before the hot-path rewrite; the
#: ``_swept`` cases at the commit before the unreduced sweep moved onto
#: the shared replay loop.
PINNED = {
    "exchanger2-explore-all": (
        4622,
        "a767ba4ee486629f6b49da9062562210dfaf668ce114ad2f3e973fc22a338aa4",
    ),
    "exchanger2-explore-dpor": (
        58,
        "59340c6073ed8960a221b57ea6833c9b0914e2acd106ea35fd2448b3783f01dd",
    ),
    "exchanger2-dpor-run-budget": (
        41,
        "043adc87dc4dc9b5679eda1aae57b2606a96233bafe8c8b829f1ec6e535bda3e",
    ),
    "exchanger2-none-limit": (
        505,
        "5a1c106a1ce0f5a279b2e9aceedc36bf431231e3f473d831f53b86e005accc69",
    ),
    "exchanger2-none-pinned": (
        2334,
        "d03883e4dbe7c35b8f7108c3a0c55bf39b641a43b5ed6eabd7c87cf5929ea23f",
    ),
    "exchanger2-none-preemption-bound": (
        92,
        "dc083d0222c1003b870f71c25fa7cd8d17d8816ef5de2a56b9e6bb9d5eef9132",
    ),
    "exchanger2-none-progress": (
        4669,
        "531263313866964c47873cdafbd5f8a312f45952aa2e935310c2122bc53ceb53",
    ),
    "exchanger2-none-run-budget": (
        708,
        "434fc589e019e84c554d8cbc2bde4c9c98309e4c9bbc317e5ae6eb029a055be6",
    ),
    "exchanger2-none-step-budget": (
        1362,
        "4fb38ccdb26615789507c8e917d69c2e61d5c127758de89dd65c42c651dd1652",
    ),
    "exchanger2-none-step-cut": (
        4669,
        "0a26185cbf6923b68d0f623f38c7f35240430b884c020308cf9d758340f0adc6",
    ),
    "msqueue-reclaim": (
        300,
        "faa08207605a0b484c65c978ae299cb9c75fef0c73bfa09abb0fe63672bf27c7",
    ),
    "sb-litmus-crash": (
        300,
        "df078174258424451f5581c295321432d4be883470ce67cdf0d768e2b0ab23cf",
    ),
    "sb-litmus-crash-stall": (
        300,
        "9011ccb26e497baaa467076f73e592ffff5f9244b15ff2cda3ba6ffc0e05c09c",
    ),
    "sb-litmus-monitored": (
        300,
        "2d782d7ce1474113cdad038a754b3ab895f19b33c037930fe4be6040685b0db8",
    ),
    "sb-litmus-stall-delay": (
        300,
        "8f3a0e3d61739c4de1f3f2e71f5ece390b7b13896ae01ef92d6bcb0e53363917",
    ),
    "treiber-hazard-tso": (
        300,
        "8a0d0465eff9d12bf5448a305d8a272358e9550753b5e17a3d7a83c69ef24e45",
    ),
    "treiber-hazard-tso-faults": (
        200,
        "2af8d8d190e9dab5787cd4d832b1e29c850baa4142837c793cf4b0c8170804c3",
    ),
    "treiber-hazard-tso-monitored": (
        40,
        "5d06d5292de084f7973b1a7bf7b8de00f909aae421a977bae7c72511f14121b2",
    ),
    "treiber-reuse": (
        300,
        "3e669fd8128e3c796ce4a7818f9f36ed136d198e1c81ed0ea36de16d9ee4ff47",
    ),
    "treiber-reuse-prefix": (
        200,
        "802d0219b8b46f36076bb37f9b4461a79e2b84839776fcebfcc88aa3e59c7aa9",
    ),
}


def digest(name: str) -> Tuple[int, str]:
    """(number of runs, sha256 over their records) for one case."""
    sha = hashlib.sha256()
    count = 0
    for record in CASES[name]():
        sha.update(repr(record).encode())
        sha.update(b"\n")
        count += 1
    return count, sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_runs_match_pinned_digest(name):
    assert digest(name) == PINNED[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        count, sha = digest(case)
        print(f'    "{case}": (\n        {count},\n        "{sha}",\n    ),')
