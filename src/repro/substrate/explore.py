"""Exploration drivers: exhaustive DFS over all interleavings, plus
single-run and randomized-run conveniences.

Exhaustive exploration is *stateless*: each run rebuilds the entire world
from a user-supplied ``setup`` factory and replays a prefix of decision
indices recorded by :class:`~repro.substrate.schedulers.ReplayScheduler`.
Backtracking flips the last decision that still has untried alternatives.
This enumerates exactly the runs of the paper's interleaving semantics
(bounded by ``max_steps``, so loops cannot diverge the search).

:class:`ExploreBudget` bounds a whole exploration (runs, total steps,
wall-clock deadline); when the budget trips, enumeration stops cleanly
and the caller can see why — verification drivers degrade to an
``UNKNOWN`` verdict instead of hanging on factorial schedule spaces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.substrate.dpor import DporExplorer, _PrunedRun
from repro.substrate.faults import FaultPlan
from repro.substrate.independence import OPAQUE, Footprint, footprint_of
from repro.substrate.runtime import MEMORY_MODELS, RunResult, Runtime
from repro.substrate.schedulers import (
    RandomScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    Scheduler,
)

SetupFn = Callable[[Scheduler], Runtime]

#: Partial-order-reduction modes accepted by :func:`explore_all`.
REDUCTIONS = ("none", "dpor")


def validate_exploration(
    reduction: str = "none",
    preemption_bound: Optional[int] = None,
    memory_model: Optional[str] = None,
) -> None:
    """Validate a reduction/bound/memory-model combination *up front*.

    Every exploration entry point — :func:`explore_all`, the verify
    drivers, :func:`~repro.checkers.parallel.explore_parallel` and the
    durable drivers — funnels through this check before doing any work
    (emitting trace events, creating campaign rows, forking workers), so
    a bad combination fails fast with one shared message instead of
    surfacing mid-campaign out of a generator.
    """
    problem = None
    if reduction not in REDUCTIONS:
        problem = f"unknown reduction {reduction!r} (choose from {REDUCTIONS})"
    elif memory_model is not None and memory_model not in MEMORY_MODELS:
        problem = (
            f"unknown memory_model {memory_model!r} "
            f"(choose from {MEMORY_MODELS})"
        )
    elif reduction != "none" and preemption_bound is not None:
        problem = (
            f"reduction={reduction!r} is incompatible with preemption_bound "
            "(CHESS bounding changes which continuations exist, invalidating "
            "the covering argument)"
        )
    if problem is not None:
        raise ValueError(f"invalid exploration configuration: {problem}")


@dataclass
class ExploreBudget:
    """A robustness budget for one exploration.

    Any combination of bounds may be set; the first one hit trips the
    budget.  After the exploration, ``tripped``/``reason`` tell the
    caller whether enumeration was exhaustive or cut short (in which
    case any aggregate verdict is an underapproximation — ``UNKNOWN``
    rather than a clean pass).
    """

    max_runs: Optional[int] = None
    step_budget: Optional[int] = None
    deadline: Optional[float] = None  # wall-clock seconds for the whole sweep
    runs: int = 0
    steps: int = 0
    tripped: bool = False
    reason: str = ""
    _started_at: Optional[float] = field(default=None, repr=False)

    def start(self) -> None:
        """Start the deadline clock (idempotent).

        Called by :func:`explore_all` and the verify drivers at entry,
        *before* any per-run setup, so setup time counts against the
        deadline; a budget handed to several sweeps keeps its original
        clock.
        """
        if self._started_at is None:
            self._started_at = time.monotonic()

    def exhausted(self) -> bool:
        """Check (and latch) whether the budget has tripped."""
        if self.tripped:
            return True
        if self._started_at is None:
            self._started_at = time.monotonic()
        if self.max_runs is not None and self.runs >= self.max_runs:
            self._trip(f"run budget exhausted ({self.max_runs} runs)")
        elif self.step_budget is not None and self.steps >= self.step_budget:
            self._trip(f"step budget exhausted ({self.step_budget} steps)")
        elif (
            self.deadline is not None
            and time.monotonic() - self._started_at >= self.deadline
        ):
            self._trip(f"deadline exceeded ({self.deadline}s)")
        return self.tripped

    def charge(self, result: RunResult) -> None:
        self.runs += 1
        self.steps += result.steps

    def stats(self) -> dict:
        """Plain-dict snapshot of the budget's tallies.

        The campaign runners surface this next to a
        :meth:`~repro.obs.metrics.Metrics.snapshot`.
        """
        return {
            "runs": self.runs,
            "steps": self.steps,
            "tripped": self.tripped,
            "reason": self.reason,
        }

    def _trip(self, reason: str) -> None:
        self.tripped = True
        self.reason = reason


def run_once(
    setup: SetupFn,
    scheduler: Optional[Scheduler] = None,
    max_steps: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """Run the program once under ``scheduler`` (round-robin by default)."""
    runtime = setup(scheduler if scheduler is not None else RoundRobinScheduler())
    if faults is not None:
        runtime.inject(faults)
    return runtime.run(max_steps=max_steps)


def run_random(
    setup: SetupFn,
    seed: int = 0,
    max_steps: Optional[int] = None,
    yield_bias: float = 0.0,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """Run once under a seeded random scheduler (reproducible fuzzing).

    The result carries the full decision ``schedule``, replayable via
    :func:`run_schedule` without re-deriving it from the seed.
    """
    scheduler = RandomScheduler(seed=seed, yield_bias=yield_bias)
    runtime = setup(scheduler)
    if faults is not None:
        runtime.inject(faults)
    result = runtime.run(max_steps=max_steps)
    result.schedule = scheduler.choices()
    return result


def run_schedule(
    setup: SetupFn,
    schedule: Sequence[int],
    max_steps: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    clamp: bool = False,
) -> RunResult:
    """Replay a recorded decision schedule (optionally with faults).

    ``clamp`` wraps out-of-range decisions instead of raising — for
    replaying *mutated* schedules during counterexample shrinking.
    """
    scheduler = ReplayScheduler(schedule, clamp=clamp)
    runtime = setup(scheduler)
    if faults is not None:
        runtime.inject(faults)
    result = runtime.run(max_steps=max_steps)
    result.schedule = scheduler.choices()
    return result


class _ReducedScheduler(Scheduler):
    """Thin adapter: forwards decisions to a reduced explorer, logs them."""

    def __init__(self, explorer: DporExplorer) -> None:
        self._explorer = explorer
        self.log: List[Tuple[int, int]] = []

    def choose_thread(self, enabled: Sequence[str]) -> str:
        ordered = tuple(enabled)
        index = self._explorer.on_thread_choice(ordered)
        self.log.append((len(ordered), index))
        return ordered[index]

    def choose_value(self, options: Sequence[Any]) -> Any:
        index = self._explorer.on_value_choice(len(options))
        self.log.append((len(options), index))
        return options[index]

    def choices(self) -> List[int]:
        return [chosen for _, chosen in self.log]


class _UnreducedExplorer:
    """The unreduced DFS (``reduction="none"``) as an explorer of the
    replay loop: each run replays ``prefix`` under a fresh
    :class:`ReplayScheduler`, nothing is pruned or audited, and
    :meth:`backtrack` flips the deepest decision with an untried
    alternative (never a pinned one)."""

    ledger = None
    staged_advance = None
    pruned = None  # its progress events carry no ``pruned`` field
    scheduler: ReplayScheduler  # the last run's, set by new_scheduler

    def __init__(
        self, pin_prefix: Sequence[int], preemption_bound: Optional[int]
    ) -> None:
        self.pinned = len(pin_prefix)
        self.prefix = list(pin_prefix)
        self.preemption_bound = preemption_bound

    def new_scheduler(self) -> ReplayScheduler:
        self.scheduler = ReplayScheduler(
            self.prefix, preemption_bound=self.preemption_bound
        )
        return self.scheduler

    def begin_run(self, runtime: Runtime) -> None:
        pass

    def end_run(self) -> None:
        pass

    def backtrack(self) -> bool:
        log = self.scheduler.log
        depth = len(log) - 1
        while depth >= self.pinned and log[depth][1] + 1 >= log[depth][0]:
            depth -= 1
        if depth < self.pinned:
            return False
        self.prefix = [chosen for _, chosen in log[:depth]] + [log[depth][1] + 1]
        return True


def _explore(
    explorer: Any,
    new_scheduler: Callable[[], Scheduler],
    setup: SetupFn,
    max_steps: Optional[int],
    include_incomplete: bool,
    budget: Optional[ExploreBudget],
    trace,
    progress_every: int,
) -> Iterator[RunResult]:
    """The one replay loop behind every exploration mode.

    ``explorer`` (an :class:`_UnreducedExplorer` or a
    :class:`~repro.substrate.dpor.DporExplorer`) supplies the strategy,
    and ``new_scheduler`` each run's scheduler: ``begin_run`` arms the
    explorer over a fresh runtime, ``end_run`` runs any per-run
    analysis (the DPOR race detection; a no-op otherwise), and
    ``backtrack`` advances to the next unexplored leaf.  The explorer's
    optional ``ledger`` receives each attempt's disposition — every
    attempted schedule is recorded exactly once as executed or pruned,
    which is the reconciliation invariant ``repro report`` audits.
    """
    ledger = explorer.ledger
    root_counted = False
    produced = 0
    attempted = 0
    steps = 0
    started = time.monotonic()
    if budget is not None:
        budget.start()
    while True:
        if budget is not None and budget.exhausted():
            return
        if ledger is not None:
            if not root_counted:
                # One root per exploration entry that attempts at least
                # one schedule.  Each root's first schedule is reached by
                # no backtrack advance, so the books balance as
                # ``executed + pruned == roots + advances`` — an identity
                # that stays exact when per-shard ledgers merge (every
                # shard is its own root).
                ledger.count("schedule.root")
                root_counted = True
            if explorer.staged_advance is not None:
                # Commit the backtrack advance that armed this attempt —
                # staged, not recorded in backtrack itself, so a budget
                # cut between the two leaves the books balanced.
                ledger.record_advance(explorer.staged_advance)
                explorer.staged_advance = None
        scheduler = new_scheduler()
        runtime = setup(scheduler)
        explorer.begin_run(runtime)
        try:
            result: Optional[RunResult] = runtime.run(max_steps=max_steps)
        except _PrunedRun:
            # Redundant continuation: every maximal run below it commutes
            # into a branch already explored.  Charge the partial work.
            explorer.pruned += 1
            result = None
            if budget is not None:
                budget.runs += 1
                budget.steps += runtime.steps
            if ledger is not None:
                ledger.record_pruned("sleep_set")
        explorer.end_run()
        if ledger is not None and result is not None:
            ledger.record_executed(result.completed)
        attempted += 1
        steps += runtime.steps
        if result is not None:
            result.schedule = scheduler.choices()
            if budget is not None:
                budget.charge(result)
        if trace is not None and progress_every and attempted % progress_every == 0:
            tallies = {"attempted": attempted, "runs": produced, "steps": steps}
            if explorer.pruned is not None:
                tallies["pruned"] = explorer.pruned
            trace.emit(
                "campaign_progress",
                driver="explore",
                **tallies,
                elapsed_s=time.monotonic() - started,
            )
        if result is not None and (result.completed or include_incomplete):
            yield result
            produced += 1
        if not explorer.backtrack():
            return


def explore_all(
    setup: SetupFn,
    max_steps: Optional[int] = None,
    include_incomplete: bool = False,
    preemption_bound: Optional[int] = None,
    budget: Optional[ExploreBudget] = None,
    pin_prefix: Sequence[int] = (),
    trace=None,
    progress_every: int = 0,
    reduction: str = "none",
    sleep_seed: Optional[Dict[str, Footprint]] = None,
    provenance=None,
) -> Iterator[RunResult]:
    """Enumerate every run of the program (bounded by ``max_steps``).

    Yields one :class:`RunResult` per distinct decision sequence.  Runs cut
    at ``max_steps`` (unfair schedules that starve a loop, for instance)
    are skipped unless ``include_incomplete`` is set; their prefixes are
    still backtracked, so the search space stays complete up to the bound.

    ``preemption_bound`` switches to CHESS-style context-bounded
    exploration (see :class:`~repro.substrate.schedulers.ReplayScheduler`)
    — essential for programs with retry loops, whose unbounded schedule
    spaces are factorial.  ``budget`` bounds the whole sweep (runs /
    total steps / deadline) and is the one way to stop it early; when it
    trips, enumeration stops and ``budget.tripped`` records why — the
    graceful-degradation path for state-space blowups.  A caller that
    only wants the first few results takes them with
    :func:`itertools.islice`: the generator does no work past the last
    result taken.

    ``pin_prefix`` confines enumeration to the decision subtree under the
    given prefix: the pinned decisions are replayed on every run and
    never backtracked.  The parallel campaign runner shards the schedule
    space by pinning each alternative of the first decision point;
    concatenating the shards in pin order reproduces exactly the
    sequential enumeration order.

    ``trace``/``progress_every`` (see :mod:`repro.obs`) emit one
    ``campaign_progress`` event every ``progress_every`` attempted runs
    — the live-progress hook for open-ended enumerations, usable
    standalone (without any checker driver on top).

    ``reduction`` selects the partial-order-reduction mode; both modes
    run through one replay loop and differ only in the explorer that
    picks each run's decisions and backtracks.  ``"none"`` (the default)
    is the historical exhaustive enumeration, decision sequence for
    decision sequence.  ``"dpor"`` (:mod:`repro.substrate.dpor`) detects
    races in explored runs and schedules only the reversals those races
    demand, as wakeup sequences, while sleep sets cut the branches that
    only commute independent steps of branches already explored (see
    :mod:`repro.substrate.independence` and ``docs/search.md``).  The
    set of complete-run histories — hence verdicts and counterexample
    content — is preserved, while fewer schedules are visited whenever
    any co-enabled steps commute.  The reduction is incompatible with
    ``preemption_bound`` (CHESS bounding changes which continuations
    exist, invalidating the covering argument), and the configuration
    is validated *before* the first run, at call time.

    ``sleep_seed`` (thread -> first-step footprint) seeds the sleep set
    of the first unpinned decision node; the parallel and durable
    drivers use it to hand each ``pin_prefix`` shard the sleep state a
    sequential reduced sweep would carry into that branch, so sharding
    loses no pruning (see :func:`shard_sleep_seeds`).  Ignored by
    ``reduction="none"``.

    ``provenance`` (an :class:`~repro.obs.provenance.ExplorationLedger`)
    records the disposition of every candidate schedule the reduced
    engine considers — executed, pruned, deferred into a wakeup tree,
    spawned by a race reversal — plus race evidence.
    Off by default and observation-only: the explored schedules are
    identical with or without it.  Ignored by ``reduction="none"``
    (unreduced enumeration has no dispositions to audit).
    """
    validate_exploration(reduction, preemption_bound=preemption_bound)
    if reduction == "none":
        explorer: Any = _UnreducedExplorer(pin_prefix, preemption_bound)
        new_scheduler = explorer.new_scheduler
    else:
        explorer = DporExplorer(
            pin_prefix, sleep_seed=sleep_seed, ledger=provenance
        )
        new_scheduler = partial(_ReducedScheduler, explorer)
    return _explore(
        explorer,
        new_scheduler,
        setup,
        max_steps,
        include_incomplete,
        budget,
        trace,
        progress_every,
    )


class _FirstStepProbe(Scheduler):
    """Schedules alternative ``pin`` first, then anything — one step."""

    def __init__(self, pin: int) -> None:
        self._pin = pin
        self.agent: Optional[str] = None

    def choose_thread(self, enabled: Sequence[str]) -> str:
        ordered = tuple(enabled)
        if self.agent is None:
            self.agent = ordered[self._pin]
            return self.agent
        return ordered[0]

    def choose_value(self, options: Sequence[Any]) -> Any:
        return options[0]


def shard_sleep_seeds(
    setup: SetupFn, arity: int
) -> List[Dict[str, Footprint]]:
    """Per-shard sleep seeds for first-decision sharding.

    Runs one probe step under each alternative of the root decision to
    learn which thread it schedules and that step's footprint; shard
    ``k`` then receives ``{thread_j: footprint_j for j < k}`` — exactly
    the sleep set a sequential reduced sweep holds at the root when it
    enters its ``k``-th branch.  This is the backtrack-set exchange that
    makes sharded reduced sweeps prune like unsharded ones.

    A probe whose first step reports no footprint (an injected fault
    fires immediately) is recorded as :data:`~repro.substrate
    .independence.OPAQUE` — the same conservative entry sequential
    backtracking would record for it.
    """
    probes: List[Tuple[Optional[str], Footprint]] = []
    for pin in range(arity):
        scheduler = _FirstStepProbe(pin)
        runtime = setup(scheduler)
        captured: List[Footprint] = []

        def observe(
            tid: str,
            effect: Any,
            _captured: List[Footprint] = captured,
            _runtime: Runtime = runtime,
        ) -> None:
            if not _captured:
                _captured.append(
                    footprint_of(tid, effect, _runtime.memory_model)
                )

        runtime.observer = observe
        runtime.run(max_steps=1)
        probes.append(
            (scheduler.agent, captured[0] if captured else OPAQUE)
        )
    return [
        {agent: fp for agent, fp in probes[:pin] if agent is not None}
        for pin in range(arity)
    ]


def shard_plan(
    setup: SetupFn, max_steps: Optional[int], reduction: str
) -> Tuple[List[List[int]], Optional[List[Dict[str, Footprint]]]]:
    """First-decision shards: each shard's ``pin_prefix`` and sleep seed.

    Shard ``k`` pins alternative ``k`` of the first decision point, or
    one unpinned shard covers a program without a choice there.  Seeds
    (:func:`shard_sleep_seeds`) are ``None`` unless the sweep is reduced
    and sharded.  A pure function of ``setup``, so resume re-shards
    identically.
    """
    scheduler = ReplayScheduler(())
    setup(scheduler).run(max_steps=max_steps)
    arity = scheduler.log[0][0] if scheduler.log else 0
    if arity <= 1:
        return [[]], None
    pins = [[k] for k in range(arity)]
    if reduction == "none":
        return pins, None
    return pins, shard_sleep_seeds(setup, arity)
