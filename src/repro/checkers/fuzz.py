"""Randomized (fuzz) verification drivers.

Exhaustive exploration is exact but bounded to small thread counts;
these drivers sample seeded random schedules instead, which scales to
wider workloads (4+ threads, longer scripts) at the price of
probabilistic coverage.

Every failure carries its seed, its full decision ``schedule`` (so
counterexamples replay via :func:`replay` without re-deriving them from
the seed), and the :class:`~repro.substrate.faults.FaultPlan` that was
active, if any.  Campaigns optionally inject faults
(:class:`~repro.substrate.faults.FaultCampaign`): crash/stall a thread
mid-operation, delay a hot loop, fail a CAS spuriously — and the
pending-aware checkers still deliver verdicts for the survivors.
Failures are greedily shrunk (:func:`shrink_failure`): drop faults and
truncate the schedule while the failure persists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.checkers.caspec import CASpec
from repro.checkers.result import Verdict
from repro.checkers.seqspec import SequentialSpec
from repro.checkers.verify import (
    CheckPolicy,
    ViewFn,
    _campaign_ledger,
    _campaign_registry,
    _merge_snapshots,
)
from repro.core.history import History
from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import Metrics, observe_run
from repro.obs.provenance import ExplorationLedger
from repro.obs.report import CounterexampleReport
from repro.substrate.explore import SetupFn, run_random, run_schedule
from repro.substrate.faults import FaultCampaign, FaultPlan
from repro.substrate.runtime import RunResult
from repro.substrate.schedulers import PrefixRandomScheduler, RandomScheduler

Faults = Union[FaultCampaign, FaultPlan, None]

Stats = Optional[Dict[str, Dict[str, Any]]]

Coverage = Optional[Dict[str, Any]]

Corpus = Optional[List[Dict[str, Any]]]

Provenance = Optional[Dict[str, Any]]

#: Schedule-guidance modes accepted by the fuzz drivers.
GUIDANCE_MODES = ("uniform", "greybox")


def _engine_for(guidance: str, corpus, ledger=None):
    """Build the greybox engine for a campaign (None under uniform)."""
    if guidance not in GUIDANCE_MODES:
        raise ValueError(
            f"guidance must be one of {GUIDANCE_MODES}: {guidance!r}"
        )
    if guidance == "uniform":
        return None
    from repro.search.corpus import ScheduleCorpus
    from repro.search.greybox import GreyboxEngine

    if corpus is None:
        corpus = ScheduleCorpus()
    elif not hasattr(corpus, "pick"):  # a snapshot list, not a corpus
        corpus = ScheduleCorpus.from_snapshot(corpus)
    return GreyboxEngine(corpus=corpus, ledger=ledger)


@dataclass
class FuzzFailure:
    """One seeded run that violated the specification.

    ``schedule`` is the run's complete decision sequence and ``plan`` the
    fault plan that was active; together they replay the failing run
    exactly (:func:`replay`), independent of the RNG that produced it.
    ``report`` is the rendered :class:`~repro.obs.report.CounterexampleReport`
    for the (shrunk) failure.
    """

    seed: int
    history: History
    reason: str
    schedule: List[int] = field(default_factory=list)
    plan: Optional[FaultPlan] = None
    report: Optional[CounterexampleReport] = None

    def __repr__(self) -> str:
        plan = f", faults={len(self.plan)}" if self.plan else ""
        return (
            f"FuzzFailure(seed={self.seed}, {self.reason}, "
            f"|schedule|={len(self.schedule)}{plan})"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzzing campaign.

    ``crashed`` counts runs in which at least one thread was halted
    (injected fault or thread exception); such runs are still checked —
    their histories simply contain pending invocations.  ``unknown``
    counts runs whose search check was cut by a budget; ``skipped``
    counts seeds never run because the campaign deadline expired first.
    A report with skipped seeds is not a clean pass over the requested
    range — treat it like a budget-cut exploration.

    ``reports`` collects one :class:`~repro.obs.report.CounterexampleReport`
    per FAIL **and** per budget-cut (UNKNOWN) run.  ``stats`` is the
    campaign's :meth:`~repro.obs.metrics.Metrics.snapshot` when the
    campaign was run with ``metrics=``; parallel campaigns merge worker
    snapshots, so the totals match a sequential run over the same seeds.

    ``deduped`` counts runs whose full schedule digest was already
    verified by a prior campaign (cross-run dedup — the run happened but
    its check was skipped); ``fresh_schedules`` carries the digests of
    newly-verified passing schedules back to the store.  ``quarantined``
    lists chunks the parallel supervisor gave up on (worker kept dying);
    their seeds are included in ``skipped`` — explicit, never silent.
    """

    runs: int = 0
    incomplete: int = 0
    crashed: int = 0
    unknown: int = 0
    skipped: int = 0
    deduped: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    reports: List[CounterexampleReport] = field(default_factory=list)
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    fresh_schedules: List[str] = field(default_factory=list)
    stats: Stats = None
    coverage: Coverage = None
    #: Greybox-campaign corpus snapshot (None under uniform guidance) —
    #: what durable campaigns persist to the store's ``corpus`` table.
    corpus: Corpus = None
    #: :meth:`ExplorationLedger.snapshot` of the campaign's provenance
    #: ledger (None unless the campaign ran with ``provenance=``).
    provenance: Provenance = None

    @property
    def verdict(self) -> Verdict:
        """The :attr:`~repro.checkers.verify.VerificationReport.verdict`
        rule: ``FAIL`` on any failure; ``UNKNOWN`` when no run was
        checked, a search was budget-cut or seeds were skipped (deadline,
        quarantine); ``OK`` only for a clean pass over every seed."""
        if self.failures:
            return Verdict.FAIL
        if self.runs == 0 or self.unknown or self.skipped:
            return Verdict.UNKNOWN
        return Verdict.OK

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.OK

    def merge(self, other: "FuzzReport") -> None:
        """Fold another report's tallies, failures and stats into this one."""
        from repro.search.corpus import ScheduleCorpus

        self.runs += other.runs
        self.incomplete += other.incomplete
        self.crashed += other.crashed
        self.unknown += other.unknown
        self.skipped += other.skipped
        self.deduped += other.deduped
        self.failures.extend(other.failures)
        self.reports.extend(other.reports)
        self.quarantined.extend(other.quarantined)
        self.fresh_schedules.extend(other.fresh_schedules)
        self.stats = _merge_snapshots(Metrics, self.stats, other.stats)
        self.coverage = _merge_snapshots(
            CoverageTracker, self.coverage, other.coverage
        )
        # getattr: reports unpickled from pre-corpus campaign stores
        # restore without the attribute.
        self.corpus = _merge_snapshots(
            ScheduleCorpus, self.corpus, getattr(other, "corpus", None)
        )
        self.provenance = _merge_snapshots(
            ExplorationLedger, self.provenance, getattr(other, "provenance", None)
        )

    def __repr__(self) -> str:
        verdict = (
            f"{len(self.failures)} failure(s)" if self.failures else self.verdict.name
        )
        extra = f", crashed={self.crashed}" if self.crashed else ""
        extra += f", unknown={self.unknown}" if self.unknown else ""
        extra += f", skipped={self.skipped}" if self.skipped else ""
        extra += f", deduped={self.deduped}" if self.deduped else ""
        extra += (
            f", quarantined={len(self.quarantined)}" if self.quarantined else ""
        )
        return (
            f"FuzzReport({verdict}, runs={self.runs}, "
            f"cut={self.incomplete}{extra})"
        )


def _plan_for(faults: Faults, seed: int, tids: Sequence[str]) -> Optional[FaultPlan]:
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults
    return faults.plan(seed, tids)


def _fuzz_run(
    setup: SetupFn,
    seed: int,
    max_steps: Optional[int],
    yield_bias: float,
    faults: Faults,
    engine=None,
) -> Tuple[RunResult, Optional[FaultPlan]]:
    """One seeded run with its (seed-derived) fault plan attached.

    With a greybox ``engine``, the engine may propose a mutated corpus
    prefix for this seed; the run then replays the prefix (clamped) and
    continues with the seed's usual random tail, logging the full
    decision list so the run replays and shrinks like a uniform one.
    A ``None`` proposal — empty corpus, or the exploration coin — is
    the *exact* uniform draw for this seed (same scheduler, same
    stream), so greybox strictly extends the uniform campaign.
    """
    prefix = engine.propose(seed) if engine is not None else None
    if prefix is None:
        scheduler = RandomScheduler(seed=seed, yield_bias=yield_bias)
    else:
        scheduler = PrefixRandomScheduler(
            prefix, seed=seed, yield_bias=yield_bias
        )
    runtime = setup(scheduler)
    plan = _plan_for(faults, seed, runtime.thread_ids)
    if plan is not None:
        runtime.inject(plan)
    result = runtime.run(max_steps=max_steps)
    result.schedule = scheduler.choices()
    return result, plan


def replay(
    setup: SetupFn,
    failure: FuzzFailure,
    max_steps: Optional[int] = None,
) -> RunResult:
    """Reproduce a recorded failure from its stored schedule and plan.

    The returned run's history is identical to ``failure.history`` — no
    re-derivation from the seed, no dependence on RNG internals.
    """
    return run_schedule(
        setup, failure.schedule, max_steps=max_steps, faults=failure.plan
    )


def shrink_failure(
    setup: SetupFn,
    failure: FuzzFailure,
    fails: Callable[[RunResult], Optional[str]],
    max_steps: Optional[int] = None,
    metrics=None,
    trace=None,
) -> FuzzFailure:
    """Greedy counterexample minimization.

    Repeatedly tries (a) dropping one fault from the plan and (b)
    truncating the controlled schedule prefix (halving first, then
    chopping one decision; the replay scheduler defaults the tail), and
    keeps any mutation under which ``fails`` still reports a failure.
    Every accepted mutation strictly shrinks (plan size, prefix length),
    so the loop terminates.  The result replays like any other failure.

    ``metrics`` counts ``shrink.attempts``/``shrink.accepted``; ``trace``
    gets one ``shrink_step`` event per accepted mutation.  Shrink replays
    deliberately do **not** feed the campaign's run/search counters —
    those stay a pure function of the seed range.
    """
    plan = failure.plan
    prefix = list(failure.schedule)
    best = failure

    def attempt(
        candidate_prefix: Sequence[int], candidate_plan: Optional[FaultPlan]
    ) -> Optional[FuzzFailure]:
        if metrics is not None:
            metrics.count("shrink.attempts")
        run = run_schedule(
            setup,
            candidate_prefix,
            max_steps=max_steps,
            faults=candidate_plan,
            clamp=True,
        )
        if not run.completed:
            # A cut run's truncated history can "fail" for bogus reasons;
            # never shrink onto one.
            return None
        reason = fails(run)
        if reason is None:
            return None
        return FuzzFailure(
            failure.seed, run.history, reason, run.schedule, candidate_plan
        )

    def accept(candidate: FuzzFailure) -> None:
        if metrics is not None:
            metrics.count("shrink.accepted")
        if trace is not None:
            trace.emit(
                "shrink_step",
                seed=failure.seed,
                schedule_len=len(candidate.schedule),
                faults=0 if candidate.plan is None else len(candidate.plan),
            )

    improved = True
    while improved:
        improved = False
        if plan is not None and len(plan) > 0:
            for fault in plan:
                smaller = plan.without(fault)
                candidate = attempt(prefix, smaller)
                if candidate is not None:
                    plan, best, improved = smaller, candidate, True
                    accept(candidate)
                    break
            if improved:
                continue
        for new_len in (len(prefix) // 2, len(prefix) - 1):
            if 0 <= new_len < len(prefix):
                candidate = attempt(prefix[:new_len], plan)
                if candidate is not None:
                    prefix, best, improved = prefix[:new_len], candidate, True
                    accept(candidate)
                    break
    return best


def fuzz_cal(
    setup: SetupFn,
    spec: CASpec,
    *,
    check_witness: bool = True,
    search: bool = False,
    view: Optional[ViewFn] = None,
    **campaign,
) -> FuzzReport:
    """Sample random schedules and check CAL on each run.

    Defaults favour witness validation (linear per run) over search,
    since fuzzing targets workloads where search would dominate.  With
    ``faults``, each seed derives a deterministic fault plan; crash runs
    are checked pending-aware (a wait-free exchanger must stay CAL when
    its partner dies mid-exchange).  The remaining keywords (``seeds``,
    ``max_steps``, ``yield_bias``, ``faults``, ``node_budget``,
    ``shrink`` and the campaign keywords below) are shared with
    :func:`fuzz_linearizability`.

    ``deadline_at`` is an absolute ``time.monotonic()`` instant: seeds
    not yet started when it passes are counted ``skipped`` instead of
    run — the shared-deadline hook used by the parallel campaign runner.

    ``metrics``/``trace`` (see :mod:`repro.obs`) observe the campaign.
    The campaign's own counters land in ``report.stats`` and are merged
    into the caller's ``metrics``; shrink replays never feed the run or
    search counters, so (deadline-free) campaign stats are a pure
    function of the seed range.

    ``coverage`` (a :class:`~repro.obs.coverage.CoverageTracker`) records
    every attempted run's schedule prefix / history shape / spec
    transitions; shrink replays are excluded, so the tracker too is a
    pure function of the seed range.  With ``progress_every > 0`` and a
    trace sink, a ``campaign_progress`` event is emitted every that many
    attempted seeds.

    ``dedup`` (:class:`~repro.store.dedup.ScheduleDedup`-shaped: a
    ``digest(schedule)``/``seen(digest)`` pair) skips the *check* for
    fault-free runs whose full schedule digest a prior campaign already
    verified — the run is a pure function of its schedule, so the old
    verdict stands.  Deduped runs count in ``report.deduped``; digests
    of newly-passing schedules accumulate in ``report.fresh_schedules``.
    Dedup consults only the pre-campaign ``known`` set (never digests
    minted during this campaign), so tallies stay partition-transparent
    across the parallel runner's chunking.

    ``guidance="greybox"`` closes the coverage-feedback loop (see
    :mod:`repro.search`): runs that mint new coverage fingerprints
    donate their schedule prefix to a corpus, and later seeds replay
    mutated corpus prefixes instead of drawing purely uniformly.
    ``corpus`` optionally warm-starts the engine — either a
    :class:`~repro.search.corpus.ScheduleCorpus` (mutated in place) or
    a snapshot list from the campaign store; the evolved snapshot lands
    in ``report.corpus``.  ``guidance="uniform"`` (the default) is the
    historical campaign, decision for decision.

    ``provenance`` (an :class:`~repro.obs.provenance.ExplorationLedger`)
    collects the greybox engine's energy/mutation/novelty telemetry —
    observation-only, so guided proposals are identical with or without
    it.  The campaign's own snapshot lands in ``report.provenance`` and
    merges into the caller's ledger, mirroring ``metrics``.
    """
    policy = CheckPolicy.cal(spec, check_witness, search, view)
    return _fuzz(policy, setup, **campaign)


def fuzz_linearizability(
    setup: SetupFn,
    spec: SequentialSpec,
    *,
    check_witness: bool = False,
    view: Optional[ViewFn] = None,
    **campaign,
) -> FuzzReport:
    """Sample random schedules and check linearizability on each run.

    Every run is searched; ``check_witness`` additionally validates the
    recorded singleton witness (viewed through ``view``).  The remaining
    keywords behave as in :func:`fuzz_cal`.
    """
    policy = CheckPolicy.linearizability(spec, check_witness, view)
    return _fuzz(policy, setup, **campaign)


def _fuzz(
    policy: CheckPolicy,
    setup: SetupFn,
    *,
    seeds: Sequence[int] = range(50),
    max_steps: Optional[int] = 5000,
    yield_bias: float = 0.0,
    faults: Faults = None,
    node_budget: Optional[int] = None,
    shrink: bool = True,
    deadline_at: Optional[float] = None,
    metrics=None,
    trace=None,
    coverage=None,
    progress_every: int = 0,
    dedup=None,
    guidance: str = "uniform",
    corpus=None,
    provenance=None,
) -> FuzzReport:
    """The seeded campaign loop behind both fuzz drivers."""
    driver = f"fuzz_{policy.family}"
    checker = policy.checker
    spec = checker.spec
    report = FuzzReport()
    campaign = _campaign_registry(metrics)
    audit = _campaign_ledger(provenance)
    engine = _engine_for(guidance, corpus, audit)
    started = time.monotonic()

    def diagnose(run: RunResult, stats=None, sink=None):
        """(failure reason or None, budget-cut reason or None)."""
        history = run.history
        if policy.check_witness:
            problem, _ = policy.witness_problem(
                history, policy.witness(run), stats
            )
            if problem is not None:
                return problem, None
        if policy.search:
            result = checker.check(
                history, node_budget=node_budget, metrics=stats, trace=sink
            )
            if result.unknown:
                return None, result.reason
            if not result.ok:
                return result.reason, None
        return None, None

    if trace is not None:
        trace.emit(
            "campaign_begin",
            driver=driver,
            seeds=len(seeds),
            faults=faults is not None,
        )
    for position, seed in enumerate(seeds):
        if deadline_at is not None and time.monotonic() >= deadline_at:
            skipped = len(seeds) - position
            report.skipped += skipped
            if campaign is not None:
                campaign.count("fuzz.skipped", skipped)
            if trace is not None:
                trace.emit("campaign_deadline", skipped=skipped)
            break
        run, plan = _fuzz_run(setup, seed, max_steps, yield_bias, faults, engine)
        if engine is not None:
            engine.observe(position, run, oid=spec.oid)
        if campaign is not None:
            campaign.count("fuzz.seeds")
            observe_run(campaign, run)
        if coverage is not None:
            coverage.observe_run(position, run.schedule, run.history, oid=spec.oid)
            if run.completed:
                coverage.observe_spec_trace(spec, policy.witness(run))
        if trace is not None and progress_every and (position + 1) % progress_every == 0:
            live = {}
            if coverage is not None:
                live["distinct_histories"] = len(coverage.histories)
            if engine is not None:
                live.update(engine.stats())
            trace.emit(
                "campaign_progress",
                driver=driver,
                attempted=position + 1,
                total=len(seeds),
                runs=report.runs + (1 if run.completed else 0),
                failures=len(report.failures),
                unknown=report.unknown,
                skipped=report.skipped,
                elapsed_s=time.monotonic() - started,
                **live,
            )
        if not run.completed:
            report.incomplete += 1
            if campaign is not None:
                campaign.count("fuzz.incomplete")
            continue
        report.runs += 1
        if run.crashed:
            report.crashed += 1
        digest = None
        if dedup is not None and plan is None:
            # Fault-free runs only: a fault plan changes the verdict, so
            # schedules are only comparable across campaigns without one.
            digest = dedup.digest(run.schedule)
            if dedup.seen(digest):
                report.deduped += 1
                if campaign is not None:
                    campaign.count("fuzz.deduped")
                continue
        reason, unknown_reason = diagnose(run, campaign, trace)
        if unknown_reason is not None:
            report.unknown += 1
            if campaign is not None:
                campaign.count("fuzz.unknown")
            report.reports.append(
                CounterexampleReport.build(
                    run.history,
                    unknown_reason,
                    verdict="unknown",
                    seed=seed,
                    schedule=run.schedule,
                    plan=plan,
                    oid=spec.oid,
                    max_steps=max_steps,
                )
            )
        if reason is not None:
            if engine is not None:
                engine.record_failure(run)
            failure = FuzzFailure(seed, run.history, reason, run.schedule, plan)
            if shrink:
                failure = shrink_failure(
                    setup,
                    failure,
                    lambda r: diagnose(r)[0],
                    max_steps=max_steps,
                    metrics=campaign,
                    trace=trace,
                )
            failure.report = CounterexampleReport.from_failure(
                failure, oid=spec.oid, max_steps=max_steps
            )
            report.failures.append(failure)
            report.reports.append(failure.report)
            if campaign is not None:
                campaign.count("fuzz.failures")
        elif unknown_reason is None and digest is not None:
            report.fresh_schedules.append(digest)
    if campaign is not None:
        report.stats = campaign.snapshot()
        metrics.merge(campaign)
    if coverage is not None:
        report.coverage = coverage.snapshot()
    if engine is not None:
        report.corpus = engine.corpus.snapshot()
    if audit is not None:
        report.provenance = audit.snapshot()
        provenance.merge(audit)
    if trace is not None:
        trace.emit(
            "campaign_end",
            driver=driver,
            runs=report.runs,
            failures=len(report.failures),
            unknown=report.unknown,
            skipped=report.skipped,
        )
    return report
