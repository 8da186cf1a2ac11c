"""Whole-program verification drivers.

These tie the substrate to the checkers: explore every interleaving of a
program (exhaustively, up to a step bound) and check each run's history
against a specification — by search (Def. 6 directly) and/or by
validating the recorded auxiliary-trace witness (the paper's
instrumentation-based proof technique, §4–§5).

Both checker families run through one exploration loop; a
:class:`CheckPolicy` carries the only part that differs — how one run is
decided (§3: classic linearizability is CAL over singleton elements).

Robustness: exploration takes an optional
:class:`~repro.substrate.explore.ExploreBudget` and each per-run search a
``node_budget``/``deadline``; when a budget trips, the driver degrades —
falling back from exhaustive search to linear witness validation where it
can — and the report's verdict is ``UNKNOWN`` instead of the process
hanging on a factorial schedule or search space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checkers.caspec import CASpec
from repro.checkers.memo import MemoCALChecker, MemoLinearizabilityChecker
from repro.checkers.result import Verdict
from repro.checkers.seqspec import SequentialSpec
from repro.core.catrace import CATrace
from repro.core.history import History
from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import Metrics, observe_run
from repro.obs.provenance import ExplorationLedger
from repro.obs.report import CounterexampleReport
from repro.substrate.explore import (
    ExploreBudget,
    SetupFn,
    explore_all,
    validate_exploration,
)

#: Driver-name suffix (``verify_<suffix>``, ``fuzz_<suffix>``) of each
#: checker family, keyed by the short name workloads and stores use.
_FAMILIES = {"cal": "cal", "lin": "linearizability"}


def _campaign_registry(metrics) -> Optional[Metrics]:
    """A fresh campaign-local registry of the caller's registry class.

    Instantiating ``type(metrics)`` (not plain :class:`Metrics`) keeps
    profiling registries (:class:`~repro.obs.profile.SearchProfiler`)
    working end-to-end: the campaign-local instance the checkers see
    carries the same hooks as the caller's.
    """
    return type(metrics)() if metrics is not None else None


def _campaign_ledger(provenance):
    """A fresh campaign-local provenance ledger (same discipline as
    :func:`_campaign_registry`): the campaign records into its own
    instance, exposes the snapshot as ``report.provenance``, and merges
    into the caller's ledger on the way out."""
    return type(provenance)() if provenance is not None else None


def _merge_snapshots(cls, mine, theirs):
    """Merge two ``cls.snapshot()`` values (either may be None) — the
    stats, coverage, corpus and provenance currency of report merges."""
    if theirs is None:
        return mine
    if mine is None:
        return cls.from_snapshot(theirs).snapshot()
    return cls.from_snapshot(mine).merge(cls.from_snapshot(theirs)).snapshot()


def _fold_back(report, metrics=None, coverage=None, provenance=None):
    """Merge a merged report's snapshots into the caller's instruments.

    As in the sequential drivers, ``report.stats`` and
    ``report.provenance`` stay the campaign's own, while
    ``report.coverage`` is re-taken from the caller's tracker and so
    reflects all of it.  Returns ``report``.
    """
    if metrics is not None and report.stats is not None:
        metrics.merge(Metrics.from_snapshot(report.stats))
    if coverage is not None and report.coverage is not None:
        coverage.merge(CoverageTracker.from_snapshot(report.coverage))
        report.coverage = coverage.snapshot()
    if provenance is not None and report.provenance is not None:
        provenance.merge(ExplorationLedger.from_snapshot(report.provenance))
    return report


@dataclass
class Failure:
    """One run that violated the specification.

    ``report`` carries the rendered
    :class:`~repro.obs.report.CounterexampleReport` (timeline + replay
    snippet) for the failing run.
    """

    schedule: List[int]
    history: History
    trace: CATrace
    reason: str
    report: Optional[CounterexampleReport] = None

    def __repr__(self) -> str:
        return f"Failure({self.reason}; schedule={self.schedule})"


@dataclass
class VerificationReport:
    """Aggregate outcome of checking every explored run.

    ``unknown`` counts runs whose search was cut by a budget;
    ``budget`` (when supplied) records whether exploration itself was
    cut short.  :attr:`verdict` folds both into the three-valued answer:
    a clean ``OK`` needs every run checked and every check definitive.
    ``stats`` is the driver's :meth:`~repro.obs.metrics.Metrics.snapshot`
    when run with ``metrics=``.
    """

    runs: int = 0
    incomplete: int = 0
    nodes: int = 0
    failures: List[Failure] = field(default_factory=list)
    unknown: int = 0
    budget: Optional[ExploreBudget] = None
    stats: Optional[Dict[str, Dict[str, Any]]] = None
    coverage: Optional[Dict[str, Any]] = None
    #: :meth:`ExplorationLedger.snapshot` of the driver's reduction
    #: audit (None unless run with ``provenance=``).
    provenance: Optional[Dict[str, Any]] = None

    @property
    def verdict(self) -> Verdict:
        if self.failures:
            return Verdict.FAIL
        if (
            self.runs == 0
            or self.unknown
            or (self.budget is not None and self.budget.tripped)
        ):
            return Verdict.UNKNOWN
        return Verdict.OK

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.OK

    def merge(self, other: "VerificationReport") -> None:
        """Fold another report's tallies, failures and stats into this one.

        Like :meth:`~repro.checkers.fuzz.FuzzReport.merge`, the fold is
        associative and order-restoring: a verification campaign sharded
        by ``pin_prefix`` (the durable-campaign checkpoint unit) merges,
        shard by shard in pin order, to exactly the report a single
        unsharded sweep produces.  ``budget`` objects are not merged: a
        budgeted sweep is never sharded, so the campaign runner's merged
        report takes the caller's budget.
        """
        self.runs += other.runs
        self.incomplete += other.incomplete
        self.nodes += other.nodes
        self.unknown += other.unknown
        self.failures.extend(other.failures)
        self.stats = _merge_snapshots(Metrics, self.stats, other.stats)
        self.coverage = _merge_snapshots(
            CoverageTracker, self.coverage, other.coverage
        )
        self.provenance = _merge_snapshots(
            ExplorationLedger, self.provenance, getattr(other, "provenance", None)
        )

    def __repr__(self) -> str:
        verdict = (
            f"{len(self.failures)} failure(s)" if self.failures else self.verdict.name
        )
        extra = f", unknown={self.unknown}" if self.unknown else ""
        return (
            f"VerificationReport({verdict}, runs={self.runs}, "
            f"cut={self.incomplete}, nodes={self.nodes}{extra})"
        )


ViewFn = Callable[[CATrace], CATrace]


@dataclass(frozen=True)
class CheckPolicy:
    """How a campaign decides one run — all that differs between the
    CAL and the linearizability drivers.

    ``family`` names the drivers in trace events (``verify_<family>``,
    ``fuzz_<family>``); ``checker`` is the campaign's decision memo
    (:mod:`repro.checkers.memo`).  ``check_witness`` validates the run's
    recorded witness ``T_o`` (:meth:`witness`, Def. 5); ``search`` looks
    for *some* agreeing spec trace (Def. 6).  ``fallback`` says whether a
    budget-cut search whose run skipped the witness check is decided by
    that check instead: CAL always falls back, linearizability only with
    a ``view`` — a linearizable object's raw trace is not a singleton
    witness unless a view makes it one (E5's ``F_ES``).
    """

    family: str
    checker: Any
    check_witness: bool
    search: bool
    view: Optional[ViewFn]
    fallback: bool

    @classmethod
    def cal(
        cls,
        spec: CASpec,
        check_witness: bool,
        search: bool,
        view: Optional[ViewFn],
    ) -> "CheckPolicy":
        return cls("cal", MemoCALChecker(spec), check_witness, search, view, True)

    @classmethod
    def linearizability(
        cls, spec: SequentialSpec, check_witness: bool, view: Optional[ViewFn]
    ) -> "CheckPolicy":
        return cls(
            "linearizability",
            MemoLinearizabilityChecker(spec),
            check_witness,
            True,
            view,
            view is not None,
        )

    def witness(self, run) -> CATrace:
        """The run's recorded trace, through ``view``, projected on the
        spec's object — §4's ``T_o = F_o(T)|o``."""
        recorded = self.view(run.trace) if self.view is not None else run.trace
        return recorded.project_object(self.checker.spec.oid)

    def witness_problem(
        self, history: History, witness: CATrace, metrics=None
    ) -> Tuple[Optional[str], int]:
        """(why ``witness`` does not justify ``history`` or None, nodes).

        CAL validation records into ``metrics`` and counts its nodes; the
        singleton check of linearizability does neither.
        """
        if self.family == "cal":
            result = self.checker.check_witness(history, witness, metrics=metrics)
        else:
            result = self.checker._check_witness_impl(history, witness, True)
        return (None if result.ok else result.reason), result.nodes


def _record_failure(
    report: VerificationReport,
    run,
    witness: CATrace,
    reason: str,
    oid: str,
    max_steps: Optional[int],
) -> None:
    """Append a Failure with its counterexample report attached."""
    failure = Failure(run.schedule, run.history, witness, reason)
    failure.report = CounterexampleReport.build(
        run.history,
        reason,
        schedule=run.schedule,
        oid=oid,
        max_steps=max_steps,
    )
    report.failures.append(failure)


def verify_cal(
    setup: SetupFn,
    spec: CASpec,
    *,
    check_witness: bool = True,
    search: bool = True,
    view: Optional[ViewFn] = None,
    **campaign,
) -> VerificationReport:
    """Explore all runs of ``setup`` and check CAL w.r.t. ``spec``.

    ``check_witness`` validates the recorded auxiliary trace of each run
    (viewed through ``view`` when the object is composite — §4's
    ``T_o = F_o(T)``); ``search`` independently looks for *some* agreeing
    spec trace (Def. 6).  Enabling both cross-validates instrumentation
    against the definition.

    When a per-run search trips its ``node_budget``/``deadline``, the
    driver falls back to witness validation for that run (if not already
    performed) and counts the run ``unknown`` — degraded but never hung.

    The remaining keywords (``max_steps``, ``preemption_bound``,
    ``budget``, ``node_budget``, ``deadline`` and the campaign keywords
    below) are shared with :func:`verify_linearizability`.  Runs cut at
    ``max_steps`` are counted ``incomplete`` and observed by the
    instruments, but not checked.  ``budget`` is the one way to stop the
    sweep early, and a cut sweep's verdict is ``UNKNOWN``.

    ``metrics``/``trace`` (see :mod:`repro.obs`) observe the driver; the
    driver's counters land in ``report.stats`` and are merged into the
    caller's ``metrics``.  ``coverage``
    (:class:`~repro.obs.coverage.CoverageTracker`) fingerprints every
    explored run; its snapshot lands in ``report.coverage``.  With
    ``progress_every > 0`` and a trace sink, a ``campaign_progress``
    event is emitted every that many explored runs.

    ``pin_prefix`` confines exploration to one decision subtree (see
    :func:`~repro.substrate.explore.explore_all`) — the sharding hook
    durable campaigns checkpoint on: per-shard reports merged in pin
    order (:meth:`VerificationReport.merge`) equal an unsharded sweep.

    ``reduction="dpor"`` prunes commutativity-equivalent interleavings
    during exploration (see :func:`~repro.substrate.explore.explore_all`):
    the verdict and the set of distinct failing histories are preserved,
    with fewer runs checked whenever independent steps commute.
    ``sleep_seed`` hands a sharded reduced sweep the sleep state of its
    siblings (see :func:`~repro.substrate.explore.shard_sleep_seeds`);
    the reduction/bound combination is validated before any trace event
    is emitted.

    ``provenance`` (an :class:`~repro.obs.provenance.ExplorationLedger`)
    audits the reduced engine's schedule dispositions — executed,
    pruned, race-reversed, with race evidence — into a
    campaign-local ledger whose snapshot lands in ``report.provenance``
    and merges into the caller's ledger, mirroring ``metrics``.
    Observation-only: the explored schedules are identical either way.
    """
    policy = CheckPolicy.cal(spec, check_witness, search, view)
    return _verify(policy, setup, **campaign)


def verify_linearizability(
    setup: SetupFn,
    spec: SequentialSpec,
    *,
    check_witness: bool = False,
    view: Optional[ViewFn] = None,
    **campaign,
) -> VerificationReport:
    """Explore all runs of ``setup`` and check classic linearizability.

    With ``check_witness``, the recorded trace (viewed through ``view``)
    must consist of singleton elements forming a legal linearization that
    the history agrees with — the modular elimination-stack proof (E5)
    uses exactly this with ``view = F_ES``.

    Budgets degrade as in :func:`verify_cal`, except that a budget-cut
    search falls back to witness validation only when a view is
    available; the run counts as ``unknown`` either way.  The remaining
    keywords behave as in :func:`verify_cal`.
    """
    policy = CheckPolicy.linearizability(spec, check_witness, view)
    return _verify(policy, setup, **campaign)


def _verify(
    policy: CheckPolicy,
    setup: SetupFn,
    *,
    max_steps: Optional[int] = None,
    preemption_bound: Optional[int] = None,
    budget: Optional[ExploreBudget] = None,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    metrics=None,
    trace=None,
    coverage=None,
    progress_every: int = 0,
    pin_prefix: Sequence[int] = (),
    reduction: str = "none",
    sleep_seed=None,
    provenance=None,
) -> VerificationReport:
    """The exploration loop behind both verify drivers."""
    validate_exploration(reduction, preemption_bound=preemption_bound)
    driver = f"verify_{policy.family}"
    checker = policy.checker
    spec = checker.spec
    report = VerificationReport(budget=budget)
    campaign = _campaign_registry(metrics)
    audit = _campaign_ledger(provenance)
    started = time.monotonic()
    attempted = 0
    if budget is not None:
        budget.start()
    if trace is not None:
        trace.emit("verify_begin", driver=driver, oid=spec.oid)
    for run in explore_all(
        setup,
        max_steps=max_steps,
        include_incomplete=True,
        preemption_bound=preemption_bound,
        budget=budget,
        pin_prefix=pin_prefix,
        reduction=reduction,
        sleep_seed=sleep_seed,
        provenance=audit,
    ):
        if campaign is not None:
            observe_run(campaign, run)
        position, attempted = attempted, attempted + 1
        if coverage is not None:
            coverage.observe_run(position, run.schedule, run.history, oid=spec.oid)
        if trace is not None and progress_every and attempted % progress_every == 0:
            live = {}
            if coverage is not None:
                live["distinct_histories"] = len(coverage.histories)
            trace.emit(
                "campaign_progress",
                driver=driver,
                attempted=attempted,
                runs=report.runs + (1 if run.completed else 0),
                failures=len(report.failures),
                unknown=report.unknown,
                elapsed_s=time.monotonic() - started,
                **live,
            )
        if not run.completed:
            report.incomplete += 1
            continue
        report.runs += 1
        history = run.history
        witness = policy.witness(run)
        if coverage is not None:
            coverage.observe_spec_trace(spec, witness)
        if policy.check_witness:
            problem, nodes = policy.witness_problem(history, witness, campaign)
            report.nodes += nodes
            if problem is not None:
                _record_failure(report, run, witness, problem, spec.oid, max_steps)
                continue
        if not policy.search:
            continue
        result = checker.check(
            history,
            node_budget=node_budget,
            deadline=deadline,
            metrics=campaign,
            trace=trace,
        )
        report.nodes += result.nodes
        if result.unknown:
            report.unknown += 1
            if not policy.check_witness and policy.fallback:
                # Degrade: the linear witness check still decides this
                # run even when search is over budget.
                problem, nodes = policy.witness_problem(history, witness, campaign)
                report.nodes += nodes
                if problem is not None:
                    _record_failure(
                        report, run, witness, problem, spec.oid, max_steps
                    )
            continue
        if not result.ok:
            _record_failure(
                report, run, run.trace, result.reason, spec.oid, max_steps
            )
    if campaign is not None:
        report.stats = campaign.snapshot()
        metrics.merge(campaign)
    if coverage is not None:
        report.coverage = coverage.snapshot()
    if audit is not None:
        report.provenance = audit.snapshot()
        provenance.merge(audit)
    if trace is not None:
        trace.emit(
            "verify_end",
            driver=driver,
            verdict=report.verdict.value,
            runs=report.runs,
            failures=len(report.failures),
            unknown=report.unknown,
        )
    return report

