"""The CAL checker (Definitions 5 and 6).

Decides whether a history is concurrency-aware linearizable w.r.t. a
CA-spec, by searching for a CA-trace in the spec that the (completed)
history agrees with.

The search works directly from the structure of Def. 5: process the
history's operations in rounds, each round emitting one CA-element.
Candidates for a round are the non-empty subsets of the current
*frontier* (operations whose every real-time predecessor has already been
emitted) — frontier operations are pairwise concurrent by construction,
so any subset is a legal CA-element as far as the real-time order is
concerned; the spec's ``step`` decides which subsets are semantically
admissible.  Memoization on (emitted-set, spec-state) keeps the search
polynomial in practice for the small widths that matter.

This is the only agreement search in the package: classic
linearizability is the same search over singleton elements (§3), and
:class:`~repro.checkers.linearizability.LinearizabilityChecker` only
overrides the element shape — see :class:`CALChecker`.

:meth:`CALChecker.check_witness` validates a *recorded* trace (the
auxiliary variable ``T`` of §4, projected/viewed for the object) instead
of searching: the instrumentation's witness must (a) be in the spec and
(b) agree with the observed history.  This is the executable counterpart
of the paper's proof technique — the proofs establish exactly that the
instrumented assignments always produce such a witness.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.checkers.caspec import CASpec
from repro.checkers.result import CheckResult, SearchBudget, Verdict
from repro.checkers._search import (
    SearchProblem,
    flush_search_tallies,
    iter_bits,
    structural_key,
    subset_masks,
)
from repro.core.actions import Invocation, Operation
from repro.core.agreement import agrees
from repro.core.catrace import CAElement, CATrace
from repro.core.history import History, OperationSpan
from repro.substrate.errors import BudgetExceeded


def complete_from_witness(history: History, trace: CATrace) -> History:
    """Resolve a crash run's pending invocations against a recorded witness.

    A thread that died mid-operation leaves a pending invocation in ``H``.
    The instrumentation's trace ``T`` already says what became of it: if
    the witness contains an operation for the invocation (e.g. the partner
    *did* complete the swap before the thread died), the invocation is
    extended with that operation's response; otherwise the operation never
    took effect and the invocation is dropped.  This is the deterministic
    ``complete(H)`` choice dictated by the witness — linear, no search.

    Matching is positional per signature: a witness operation is only
    used to complete the pending invocation if the history does not
    already contain enough completed operations of the same
    ``(tid, oid, method, args)`` to account for it.  The signature maps
    are built once, so each pending invocation resolves in O(1) instead
    of rescanning all operations of ``H`` and ``T``.
    """
    if not history.pending_invocations():
        return history

    def signature(op) -> Tuple:
        return (op.tid, op.oid, op.method, op.args)

    completed_counts = Counter(signature(op) for op in history.operations())
    trace_index: Dict[Tuple, List[Operation]] = {}
    for element in trace:
        for op in element.operations:
            trace_index.setdefault(signature(op), []).append(op)

    def resolver(invocation: Invocation):
        key = (invocation.tid, invocation.oid, invocation.method, invocation.args)
        already = completed_counts[key]
        matches = trace_index.get(key, ())
        if len(matches) > already:
            return matches[already].value
        return None

    return history.complete_with(resolver)


class CALChecker:
    """Decides ``H`` CAL w.r.t. a CA-spec (Def. 6).

    The search, its budgets and its instrumentation are shared with
    :class:`~repro.checkers.linearizability.LinearizabilityChecker`,
    which is this search over singleton elements (§3).  The two differ
    only in the class attributes below, the two search hooks
    :meth:`_transition` (how a candidate advances the spec) and
    :meth:`_witness` (how the path becomes a CA-trace), and
    :meth:`_trace_problem` (when a recorded trace is in the spec).
    """

    #: Prefix of the counters, trace events and profiler buckets.
    _name = "cal"
    #: Reason of a definitive FAIL: no completion has an agreeing trace.
    _not_found = "no agreeing CA-trace found"
    #: Candidate elements of a frontier, as submasks: every non-empty
    #: subset, smallest first.
    _candidates = staticmethod(subset_masks)

    def __init__(self, spec: CASpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    def check(
        self,
        history: History,
        project: bool = True,
        node_budget: Optional[int] = None,
        deadline: Optional[float] = None,
        metrics=None,
        trace=None,
    ) -> CheckResult:
        """Search for a spec CA-trace that some completion agrees with.

        ``node_budget``/``deadline`` bound the search across *all*
        completions; when either trips, the result is ``UNKNOWN`` rather
        than a hang (see :class:`~repro.checkers.result.Verdict`).

        ``metrics``/``trace`` (see :mod:`repro.obs`) record search
        statistics and phase events; both default off, and neither can
        change the verdict or the node count.
        """
        instrumented = metrics is not None or trace is not None
        started = time.perf_counter() if instrumented else 0.0
        if trace is not None:
            trace.emit(
                "check_begin",
                checker=self._name,
                oid=self.spec.oid,
                actions=len(history),
            )
        result = self._check_impl(history, project, node_budget, deadline, metrics, trace)
        if metrics is not None:
            name = self._name
            metrics.count(f"{name}.checks")
            if result.unknown:
                metrics.count(f"{name}.unknown")
            elif not result.ok:
                metrics.count(f"{name}.failures")
            metrics.add_time(f"{name}.check_s", time.perf_counter() - started)
        if trace is not None:
            trace.emit(
                "check_end",
                checker=self._name,
                oid=self.spec.oid,
                verdict=result.verdict.value,
                nodes=result.nodes,
                reason=result.reason,
            )
        return result

    def _check_impl(
        self,
        history: History,
        project: bool,
        node_budget: Optional[int],
        deadline: Optional[float],
        metrics,
        trace,
    ) -> CheckResult:
        target = history.project_object(self.spec.oid) if project else history
        if not target.is_well_formed():
            return CheckResult(False, reason="ill-formed history")
        if not project and any(action.oid != self.spec.oid for action in target):
            # Def. 5: a CA-trace of this object can only explain this
            # object's operations (a projection holds no others).
            return CheckResult(
                False, reason="history contains other objects' operations"
            )
        budget = SearchBudget(node_budget=node_budget, deadline=deadline)
        best = CheckResult(False, reason=self._not_found)
        candidates = lambda inv: self.spec.response_candidates_in(inv, target)
        # Structural-cache counters are deliberately *per-call*: a repeat
        # shape within one check is a guaranteed cache hit and a pure
        # function of the history, so the counts stay deterministic (the
        # warm process-wide cache can only do better — see
        # repro.checkers._search.mask_cache_stats for that diagnostic).
        shapes: Set[Tuple[Tuple[int, int], ...]] = set()
        if metrics is not None:
            completions = f"{self._name}.completions"
            begin_check = getattr(metrics, "begin_check", None)
            if begin_check is not None:
                begin_check(self._name, self.spec.oid)
            enter_completion = getattr(metrics, "enter_completion", None)
        try:
            for completion in target.completions(candidates):
                if metrics is not None:
                    metrics.count(completions)
                    shape = structural_key(completion.spans())
                    if shape in shapes:
                        metrics.count("search.structural_cache_hits")
                    else:
                        shapes.add(shape)
                        metrics.count("search.structural_cache_misses")
                    if enter_completion is not None:
                        enter_completion(len(completion.spans()))
                result = self._check_complete(completion, budget, metrics)
                best.nodes += result.nodes
                if result.ok:
                    result.nodes = best.nodes
                    return result
        except BudgetExceeded as exceeded:
            if metrics is not None:
                metrics.count("search.budget_trips")
            if trace is not None:
                trace.emit(
                    "budget_trip",
                    checker=self._name,
                    reason=str(exceeded),
                    nodes=budget.nodes,
                )
            return CheckResult(
                False,
                nodes=budget.nodes,
                reason=str(exceeded),
                verdict=Verdict.UNKNOWN,
            )
        return best

    # ------------------------------------------------------------------
    def _transition(
        self, spans: Sequence[OperationSpan]
    ) -> Tuple[Callable, Callable]:
        """``(label, step)`` for a search over ``spans``: ``label(subset)``
        is the CA-element of the operations in ``subset`` (a mask), and
        ``step(state, label)`` the spec successor, or None on rejection."""
        oid = self.spec.oid

        def label(subset: int) -> CAElement:
            ops = [spans[i].operation for i in iter_bits(subset)]
            return CAElement(oid, ops)  # type: ignore[arg-type]

        return label, self.spec.step

    def _witness(self, labels: List[Any]) -> CATrace:
        """The witness of a successful search from its path's labels."""
        return CATrace(labels)

    def _check_complete(
        self,
        history: History,
        budget: Optional[SearchBudget] = None,
        metrics=None,
    ) -> CheckResult:
        """Explicit-stack DFS over (taken-mask, spec-state) nodes.

        Taken-sets are int bitmasks; spec states are interned to small
        ids so memo keys are ``(int, int)`` pairs; frontiers update
        incrementally through the problem's successor masks; candidate
        subsets come lazily from :attr:`_candidates` and advance the spec
        through :meth:`_transition`; :meth:`_witness` assembles the
        witness from the labels along the DFS path.

        Search statistics are kept as local ints (the metrics-off path
        pays only the increments) and flushed once on every exit —
        including a budget trip — via ``flush_search_tallies``.
        """
        problem = SearchProblem.of(history, validate=False)
        full = problem.full_mask
        label_of, step = self._transition(problem.spans)
        moves = self._candidates
        seen: Set[Tuple[int, int]] = set()
        state_ids: Dict[Hashable, int] = {}
        path: List[Any] = []
        nodes = 1
        memo_hits = memo_misses = cand_tried = rejections = 0
        frames = 1
        frontier_sum = frontier_max = 0
        if budget is not None:
            budget.charge()

        initial = self.spec.initial()
        if full == 0:
            if metrics is not None:
                flush_search_tallies(metrics, nodes, 0, 0, 0, 0, 0, 0, 0)
            return CheckResult(
                True, witness=CATrace([]), completion=history, nodes=nodes
            )
        seen.add((0, state_ids.setdefault(initial, 0)))
        root_frontier = problem.frontier_mask(0)
        width = root_frontier.bit_count()
        frontier_sum += width
        frontier_max = width
        # Frame: (taken, frontier, state, pending-candidate iterator).  The
        # label taken to reach a frame sits in ``path`` at the frame's
        # depth − 1; popping a non-root frame pops it.
        stack = [(0, root_frontier, initial, moves(root_frontier))]
        try:
            while stack:
                taken, frontier, state, candidates = stack[-1]
                pushed = False
                for subset in candidates:
                    cand_tried += 1
                    label = label_of(subset)
                    successor = step(state, label)
                    if successor is None:
                        rejections += 1
                        continue
                    nodes += 1
                    if budget is not None:
                        budget.charge()
                    path.append(label)
                    new_taken = taken | subset
                    if new_taken == full:
                        return CheckResult(
                            True,
                            witness=self._witness(path),
                            completion=history,
                            nodes=nodes,
                        )
                    state_id = state_ids.setdefault(successor, len(state_ids))
                    key = (new_taken, state_id)
                    if key in seen:
                        memo_hits += 1
                        path.pop()
                        continue
                    memo_misses += 1
                    seen.add(key)
                    new_frontier = problem.next_frontier(frontier, new_taken, subset)
                    frames += 1
                    width = new_frontier.bit_count()
                    frontier_sum += width
                    if width > frontier_max:
                        frontier_max = width
                    stack.append(
                        (new_taken, new_frontier, successor, moves(new_frontier))
                    )
                    pushed = True
                    break
                if not pushed:
                    stack.pop()
                    if stack:
                        path.pop()
            return CheckResult(False, reason=self._not_found, nodes=nodes)
        finally:
            if metrics is not None:
                flush_search_tallies(
                    metrics,
                    nodes,
                    memo_hits,
                    memo_misses,
                    cand_tried,
                    rejections,
                    frames,
                    frontier_sum,
                    frontier_max,
                )

    # ------------------------------------------------------------------
    def check_witness(
        self,
        history: History,
        trace: CATrace,
        project: bool = True,
        metrics=None,
    ) -> CheckResult:
        """Validate a recorded witness trace against the observed history.

        Checks (a) ``trace ∈ spec`` and (b) ``H ⊑_CAL trace`` (Def. 5).

        Pending invocations (crashed/stalled threads) are resolved against
        the witness first (:func:`complete_from_witness`): completed with
        the response the trace records for them, or dropped when the trace
        shows the operation never took effect.  A wait-free exchanger must
        stay CAL when its partner dies mid-exchange — this is where that
        is decided.
        """
        result = self._check_witness_impl(history, trace, project)
        if metrics is not None:
            metrics.count(f"{self._name}.witness_checks")
            if not result.ok:
                metrics.count(f"{self._name}.witness_failures")
        return result

    def _trace_problem(self, trace: CATrace) -> Optional[str]:
        """Why ``trace`` is not in the spec, or None when it is."""
        if not self.spec.accepts(trace):
            return "witness not in specification"
        return None

    def _check_witness_impl(
        self, history: History, trace: CATrace, project: bool
    ) -> CheckResult:
        target = history.project_object(self.spec.oid) if project else history
        if not target.is_well_formed():
            return CheckResult(False, reason="ill-formed history")
        problem = self._trace_problem(trace)
        if problem is not None:
            return CheckResult(False, reason=problem)
        if not target.is_complete():
            target = complete_from_witness(target, trace)
        if not target.is_complete():  # pragma: no cover — defensive
            return CheckResult(
                False, reason="witness validation needs a complete history"
            )
        if not agrees(target, trace):
            return CheckResult(
                False, reason="history does not agree with witness (Def. 5)"
            )
        return CheckResult(True, witness=trace, completion=target)
