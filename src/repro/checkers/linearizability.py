"""Classic linearizability (Herlihy & Wing [12]) via Wing–Gong search.

A complete history is linearizable w.r.t. a sequential specification if
some total order of its operations (a) extends the real-time order and
(b) is a legal path of the spec.  The checker performs a DFS over
"minimal" (frontier) operations with memoization on (taken-set, state) —
the standard Wing–Gong/Lowe algorithm.

For histories with pending invocations, every completion (Def. 2) is
tried: pending invocations are dropped or completed with responses
suggested by ``spec.response_candidates``.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.checkers.cal import complete_from_witness
from repro.checkers.result import CheckResult, SearchBudget, Verdict
from repro.checkers.seqspec import SequentialSpec
from repro.checkers._search import (
    SearchProblem,
    flush_search_tallies,
    iter_bits,
    structural_key,
)
from repro.core.actions import Operation
from repro.core.agreement import agrees
from repro.core.catrace import CAElement, CATrace
from repro.core.history import History
from repro.substrate.errors import BudgetExceeded


class LinearizabilityChecker:
    """Decides ``H`` linearizable w.r.t. a sequential spec."""

    def __init__(self, spec: SequentialSpec) -> None:
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
        """Check ``history`` (projected to the spec's object by default).

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
                checker="lin",
                oid=self.spec.oid,
                actions=len(history),
            )
        result = self._check_impl(history, project, node_budget, deadline, metrics, trace)
        if metrics is not None:
            metrics.count("lin.checks")
            if result.unknown:
                metrics.count("lin.unknown")
            elif not result.ok:
                metrics.count("lin.failures")
            metrics.add_time("lin.check_s", time.perf_counter() - started)
        if trace is not None:
            trace.emit(
                "check_end",
                checker="lin",
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
        budget = SearchBudget(node_budget=node_budget, deadline=deadline)
        best = CheckResult(False, reason="no linearization found")
        candidates = lambda inv: self.spec.response_candidates_in(inv, target)
        # Per-call structural dedup — deterministic, unlike the warm
        # process-wide mask cache (see repro.checkers._search).
        shapes: Set[Tuple[Tuple[int, int], ...]] = set()
        if metrics is not None:
            begin_check = getattr(metrics, "begin_check", None)
            if begin_check is not None:
                begin_check("lin", self.spec.oid)
            enter_completion = getattr(metrics, "enter_completion", None)
        try:
            for completion in target.completions(candidates):
                if metrics is not None:
                    metrics.count("lin.completions")
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
                    checker="lin",
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
    def _check_complete(
        self,
        history: History,
        budget: Optional[SearchBudget] = None,
        metrics=None,
    ) -> CheckResult:
        """Explicit-stack Wing–Gong search over (taken-mask, state) nodes.

        Taken-sets are int bitmasks, spec states are interned to small
        ids (memo keys are ``(int, int)`` pairs), and the frontier of
        minimal operations updates incrementally via successor masks.

        Search statistics are local ints flushed once on every exit
        (budget trips included) via ``flush_search_tallies``.
        """
        problem = SearchProblem.of(history, validate=False)
        full = problem.full_mask
        spans = problem.spans
        apply = self.spec.apply
        seen: Set[Tuple[int, int]] = set()
        state_ids: Dict[Hashable, int] = {}
        order: List[int] = []
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
        # Frame: (taken, frontier, state, pending-candidate iterator).
        stack = [(0, root_frontier, initial, iter_bits(root_frontier))]
        try:
            while stack:
                taken, frontier, state, candidates = stack[-1]
                pushed = False
                for index in candidates:
                    cand_tried += 1
                    op = spans[index].operation
                    assert op is not None
                    successor = apply(state, op)
                    if successor is None:
                        rejections += 1
                        continue
                    nodes += 1
                    if budget is not None:
                        budget.charge()
                    order.append(index)
                    new_taken = taken | (1 << index)
                    if new_taken == full:
                        ops = [spans[i].operation for i in order]
                        witness = CATrace(
                            CAElement(op.oid, [op]) for op in ops if op is not None
                        )
                        return CheckResult(
                            True, witness=witness, completion=history, nodes=nodes
                        )
                    state_id = state_ids.setdefault(successor, len(state_ids))
                    key = (new_taken, state_id)
                    if key in seen:
                        memo_hits += 1
                        order.pop()
                        continue
                    memo_misses += 1
                    seen.add(key)
                    new_frontier = problem.next_frontier(
                        frontier, new_taken, 1 << index
                    )
                    frames += 1
                    width = new_frontier.bit_count()
                    frontier_sum += width
                    if width > frontier_max:
                        frontier_max = width
                    stack.append(
                        (new_taken, new_frontier, successor, iter_bits(new_frontier))
                    )
                    pushed = True
                    break
                if not pushed:
                    stack.pop()
                    if stack:
                        order.pop()
            return CheckResult(
                False, reason="no linearization found", nodes=nodes
            )
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
    def _witness_problem(
        self, history: History, witness: CATrace
    ) -> Optional[str]:
        """Why a recorded singleton trace is not a linearization witness
        of ``history`` (None when it is).

        Pending invocations (crashed threads) are resolved against the
        witness first, exactly as in CAL witness validation.
        """
        if any(not e.is_singleton() for e in witness):
            return "witness contains non-singleton elements"
        ops = [e.single() for e in witness]
        if not self.spec.accepts(ops):
            return "witness rejected by sequential spec"
        target = history.project_object(self.spec.oid)
        if not target.is_complete():
            target = complete_from_witness(target, witness)
        if not target.is_complete():  # pragma: no cover — defensive
            return "history incomplete at witness validation"
        if not agrees(target, witness):
            return "history does not agree with witness (Def. 5)"
        return None

    # ------------------------------------------------------------------
    def check_order(self, history: History, order: List[Operation]) -> bool:
        """Validate an explicitly proposed linearization order: it must be
        a permutation of the history's operations, extend the real-time
        order, and be accepted by the spec."""
        target = history.project_object(self.spec.oid)
        if not target.is_complete():
            return False
        witness = CATrace(CAElement(op.oid, [op]) for op in order)
        return self.spec.accepts(order) and agrees(target, witness)
