"""The agreement relation ``H ⊑_CAL T`` (Definition 5) and CAL (Definition 6).

``H ⊑_CAL T`` holds when there is a surjection ``π`` from the operations of
the complete history ``H`` onto the positions of the CA-trace ``T`` such
that

* the real-time order of ``H`` is preserved: ``i ≺_H j ⟹ π(i) < π(j)``, and
* every CA-element of ``T`` is exactly the set of operations mapped to it:
  ``T_k = OPSet(H, {m | π(m) = k})``.

The search is a backtracking assignment of operations to trace positions,
processing operations in a linear extension of ``≺_H`` (response order) so
the monotonicity constraint can be enforced incrementally.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.core.actions import Operation
from repro.core.catrace import CATrace
from repro.core.history import History


def find_agreement(
    history: History, trace: CATrace
) -> Optional[Dict[int, int]]:
    """Search for a Def.-5 surjection ``π``.

    Returns a mapping from span index (position in ``history.spans()``) to
    trace position, or ``None`` if no agreement exists.  ``history`` must
    be complete.
    """
    if not history.is_complete():
        raise ValueError("agreement is defined on complete histories only")

    spans = history.spans()
    required: List[Set[Operation]] = [set(e.operations) for e in trace]

    # Quick size check: no two concurrent identical operations can exist in
    # a well-formed history, so π is injective on operations per element and
    # the total operation counts must match exactly.
    if len(spans) != sum(len(r) for r in required):
        return None
    if not spans:
        return {} if len(trace) == 0 else None

    # Operation values must match up as multisets overall.
    history_ops = sorted(str(s.operation) for s in spans)
    trace_ops = sorted(str(op) for e in trace for op in e.operations)
    if history_ops != trace_ops:
        return None

    # Process spans in response order — a linear extension of ≺_H.
    order = sorted(range(len(spans)), key=lambda i: spans[i].res_index)

    # Precompute, for each span, its ≺_H predecessors.
    predecessors: List[List[int]] = [[] for _ in spans]
    for i, earlier in enumerate(spans):
        for j, later in enumerate(spans):
            if i != j and history.precedes(earlier, later):
                predecessors[j].append(i)

    # Candidate trace positions for each span: elements containing its op.
    candidates: List[List[int]] = []
    for span in spans:
        ks = [k for k, req in enumerate(required) if span.operation in req]
        if not ks:
            return None
        candidates.append(ks)

    assignment: Dict[int, int] = {}
    remaining: List[Set[Operation]] = [set(r) for r in required]

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return all(not r for r in remaining)
        span_index = order[pos]
        span = spans[span_index]
        floor = -1
        for pred in predecessors[span_index]:
            if pred in assignment and assignment[pred] > floor:
                floor = assignment[pred]
        for k in candidates[span_index]:
            if k <= floor:
                continue
            if span.operation not in remaining[k]:
                continue
            remaining[k].discard(span.operation)
            assignment[span_index] = k
            if backtrack(pos + 1):
                return True
            del assignment[span_index]
            remaining[k].add(span.operation)
        return False

    if backtrack(0):
        return dict(assignment)
    return None


def agrees(history: History, trace: CATrace) -> bool:
    """``H ⊑_CAL T`` (Def. 5)."""
    return find_agreement(history, trace) is not None


def is_cal_history(
    history: History,
    traces: Iterable[CATrace],
    response_candidates=None,
) -> bool:
    """Definition 6, against an *explicit* set of CA-traces.

    ``H`` is CAL w.r.t. ``traces`` if some completion of ``H`` agrees with
    some trace.  For generative specifications (the usual case), use
    :class:`repro.checkers.cal.CALChecker`, which searches the spec's
    transition system instead of enumerating traces.
    """
    trace_list = list(traces)
    for completion in history.completions(response_candidates):
        for trace in trace_list:
            if agrees(completion, trace):
                return True
    return False
