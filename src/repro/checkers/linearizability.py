"""Classic linearizability (Herlihy & Wing [12]) as CAL over singletons.

A complete history is linearizable w.r.t. a sequential specification if
some total order of its operations (a) extends the real-time order and
(b) is a legal path of the spec.  §3 of the paper observes that
"sequential histories can be seen as CA-traces whose elements are all
singletons", so this is the CAL search of
:class:`~repro.checkers.cal.CALChecker` — the Wing–Gong/Lowe DFS over
frontier operations with memoization on (taken-set, state) — restricted
to singleton elements.  :class:`LinearizabilityChecker` supplies only
what that restriction changes: single frontier operations as
candidates, ``spec.apply`` as the transition, singleton elements built
from the linearization order as the witness, and its own counter prefix
(``lin.*``), not-found reason and witness-membership test.  The
equivalence with CAL w.r.t. ``SingletonAdapter(S)`` (E7) therefore holds
by construction.

For histories with pending invocations, every completion (Def. 2) is
tried: pending invocations are dropped or completed with responses
suggested by ``spec.response_candidates``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.checkers.cal import CALChecker
from repro.checkers._search import bit_masks
from repro.core.actions import Operation
from repro.core.agreement import agrees
from repro.core.catrace import CAElement, CATrace
from repro.core.history import History, OperationSpan


class LinearizabilityChecker(CALChecker):
    """Decides ``H`` linearizable w.r.t. a sequential spec: the CAL search
    over singleton elements."""

    _name = "lin"
    _not_found = "no linearization found"
    #: One frontier operation at a time: every element is a singleton.
    _candidates = staticmethod(bit_masks)
    # Bound here rather than inherited, so the class keeps its own entry
    # point for per-class timing (the layer benchmark patches it).
    check = CALChecker.check

    def _transition(
        self, spans: Sequence[OperationSpan]
    ) -> Tuple[Callable, Callable]:
        """``(label, step)``: a single-bit mask labels its operation, and
        ``spec.apply`` steps on it — no CA-element is built per candidate."""
        ops = {1 << i: span.operation for i, span in enumerate(spans)}
        return ops.__getitem__, self.spec.apply

    def _witness(self, labels: List[Any]) -> CATrace:
        """The linearization order as singleton CA-elements."""
        return CATrace(CAElement(op.oid, [op]) for op in labels)

    def _trace_problem(self, trace: CATrace) -> Optional[str]:
        """Why a recorded trace is not a sequential-spec path of singleton
        elements, or None when it is."""
        if any(not element.is_singleton() for element in trace):
            return "witness contains non-singleton elements"
        if not self.spec.accepts([element.single() for element in trace]):
            return "witness rejected by sequential spec"
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
