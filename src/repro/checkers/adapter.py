"""Sequential specs as CA-specs (§3).

"Sequential histories can be seen as CA-traces whose elements are all
singletons."  :class:`SingletonAdapter` realizes that observation: it
lifts a :class:`~repro.checkers.seqspec.SequentialSpec` into a
:class:`~repro.checkers.caspec.CASpec` that accepts exactly the singleton
CA-traces whose operation sequence the sequential spec accepts.

Consequences (validated by experiment E7):

* classic linearizability w.r.t. ``S`` ⇔ CAL w.r.t. ``SingletonAdapter(S)``;
* the CAL checker and the Wing–Gong checker agree on every history of a
  non-CA object — by construction, since
  :class:`~repro.checkers.linearizability.LinearizabilityChecker` is the
  CAL search over single-operation candidates.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Optional, Tuple

from repro.checkers.caspec import CASpec
from repro.checkers.seqspec import SequentialSpec
from repro.core.actions import Invocation
from repro.core.catrace import CAElement


class SingletonAdapter(CASpec):
    """The CA-spec of singleton elements induced by a sequential spec."""

    def __init__(self, seq_spec: SequentialSpec) -> None:
        super().__init__(seq_spec.oid)
        self.seq_spec = seq_spec

    def initial(self) -> Hashable:
        return self.seq_spec.initial()

    def step(self, state: Hashable, element: CAElement) -> Optional[Hashable]:
        if not element.is_singleton():
            return None
        return self.seq_spec.apply(state, element.single())

    def response_candidates(
        self, invocation: Invocation
    ) -> Iterable[Tuple[Any, ...]]:
        return self.seq_spec.response_candidates(invocation)
