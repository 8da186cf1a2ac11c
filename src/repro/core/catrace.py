"""CA-elements and CA-traces (Definition 4).

A *CA-element* ``o.S`` pairs an object ``o`` with a non-empty set ``S`` of
operations of ``o`` — a set of operations that "seem to take effect
simultaneously".  A *CA-trace* is a sequence of CA-elements.

CA-traces are the specification currency of the paper: the exchanger's
specification is the set of CA-traces whose elements are either matched
swap pairs or failed singletons (§4); sequential specifications are the
special case where every element is a singleton.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.actions import Operation, typed_key
from repro.core.history import History


class CAElement:
    """``o.S`` — a non-empty set of overlapping operations on object ``o``."""

    __slots__ = ("oid", "operations")

    def __init__(self, oid: str, operations: Iterable[Operation]) -> None:
        ops = frozenset(operations)
        if not ops:
            raise ValueError("CA-element requires a non-empty operation set")
        for op in ops:
            if op.oid != oid:
                raise ValueError(
                    f"operation {op} does not belong to object {oid!r}"
                )
        self.oid = oid
        self.operations: FrozenSet[Operation] = ops

    # ------------------------------------------------------------------
    def threads(self) -> FrozenSet[str]:
        return frozenset(op.tid for op in self.operations)

    def mentions_thread(self, tid: str) -> bool:
        return any(op.tid == tid for op in self.operations)

    def is_singleton(self) -> bool:
        return len(self.operations) == 1

    def single(self) -> Operation:
        """The sole operation of a singleton element."""
        if not self.is_singleton():
            raise ValueError(f"not a singleton: {self}")
        return next(iter(self.operations))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CAElement):
            return NotImplemented
        return self.oid == other.oid and self.operations == other.operations

    def __hash__(self) -> int:
        return hash((self.oid, self.operations))

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __repr__(self) -> str:
        ops = ", ".join(sorted(str(op) for op in self.operations))
        return f"{self.oid}.{{{ops}}}"


class CATrace:
    """A finite sequence of CA-elements (Def. 4)."""

    __slots__ = ("_elements", "_key")

    def __init__(self, elements: Iterable[CAElement] = ()) -> None:
        self._elements: Tuple[CAElement, ...] = tuple(elements)
        self._key: Optional[Tuple] = None

    def __reduce__(self):
        # Pickle the elements only; the content key re-derives lazily.
        return (CATrace, (self._elements,))

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[CAElement]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> CAElement:
        return self._elements[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CATrace):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return "CATrace[" + " · ".join(repr(e) for e in self._elements) + "]"

    @property
    def elements(self) -> Tuple[CAElement, ...]:
        return self._elements

    def content_key(self) -> Tuple:
        """A type-exact content key of the trace (cached), like
        :meth:`History.content_key`: per element, its object and the set
        of its operations' :func:`~repro.core.actions.typed_key`."""
        # getattr: a trace unpickled from an older layout lacks the slot.
        if getattr(self, "_key", None) is None:
            self._key = tuple(
                [
                    (typed_key(e.oid), frozenset(map(typed_key, e.operations)))
                    for e in self._elements
                ]
            )
        return self._key

    def append(self, *elements: CAElement) -> "CATrace":
        return CATrace(self._elements + elements)

    def concat(self, other: "CATrace") -> "CATrace":
        return CATrace(self._elements + other._elements)

    # ------------------------------------------------------------------
    # Projections (§4)
    # ------------------------------------------------------------------
    def project_thread(self, tid: str) -> "CATrace":
        """``T|t`` — the subsequence of CA-elements *mentioning* thread
        ``tid`` (note: each kept element retains all its operations,
        including those of other threads that overlap with ``tid``'s)."""
        return CATrace(e for e in self._elements if e.mentions_thread(tid))

    def project_object(self, oid: str) -> "CATrace":
        """``T|o`` — the subsequence of CA-elements of object ``oid``."""
        return CATrace(e for e in self._elements if e.oid == oid)

    def project_objects(self, oids: Iterable[str]) -> "CATrace":
        """Projection onto a set of objects (used by view functions)."""
        wanted = set(oids)
        return CATrace(e for e in self._elements if e.oid in wanted)

    # ------------------------------------------------------------------
    def operations(self) -> List[Operation]:
        """All operations in the trace, element order, set order arbitrary."""
        out: List[Operation] = []
        for element in self._elements:
            out.extend(sorted(element.operations, key=str))
        return out

    def operation_count(self) -> int:
        return sum(len(e) for e in self._elements)

    def canonical_history(self) -> History:
        """One complete history represented by this trace: for each
        CA-element, all invocations then all responses (Def. 4's example)."""
        actions = []
        for element in self._elements:
            ops = sorted(element.operations, key=str)
            actions.extend(op.invocation for op in ops)
            actions.extend(op.response for op in ops)
        return History(actions)


def swap_element(
    oid: str,
    tid1: str,
    value1: object,
    tid2: str,
    value2: object,
    method: str = "exchange",
) -> CAElement:
    """``o.swap(t, v, t', v')`` — the paper's abbreviation (§4) for the
    CA-element of a successful exchange:
    ``o.{(t, ex(v) ▷ true, v'), (t', ex(v') ▷ true, v)}``."""
    if tid1 == tid2:
        raise ValueError("a thread cannot exchange with itself")
    return CAElement(
        oid,
        [
            Operation.of(tid1, oid, method, (value1,), (True, value2)),
            Operation.of(tid2, oid, method, (value2,), (True, value1)),
        ],
    )


def failed_exchange_element(
    oid: str, tid: str, value: object, method: str = "exchange"
) -> CAElement:
    """``o.{(t, ex(v) ▷ false, v)}`` — a failed exchange singleton (§4)."""
    return CAElement(
        oid, [Operation.of(tid, oid, method, (value,), (False, value))]
    )


def group_by_object(trace: CATrace) -> Dict[str, CATrace]:
    """Split a trace into per-object subtraces (preserving order)."""
    buckets: Dict[str, List[CAElement]] = {}
    for element in trace:
        buckets.setdefault(element.oid, []).append(element)
    return {oid: CATrace(elems) for oid, elems in buckets.items()}


def singleton_trace(ops: Iterable[Operation]) -> CATrace:
    """The CA-trace of singleton elements for a sequence of operations —
    how a *sequential* execution is represented as a CA-trace."""
    return CATrace(CAElement(op.oid, [op]) for op in ops)
