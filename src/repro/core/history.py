"""Histories and the real-time order (Definitions 2 and 3).

A history is a finite sequence of invocations and responses.  This module
provides well-formedness / sequentiality / completeness checks, thread and
object projections, matching of invocations to responses, the real-time
order between operations, and the ``complete(H)`` construction used by
Definition 6 (extend with responses, drop pending invocations).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.actions import Action, Invocation, Operation, Response, typed_key


@dataclass(frozen=True)
class OperationSpan:
    """An operation together with the indices of its actions in a history.

    ``res_index`` is ``None`` for pending operations (invocation without a
    matching response).
    """

    operation: Optional[Operation]
    invocation: Invocation
    inv_index: int
    res_index: Optional[int]

    @property
    def pending(self) -> bool:
        return self.res_index is None


class History:
    """An immutable sequence of object actions (Def. 2).

    Immutability is enforced, not just advertised: ``spans()``,
    ``is_well_formed()`` and ``content_key()`` memoize their answers, so
    a post-construction reassignment of ``_actions`` would silently serve
    stale caches.  ``__setattr__`` rejects it; every "mutation" returns a
    new History (``append``, ``complete_with``, and the projections when
    they filter anything out).
    """

    __slots__ = ("_actions", "_spans", "_well_formed", "_key")

    def __init__(self, actions: Iterable[Action] = ()) -> None:
        object.__setattr__(self, "_actions", tuple(actions))
        object.__setattr__(self, "_spans", None)
        object.__setattr__(self, "_well_formed", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name: str, value: Any) -> None:
        # The lazy caches (_spans/_well_formed/_key) may be filled in;
        # the action sequence itself is frozen once __init__ has set it.
        if name == "_actions":
            raise AttributeError(
                "History is immutable: build a new History instead of "
                "reassigning _actions (cached spans/well-formedness would "
                "go stale)"
            )
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("History is immutable")

    def __reduce__(self):
        # Default slots pickling restores attributes via setattr, which
        # the _actions freeze rejects; rebuild through __init__ instead
        # (caches re-warm lazily on the other side of the pipe).
        return (History, (self._actions,))

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self._actions)

    def __getitem__(self, index: int) -> Action:
        return self._actions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self._actions == other._actions

    def __hash__(self) -> int:
        return hash(self._actions)

    def __repr__(self) -> str:
        body = "; ".join(str(a) for a in self._actions)
        return f"History[{body}]"

    @property
    def actions(self) -> Tuple[Action, ...]:
        return self._actions

    def content_key(self) -> Tuple[Any, ...]:
        """A type-exact content key of the action sequence (cached).

        Two histories share a key iff their actions are equal *and* every
        argument and result has the same type — ``1``, ``True`` and
        ``1.0`` give three keys (see :func:`~repro.core.actions.typed_key`).
        Hashing the key raises ``TypeError`` when an argument or result is
        unhashable.
        """
        if self._key is None:
            self._key = tuple([typed_key(action) for action in self._actions])
        return self._key

    def append(self, *actions: Action) -> "History":
        """Return a new history with ``actions`` appended."""
        return History(self._actions + actions)

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def project_thread(self, tid: str) -> "History":
        """``H|t`` — the subsequence of actions of thread ``tid``.

        ``self`` when every action is ``tid``'s: histories are immutable,
        so the projection shares this history's caches."""
        kept = tuple([a for a in self._actions if a.tid == tid])
        return self if len(kept) == len(self._actions) else History(kept)

    def project_object(self, oid: str) -> "History":
        """``H|o`` — the subsequence of actions on object ``oid``.

        ``self`` when every action is on ``oid`` (the common single-object
        run), so coverage, witness validation and search share one set of
        cached spans, well-formedness and content key."""
        kept = tuple([a for a in self._actions if a.oid == oid])
        return self if len(kept) == len(self._actions) else History(kept)

    def threads(self) -> List[str]:
        """Thread identifiers in order of first appearance."""
        seen: Dict[str, None] = {}
        for action in self._actions:
            seen.setdefault(action.tid, None)
        return list(seen)

    def objects(self) -> List[str]:
        """Object identifiers in order of first appearance."""
        seen: Dict[str, None] = {}
        for action in self._actions:
            seen.setdefault(action.oid, None)
        return list(seen)

    # ------------------------------------------------------------------
    # Classification (Def. 2)
    # ------------------------------------------------------------------
    def is_sequential(self) -> bool:
        """Alternating invocations and matching responses, starting with
        an invocation (possibly ending with a pending invocation)."""
        return _is_sequential(self._actions)

    def is_well_formed(self) -> bool:
        """``H|t`` is sequential for every thread ``t``.

        Cached: histories are immutable and every checker entry point
        re-validates, so the one pass over the actions runs once.  The
        per-thread subsequences are plain lists, not projected histories.
        """
        if self._well_formed is None:
            per_thread: Dict[str, List[Action]] = {}
            for action in self._actions:
                per_thread.setdefault(action.tid, []).append(action)
            self._well_formed = all(
                _is_sequential(actions) for actions in per_thread.values()
            )
        return self._well_formed

    def is_complete(self) -> bool:
        """Well-formed and every invocation has a matching response."""
        if not self.is_well_formed():
            return False
        return not any(span.pending for span in self.spans())

    # ------------------------------------------------------------------
    # Matching invocations to responses
    # ------------------------------------------------------------------
    def spans(self) -> Tuple[OperationSpan, ...]:
        """Pair every invocation with its matching response.

        Because each ``H|t`` is sequential, matching is positional within a
        thread: a response matches the immediately preceding unmatched
        invocation of the same thread.
        """
        if self._spans is not None:
            return self._spans
        open_inv: Dict[str, Tuple[Invocation, int]] = {}
        spans: List[OperationSpan] = []
        pending_slot: Dict[str, int] = {}
        for index, action in enumerate(self._actions):
            if action.is_invocation:
                if action.tid in open_inv:
                    raise ValueError(
                        f"ill-formed history: nested invocation by {action.tid}"
                    )
                open_inv[action.tid] = (action, index)  # type: ignore[assignment]
                pending_slot[action.tid] = len(spans)
                spans.append(
                    OperationSpan(None, action, index, None)  # type: ignore[arg-type]
                )
            else:
                if action.tid not in open_inv:
                    raise ValueError(
                        f"ill-formed history: response without invocation by "
                        f"{action.tid}"
                    )
                inv, inv_index = open_inv.pop(action.tid)
                slot = pending_slot.pop(action.tid)
                operation = Operation.from_actions(inv, action)  # type: ignore[arg-type]
                spans[slot] = OperationSpan(operation, inv, inv_index, index)
        self._spans = tuple(spans)
        return self._spans

    def operations(self) -> List[Operation]:
        """All completed operations, in invocation order."""
        return [s.operation for s in self.spans() if s.operation is not None]

    def pending_invocations(self) -> List[Invocation]:
        """Invocations with no matching response."""
        return [s.invocation for s in self.spans() if s.pending]

    def pending(self) -> List[Invocation]:
        """Alias for :meth:`pending_invocations` — the operations left
        dangling by crashed or stalled threads."""
        return self.pending_invocations()

    # ------------------------------------------------------------------
    # Resolving pending invocations (crash tolerance)
    # ------------------------------------------------------------------
    def complete_with(
        self,
        resolver: Callable[[Invocation], Optional[Any]],
    ) -> "History":
        """Resolve every pending invocation through ``resolver``.

        ``resolver(inv)`` returns the response value (normalized to a
        tuple) to extend the invocation with, or ``None`` to drop the
        invocation entirely — the two moves of ``complete(H)`` (Def. 2),
        decided deterministically instead of enumerated.  Returns ``self``
        when the history is already complete, so the construction
        round-trips on complete histories.
        """
        pending = self.pending_invocations()
        if not pending:
            return self
        dropped: Set[int] = set()
        appended: List[Action] = []
        for invocation in pending:
            value = resolver(invocation)
            if value is None:
                dropped.add(id(invocation))
                continue
            if not isinstance(value, tuple):
                value = (value,)
            appended.append(
                Response(
                    invocation.tid,
                    invocation.oid,
                    invocation.method,
                    value,
                )
            )
        pending_ids = {id(inv) for inv in pending}
        kept = [
            action
            for action in self._actions
            if not (
                action.is_invocation
                and id(action) in pending_ids
                and id(action) in dropped
            )
        ]
        return History(tuple(kept) + tuple(appended))

    def strip_pending(self) -> "History":
        """Drop every pending invocation (the remove-only completion).
        Returns ``self`` when the history is already complete."""
        return self.complete_with(lambda _inv: None)

    # ------------------------------------------------------------------
    # Real-time order (Def. 3)
    # ------------------------------------------------------------------
    def precedes(self, earlier: OperationSpan, later: OperationSpan) -> bool:
        """``earlier ≺_H later``: the response of ``earlier`` appears before
        the invocation of ``later``."""
        if earlier.res_index is None:
            return False
        return earlier.res_index < later.inv_index

    def real_time_pairs(self) -> Set[Tuple[int, int]]:
        """Indices ``(i, j)`` into :meth:`spans` with ``span_i ≺_H span_j``."""
        spans = self.spans()
        pairs: Set[Tuple[int, int]] = set()
        for i, earlier in enumerate(spans):
            for j, later in enumerate(spans):
                if i != j and self.precedes(earlier, later):
                    pairs.add((i, j))
        return pairs

    # ------------------------------------------------------------------
    # Completions (Def. 2 / Def. 6)
    # ------------------------------------------------------------------
    def completions(
        self,
        response_candidates: Optional[
            Callable[[Invocation], Iterable[Any]]
        ] = None,
    ) -> Iterator["History"]:
        """Enumerate ``complete(H)``.

        Each pending invocation is either *removed* or *extended* with a
        response.  ``response_candidates`` maps a pending invocation to the
        return values worth trying (typically supplied by the object's
        specification); when omitted, pending invocations can only be
        removed.

        Yields complete histories; if ``H`` is already complete, yields
        ``H`` itself first.
        """
        pending = self.pending_invocations()
        if not pending:
            yield self
            return

        choices: List[List[Optional[Response]]] = []
        for invocation in pending:
            options: List[Optional[Response]] = [None]  # None = drop
            if response_candidates is not None:
                for value in response_candidates(invocation):
                    if not isinstance(value, tuple):
                        value = (value,)
                    options.append(
                        Response(
                            invocation.tid,
                            invocation.oid,
                            invocation.method,
                            value,
                        )
                    )
            choices.append(options)

        pending_set = {id(inv) for inv in pending}
        for combo in product(*choices):
            dropped = {
                id(inv)
                for inv, choice in zip(pending, combo)
                if choice is None
            }
            kept: List[Action] = []
            for action in self._actions:
                if action.is_invocation and id(action) in pending_set:
                    if id(action) in dropped:
                        continue
                kept.append(action)
            appended = [c for c in combo if c is not None]
            yield History(tuple(kept) + tuple(appended))


def _is_sequential(actions: Iterable[Action]) -> bool:
    """See :meth:`History.is_sequential`."""
    expect_invocation = True
    last: Optional[Invocation] = None
    for action in actions:
        if expect_invocation:
            if not action.is_invocation:
                return False
            last = action  # type: ignore[assignment]
        else:
            if not action.is_response:
                return False
            assert last is not None
            if (action.tid, action.oid, action.method) != (
                last.tid,
                last.oid,
                last.method,
            ):
                return False
        expect_invocation = not expect_invocation
    return True


def real_time_order(history: History) -> Set[Tuple[int, int]]:
    """Convenience wrapper for :meth:`History.real_time_pairs`."""
    return history.real_time_pairs()


def history_of_operations(ops: Sequence[Operation]) -> History:
    """Build the sequential history ``inv₁ res₁ inv₂ res₂ …`` from ops."""
    actions: List[Action] = []
    for op in ops:
        actions.append(op.invocation)
        actions.append(op.response)
    return History(actions)
