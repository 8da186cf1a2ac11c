"""Per-step independence relation for partial-order reduction.

Two atomic steps are **independent** when they commute: executed in
either order from the same state they are both enabled, reach the same
state, and neither changes the other's result.  The DPOR explorer
(:mod:`repro.substrate.dpor`, ``reduction="dpor"``) detects races between
dependent steps, and its sleep sets prune a branch when every enabled
step is provably covered — via independence — by a sibling branch
already explored.

The relation is derived from the effect vocabulary as a conservative
**footprint**: each step reads and writes a set of abstract location
tokens, and two steps are independent iff neither's write set overlaps
the other's read or write set.  Tokens:

``("mem", ref.name)``
    A shared cell.  ``Heap.ref`` uniquifies names and node fields are
    named ``{tag}.{index}.{field}``, so the name is a stable cross-run
    key for the cell under a common replayed prefix.
``("buffer", tid)``
    A thread's TSO store buffer.  A buffered ``Write`` touches only its
    own buffer; a flush pseudo-step drains the buffer *and* writes the
    cell, so flushes of different threads commute unless same-location;
    a ``CAS`` is a fence (drains the buffer in-step); a ``Read``
    forwards from the issuing thread's buffer.
``("hist",)``
    The shared history/auxiliary-trace variables.  Every step that
    appends to them — ``Invoke``/``Respond``/``LogTrace`` and any effect
    carrying an ``on_result``/``on_commit``/``on_success`` callback —
    *writes* this single token, making all such steps pairwise
    dependent.  This is the soundness linchpin for the checkers: runs
    that differ only by commuting independent steps then contain the
    *same history and trace, in the same order*, so pruning one of them
    cannot change a verdict or lose a distinct counterexample.
``("heap",)``
    Heap management state (free lists, epochs, hazard slots):
    ``Alloc``/``Free``/``Guard``/``Unguard``/``Protect`` all write it —
    reclamation steps never commute with each other, which is exactly
    right for ABA hunting.

Steps whose footprint cannot be bounded (``Query``/``AssertNow``/
``AssertStable`` evaluate arbitrary predicates over the world,
``Retract`` mutates the assertion registry, injected faults, crashed
steps) are given the :data:`WILDCARD` footprint — dependent on
everything — so reduction degrades to *no pruning* around them rather
than to unsoundness.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.substrate.effects import (
    CAS,
    Alloc,
    Choose,
    Effect,
    Free,
    Guard,
    Invoke,
    LogTrace,
    Pause,
    Protect,
    Read,
    Respond,
    Unguard,
    Write,
)
from repro.substrate.schedulers import flush_owner, is_flush

#: Token conflicting with every read and write (unbounded footprint).
WILDCARD = ("*",)

_HIST = ("hist",)
_HEAP = ("heap",)


class Footprint:
    """Read/write token sets of one atomic step."""

    __slots__ = ("reads", "writes")

    def __init__(
        self,
        reads: Tuple[Tuple, ...] = (),
        writes: Tuple[Tuple, ...] = (),
    ) -> None:
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Footprint(reads={sorted(self.reads)}, writes={sorted(self.writes)})"


#: The empty footprint: commutes with everything (thread-local steps).
EMPTY = Footprint()

#: The unbounded footprint: commutes with nothing.
OPAQUE = Footprint(reads=(WILDCARD,), writes=(WILDCARD,))


def independent(a: Footprint, b: Footprint) -> bool:
    """Whether two steps with these footprints commute."""
    if WILDCARD in a.writes or WILDCARD in b.writes:
        return False
    if WILDCARD in a.reads and b.writes:
        return False
    if WILDCARD in b.reads and a.writes:
        return False
    if a.writes & (b.reads | b.writes):
        return False
    if b.writes & a.reads:
        return False
    return True


def footprint_of(tid: str, effect: Optional[Effect], memory_model: str) -> Footprint:
    """The conservative footprint of one interpreted step.

    ``tid`` is the scheduler-facing id (a flush pseudo-thread id for
    flush steps, whose ``effect`` is the synthesized committed
    ``Write``).  ``effect is None`` marks a thread's finishing step.
    Unknown effects get the :data:`OPAQUE` footprint.
    """
    tso = memory_model == "tso"
    if effect is None:
        return EMPTY
    if is_flush(tid):
        # Commits the oldest buffered write: drains the owner's buffer
        # slot and makes the cell globally visible; a deferred
        # ``on_commit`` callback appends to the history/trace.
        assert isinstance(effect, Write)
        writes = [("buffer", flush_owner(tid)), ("mem", effect.ref.name)]
        if effect.on_commit is not None:
            writes.append(_HIST)
        return Footprint(writes=tuple(writes))
    if isinstance(effect, Read):
        reads = [("mem", effect.ref.name)]
        if tso:
            reads.append(("buffer", tid))  # store-to-load forwarding
        writes = (_HIST,) if effect.on_result is not None else ()
        return Footprint(reads=tuple(reads), writes=writes)
    if isinstance(effect, Write):
        if tso:
            writes = [("buffer", tid)]
            # The on_commit callback runs at flush time; the flush step
            # carries its hist token.
        else:
            writes = [("mem", effect.ref.name)]
            if effect.on_commit is not None:
                writes.append(_HIST)
        return Footprint(writes=tuple(writes))
    if isinstance(effect, CAS):
        writes = [("mem", effect.ref.name)]
        if tso:
            writes.append(("buffer", tid))  # fence: drains own buffer
        if effect.on_success is not None:
            writes.append(_HIST)
        return Footprint(reads=(("mem", effect.ref.name),), writes=tuple(writes))
    if isinstance(effect, (Alloc, Free, Guard, Unguard, Protect)):
        return Footprint(writes=(_HEAP,))
    if isinstance(effect, (Invoke, Respond, LogTrace)):
        return Footprint(writes=(_HIST,))
    if isinstance(effect, (Pause, Choose)):
        return EMPTY
    # Query / AssertNow / AssertStable / Retract / anything new: an
    # unbounded read (and possible mutation) of the world.
    return OPAQUE


__all__ = [
    "EMPTY",
    "Footprint",
    "OPAQUE",
    "WILDCARD",
    "footprint_of",
    "independent",
]
