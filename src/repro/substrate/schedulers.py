"""Schedulers: the sources of all nondeterminism in a run.

A scheduler makes two kinds of decisions: which enabled thread takes the
next atomic step (:meth:`Scheduler.choose_thread`) and how in-program
nondeterministic choices resolve (:meth:`Scheduler.choose_value`, backing
:meth:`repro.substrate.context.Ctx.choose`).

:class:`ReplayScheduler` makes both kinds of decisions from a single
choice sequence and records every decision point it encounters; the
exhaustive explorer (:mod:`repro.substrate.explore`) backtracks over that
log to enumerate all runs.

**Store-buffer flush pseudo-threads.**  Under the TSO memory model
(``Runtime(memory_model="tso")``) each thread with a non-empty store
buffer contributes an extra enabled id, ``~flush:<tid>``, whose single
step commits the oldest buffered write to shared memory.  Flushes are
therefore *ordinary scheduler decisions*: every scheduler here — random,
replay, exhaustive exploration, CHESS bounding — covers and replays
buffer-commit orderings with no special handling.  The ``~`` prefix
cannot collide with real thread ids (programs name threads with plain
identifiers).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, List, Optional, Sequence, Tuple

#: Prefix marking a store-buffer flush pseudo-thread id.
FLUSH_PREFIX = "~flush:"


def flush_id(tid: str) -> str:
    """The flush pseudo-thread id for ``tid``'s store buffer."""
    return FLUSH_PREFIX + tid


def is_flush(tid: str) -> bool:
    """Whether ``tid`` names a store-buffer flush pseudo-thread."""
    return tid.startswith(FLUSH_PREFIX)


def flush_owner(tid: str) -> str:
    """The real thread whose buffer a flush pseudo-thread drains."""
    return tid[len(FLUSH_PREFIX):]


class Scheduler(ABC):
    """Interface between the runtime and its source of nondeterminism."""

    @abstractmethod
    def choose_thread(self, enabled: Sequence[str]) -> str:
        """Pick the thread to take the next atomic step."""

    @abstractmethod
    def choose_value(self, options: Sequence[Any]) -> Any:
        """Resolve an in-program nondeterministic choice."""

    def choices(self) -> List[int]:
        """The decision indices taken so far, replayable through
        :class:`ReplayScheduler`.  Schedulers that do not record their
        decisions return an empty list."""
        return []


class RoundRobinScheduler(Scheduler):
    """Deterministic fair rotation; in-program choices take the first
    option.  Useful for smoke tests and as a fast baseline."""

    def __init__(self) -> None:
        self._next = 0

    def choose_thread(self, enabled: Sequence[str]) -> str:
        choice = enabled[self._next % len(enabled)]
        self._next += 1
        return choice

    def choose_value(self, options: Sequence[Any]) -> Any:
        return options[0]


class RandomScheduler(Scheduler):
    """Seeded uniform-random scheduling — reproducible fuzzing.

    With ``yield_bias`` > 0 the scheduler prefers to keep running the same
    thread (geometric persistence), which concentrates probability mass on
    low-preemption schedules; useful for throughput-style workloads.

    Every decision is logged as ``(arity, index)`` so the run's full
    decision sequence (:meth:`choices`) replays exactly through
    :class:`ReplayScheduler` — stored counterexamples reproduce without
    re-deriving the run from its seed.
    """

    def __init__(self, seed: int = 0, yield_bias: float = 0.0) -> None:
        self._rng = random.Random(seed)
        self._bias = yield_bias
        self._last: str | None = None
        self.log: List[Tuple[int, int]] = []

    def choose_thread(self, enabled: Sequence[str]) -> str:
        if self._last is not None and self._last not in enabled:
            # The biased thread finished: a stale ``_last`` can never
            # bias again — drop it so the bias state stays meaningful.
            self._last = None
        if (
            self._bias > 0.0
            and self._last is not None
            and self._rng.random() < self._bias
        ):
            choice = self._last
            index = enabled.index(choice)
        else:
            # randrange draws from the same underlying stream as the
            # former ``choice(list(enabled))``, keeping seeded decision
            # sequences stable across versions.  Thread ids are unique,
            # so the drawn index is the logged one.
            index = self._rng.randrange(len(enabled))
            choice = enabled[index]
        self._last = choice
        self.log.append((len(enabled), index))
        return choice

    def choose_value(self, options: Sequence[Any]) -> Any:
        index = self._rng.randrange(len(options))
        self.log.append((len(options), index))
        return options[index]

    def choices(self) -> List[int]:
        """The decision indices actually taken in this run."""
        return [chosen for _, chosen in self.log]


class PrefixRandomScheduler(RandomScheduler):
    """Replay a (possibly mutated) prefix, then continue seeded-random.

    The greybox engine (:mod:`repro.search.greybox`) proposes mutated
    schedule prefixes whose entries may no longer match the decision
    arities they land on; prefix entries are therefore always wrapped
    modulo the arity, like ``ReplayScheduler(clamp=True)``.  Beyond the
    prefix the scheduler *is* a :class:`RandomScheduler` (same stream,
    same ``yield_bias`` persistence), and every decision — replayed or
    drawn — is logged as ``(arity, index)``, so the full run replays
    through :class:`ReplayScheduler` and shrinks like any other recorded
    schedule.
    """

    def __init__(
        self,
        prefix: Sequence[int],
        seed: int = 0,
        yield_bias: float = 0.0,
    ) -> None:
        super().__init__(seed, yield_bias)
        self._prefix: Tuple[int, ...] = tuple(prefix)

    def _replayed(self, arity: int) -> Optional[int]:
        """The prefix entry for the next decision, wrapped into
        ``[0, arity)`` and logged; ``None`` once the prefix is spent."""
        position = len(self.log)
        if position >= len(self._prefix):
            return None
        index = self._prefix[position] % arity
        self.log.append((arity, index))
        return index

    def choose_thread(self, enabled: Sequence[str]) -> str:
        index = self._replayed(len(enabled))
        if index is None:
            return super().choose_thread(enabled)
        self._last = enabled[index]
        return self._last

    def choose_value(self, options: Sequence[Any]) -> Any:
        index = self._replayed(len(options))
        if index is None:
            return super().choose_value(options)
        return options[index]


class ReplayScheduler(Scheduler):
    """Follow a prefix of decision indices, then default to index 0.

    Every decision point is appended to :attr:`log` as ``(arity, chosen)``.
    The explorer uses the log to construct the next prefix to try.

    ``preemption_bound`` enables CHESS-style iterative context bounding
    (Musuvathi & Qadeer): once the run has preempted a still-enabled
    thread ``preemption_bound`` times, the scheduler keeps running the
    current thread (the decision point degenerates to arity 1, pruning
    the subtree).  Voluntary switches — the previous thread finished —
    are free.  Exploration under a bound is an *underapproximation*, but
    small bounds are known to expose the overwhelming majority of
    concurrency bugs while taming the factorial schedule space.

    ``clamp`` tolerates out-of-range prefix entries by wrapping them
    modulo the arity instead of raising — used when replaying a mutated
    schedule (counterexample shrinking), where decision points drift.
    """

    def __init__(
        self,
        prefix: Sequence[int] = (),
        preemption_bound: int | None = None,
        clamp: bool = False,
    ) -> None:
        self._prefix: Tuple[int, ...] = tuple(prefix)
        self.log: List[Tuple[int, int]] = []
        self._bound = preemption_bound
        self._preemptions = 0
        self._last: str | None = None
        self._clamp = clamp

    def _decide(self, arity: int) -> int:
        position = len(self.log)
        if position < len(self._prefix):
            choice = self._prefix[position]
            if not 0 <= choice < arity:
                if self._clamp:
                    choice = choice % arity
                else:
                    raise ValueError(
                        f"replay prefix out of range at {position}: "
                        f"{choice} not in [0, {arity})"
                    )
        else:
            choice = 0
        self.log.append((arity, choice))
        return choice

    def choose_thread(self, enabled: Sequence[str]) -> str:
        if (
            self._bound is not None
            and self._preemptions >= self._bound
            and self._last in enabled
        ):
            # Budget exhausted: no decision point, keep running.
            return self._last
        chosen = enabled[self._decide(len(enabled))]
        if self._last is not None and self._last in enabled:
            if chosen != self._last:
                self._preemptions += 1
        self._last = chosen
        return chosen

    def choose_value(self, options: Sequence[Any]) -> Any:
        return options[self._decide(len(options))]

    def choices(self) -> List[int]:
        """The decision indices actually taken in this run."""
        return [chosen for _, chosen in self.log]


class FixedScheduler(Scheduler):
    """Drive a run with an explicit, complete schedule.

    ``thread_order`` is consumed one entry per step; ``values`` one entry
    per in-program choice.  Raises if the run needs more decisions than
    provided — use for constructing specific interleavings in tests.
    """

    def __init__(
        self,
        thread_order: Sequence[str],
        values: Sequence[Any] = (),
    ) -> None:
        self._threads = list(thread_order)
        self._values = list(values)
        self._t = 0
        self._v = 0

    def choose_thread(self, enabled: Sequence[str]) -> str:
        while self._t < len(self._threads):
            candidate = self._threads[self._t]
            self._t += 1
            if candidate in enabled:
                return candidate
        raise RuntimeError("FixedScheduler: thread order exhausted")

    def choose_value(self, options: Sequence[Any]) -> Any:
        if self._v >= len(self._values):
            raise RuntimeError("FixedScheduler: value choices exhausted")
        value = self._values[self._v]
        self._v += 1
        if value not in options:
            raise RuntimeError(
                f"FixedScheduler: {value!r} not in options {options!r}"
            )
        return value
