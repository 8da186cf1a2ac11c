"""Source-set dynamic partial-order reduction with wakeup trees.

Sleep sets alone *enumerate-then-skip*: every branch of every decision
node is still visited, and redundant ones are cut only after the
scheduler reaches them, so wide programs pay close to full enumeration
cost in pruned partial runs.  DPOR inverts the control: an explored run
is analysed for **races** — pairs of steps by different agents that are
adjacent in the happens-before order and dependent under
the effect-footprint independence relation — and only the schedule
reversals those races demand are queued, as **wakeup sequences** at the
node where the race's earlier step was scheduled.  A branch that no race
asks for is never generated at all.

The construction follows Flanagan–Godefroid DPOR with the wakeup-tree
refinement of Abdulla et al.'s source-set DPOR:

* Happens-before is computed per run with vector clocks over the same
  footprints sleep sets use (:func:`~repro.substrate.independence
  .footprint_of`), so OPAQUE effects and TSO flush pseudo-threads are
  handled exactly as conservatively here as there — an OPAQUE step
  depends on everything, and a flush agent's footprint covers the owning
  thread's buffer.
* For a race ``(i, j)`` the planned reversal is the *wakeup sequence*
  ``notdep(i) · agent(j)``: the agents of the steps between ``i`` and
  ``j`` not happens-after ``i``, followed by the later racer.  The
  sequence is recorded at ``i``'s node and, when its branch is taken,
  guides scheduling below the node until it diverges or is used up.
* An insertion is skipped when a *weak initial* of the sequence is
  already in the node's sleep set (the reversal commutes into an
  explored branch) or when a queued sequence already starts with the
  same agent (classic DPOR's backtrack-set semantics: one branch per
  thread per node suffices for completeness; the tail is guidance).
* If the sequence's head is not schedulable at the node (a TSO flush
  pseudo-thread whose buffer is empty there, for instance), the first
  *enabled* weak initial is rotated to the front; if none is enabled,
  the engine falls back to classic DPOR's conservative move and queues
  every enabled non-sleeping agent.

Sleep sets are kept as well (they are what makes source-set DPOR
*source-set*): a completed branch's agent sleeps in its siblings until a
dependent step wakes it, so the engine never re-explores a reversal from
the other side.  A sleeping agent is never scheduled, not even as the
head of a planned wakeup sequence: its step commutes into a branch
already explored, so the plan is dropped like one whose head is not
enabled.  On every pinned program the engine visits no more schedules
than Godefroid's sleep-set search alone, which it replaced; it runs
through the replay loop in :mod:`repro.substrate.explore`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.substrate.independence import (
    OPAQUE,
    WILDCARD,
    Footprint,
    footprint_of,
    independent,
)
from repro.substrate.runtime import Runtime


class _PrunedRun(Exception):
    """Raised from ``choose_thread`` to abandon a redundant continuation.

    ``Runtime.run`` calls ``choose_thread`` outside its crash-handling
    ``try``, so this propagates cleanly to the explorer without being
    mistaken for a thread crash.
    """


class _PinnedNode:
    """A ``pin_prefix`` decision: replayed verbatim, never backtracked."""

    __slots__ = ("chosen",)

    def __init__(self, chosen: int) -> None:
        self.chosen = chosen


def _pinned_choice(node: _PinnedNode, arity: int) -> int:
    """``node``'s pinned choice, checked against the decision's arity."""
    if not 0 <= node.chosen < arity:
        raise ValueError(
            f"pin prefix out of range: {node.chosen} not in [0, {arity})"
        )
    return node.chosen


class _ValueNode:
    """An in-program ``Choose`` decision: enumerated exhaustively."""

    __slots__ = ("arity", "chosen")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.chosen = 0


class _DporNode:
    """A thread-choice node: sleep set plus queued wakeup sequences."""

    __slots__ = ("enabled", "sleep", "chosen", "footprint", "wakeup", "plan")

    def __init__(
        self, enabled: Tuple[str, ...], sleep: Dict[str, Footprint]
    ) -> None:
        self.enabled = enabled
        self.sleep = sleep  # tid -> footprint of its pending step
        self.chosen = 0  # index into enabled
        self.footprint: Optional[Footprint] = None  # of the executed step
        self.wakeup: List[Tuple[str, ...]] = []  # queued reversal sequences
        self.plan: Tuple[str, ...] = ()  # sequence tail guiding the subtree


class _Event:
    """One executed step of the current run, for race analysis."""

    __slots__ = ("node", "agent", "footprint")

    def __init__(
        self, node: Optional[_DporNode], agent: str, footprint: Footprint
    ) -> None:
        self.node = node  # None for steps under a pinned decision
        self.agent = agent
        self.footprint = footprint


class DporExplorer:
    """Drives source-set DPOR over a persistent decision-node stack.

    The replay loop of :func:`repro.substrate.explore.explore_all` calls
    ``begin_run`` / ``on_thread_choice`` / ``on_value_choice`` /
    ``on_step`` / ``end_run`` / ``backtrack``.  ``end_run`` is where
    DPOR earns its keep: the finished run's race analysis queues wakeup
    sequences on the stack's nodes, and ``backtrack`` only ever advances
    to a branch some race asked for.

    ``sleep_seed`` (thread -> footprint of its pending first step) seeds
    the sleep set of the first *unpinned* thread-choice node, so shard
    ``k`` starts with the sleep state a sequential sweep carries into
    the root's ``k``-th branch (see :func:`repro.substrate.explore
    .shard_sleep_seeds`).  Like an in-run sleeper, a seeded one
    survives only while independent of every pinned step, and faults
    (steps with no footprint) drop the whole seed.
    """

    def __init__(
        self,
        pin_prefix: Sequence[int],
        sleep_seed: Optional[Dict[str, Footprint]] = None,
        ledger=None,
    ) -> None:
        self.stack: List[Any] = [_PinnedNode(c) for c in pin_prefix]
        self._pinned = len(pin_prefix)
        self._replay_len = 0
        self._depth = 0
        self._sleep_seed: Dict[str, Footprint] = dict(sleep_seed or {})
        self._seed_live: Dict[str, Footprint] = {}
        self._awaiting_pinned_step = False
        self._pending_sleep: Dict[str, Footprint] = {}
        self._pending_plan: Tuple[str, ...] = ()
        self._current: Optional[_DporNode] = None
        self._memory_model = "sc"
        self.pruned = 0
        self.races = 0  # immediate races analysed (stat)
        self.wakeups = 0  # wakeup sequences queued (stat)
        self.ledger = ledger  # optional ExplorationLedger (provenance)
        # The kind of the backtrack advance that armed the *next*
        # attempt.  The replay loop commits it to the ledger only when
        # that attempt actually begins — a budget cut between backtrack
        # and attempt must not leave a dangling advance on the books.
        self.staged_advance: Optional[str] = None
        self.events: List[_Event] = []
        self._suffix_start: Optional[int] = None

    def begin_run(self, runtime: Runtime) -> None:
        """Arm the explorer for one run over ``runtime``."""
        self._replay_len = len(self.stack)
        self._depth = 0
        self._pending_sleep = dict(self._sleep_seed)
        self._seed_live = dict(self._sleep_seed)
        self._awaiting_pinned_step = False
        self._pending_plan = ()
        self._current = None
        self._memory_model = runtime.memory_model
        self.events = []
        self._suffix_start = None
        runtime.observer = self.on_step

    def _note_unobserved_step(self) -> None:
        """Account for a chosen step that never reached ``on_step``.

        An injected fault or a crashed thread mutates state without
        reporting an effect — under TSO a crash even *drops* the store
        buffer, disabling the flush pseudo-thread whose steps carried
        the only memory footprint of the buffered writes.  Record the
        step as OPAQUE (it races with everything, so reversals around
        it are still generated) and queue every other schedulable agent
        at its node: agents the fault disables (that flush
        pseudo-thread) never execute in any extension of this branch,
        so no race can ever name them — only exploring the siblings
        outright keeps the sweep complete.  Fault-free runs never take
        this path, so they keep the optimal behaviour.
        """
        node = self._current
        self._current = None
        if node is None:
            return
        agent = node.enabled[node.chosen]
        if self._suffix_start is None and self._depth >= self._replay_len:
            self._suffix_start = len(self.events)
        self.events.append(_Event(node, agent, OPAQUE))
        queued = {entry[0] for entry in node.wakeup}
        for sibling in node.enabled:
            if (
                sibling == agent
                or sibling in node.sleep
                or sibling in queued
            ):
                continue
            node.wakeup.append((sibling,))
            self.wakeups += 1
            if self.ledger is not None:
                self.ledger.record_wakeup("queued_unobserved")

    # -- scheduler callbacks -------------------------------------------
    def on_thread_choice(self, enabled: Tuple[str, ...]) -> int:
        self._note_unobserved_step()
        if self._awaiting_pinned_step:
            # The pinned step reported no footprint (fault/crash):
            # conservatively drop the shard seed.
            self._seed_live = {}
            self._awaiting_pinned_step = False
        inherited = self._pending_sleep
        self._pending_sleep = {}
        plan = self._pending_plan
        self._pending_plan = ()
        if self._depth < self._replay_len:
            node = self.stack[self._depth]
            self._depth += 1
            if isinstance(node, _PinnedNode):
                self._awaiting_pinned_step = True
                return _pinned_choice(node, len(enabled))
            if not isinstance(node, _DporNode) or node.enabled != enabled:
                raise RuntimeError(
                    "replay desync: nondeterministic setup?"
                )
            self._current = node
            self._pending_plan = node.plan
            return node.chosen
        node = _DporNode(enabled, inherited)
        index: Optional[int] = None
        if plan:
            head = plan[0]
            if head in enabled and head not in node.sleep:
                index = enabled.index(head)
                node.plan = tuple(plan[1:])
            # else: the program diverged from the planned reversal
            # (the agent finished, is not schedulable here, or sleeps:
            # its step commutes into a branch already explored) — drop
            # the tail and fall back to default exploration; any
            # reversal still needed re-emerges from this subtree's
            # own race analysis.
        if index is None:
            for i, tid in enumerate(enabled):
                if tid not in node.sleep:
                    index = i
                    break
        if index is None:
            raise _PrunedRun()
        node.chosen = index
        self.stack.append(node)
        self._depth += 1
        self._current = node
        self._pending_plan = node.plan
        return index

    def on_value_choice(self, arity: int) -> int:
        if self._depth < self._replay_len:
            node = self.stack[self._depth]
            self._depth += 1
            if isinstance(node, _PinnedNode):
                return _pinned_choice(node, arity)
            if not isinstance(node, _ValueNode):
                raise RuntimeError(
                    "replay desync: nondeterministic setup?"
                )
            return node.chosen
        node = _ValueNode(arity)
        self.stack.append(node)
        self._depth += 1
        return node.chosen

    # -- runtime observer ----------------------------------------------
    def on_step(self, tid: str, effect: Any) -> None:
        node = self._current
        self._current = None
        step = footprint_of(tid, effect, self._memory_model)
        if node is None:
            # A pinned decision's step: filter the shard seed through it.
            self._awaiting_pinned_step = False
            if self._seed_live:
                self._seed_live = {
                    sleeper: pending
                    for sleeper, pending in self._seed_live.items()
                    if independent(pending, step)
                }
            self._pending_sleep = dict(self._seed_live)
        else:
            node.footprint = step
            self._pending_sleep = {
                sleeper: pending
                for sleeper, pending in node.sleep.items()
                if independent(pending, step)
            }
            if self._suffix_start is None and self._depth >= self._replay_len:
                # The new part of this run starts at the step of the
                # last replayed decision — the one ``backtrack``
                # advanced — not at the first freshly-created node:
                # races ending at the advanced branch's own first step
                # must be analysed too.
                self._suffix_start = len(self.events)
        self.events.append(_Event(node, tid, step))

    # -- race analysis --------------------------------------------------
    def end_run(self) -> None:
        """Analyse the finished (or pruned) run and queue reversals.

        Computes happens-before with vector clocks built from direct
        dependence predecessors (last writer / readers-since per token,
        program order, and a catch-all edge through the latest OPAQUE
        step), then, for every *immediate* race ``(i, j)`` — ``i`` a
        direct predecessor of ``j`` by another agent, with no
        intervening happens-before path — queues the wakeup sequence
        ``notdep(i)·agent(j)`` at ``i``'s node.  Only events from the
        first freshly-created node onward are checked for races: the
        replayed prefix was analysed when it was first run.
        """
        self._note_unobserved_step()
        events = self.events
        if not events:
            return
        suffix = (
            self._suffix_start
            if self._suffix_start is not None
            else len(events)
        )
        last_writer: Dict[Tuple[Any, ...], int] = {}
        readers_since: Dict[Tuple[Any, ...], List[int]] = {}
        last_of_agent: Dict[str, int] = {}
        last_wild: Optional[int] = None
        clocks: List[Dict[str, int]] = []
        for j, event in enumerate(events):
            footprint = event.footprint
            wild = (
                WILDCARD in footprint.reads or WILDCARD in footprint.writes
            )
            preds: Set[int] = set()
            po = last_of_agent.get(event.agent)
            if po is not None:
                preds.add(po)
            if last_wild is not None:
                preds.add(last_wild)
            if wild:
                preds.update(last_of_agent.values())
            else:
                for token in footprint.reads:
                    writer = last_writer.get(token)
                    if writer is not None:
                        preds.add(writer)
                for token in footprint.writes:
                    writer = last_writer.get(token)
                    if writer is not None:
                        preds.add(writer)
                    preds.update(readers_since.get(token, ()))
            clock: Dict[str, int] = {}
            for p in preds:
                for agent, upto in clocks[p].items():
                    if clock.get(agent, -1) < upto:
                        clock[agent] = upto
            clock[event.agent] = j
            clocks.append(clock)
            if j >= suffix:
                self._queue_reversals(events, clocks, preds, j)
            last_of_agent[event.agent] = j
            if wild:
                last_wild = j
            else:
                for token in footprint.writes:
                    last_writer[token] = j
                    readers_since[token] = []
                for token in footprint.reads:
                    readers_since.setdefault(token, []).append(j)

    def _queue_reversals(
        self,
        events: List[_Event],
        clocks: List[Dict[str, int]],
        preds: Set[int],
        j: int,
    ) -> None:
        """Queue a wakeup sequence for each immediate race ending at ``j``."""
        agent_j = events[j].agent
        for i in preds:
            event_i = events[i]
            if event_i.agent == agent_j:
                continue  # program order, not a race
            # Immediate only: another direct predecessor already
            # happening-after i means the race is transitive — the
            # reversal it would demand is demanded by a closer pair.
            if any(
                clocks[p].get(event_i.agent, -1) >= i
                for p in preds
                if p != i
            ):
                continue
            self.races += 1
            node = event_i.node
            if self.ledger is not None:
                evidence = None
                if self.ledger.wants_race_evidence(
                    event_i.agent, agent_j, i, j
                ):
                    evidence = {
                        "earlier": event_i.agent,
                        "later": agent_j,
                        "i": i,
                        "j": j,
                        "clock": dict(clocks[j]),
                    }
                self.ledger.record_race(
                    event_i.agent, agent_j, pinned=node is None,
                    evidence=evidence,
                )
            if node is None:
                # The earlier racer ran under a pinned decision: this
                # shard cannot backtrack there, and need not — every
                # alternative of the pinned decision has its own shard.
                continue
            self._insert_wakeup(node, events, clocks, i, j)

    def _insert_wakeup(
        self,
        node: _DporNode,
        events: List[_Event],
        clocks: List[Dict[str, int]],
        i: int,
        j: int,
    ) -> None:
        """Queue ``notdep(i)·agent(j)`` at ``node`` unless covered."""
        agent_i = events[i].agent
        sequence_idx = [
            k
            for k in range(i + 1, j)
            if clocks[k].get(agent_i, -1) < i  # not happens-after e_i
        ]
        sequence_idx.append(j)
        # Weak initials: events of the sequence with no happens-before
        # predecessor inside the sequence — the agents that could run
        # first in some linearisation of the reversal.
        initials: List[str] = []
        initial_set: Set[str] = set()
        for position, k in enumerate(sequence_idx):
            clock_k = clocks[k]
            if any(
                clock_k.get(events[m].agent, -1) >= m
                for m in sequence_idx[:position]
            ):
                continue
            agent = events[k].agent
            if agent not in initial_set:
                initials.append(agent)
                initial_set.add(agent)
        if initial_set & node.sleep.keys():
            # The reversal commutes into a branch already explored (or
            # queued and completed) from this node: redundant.
            if self.ledger is not None:
                self.ledger.record_wakeup("rejected_sleep_covered")
            return
        current = node.enabled[node.chosen]
        queued_heads = {entry[0] for entry in node.wakeup}
        agents = [events[k].agent for k in sequence_idx]
        entry: Optional[Tuple[str, ...]] = None
        rotated = False
        if agents[0] in node.enabled:
            entry = tuple(agents)
        else:
            # The natural head is not schedulable at this node (e.g. a
            # flush pseudo-thread whose buffer is empty there): rotate
            # the first *enabled* weak initial to the front — the
            # sequence stays a linearisation of the same reversal.
            for head in initials:
                if head in node.enabled:
                    rest = [a for a in agents if a != head]
                    entry = (head, *rest)
                    rotated = True
                    break
        if entry is not None:
            head = entry[0]
            if head == current or head in queued_heads:
                if self.ledger is not None:
                    self.ledger.record_wakeup("rejected_duplicate_head")
                return  # that branch is already exploring/queued
            node.wakeup.append(entry)
            self.wakeups += 1
            if self.ledger is not None:
                self.ledger.record_wakeup(
                    "queued_rotated" if rotated else "queued"
                )
            return
        # No weak initial is schedulable at the node: fall back to
        # classic DPOR's conservative move and queue every enabled
        # agent not already covered.
        for agent in node.enabled:
            if (
                agent in node.sleep
                or agent == current
                or agent in queued_heads
            ):
                continue
            node.wakeup.append((agent,))
            queued_heads.add(agent)
            self.wakeups += 1
            if self.ledger is not None:
                self.ledger.record_wakeup("queued_conservative")

    # -- backtracking ---------------------------------------------------
    def backtrack(self) -> bool:
        """Advance to the next unexplored leaf; False when exhausted."""
        stack = self.stack
        while len(stack) > self._pinned:
            node = stack[-1]
            if isinstance(node, _ValueNode):
                if node.chosen + 1 < node.arity:
                    node.chosen += 1
                    self.staged_advance = "value_flip"
                    return True
                stack.pop()
                continue
            # The chosen subtree is fully explored: its agent sleeps,
            # then the node takes its next branch, if it has one.
            done = node.enabled[node.chosen]
            node.sleep[done] = (
                node.footprint if node.footprint is not None else OPAQUE
            )
            while node.wakeup:
                head, *tail = node.wakeup.pop(0)
                if head in node.sleep:
                    if self.ledger is not None:
                        self.ledger.record_wakeup(
                            "rejected_covered_since_queued"
                        )
                    continue  # covered since it was queued
                node.chosen = node.enabled.index(head)
                node.plan = tuple(tail)
                node.footprint = None
                self.staged_advance = "race_reversal"
                return True
            stack.pop()
        return False
