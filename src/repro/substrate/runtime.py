"""The small-step interpreter.

A :class:`World` holds everything shared between threads: the heap, the
history ``H`` (the record of invocations/responses at object interfaces,
Def. 2) and the auxiliary trace variable ``T`` of §4 (a growing CA-trace).

A :class:`Runtime` steps a set of generator threads under a scheduler.
Each step: pick an enabled thread, resume its generator, interpret the
yielded effect atomically, remember the result for the thread's next
resumption.  Monitors observe every transition with pre/post snapshots of
the shared state — this is the hook the rely/guarantee checker uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.actions import Invocation, Response
from repro.core.catrace import CAElement, CATrace
from repro.core.history import History
from repro.substrate.context import Ctx
from repro.substrate.effects import (
    CAS,
    Alloc,
    AssertNow,
    AssertStable,
    Choose,
    Effect,
    Free,
    Guard,
    Invoke,
    LogTrace,
    Pause,
    Protect,
    Query,
    Read,
    Respond,
    Retract,
    Unguard,
    Write,
    same_value,
)
from repro.substrate.errors import ExplorationCut
from repro.substrate.faults import CRASH, DELAY, STALL, FaultInjector, FaultPlan
from repro.substrate.memory import RECLAIM_GC, Heap, Ref
from repro.substrate.schedulers import Scheduler, flush_id

#: Memory models the runtime can execute under.
MEMORY_SC = "sc"
MEMORY_TSO = "tso"
MEMORY_MODELS = (MEMORY_SC, MEMORY_TSO)


class SubstrateError(Exception):
    """Base class for substrate failures."""


class ThreadCrashed(SubstrateError):
    """A thread generator raised an exception."""

    def __init__(self, tid: str, cause: BaseException) -> None:
        super().__init__(f"thread {tid} crashed: {cause!r}")
        self.tid = tid
        self.cause = cause


class AssertionFailed(SubstrateError, AssertionError):
    """A proof-outline assertion failed when issued."""

    def __init__(self, tid: str, name: str, when: str) -> None:
        super().__init__(f"assertion {name!r} of thread {tid} failed {when}")
        self.tid = tid
        self.name = name


class World:
    """Shared state of one run: heap + history ``H`` + auxiliary trace ``T``.

    ``policy`` selects the heap's memory-reclamation policy (see
    :mod:`repro.substrate.memory`); the default ``"gc"`` never recycles
    node identities, preserving the historical semantics bit-for-bit.
    """

    def __init__(self, policy: str = RECLAIM_GC) -> None:
        self.heap = Heap(policy)
        self._actions: List[Any] = []
        self._trace: List[CAElement] = []
        #: Interval assertions registered via ``ctx.assert_stable`` —
        #: keyed by (owner thread, assertion name); see StabilityMonitor.
        self.active_assertions: Dict[
            Tuple[str, str], Callable[["World"], bool]
        ] = {}

    # -- history -------------------------------------------------------
    def record_invocation(
        self, tid: str, oid: str, method: str, args: Tuple[Any, ...]
    ) -> None:
        self._actions.append(Invocation(tid, oid, method, args))

    def record_response(
        self, tid: str, oid: str, method: str, value: Tuple[Any, ...]
    ) -> None:
        self._actions.append(Response(tid, oid, method, value))

    @property
    def history(self) -> History:
        return History(self._actions)

    # -- auxiliary trace T (§4) -----------------------------------------
    def append_trace(self, elements: Iterable[CAElement]) -> None:
        for element in elements:
            if not isinstance(element, CAElement):
                raise TypeError(f"not a CA-element: {element!r}")
            self._trace.append(element)

    @property
    def trace(self) -> CATrace:
        return CATrace(self._trace)


@dataclass
class _Thread:
    tid: str
    generator: Generator[Effect, Any, Any]
    inbox: Any = None
    started: bool = False
    finished: bool = False
    result: Any = None
    #: Non-None when the thread was silently halted (crash/stall/injected
    #: fault) rather than returning; such threads contribute no entry to
    #: ``RunResult.returns`` and their last invocation stays pending.
    halted_reason: Optional[str] = None


@dataclass
class RunResult:
    """Outcome of one run.

    ``counters`` tallies effect outcomes (reads, writes, cas_success,
    cas_failure, pauses, bookkeeping) — the raw material for simulated-
    time cost models (see :mod:`repro.workloads.contention`).

    ``crashed`` maps silently-halted threads to a human-readable cause
    (an injected fault, or the repr of the exception that killed the
    thread).  A run with crashes still *completes* — the survivors ran
    to quiescence — but its history may contain pending invocations;
    the checkers handle those (see ``History.complete_with``).
    """

    history: History
    trace: CATrace
    returns: Dict[str, Any]
    completed: bool
    steps: int
    schedule: List[int] = field(default_factory=list)
    world: Optional[World] = None
    counters: Dict[str, int] = field(default_factory=dict)
    crashed: Dict[str, str] = field(default_factory=dict)

    def __repr__(self) -> str:
        status = "completed" if self.completed else "cut"
        crashed = f", crashed={sorted(self.crashed)}" if self.crashed else ""
        return (
            f"RunResult({status}, steps={self.steps}, "
            f"|H|={len(self.history)}, |T|={len(self.trace)}{crashed})"
        )


ProgramFn = Callable[[Ctx], Generator[Effect, Any, Any]]


class Runtime:
    """Steps a family of threads to completion under a scheduler.

    ``faults`` attaches a :class:`~repro.substrate.faults.FaultPlan`
    applied deterministically as threads step (see :meth:`inject`).

    ``on_crash`` controls what happens when a thread's generator raises:
    ``"record"`` (default) treats the thread as silently halted — the run
    continues, the cause lands in ``RunResult.crashed``, and the thread's
    invocation stays pending in ``H`` — while ``"raise"`` restores the
    historical abort-the-run behaviour (useful when a crash can only be
    a harness bug).

    ``memory_model`` selects the execution memory model.  The default
    ``"sc"`` is sequential consistency (every write is immediately
    visible — the historical semantics, unchanged).  ``"tso"`` gives each
    thread a FIFO store buffer: writes enqueue locally and become visible
    only when a ``~flush:<tid>`` pseudo-thread step (an ordinary
    scheduler decision — see :mod:`repro.substrate.schedulers`) commits
    the oldest entry.  Reads forward from the issuing thread's own buffer
    (newest matching entry first); a CAS drains the issuing thread's
    buffer in the same atomic step (x86 semantics: CAS is a full fence).
    An injected crash *drops* the victim's buffered writes; a stall
    leaves them to drain through the flush pseudo-thread.
    """

    def __init__(
        self,
        world: World,
        programs: Mapping[str, ProgramFn],
        scheduler: Scheduler,
        monitors: Sequence[Any] = (),
        faults: Optional[FaultPlan] = None,
        on_crash: str = "record",
        memory_model: str = MEMORY_SC,
    ) -> None:
        if on_crash not in ("record", "raise"):
            raise ValueError(f"on_crash must be 'record' or 'raise': {on_crash!r}")
        if memory_model not in MEMORY_MODELS:
            raise ValueError(
                f"memory_model must be one of {MEMORY_MODELS}: {memory_model!r}"
            )
        self.world = world
        self.scheduler = scheduler
        self.monitors = list(monitors)
        self.on_crash = on_crash
        self.memory_model = memory_model
        self._threads: Dict[str, _Thread] = {}
        for tid, program in programs.items():
            ctx = Ctx(tid)
            self._threads[tid] = _Thread(tid, program(ctx))
        #: Per-thread FIFO store buffers (TSO only): oldest entry first.
        #: A thread has an entry only while its buffer is non-empty.
        self._buffers: Dict[str, List[Tuple[Ref, Any, Optional[Callable]]]] = {}
        self._tso = memory_model == MEMORY_TSO
        #: Flush pseudo-thread id -> the thread whose buffer it drains,
        #: in program order.  Empty under SC.
        self._flush_owners: Dict[str, str] = (
            {flush_id(tid): tid for tid in self._threads} if self._tso else {}
        )
        #: The enabled set as of the last liveness or buffer-occupancy
        #: change; ``None`` once such a change makes it stale.
        self._enabled: Optional[Tuple[str, ...]] = None
        self.steps = 0
        self.counters: Dict[str, int] = {}
        self.crashed: Dict[str, str] = {}
        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults) if faults is not None else None
        )
        #: Optional step observer, ``fn(tid, effect_or_None)``, called
        #: after each interpreted step (flush steps report as their
        #: ``~flush:<tid>`` pseudo-thread with a synthesized Write; a
        #: thread's finishing step reports ``None``).  The DPOR explorer
        #: (:mod:`repro.substrate.dpor`) attaches here to compute
        #: per-step footprints; ``None`` (the default) is
        #: bit-identical to the pre-hook runtime.
        self.observer: Optional[Callable[[str, Optional[Effect]], None]] = None

    # ------------------------------------------------------------------
    @property
    def thread_ids(self) -> List[str]:
        return list(self._threads)

    def inject(self, faults: Optional[FaultPlan]) -> "Runtime":
        """Attach (or clear) a fault plan before running; returns self."""
        self._injector = FaultInjector(faults) if faults is not None else None
        return self

    def enabled(self) -> List[str]:
        """The ids that may take the next step: unfinished threads in
        program order, then the flush pseudo-thread of every non-empty
        store buffer, in program order of its owner."""
        return list(self._enabled_ids())

    def _enabled_ids(self) -> Tuple[str, ...]:
        """:meth:`enabled` as a cached tuple.

        The set changes only when a thread finishes, crashes or halts, a
        write lands in an empty store buffer, or a flush or drain
        empties one; each of those clears ``_enabled``.
        """
        enabled = self._enabled
        if enabled is None:
            ids = [t.tid for t in self._threads.values() if not t.finished]
            # A non-empty store buffer keeps its flush pseudo-thread
            # enabled even after the owner finished — buffered writes
            # must still reach memory for the run to complete.
            ids.extend(
                fid for fid, owner in self._flush_owners.items()
                if owner in self._buffers
            )
            enabled = self._enabled = tuple(ids)
        return enabled

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        """Run until all threads finish, halt, or ``max_steps`` is reached.

        Monitors' ``on_finish`` hooks run on every non-exceptional exit —
        completion, a ``max_steps`` cut, or an ``ExplorationCut`` — so
        monitor state is never silently lost.
        """
        for monitor in self.monitors:
            start = getattr(monitor, "on_start", None)
            if start is not None:
                start(self.world)
        flush_owners = self._flush_owners
        while True:
            enabled = self._enabled
            if enabled is None:
                enabled = self._enabled_ids()
            if not enabled:
                break
            if max_steps is not None and self.steps >= max_steps:
                return self._finish(completed=False)
            tid = self.scheduler.choose_thread(enabled)
            if tid in flush_owners:
                self._flush_one(flush_owners[tid])
                continue
            try:
                self.step_thread(tid)
            except ThreadCrashed as crash:
                if isinstance(crash.cause, ExplorationCut):
                    return self._finish(completed=False)
                if self.on_crash == "raise":
                    raise
                self._halt(tid, f"crashed: {crash.cause!r}", drop_buffer=True)
        return self._finish(completed=True)

    def _finish(self, completed: bool) -> RunResult:
        for monitor in self.monitors:
            finish = getattr(monitor, "on_finish", None)
            if finish is not None:
                finish(self.world)
        return self._result(completed)

    def _halt(self, tid: str, reason: str, drop_buffer: bool = False) -> None:
        """Silently halt ``tid``: it never steps again, its invocation
        stays pending, and the cause is surfaced in ``RunResult.crashed``.

        Under TSO, ``drop_buffer`` discards the thread's buffered writes
        (a crash loses them); otherwise they stay enabled to drain
        through the flush pseudo-thread (a stalled thread's store buffer
        is still flushed by the hardware).
        """
        thread = self._threads[tid]
        thread.finished = True
        thread.halted_reason = reason
        self.crashed[tid] = reason
        self._enabled = None
        if drop_buffer:
            dropped = self._buffers.pop(tid, None)
            if dropped:
                self.counters["tso_dropped"] = (
                    self.counters.get("tso_dropped", 0) + len(dropped)
                )

    def _result(self, completed: bool) -> RunResult:
        counters = dict(self.counters)
        # Fold the heap's reclamation tallies into the run counters.
        # Only non-zero entries, so default-policy runs without Alloc
        # effects keep bit-identical counters to the pre-reclamation
        # substrate (the gc-mode differential guarantee).
        for name, value in self.world.heap.stats.items():
            if value:
                counters[f"heap_{name}"] = value
        return RunResult(
            history=self.world.history,
            trace=self.world.trace,
            returns={
                t.tid: t.result
                for t in self._threads.values()
                if t.finished and t.halted_reason is None
            },
            completed=completed,
            steps=self.steps,
            world=self.world,
            counters=counters,
            crashed=dict(self.crashed),
        )

    # ------------------------------------------------------------------
    def step_thread(self, tid: str) -> None:
        """Advance thread ``tid`` by one atomic step (public: used by the
        virtual-time throughput runner and by tests)."""
        thread = self._threads[tid]
        if self._injector is not None:
            verdict = self._injector.before_step(tid)
            if verdict is not None:
                self._apply_fault(tid, verdict)
                return
        try:
            if thread.started:
                effect = thread.generator.send(thread.inbox)
            else:
                thread.started = True
                effect = next(thread.generator)
        except StopIteration as stop:
            thread.finished = True
            thread.result = stop.value
            self._enabled = None
            self.steps += 1
            if self.observer is not None:
                self.observer(tid, None)
            return
        except Exception as exc:  # noqa: BLE001 — surfaced with context
            thread.finished = True
            self._enabled = None
            raise ThreadCrashed(tid, exc) from exc

        if not self.monitors:
            thread.inbox = self._interpret(tid, effect)
            self.steps += 1
            if self.observer is not None:
                self.observer(tid, effect)
            return
        pre = self.world.heap.snapshot()
        pre_trace = self.world.trace
        thread.inbox = self._interpret(tid, effect)
        self.steps += 1
        if self.observer is not None:
            self.observer(tid, effect)
        post = self.world.heap.snapshot()
        post_trace = self.world.trace
        for monitor in self.monitors:
            monitor.on_transition(
                tid, effect, thread.inbox, pre, post, pre_trace, post_trace
            )

    def _apply_fault(self, tid: str, verdict: str) -> None:
        """Execute an injected fault as one atomic step of ``tid``."""
        assert self._injector is not None
        if verdict == DELAY:
            # An extra Pause dropped into the thread: one scheduling
            # point, the generator does not advance.  Monitors see it as
            # a stutter (pre == post).
            self._count("injected_pause")
            self.steps += 1
            if self.monitors:
                snapshot = self.world.heap.snapshot()
                trace = self.world.trace
                effect = Pause("fault-injected delay")
                for monitor in self.monitors:
                    monitor.on_transition(
                        tid, effect, None, snapshot, snapshot, trace, trace
                    )
            return
        step = self._injector.halted_step(tid)
        if verdict == CRASH:
            self._halt(tid, f"injected crash at thread step {step}", drop_buffer=True)
        elif verdict == STALL:
            self._halt(tid, f"injected stall at thread step {step}")
        else:  # pragma: no cover — defensive
            raise SubstrateError(f"unknown fault verdict: {verdict!r}")
        self._count("injected_halt")
        self.steps += 1

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    # ------------------------------------------------------------------
    # TSO store buffers
    # ------------------------------------------------------------------
    def _flush_one(self, tid: str) -> None:
        """Commit the oldest buffered write of ``tid`` as one atomic step.

        This is the interpretation of a ``~flush:<tid>`` pseudo-thread
        decision.  Flush steps never consult the fault injector (the
        hardware drains store buffers regardless of software faults) and
        never advance ``tid``'s own step/CAS counters.
        """
        buffer = self._buffers.get(tid)
        if not buffer:  # pragma: no cover — defensive (stale flush id)
            return
        ref, value, on_commit = buffer.pop(0)
        if not buffer:
            del self._buffers[tid]
            self._enabled = None
        want_snapshots = bool(self.monitors)
        pre = self.world.heap.snapshot() if want_snapshots else None
        pre_trace = self.world.trace if want_snapshots else None
        ref.poke(value)
        if on_commit is not None:
            on_commit(self.world)
        self._count("tso_flush")
        self.steps += 1
        if self.observer is not None:
            self.observer(flush_id(tid), Write(ref, value, on_commit))
        if want_snapshots:
            post = self.world.heap.snapshot()
            post_trace = self.world.trace
            effect = Write(ref, value)
            for monitor in self.monitors:
                monitor.on_transition(
                    flush_id(tid), effect, None, pre, post, pre_trace, post_trace
                )

    def _drain_buffer(self, tid: str) -> None:
        """Commit every buffered write of ``tid`` in FIFO order, inside
        the current atomic step (the CAS-as-fence path)."""
        buffer = self._buffers.pop(tid, None)
        if not buffer:
            return
        self._enabled = None
        for ref, value, on_commit in buffer:
            ref.poke(value)
            if on_commit is not None:
                on_commit(self.world)
            self._count("tso_flush")

    # ------------------------------------------------------------------
    # Effect interpretation: one handler per effect type, looked up by
    # ``type(effect)`` in ``_HANDLERS``.  Each handler tallies its own
    # counters, in the order ``RunResult.counters`` records them.
    # ------------------------------------------------------------------
    def _interpret(self, tid: str, effect: Effect) -> Any:
        handler = _HANDLERS.get(type(effect))
        if handler is None:
            handler = _inherited_handler(effect)
        return handler(self, tid, effect)

    def _on_read(self, tid: str, effect: Read) -> Any:
        counters = self.counters
        counters["read"] = counters.get("read", 0) + 1
        value = effect.ref.peek()
        buffer = self._buffers.get(tid)
        if buffer:
            # Store-to-load forwarding (TSO): the newest matching entry
            # of the thread's own buffer shadows shared memory.
            for ref, buffered, _ in reversed(buffer):
                if ref is effect.ref:
                    value = buffered
                    break
        if effect.on_result is not None:
            effect.on_result(self.world, value)
        return value

    def _on_write(self, tid: str, effect: Write) -> None:
        counters = self.counters
        counters["write"] = counters.get("write", 0) + 1
        if self._tso:
            # Enqueue locally; visibility waits for a flush step.
            entry = (effect.ref, effect.value, effect.on_commit)
            buffer = self._buffers.get(tid)
            if buffer:
                buffer.append(entry)
            else:
                # The first buffered write enables the flush pseudo-thread.
                self._buffers[tid] = [entry]
                self._enabled = None
            return None
        effect.ref.poke(effect.value)
        if effect.on_commit is not None:
            effect.on_commit(self.world)
        return None

    def _on_cas(self, tid: str, effect: CAS) -> bool:
        if tid in self._buffers:
            # CAS is a full fence (x86): the issuing thread's buffer
            # commits before the compare, inside this atomic step.
            self._drain_buffer(tid)
        counters = self.counters
        if self._injector is not None and self._injector.on_cas(tid):
            # Weak-CAS semantics: fail without comparing or writing.
            counters["cas_spurious"] = counters.get("cas_spurious", 0) + 1
            return False
        if same_value(effect.ref.peek(), effect.expected):
            counters["cas_success"] = counters.get("cas_success", 0) + 1
            effect.ref.poke(effect.new)
            if effect.on_success is not None:
                effect.on_success(self.world)
            return True
        counters["cas_failure"] = counters.get("cas_failure", 0) + 1
        return False

    def _on_alloc(self, tid: str, effect: Alloc) -> Any:
        mode = (
            self._injector.on_alloc(tid)
            if self._injector is not None
            else None
        )
        node, reused = self.world.heap.alloc_node(
            effect.tag, dict(effect.fields), mode=mode
        )
        counters = self.counters
        counters["alloc"] = counters.get("alloc", 0) + 1
        if reused:
            counters["cell_reuse"] = counters.get("cell_reuse", 0) + 1
        return node

    def _on_free(self, tid: str, effect: Free) -> None:
        defer = (
            self._injector.on_free(tid)
            if self._injector is not None
            else False
        )
        retired = self.world.heap.retire_node(effect.node, defer=defer)
        counters = self.counters
        if defer:
            counters["free_deferred"] = counters.get("free_deferred", 0) + 1
        elif retired:
            counters["free"] = counters.get("free", 0) + 1
        return None

    def _on_guard(self, tid: str, effect: Guard) -> None:
        self.world.heap.pin(tid)
        counters = self.counters
        counters["guard"] = counters.get("guard", 0) + 1
        return None

    def _on_unguard(self, tid: str, effect: Unguard) -> None:
        self.world.heap.unpin(tid)
        self.world.heap.clear_hazards(tid)
        counters = self.counters
        counters["unguard"] = counters.get("unguard", 0) + 1
        return None

    def _on_protect(self, tid: str, effect: Protect) -> None:
        self.world.heap.protect(tid, effect.slot, effect.node)
        counters = self.counters
        counters["protect"] = counters.get("protect", 0) + 1
        return None

    def _on_pause(self, tid: str, effect: Pause) -> None:
        counters = self.counters
        counters["pause"] = counters.get("pause", 0) + 1
        return None

    def _on_choose(self, tid: str, effect: Choose) -> Any:
        counters = self.counters
        counters["bookkeeping"] = counters.get("bookkeeping", 0) + 1
        return self.scheduler.choose_value(effect.options)

    def _on_invoke(self, tid: str, effect: Invoke) -> None:
        counters = self.counters
        counters["bookkeeping"] = counters.get("bookkeeping", 0) + 1
        self.world.record_invocation(tid, effect.oid, effect.method, effect.args)
        return None

    def _on_respond(self, tid: str, effect: Respond) -> None:
        counters = self.counters
        counters["bookkeeping"] = counters.get("bookkeeping", 0) + 1
        self.world.record_response(tid, effect.oid, effect.method, effect.value)
        return None

    def _on_log_trace(self, tid: str, effect: LogTrace) -> None:
        counters = self.counters
        counters["bookkeeping"] = counters.get("bookkeeping", 0) + 1
        self.world.append_trace(effect.elements)
        return None

    def _on_query(self, tid: str, effect: Query) -> Any:
        counters = self.counters
        counters["bookkeeping"] = counters.get("bookkeeping", 0) + 1
        return effect.fn(self.world)

    def _on_assert_now(self, tid: str, effect: AssertNow) -> None:
        if not effect.predicate(self.world):
            raise AssertionFailed(tid, effect.name, "at its program point")
        return None

    def _on_assert_stable(self, tid: str, effect: AssertStable) -> None:
        if not effect.predicate(self.world):
            raise AssertionFailed(tid, effect.name, "at registration")
        self.world.active_assertions[(tid, effect.name)] = effect.predicate
        return None

    def _on_retract(self, tid: str, effect: Retract) -> None:
        self.world.active_assertions.pop((tid, effect.name), None)
        return None


#: Effect type -> its handler.  A new effect type needs an entry here;
#: a subclass of a listed type is interpreted as its nearest listed base.
_HANDLERS: Dict[type, Callable[[Runtime, str, Any], Any]] = {
    Read: Runtime._on_read,
    Write: Runtime._on_write,
    CAS: Runtime._on_cas,
    Alloc: Runtime._on_alloc,
    Free: Runtime._on_free,
    Guard: Runtime._on_guard,
    Unguard: Runtime._on_unguard,
    Protect: Runtime._on_protect,
    Pause: Runtime._on_pause,
    Choose: Runtime._on_choose,
    Invoke: Runtime._on_invoke,
    Respond: Runtime._on_respond,
    LogTrace: Runtime._on_log_trace,
    Query: Runtime._on_query,
    AssertNow: Runtime._on_assert_now,
    AssertStable: Runtime._on_assert_stable,
    Retract: Runtime._on_retract,
}


def _inherited_handler(effect: Effect) -> Callable[[Runtime, str, Any], Any]:
    """The handler of the nearest listed base in ``type(effect).__mro__``."""
    for base in type(effect).__mro__:
        handler = _HANDLERS.get(base)
        if handler is not None:
            return handler
    raise SubstrateError(f"unknown effect: {effect!r}")
