"""Parallel campaign runner: fan fuzz seed ranges and explore shards
across ``multiprocessing`` workers.

The searches themselves are deterministic per input (a fuzz run is a
pure function of its seed; an explore shard is a pure function of its
pinned prefix), so parallelism is a pure partitioning problem:

* **Fuzz campaigns** (:func:`fuzz_cal_parallel`,
  :func:`fuzz_linearizability_parallel`) split the seed sequence into
  contiguous chunks — one per worker — run each chunk with shrinking
  disabled, and merge the per-chunk :class:`~repro.checkers.fuzz.FuzzReport`
  tallies.  Failures keep their position in the original seed order, so
  the *first* failure is identical to the sequential runner's first
  failure regardless of worker count; it is then re-run and shrunk **in
  the parent** through the exact sequential code path
  (:func:`~repro.checkers.fuzz.fuzz_cal` on that single seed), which
  also re-establishes the sequential report's shrunk schedule.

* **Explore campaigns** (:func:`explore_parallel`) shard the schedule
  space by the first decision point: a probe run discovers its arity
  (:func:`~repro.substrate.explore.shard_plan`), then each worker
  enumerates one ``pin_prefix=[k]`` subtree
  (:func:`~repro.substrate.explore.explore_all`).  Concatenating shard
  results in pin order reproduces exactly the sequential enumeration
  order, so downstream consumers cannot tell the difference.

**Budget propagation.**  Campaigns take a ``deadline`` (seconds); the
parent converts it to an absolute ``time.monotonic()`` instant that is
valid across ``fork``, and every worker stops starting new work once it
passes (fuzz seeds not run are counted ``skipped``; explore shards trip
their :class:`~repro.substrate.explore.ExploreBudget`).  Run/step budgets
apply per shard — a shared counter would serialize the workers.

**Fault tolerance.**  :func:`_map_forked` is a supervisor loop, not a
fire-and-collect pool: a worker that *dies* without delivering a result
(SIGKILL, OOM, segfault) is retried with exponential backoff up to
``max_retries`` times, and a task whose workers keep dying is
**quarantined** — it yields a :class:`WorkerFailure` sentinel instead of
aborting the campaign, and the fuzz runners convert the lost chunk into
explicit ``skipped`` seeds (plus a ``report.quarantined`` entry) so the
loss is never silent.  A Python exception *inside* a task is different:
it is deterministic, so it still aborts — now with the worker's full
traceback.  ``task_timeout`` bounds any single attempt; after the
campaign deadline (plus a grace period) hung workers are killed and
their tasks quarantined, salvaging every completed partial.

**Checkpointing.**  The fuzz runners accept a ``checkpoint`` writer
(see :class:`repro.store.checkpoint.CheckpointWriter`): with
``checkpoint_every`` the seed sequence is chunked by that count instead
of per worker, each finished chunk's partial report is persisted as it
completes, and ``completed`` (chunk index → restored partial) lets a
resumed campaign skip work already in the store.  Because the merge is
associative and order-restoring, a resumed campaign's merged report
equals an uninterrupted run's exactly.

**Fallback.**  Without the ``fork`` start method (or with one worker, or
fewer work items than workers would help with), campaigns run inline in
the parent — same results, no processes.  ``fork`` is required because
setup closures and spec objects need not be picklable; only *results*
cross process boundaries.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.checkers import fuzz as fuzz_drivers
from repro.checkers.caspec import CASpec
from repro.checkers.fuzz import FuzzReport
from repro.checkers.seqspec import SequentialSpec
from repro.checkers.verify import _fold_back
from repro.obs.provenance import ExplorationLedger
from repro.substrate.explore import (
    ExploreBudget,
    SetupFn,
    explore_all,
    shard_plan,
    validate_exploration,
)
from repro.substrate.runtime import RunResult

_T = TypeVar("_T")


def default_workers() -> int:
    """Worker count when the caller does not choose: the CPU count."""
    return os.cpu_count() or 1


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return None


def _child_main(conn, task: Callable[[], Any]) -> None:
    try:
        conn.send(("ok", task()))
    except BaseException:  # noqa: BLE001 — reported to the parent
        # The full traceback, not just repr(exc): worker failures must
        # be diagnosable from the parent's exception alone.
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class WorkerFailure:
    """Sentinel result for a task quarantined by the supervisor.

    Carries enough to report the loss explicitly: the task index, the
    last error (why the worker died or was killed), and how many
    attempts were made.  Campaign runners convert these into ``skipped``
    tallies plus ``quarantined`` report entries — never silent loss.
    """

    __slots__ = ("index", "error", "attempts")

    def __init__(self, index: int, error: str, attempts: int) -> None:
        self.index = index
        self.error = error
        self.attempts = attempts

    def __repr__(self) -> str:
        return (
            f"WorkerFailure(task={self.index}, attempts={self.attempts}, "
            f"error={self.error!r})"
        )


#: Default bounded-retry policy for tasks whose worker died.
DEFAULT_MAX_RETRIES = 2
DEFAULT_RETRY_BACKOFF = 0.05  # seconds; doubles per attempt
#: Wall-clock slack granted past ``deadline_at`` before hung workers are
#: killed and their tasks quarantined (workers normally notice the
#: deadline themselves and return partial reports well within this).
DEFAULT_DEADLINE_GRACE = 5.0
#: Supervisor poll tick: upper bound on reaction latency to timeouts.
_SUPERVISE_TICK = 0.2


def _terminate_all(active: Mapping[Any, Tuple[int, Any, int, float]]) -> None:
    for conn, (_, process, _, _) in list(active.items()):
        process.terminate()
        process.join()
        conn.close()


def _map_forked(
    tasks: Sequence[Callable[[], _T]],
    workers: int,
    trace=None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    task_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    deadline_at: Optional[float] = None,
    deadline_grace: float = DEFAULT_DEADLINE_GRACE,
) -> List[_T]:
    """Run ``tasks`` across at most ``workers`` forked processes.

    Tasks are closures (fork shares the parent's memory, so nothing is
    pickled on the way in); results come back over pipes and must be
    picklable.  Falls back to inline execution when forking is
    unavailable or pointless.

    This is a *supervisor loop*:

    * a worker that dies without a result (SIGKILL, OOM) is retried
      with exponential backoff (``retry_backoff * 2**attempt``) up to
      ``max_retries`` times, then the task is quarantined — its result
      slot holds a :class:`WorkerFailure` instead of aborting the run;
    * a task exceeding ``task_timeout`` seconds on one attempt has its
      worker killed and counts as a death (retry, then quarantine);
    * once ``deadline_at`` (+ ``deadline_grace``) passes, still-running
      workers are killed and unstarted tasks quarantined, salvaging
      every already-completed partial;
    * a Python exception *inside* a task is deterministic — it aborts
      with the worker's full traceback (no retry).

    ``trace`` (parent-owned, never shared with children — forked writers
    would interleave lines) gets ``worker_spawn``/``worker_done`` plus
    ``worker_retry``/``worker_quarantine`` lifecycle events.
    ``on_result`` is called in the parent with ``(index, result)`` as
    each task finishes (both forked and inline paths; quarantined tasks
    deliver their :class:`WorkerFailure`) — the live-progress and
    checkpoint hook used by the campaign runners.
    """
    context = _fork_context()
    if context is None or workers <= 1 or len(tasks) <= 1:
        if trace is not None:
            trace.emit("workers_inline", tasks=len(tasks))
        results = []
        for index, task in enumerate(tasks):
            result = task()
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results
    results: List[Any] = [None] * len(tasks)
    pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(tasks))]
    not_before: Dict[int, float] = {}  # task index -> earliest retry instant
    # conn -> (task index, process, attempt, started_at)
    active: Dict[Any, Tuple[int, Any, int, float]] = {}

    def settle(index: int, result: Any) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)

    def worker_died(index: int, attempt: int, error: str, retryable: bool) -> None:
        if retryable and attempt < max_retries:
            not_before[index] = time.monotonic() + retry_backoff * (2 ** attempt)
            pending.append((index, attempt + 1))
            if trace is not None:
                trace.emit(
                    "worker_retry", task=index, attempt=attempt + 1, error=error
                )
            return
        if trace is not None:
            trace.emit(
                "worker_quarantine", task=index, attempts=attempt + 1, error=error
            )
        settle(index, WorkerFailure(index, error, attempt + 1))

    try:
        while pending or active:
            now = time.monotonic()
            expired = (
                deadline_at is not None and now >= deadline_at + deadline_grace
            )
            if expired and pending:
                # Salvage mode: nothing new starts; what finished, stays.
                for index, attempt in pending:
                    worker_died(
                        index,
                        attempt,
                        "campaign deadline expired before the task ran",
                        retryable=False,
                    )
                pending.clear()
            cursor = 0
            while cursor < len(pending) and len(active) < workers:
                index, attempt = pending[cursor]
                if not_before.get(index, 0.0) > now:
                    cursor += 1
                    continue
                pending.pop(cursor)
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_child_main, args=(child_conn, tasks[index])
                )
                process.start()
                child_conn.close()
                if trace is not None:
                    trace.emit(
                        "worker_spawn",
                        task=index,
                        pid=process.pid,
                        attempt=attempt,
                    )
                active[parent_conn] = (index, process, attempt, time.monotonic())
            if not active:
                if pending:  # every runnable task is backing off
                    soonest = min(
                        not_before.get(index, 0.0) for index, _ in pending
                    )
                    time.sleep(
                        min(max(soonest - time.monotonic(), 0.0), _SUPERVISE_TICK)
                        or 0.001
                    )
                continue
            for conn in _wait_ready(list(active), timeout=_SUPERVISE_TICK):
                index, process, attempt, _ = active.pop(conn)
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    status = "died"
                    payload = (
                        f"worker for task {index} died without a result "
                        f"(pid {process.pid}, exitcode {process.exitcode})"
                    )
                finally:
                    conn.close()
                process.join()
                if trace is not None:
                    trace.emit("worker_done", task=index, status=status)
                if status == "ok":
                    settle(index, payload)
                elif status == "error":
                    # Deterministic failure inside the task: abort loudly
                    # with the child's full traceback.
                    _terminate_all(active)
                    raise RuntimeError(f"parallel worker failed:\n{payload}")
                else:
                    worker_died(index, attempt, payload, retryable=True)
            now = time.monotonic()
            expired = (
                deadline_at is not None and now >= deadline_at + deadline_grace
            )
            for conn, (index, process, attempt, started) in list(active.items()):
                timed_out = (
                    task_timeout is not None and now - started >= task_timeout
                )
                if not timed_out and not expired:
                    continue
                del active[conn]
                process.terminate()
                process.join()
                conn.close()
                reason = (
                    f"task timeout ({task_timeout}s) exceeded"
                    if timed_out
                    else "killed at campaign deadline (grace expired)"
                )
                if trace is not None:
                    trace.emit("worker_done", task=index, status="killed")
                worker_died(index, attempt, reason, retryable=not expired)
    except BaseException:
        # SIGINT (or any other escape) must not leak forked children.
        _terminate_all(active)
        raise
    return results


# ----------------------------------------------------------------------
# Fuzz campaigns
# ----------------------------------------------------------------------
def _chunk(seeds: Sequence[int], chunks: int) -> List[List[int]]:
    """Deterministic contiguous partition preserving seed order."""
    seeds = list(seeds)
    chunks = max(1, min(chunks, len(seeds)))
    size, extra = divmod(len(seeds), chunks)
    out: List[List[int]] = []
    start = 0
    for k in range(chunks):
        end = start + size + (1 if k < extra else 0)
        out.append(seeds[start:end])
        start = end
    return out


def _chunk_every(seeds: Sequence[int], every: int) -> List[List[int]]:
    """Fixed-size contiguous chunks of ``every`` seeds (checkpoint units).

    Unlike :func:`_chunk`, the partition depends only on ``every`` and
    the seed sequence — never on the worker count — so a resumed
    campaign reconstructs the identical chunk list regardless of how
    many workers either invocation used.
    """
    seeds = list(seeds)
    if not seeds:
        return [[]]
    every = max(1, every)
    return [seeds[i : i + every] for i in range(0, len(seeds), every)]


def _quarantine_report(
    index: int, chunk: List[int], offset: int, failure: WorkerFailure
) -> FuzzReport:
    """The explicit ``skipped`` stand-in for a quarantined fuzz chunk."""
    report = FuzzReport()
    report.skipped = len(chunk)
    report.quarantined = [
        {
            "chunk": index,
            "seed_start": offset,
            "seed_count": len(chunk),
            "error": failure.error,
            "attempts": failure.attempts,
        }
    ]
    return report


def _fuzz_parallel(
    family: str,
    setup: SetupFn,
    spec,
    *,
    seeds: Sequence[int] = range(50),
    workers: Optional[int] = None,
    deadline: Optional[float] = None,
    shrink: bool = True,
    metrics=None,
    trace=None,
    coverage=None,
    progress_every: int = 0,
    checkpoint=None,
    checkpoint_every: int = 0,
    completed: Optional[Mapping[int, FuzzReport]] = None,
    dedup=None,
    task_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    guidance: str = "uniform",
    corpus=None,
    provenance=None,
    **check,
) -> FuzzReport:
    """The parallel campaign behind both fuzz runners.

    ``check`` carries the per-run keywords (``max_steps``, the family's
    ``check_witness``/``search``/``view``, ``faults``, …) forwarded to
    the sequential driver ``fuzz_<family>`` — looked up on its module at
    call time, so a rebound driver is the one that runs.
    """
    driver = getattr(fuzz_drivers, f"fuzz_{family}")
    seeds = list(seeds)
    greybox = guidance != "uniform"
    workers = default_workers() if workers is None else workers
    deadline_at = None if deadline is None else time.monotonic() + deadline
    # Checkpointed campaigns chunk by the checkpoint cadence — a pure
    # function of the seed range, never of the worker count — so an
    # interrupted campaign and its resumption agree on chunk boundaries.
    if checkpoint_every and checkpoint_every > 0:
        chunks = _chunk_every(seeds, checkpoint_every)
    else:
        chunks = _chunk(seeds, workers)
    completed = dict(completed or {})
    started = time.monotonic()
    # Global position of each chunk's first seed: worker coverage
    # trackers sample at offset + local position, so merged saturation
    # curves are keyed by the *sequential* seed position regardless of
    # worker count.
    offsets: List[int] = []
    total = 0
    for chunk in chunks:
        offsets.append(total)
        total += len(chunk)

    def task_for(chunk: List[int], offset: int) -> Callable[[], FuzzReport]:
        # Each worker owns a private registry/tracker (created inside the
        # forked closure, of the caller's classes so profiling hooks
        # survive the fork); snapshots ride back on the report and the
        # parent merges them — merging is associative and commutative, so
        # the totals equal a sequential campaign over the same seeds.
        def run_chunk() -> FuzzReport:
            chunk_coverage = None
            if coverage is not None:
                chunk_coverage = type(coverage)(
                    prefix_depth=coverage.prefix_depth, offset=offset
                )
            # Greybox chunks shrink in the worker: a corpus-guided run is
            # a function of (corpus state, seed), and the chunk's evolved
            # corpus does not exist in the parent, so the parent's
            # confirm re-run could not reproduce the failure there.
            return driver(
                setup,
                spec,
                seeds=chunk,
                shrink=shrink if greybox else False,
                deadline_at=deadline_at,
                metrics=type(metrics)() if metrics is not None else None,
                coverage=chunk_coverage,
                dedup=dedup,
                guidance=guidance,
                corpus=corpus,
                provenance=type(provenance)() if provenance is not None else None,
                **check,
            )
        return run_chunk

    remaining = [index for index in range(len(chunks)) if index not in completed]
    finished = {"chunks": 0, "attempted": 0}
    progress = FuzzReport()
    seen_histories: set = set()
    for index in sorted(completed):
        finished["chunks"] += 1
        finished["attempted"] += len(chunks[index])

    def emit_progress(partial: FuzzReport) -> None:
        if trace is None or not progress_every:
            return
        progress.runs += partial.runs
        progress.unknown += partial.unknown
        progress.skipped += partial.skipped
        progress.failures.extend(partial.failures)
        live = {}
        if partial.coverage is not None:
            seen_histories.update(partial.coverage.get("histories", ()))
            live["distinct_histories"] = len(seen_histories)
        trace.emit(
            "campaign_progress",
            driver=f"fuzz_{family}",
            attempted=finished["attempted"],
            total=total,
            chunks_done=finished["chunks"],
            chunks=len(chunks),
            runs=progress.runs,
            failures=len(progress.failures),
            unknown=progress.unknown,
            skipped=progress.skipped,
            elapsed_s=time.monotonic() - started,
            **live,
        )

    def chunk_done(local_index: int, partial) -> None:
        index = remaining[local_index]
        chunk = chunks[index]
        finished["chunks"] += 1
        finished["attempted"] += len(chunk)
        if isinstance(partial, WorkerFailure):
            if checkpoint is not None:
                checkpoint.chunk_quarantined(
                    index, offsets[index], len(chunk), partial.error
                )
            emit_progress(_quarantine_report(index, chunk, offsets[index], partial))
            return
        if checkpoint is not None:
            checkpoint.chunk_done(index, offsets[index], len(chunk), partial)
        emit_progress(partial)

    partials = _map_forked(
        [task_for(chunks[i], offsets[i]) for i in remaining],
        workers,
        trace=trace,
        on_result=chunk_done,
        task_timeout=task_timeout,
        max_retries=max_retries,
        deadline_at=deadline_at,
    )
    by_index: Dict[int, FuzzReport] = dict(completed)
    for local_index, partial in enumerate(partials):
        index = remaining[local_index]
        if isinstance(partial, WorkerFailure):
            partial = _quarantine_report(
                index, chunks[index], offsets[index], partial
            )
        by_index[index] = partial
    merged = FuzzReport()
    for index in range(len(chunks)):
        merged.merge(by_index[index])
    # Contiguous chunks merged in order ⇒ merged.failures is already in
    # original seed order; the first entry is the sequential winner.
    # Greybox failures arrive already shrunk from their worker (see
    # task_for) — no parent confirm re-run, since replaying the seed
    # without the chunk's corpus state would not reproduce the failure.
    if merged.failures and shrink and not greybox:
        first = merged.failures[0]
        # Confirm re-run gets metrics=None: the campaign stats must keep
        # covering each seed exactly once (shrink replays are excluded
        # from stats in the sequential driver for the same reason).
        confirm = driver(
            setup,
            spec,
            seeds=[first.seed],
            shrink=True,
            **check,
        )
        if confirm.failures:  # deterministic, but never drop a failure
            merged.failures[0] = confirm.failures[0]
    return _fold_back(merged, metrics, coverage, provenance)


def fuzz_cal_parallel(setup: SetupFn, spec: CASpec, **kwargs) -> FuzzReport:
    """:func:`~repro.checkers.fuzz.fuzz_cal` fanned across workers.

    Takes the driver's keywords, with ``workers`` (default: the CPU
    count) and a ``deadline`` in seconds in place of ``deadline_at``,
    plus the durability hooks below.  The merged report's tallies cover all chunks; its first failure is
    bit-identical (seed + schedule + plan) to the sequential runner's,
    regardless of ``workers`` — shrinking happens in the parent, on the
    winning seed only.

    With ``metrics``, each worker records into a private registry and
    the merged snapshots (``report.stats``) total exactly what the
    sequential driver records over the same seeds, counter by counter.
    ``coverage`` behaves the same way: workers track their chunk at its
    global seed offset and the merged tracker equals a sequential run's
    (:meth:`~repro.obs.coverage.CoverageTracker.snapshot` byte-identical).
    ``progress_every > 0`` with a trace sink emits one cumulative
    ``campaign_progress`` event per finished chunk.

    Durability hooks: ``checkpoint`` (a
    :class:`~repro.store.checkpoint.CheckpointWriter`-shaped object)
    persists each finished chunk; ``checkpoint_every`` chunks the seeds
    by that cadence instead of per worker; ``completed`` (chunk index →
    restored partial report) skips chunks a prior interrupted run
    already checkpointed — the merged result equals an uninterrupted
    campaign's.  ``dedup`` (:class:`~repro.store.dedup.ScheduleDedup`)
    skips re-checking schedules a prior campaign already verified.
    ``task_timeout``/``max_retries`` tune the worker supervisor; a chunk
    whose workers keep dying is quarantined into explicit ``skipped``
    seeds plus a ``report.quarantined`` entry instead of aborting.

    ``guidance="greybox"`` gives every chunk its own engine warm-started
    from the shared ``corpus`` snapshot; evolved chunk corpora merge
    into ``report.corpus``.  Greybox failures are shrunk inside their
    worker and the first-failure identity guarantee is relative to a
    sequential campaign over the same *chunk* (guided proposals depend
    on the chunk-local corpus state, not the seed alone).

    ``provenance`` (an :class:`~repro.obs.provenance.ExplorationLedger`)
    follows the coverage discipline: each worker records into a private
    ledger, snapshots ride back on the chunk reports, and the merged
    ledger equals a sequential campaign's byte for byte (the merge law
    is associative and commutative).
    """
    return _fuzz_parallel("cal", setup, spec, **kwargs)


def fuzz_linearizability_parallel(
    setup: SetupFn, spec: SequentialSpec, **kwargs
) -> FuzzReport:
    """:func:`~repro.checkers.fuzz.fuzz_linearizability` fanned across
    workers, with the same determinism guarantees (first failure, merged
    stats and merged coverage), durability hooks (checkpoint, resume,
    dedup, supervised retry/quarantine) and guidance modes as
    :func:`fuzz_cal_parallel`."""
    return _fuzz_parallel("linearizability", setup, spec, **kwargs)


# ----------------------------------------------------------------------
# Explore campaigns
# ----------------------------------------------------------------------
def _sanitize(result: RunResult) -> RunResult:
    """Strip the unpicklable ``World`` before a result crosses a pipe."""
    result.world = None
    return result


def explore_parallel(
    setup: SetupFn,
    max_steps: Optional[int] = None,
    include_incomplete: bool = False,
    preemption_bound: Optional[int] = None,
    budget: Optional[ExploreBudget] = None,
    workers: Optional[int] = None,
    metrics=None,
    trace=None,
    coverage=None,
    reduction: str = "none",
    provenance=None,
) -> List[RunResult]:
    """Enumerate all runs, sharded by the first decision point.

    Returns the same results in the same order as
    ``list(explore_all(setup, ...))`` — each worker owns the subtrees of
    some first-decision alternatives (``pin_prefix=[k]``), and shard
    results are concatenated in ``k`` order.

    ``budget`` semantics under sharding: the deadline is shared (every
    worker gets the remaining wall-clock at campaign entry); ``max_runs``
    and ``step_budget`` apply *per shard*.  Worker tallies are summed
    back into the caller's budget, and a trip in any shard marks it
    tripped — so a cut campaign still reports ``UNKNOWN`` downstream.

    ``metrics`` counts ``explore.runs``/``explore.steps`` over the merged
    results and ``explore.budget_trips`` when the campaign was cut.
    ``coverage`` observes the merged results in enumeration order, so
    sharded and sequential campaigns produce identical trackers.

    ``reduction="sleep-set"`` / ``reduction="dpor"`` apply partial-order
    reduction per shard, with the shards exchanging reduction knowledge
    at their boundaries: shard ``k`` starts with the first-step
    footprints of shards ``0..k-1`` asleep (see
    :func:`~repro.substrate.explore.shard_sleep_seeds`) — the sleep
    state a sequential reduced sweep holds when it enters the root's
    ``k``-th branch — so the sharded sweep prunes like the unsharded
    one and the concatenated shard results equal the sequential reduced
    enumeration.

    ``provenance`` (an :class:`~repro.obs.provenance.ExplorationLedger`)
    audits reduced sweeps: each shard records into a private ledger
    whose snapshot rides back beside the shard results, and the parent
    folds them — the merged ledger's dispositions reconcile against the
    merged visited-schedule count exactly as a sequential sweep's do.
    """
    validate_exploration(reduction, preemption_bound=preemption_bound)
    workers = default_workers() if workers is None else workers
    if budget is not None:
        budget.start()
    pins, seeds = (
        shard_plan(setup, max_steps, reduction)
        if workers > 1 and _fork_context() is not None
        else ([[]], None)
    )
    if len(pins) <= 1:
        results = list(
            explore_all(
                setup,
                max_steps=max_steps,
                include_incomplete=include_incomplete,
                preemption_bound=preemption_bound,
                budget=budget,
                reduction=reduction,
                provenance=provenance,
            )
        )
        _observe_explore(metrics, trace, results, budget, coverage)
        return results
    remaining = budget.remaining_deadline() if budget is not None else None

    def shard_task(
        index: int,
    ) -> Callable[[], Tuple[List[RunResult], ExploreBudget, Optional[dict]]]:
        def run_shard() -> Tuple[List[RunResult], ExploreBudget, Optional[dict]]:
            shard_budget = (
                ExploreBudget(
                    max_runs=budget.max_runs,
                    step_budget=budget.step_budget,
                    deadline=remaining,
                )
                if budget is not None
                else None
            )
            # Private per-shard ledger; its snapshot crosses the pipe
            # (the ledger itself holds only plain dicts, but snapshots
            # are the merge currency everywhere else too).
            shard_ledger = (
                type(provenance)() if provenance is not None else None
            )
            results = [
                _sanitize(result)
                for result in explore_all(
                    setup,
                    max_steps=max_steps,
                    include_incomplete=include_incomplete,
                    preemption_bound=preemption_bound,
                    budget=shard_budget,
                    pin_prefix=pins[index],
                    reduction=reduction,
                    sleep_seed=None if seeds is None else seeds[index],
                    provenance=shard_ledger,
                )
            ]
            return (
                results,
                shard_budget or ExploreBudget(),
                None if shard_ledger is None else shard_ledger.snapshot(),
            )
        return run_shard

    shards = _map_forked(
        [shard_task(index) for index in range(len(pins))],
        workers,
        trace=trace,
        deadline_at=None if remaining is None else time.monotonic() + remaining,
    )
    merged: List[RunResult] = []
    for pin, shard in enumerate(shards):
        if isinstance(shard, WorkerFailure):
            # A lost shard means the sweep is no longer exhaustive.  With
            # a budget, degrade gracefully (tripped → UNKNOWN downstream);
            # without one the caller has no degradation channel, so the
            # loss must abort rather than pass silently.
            if budget is None:
                raise RuntimeError(
                    f"explore shard {pin} quarantined after "
                    f"{shard.attempts} attempt(s): {shard.error}"
                )
            if not budget.tripped:
                budget.tripped = True
                budget.reason = (
                    f"shard {pin} quarantined ({shard.error})"
                )
            continue
        results, shard_budget, shard_ledger = shard
        merged.extend(results)
        if provenance is not None and shard_ledger is not None:
            provenance.merge(ExplorationLedger.from_snapshot(shard_ledger))
        if budget is not None:
            budget.runs += shard_budget.runs
            budget.steps += shard_budget.steps
            if shard_budget.tripped and not budget.tripped:
                budget.tripped = True
                budget.reason = shard_budget.reason
    _observe_explore(metrics, trace, merged, budget, coverage)
    return merged


def _observe_explore(
    metrics, trace, results: List[RunResult], budget, coverage=None
) -> None:
    """Fold a finished explore campaign into metrics/trace/coverage sinks.

    Counts are taken from the *merged* results, so sharded and sequential
    campaigns record identical ``explore.*`` totals (and, with a
    ``coverage`` tracker, identical snapshots — positions follow the
    sequential enumeration order).
    """
    if metrics is not None:
        metrics.count("explore.runs", len(results))
        metrics.count("explore.steps", sum(r.steps for r in results))
        if budget is not None and budget.tripped:
            metrics.count("explore.budget_trips")
    if coverage is not None:
        for position, result in enumerate(results):
            coverage.observe_run(position, result.schedule, result.history)
    if trace is not None:
        trace.emit(
            "explore_end",
            runs=len(results),
            tripped=bool(budget is not None and budget.tripped),
            reason=None if budget is None else budget.reason,
        )
