"""Parallel campaign runner: fan fuzz seed ranges and explore/verify
shards across ``multiprocessing`` workers.

The searches themselves are deterministic per input (a fuzz run is a
pure function of its seed; an exhaustive shard is a pure function of
its pinned prefix), so parallelism is a pure partitioning problem.
Every campaign — fuzz, explore and verify, inline or store-backed —
plans its chunks here and runs them through one runner with one commit,
:func:`_run_chunks`:

* **Fuzz campaigns** (:func:`fuzz_cal_parallel`,
  :func:`fuzz_linearizability_parallel`) split the seed sequence into
  contiguous chunks — one per worker, or one per ``checkpoint_every``
  seeds — run each through the sequential driver, shrinking included,
  and merge the per-chunk :class:`~repro.checkers.fuzz.FuzzReport`
  tallies.  A uniform failure and its shrink are a pure function of its
  seed, so every failure, in seed order, is identical to the sequential
  runner's regardless of worker count.

* **Exhaustive campaigns** (:func:`explore_parallel` and the sharded
  verify runner behind durable verify) shard the schedule space by the
  first decision point (:func:`~repro.substrate.explore.shard_plan`,
  called from :func:`_shard_tasks` only); each worker enumerates one
  ``pin_prefix=[k]`` subtree.  Concatenating shard results in pin order
  reproduces exactly the sequential enumeration order.

The runner commits chunks in the parent in *chunk-index order* — a
chunk that finishes early waits in memory until the chunks before it
land — so a checkpointed campaign writes the same chunks in the same
order at any worker count.  Each kind supplies only its policies: what
a lost chunk becomes, an optional rebase (verify's coverage offset) and
its progress tallies.  A chunk gets the campaign's trace sink only when
it runs in the parent; a forked child gets ``None`` (forked writers
would interleave lines), so its per-run events are not traced, and the
commit emits one cumulative ``campaign_progress`` event per chunk.

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
**quarantined** — it yields a :class:`WorkerFailure` sentinel, which the
commit records and turns into explicit ``skipped`` seeds (fuzz), a
tripped budget or an error (inline explore) or a
:class:`~repro.store.schema.StoreError` (durable explore and verify),
so the loss is never silent.  A Python exception *inside* a task is
deterministic, so it aborts with the worker's full traceback.
``task_timeout`` bounds any single attempt; after the campaign deadline
(plus a grace period) hung workers are killed and their tasks
quarantined, salvaging every completed partial.

**Checkpointing.**  Every runner accepts a ``checkpoint`` writer (see
:class:`repro.store.checkpoint.CheckpointWriter`), which persists each
chunk as it is committed, and ``completed`` (chunk index → restored
chunk), which skips work already in the store.  Because the merges are
associative and order-restoring, a resumed campaign's result equals an
uninterrupted run's exactly.

**Fallback.**  Without the ``fork`` start method (or with one worker, or
one chunk), campaigns run inline in the parent — same results, no
processes.  ``fork`` is required because setup closures and spec
objects need not be picklable; only *results* cross process boundaries.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import Counter, deque
from contextlib import nullcontext
from functools import partial
from itertools import accumulate
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.checkers import fuzz as fuzz_drivers
from repro.checkers.caspec import CASpec
from repro.checkers.fuzz import FuzzReport
from repro.checkers.seqspec import SequentialSpec
from repro.checkers import verify
from repro.obs.provenance import ExplorationLedger
from repro.obs.tracing import TraceSink, span_path
from repro.substrate.explore import (
    ExploreBudget,
    SetupFn,
    explore_all,
    shard_plan,
    validate_exploration,
)
from repro.substrate.runtime import RunResult


def default_workers() -> int:
    """Worker count when the caller does not choose: the CPU count."""
    return os.cpu_count() or 1


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return None


def _child_main(conn, task: Callable[[Any], Any]) -> None:
    try:
        conn.send(("ok", task(None)))
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
    attempts were made.  Fuzz campaigns turn one into ``skipped`` seeds,
    explore campaigns into a tripped budget, and a durable explore or
    verify stops on one — never silent loss.
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
    tasks: Sequence[Callable[[Any], Any]],
    workers: int,
    on_result: Callable[[int, Any], None],
    trace=None,
    task_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    deadline_at: Optional[float] = None,
    deadline_grace: float = DEFAULT_DEADLINE_GRACE,
) -> None:
    """Run ``tasks`` across at most ``workers`` forked processes.

    Tasks are closures (fork shares the parent's memory, so nothing is
    pickled on the way in) called with a trace sink: ``trace`` when the
    task runs in the parent, ``None`` in a forked child.  Results come
    back over pipes and must be picklable; ``on_result(index, result)``
    receives each one in the parent as its task finishes.  Falls back to
    inline execution when forking is unavailable or pointless.

    This is a *supervisor loop*:

    * a worker that dies without a result (SIGKILL, OOM) is retried
      with exponential backoff (``retry_backoff * 2**attempt``) up to
      ``max_retries`` times, then the task is quarantined — its result
      is a :class:`WorkerFailure` instead of aborting the run;
    * a task exceeding ``task_timeout`` seconds on one attempt has its
      worker killed and counts as a death (retry, then quarantine);
    * once ``deadline_at`` (+ ``deadline_grace``) passes, still-running
      workers are killed and unstarted tasks quarantined, salvaging
      every already-completed partial;
    * a Python exception *inside* a task is deterministic — it aborts
      with the worker's full traceback (no retry).

    ``trace`` (parent-owned, never handed to children — forked writers
    would interleave lines) gets ``worker_spawn``/``worker_done`` plus
    ``worker_retry``/``worker_quarantine`` lifecycle events.
    """
    context = _fork_context()
    if context is None or workers <= 1 or len(tasks) <= 1:
        if trace is not None:
            trace.emit("workers_inline", tasks=len(tasks))
        for index, task in enumerate(tasks):
            on_result(index, task(trace))
        return
    pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(tasks))]
    not_before: Dict[int, float] = {}  # task index -> earliest retry instant
    # conn -> (task index, process, attempt, started_at)
    active: Dict[Any, Tuple[int, Any, int, float]] = {}

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
        on_result(index, WorkerFailure(index, error, attempt + 1))

    # Past this instant, running workers are killed and nothing starts.
    kill_at = float("inf") if deadline_at is None else deadline_at + deadline_grace
    try:
        while pending or active:
            now = time.monotonic()
            expired = now >= kill_at
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
                    on_result(index, payload)
                elif status == "error":
                    # Deterministic failure inside the task: abort loudly
                    # with the child's full traceback.
                    _terminate_all(active)
                    raise RuntimeError(f"parallel worker failed:\n{payload}")
                else:
                    worker_died(index, attempt, payload, retryable=True)
            now = time.monotonic()
            expired = now >= kill_at
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


#: ``campaign_progress`` fields that add up across chunks.
_ADDITIVE = ("attempted", "runs", "failures", "unknown", "skipped", "steps")


class _Rebased(TraceSink):
    """The campaign sink as a chunk run in this process sees it.

    The chunk's driver counts from zero; its ``campaign_progress``
    events get the tallies of the chunks committed before it added, and
    the campaign's clock and total, so the live line never steps back.
    Every other event passes through unchanged.
    """

    def __init__(self, sink, base: Counter, started: float, total) -> None:
        super().__init__()
        self.sink, self.base, self.started, self.total = sink, base, started, total

    def _write(self, record: Dict[str, Any]) -> None:
        if record["event"] == "campaign_progress":
            for key in _ADDITIVE:
                if key in record:
                    record[key] += self.base[key]
            record["elapsed_s"] = time.monotonic() - self.started
            if self.total is not None:
                record["total"] = self.total
        self.sink._write(record)


def _fresh(instrument, **kwargs):
    """A chunk's private instrument, of the caller's class so profiling
    hooks survive the fork, or ``None``; a coverage tracker keeps the
    caller's prefix depth.  Its snapshot rides back on the chunk's
    report and the parent merges them — merging is associative and
    commutative, so the totals equal a sequential campaign's."""
    if instrument is None:
        return None
    if "offset" in kwargs:
        kwargs["prefix_depth"] = instrument.prefix_depth
    return type(instrument)(**kwargs)


def _run_chunks(
    tasks: Sequence[Callable[[Any], Any]],
    workers: int,
    *,
    driver: str,
    lost: Callable[[int, WorkerFailure], Any],
    tally: Callable[[int, Any], Dict[str, int]],
    rows: Optional[Sequence[Tuple[int, int]]] = None,
    rebase: Optional[Callable[[Any, List[Any]], Any]] = None,
    stored: Callable[[Any], Any] = lambda value: value,
    trace=None,
    checkpoint=None,
    completed: Optional[Mapping[int, Any]] = None,
    total: Optional[int] = None,
    **supervise: Any,
) -> List[Any]:
    """The one chunk runner behind every campaign, and its one commit.

    Runs the tasks of the chunks missing from ``completed`` (chunk index
    → value restored from a checkpoint) with :func:`_map_forked`, which
    takes the ``supervise`` keywords, and commits each result in
    chunk-index order.  Returns every chunk's kept value, in chunk order.

    The commit is the same for every campaign kind: a result is rebased
    (``rebase(value, values of the chunks before it)``), checkpointed as
    ``stored(value)`` under its row (``rows[index]`` = ``(seed_start,
    seed_count)``, by default ``(index, 1)``: one shard), and counted
    into one cumulative ``campaign_progress`` event whose additive
    fields are the sums of ``tally(index, value)`` over the kept chunks.
    A :class:`WorkerFailure` is recorded quarantined and becomes
    ``lost(index, failure)``, which may raise to stop the campaign.

    With a ``checkpoint``, each chunk gets a ``campaign=<id>/chunk=<n>``
    span: around its work when it runs in this process, around its
    commit when it ran in a forked worker.  A chunk run in this process
    traces into a :class:`_Rebased` view of the sink.
    """
    kept = dict(completed or {})
    counts: Counter = Counter()
    for index in sorted(kept):
        counts.update(tally(index, kept[index]))
    started = time.monotonic()
    ran_here: set = set()

    def chunk_span(sink, index: int):
        if sink is None or checkpoint is None:
            return nullcontext()
        path = span_path(("campaign", checkpoint.campaign_id), ("chunk", index))
        return sink.span("chunk", span_id=path, chunk=index)

    def run(index: int, sink) -> Any:
        ran_here.add(index)  # a forked child adds to its own copy
        if sink is None:
            return tasks[index](None)
        with chunk_span(sink, index):
            return tasks[index](_Rebased(sink, counts.copy(), started, total))

    def commit(index: int, result: Any) -> None:
        start, size = (index, 1) if rows is None else rows[index]
        if isinstance(result, WorkerFailure):
            if checkpoint is not None:
                checkpoint.chunk_quarantined(index, start, size, result.error)
            result = lost(index, result)
        else:
            if rebase is not None:
                result = rebase(result, [kept[k] for k in range(index)])
            if checkpoint is not None:
                with nullcontext() if index in ran_here else chunk_span(trace, index):
                    checkpoint.chunk_done(index, start, size, stored(result))
        kept[index] = result
        counts.update(tally(index, result))
        if trace is not None:
            fields = dict(counts) if total is None else dict(counts, total=total)
            trace.emit(
                "campaign_progress",
                driver=driver,
                chunks_done=len(kept),
                chunks=len(tasks),
                elapsed_s=time.monotonic() - started,
                **fields,
            )

    remaining = [index for index in range(len(tasks)) if index not in kept]
    due = deque(remaining)
    landed: Dict[int, Any] = {}

    def land(local_index: int, result: Any) -> None:
        landed[remaining[local_index]] = result
        while due and due[0] in landed:
            index = due.popleft()
            commit(index, landed.pop(index))

    _map_forked(
        [partial(run, index) for index in remaining], workers, land,
        trace=trace, **supervise,
    )
    return [kept[index] for index in range(len(tasks))]


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


def _fuzz_parallel(
    family: str,
    setup: SetupFn,
    spec,
    *,
    seeds: Sequence[int] = range(50),
    workers: Optional[int] = None,
    deadline: Optional[float] = None,
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
    ``check_witness``/``search``/``view``, ``faults``, ``shrink``, …)
    forwarded to the sequential driver ``fuzz_<family>`` — looked up on
    its module at call time, so a rebound driver is the one that runs.
    """
    driver = getattr(fuzz_drivers, f"fuzz_{family}")
    seeds = list(seeds)
    workers = default_workers() if workers is None else workers
    deadline_at = None if deadline is None else time.monotonic() + deadline
    # Checkpointed campaigns chunk by the checkpoint cadence — a pure
    # function of the seed range, never of the worker count — so an
    # interrupted campaign and its resumption agree on chunk boundaries.
    if checkpoint_every and checkpoint_every > 0:
        chunks = _chunk_every(seeds, checkpoint_every)
    else:
        chunks = _chunk(seeds, workers)
    # Global position of each chunk's first seed: worker coverage
    # trackers sample at offset + local position, so merged saturation
    # curves are keyed by the *sequential* seed position regardless of
    # worker count.
    offsets = list(accumulate((len(chunk) for chunk in chunks[:-1]), initial=0))

    def run_chunk(chunk: List[int], offset: int, sink) -> FuzzReport:
        return driver(
            setup,
            spec,
            seeds=chunk,
            deadline_at=deadline_at,
            metrics=_fresh(metrics),
            trace=sink,
            coverage=_fresh(coverage, offset=offset),
            progress_every=progress_every,
            dedup=dedup,
            guidance=guidance,
            corpus=corpus,
            provenance=_fresh(provenance),
            **check,
        )

    seen_histories: set = set()

    def tally(index: int, report: FuzzReport) -> Dict[str, int]:
        counts = {
            "attempted": len(chunks[index]),
            "runs": report.runs,
            "failures": len(report.failures),
            "unknown": report.unknown,
            "skipped": report.skipped,
        }
        if coverage is not None:
            before = len(seen_histories)
            seen_histories.update((report.coverage or {}).get("histories", ()))
            counts["distinct_histories"] = len(seen_histories) - before
        return counts

    def lost(index: int, failure: WorkerFailure) -> FuzzReport:
        # The lost chunk's explicit stand-in: every seed skipped.
        chunk = chunks[index]
        quarantined = {
            "chunk": index, "seed_start": offsets[index],
            "seed_count": len(chunk), "error": failure.error,
            "attempts": failure.attempts,
        }
        return FuzzReport(skipped=len(chunk), quarantined=[quarantined])

    # Contiguous chunks merged in order ⇒ merged.failures is already in
    # original seed order, each failure shrunk in its own chunk.
    merged = FuzzReport()
    for report in _run_chunks(
        [partial(run_chunk, chunk, offset) for chunk, offset in zip(chunks, offsets)],
        workers,
        driver=f"fuzz_{family}",
        lost=lost,
        tally=tally,
        rows=[(offset, len(chunk)) for chunk, offset in zip(chunks, offsets)],
        trace=trace,
        checkpoint=checkpoint,
        completed=completed,
        total=len(seeds),
        task_timeout=task_timeout,
        max_retries=max_retries,
        deadline_at=deadline_at,
    ):
        merged.merge(report)
    return verify._fold_back(merged, metrics, coverage, provenance)


def fuzz_cal_parallel(setup: SetupFn, spec: CASpec, **kwargs) -> FuzzReport:
    """:func:`~repro.checkers.fuzz.fuzz_cal` fanned across workers.

    Takes the driver's keywords, with ``workers`` (default: the CPU
    count) and a ``deadline`` in seconds in place of ``deadline_at``,
    plus the durability hooks below.  The merged report's tallies cover
    all chunks, and under uniform guidance every failure is
    bit-identical (seed + schedule + plan + history) to the sequential
    runner's, regardless of ``workers``: each chunk shrinks its own
    failures exactly as the sequential driver does, so ``shrink.*``
    counters total the sequential campaign's too.

    With ``metrics``, each worker records into a private registry and
    the merged snapshots (``report.stats``) total exactly what the
    sequential driver records over the same seeds, counter by counter.
    ``coverage`` behaves the same way: workers track their chunk at its
    global seed offset and the merged tracker equals a sequential run's
    (:meth:`~repro.obs.coverage.CoverageTracker.snapshot` byte-identical).
    With a trace sink, every committed chunk emits one cumulative
    ``campaign_progress`` event, and with ``progress_every > 0`` a chunk
    run in this process also emits one every that many seeds.

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
    into ``report.corpus``.  The failure identity guarantee is then
    relative to a sequential campaign over the same *chunk* (guided
    proposals depend on the chunk-local corpus state, not the seed
    alone).

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
    workers, with the same determinism guarantees (every failure, merged
    stats and merged coverage), durability hooks (checkpoint, resume,
    dedup, supervised retry/quarantine) and guidance modes as
    :func:`fuzz_cal_parallel`."""
    return _fuzz_parallel("linearizability", setup, spec, **kwargs)


# ----------------------------------------------------------------------
# Exhaustive campaigns: one chunk per first-decision shard
# ----------------------------------------------------------------------
def _shard_tasks(
    setup: SetupFn, max_steps: Optional[int], reduction: str, sharded: bool,
    run_shard: Callable[[List[int], Optional[dict], Any], Any],
) -> List[Callable[[Any], Any]]:
    """One task per shard, calling ``run_shard(pin_prefix, sleep_seed,
    sink)``: the first-decision shards of
    :func:`~repro.substrate.explore.shard_plan`, or one unsharded sweep."""
    if not sharded:
        return [partial(run_shard, [], None)]
    pins, seeds = shard_plan(setup, max_steps, reduction)
    return [
        partial(run_shard, pin, seed)
        for pin, seed in zip(pins, seeds or [None] * len(pins))
    ]


def _lost_shard(kind: str, checkpoint, index: int, failure: WorkerFailure):
    """A durable shard whose workers keep dying stops the campaign,
    which stays ``interrupted`` for ``resume`` to retry the shard."""
    from repro.store.schema import StoreError

    raise StoreError(
        f"{kind} campaign {checkpoint.campaign_id}: shard {index} lost after "
        f"{failure.attempts} attempt(s) ({failure.error}); resume retries it"
    )


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
    progress_every: int = 0,
    checkpoint=None,
    completed: Optional[Mapping[int, Any]] = None,
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
    sharded and sequential campaigns produce identical trackers.  With
    a trace sink every committed shard emits one cumulative
    ``campaign_progress`` event, and with ``progress_every > 0`` a shard
    run in this process also emits one every that many runs.

    ``reduction="sleep-set"`` / ``reduction="dpor"`` reduce each shard,
    and shard ``k`` starts with the first-step footprints of shards
    ``0..k-1`` asleep (:func:`~repro.substrate.explore.shard_sleep_seeds`),
    so the concatenated shard results equal the sequential reduced
    enumeration.  ``provenance`` (an
    :class:`~repro.obs.provenance.ExplorationLedger`) receives the merge
    of the private ledgers the shards record into.

    Durability hooks, as for the fuzz runners: with a ``checkpoint``
    writer the sweep is always sharded, each shard is committed as a
    chunk (its result list, or ``{"results", "provenance"}`` with a
    ledger) and ``completed`` (shard index → restored chunk) skips the
    shards a prior run committed; a lost shard then stops the campaign
    with a :class:`~repro.store.schema.StoreError`.  A ``budget`` cannot
    be combined with a ``checkpoint``.
    """
    validate_exploration(reduction, preemption_bound=preemption_bound)
    if budget is not None and checkpoint is not None:
        raise ValueError("a budget-cut shard has no stable boundary to resume from")
    workers = default_workers() if workers is None else workers
    if budget is not None:
        budget.start()

    def run_shard(pin: List[int], sleep_seed, sink) -> tuple:
        # A shard budget always counts the runs and steps it visits.
        shard_budget = ExploreBudget(*limits)
        ledger = _fresh(provenance)
        results = list(
            explore_all(
                setup, max_steps=max_steps, budget=shard_budget,
                include_incomplete=include_incomplete,
                preemption_bound=preemption_bound, pin_prefix=pin,
                trace=sink, progress_every=progress_every,
                reduction=reduction, sleep_seed=sleep_seed,
                provenance=ledger,
            )
        )
        for result in results:
            result.world = None  # unpicklable; results cross pipes and stores
        snapshot = None if ledger is None else ledger.snapshot()
        return results, shard_budget, snapshot

    tasks = _shard_tasks(
        setup, max_steps, reduction, workers > 1 or checkpoint is not None,
        run_shard,
    )
    remaining = budget.remaining_deadline() if budget is not None else None
    limits = () if budget is None else (budget.max_runs, budget.step_budget, remaining)

    def lost(pin: int, failure: WorkerFailure) -> tuple:
        if checkpoint is not None:
            _lost_shard("explore", checkpoint, pin, failure)
        # A lost shard means the sweep is no longer exhaustive.  With a
        # budget, degrade gracefully (tripped → UNKNOWN downstream);
        # without one the caller has no degradation channel, so the loss
        # must abort rather than pass silently.
        if budget is None:
            raise RuntimeError(
                f"explore shard {pin} quarantined after "
                f"{failure.attempts} attempt(s): {failure.error}"
            )
        reason = f"shard {pin} quarantined ({failure.error})"
        return [], ExploreBudget(tripped=True, reason=reason), None

    def restored(payload) -> tuple:
        # Ledger-off (and pre-provenance) chunks are bare result lists.
        results, ledger = payload, None
        if isinstance(payload, dict):
            results, ledger = payload["results"], payload.get("provenance")
        steps = sum(result.steps for result in results)
        return results, ExploreBudget(runs=len(results), steps=steps), ledger

    def stored(shard: tuple):
        results, _, ledger = shard
        return results if ledger is None else {"results": results, "provenance": ledger}

    def tally(_, shard: tuple) -> Dict[str, int]:
        results, visited, _ = shard
        return {"attempted": visited.runs, "runs": len(results), "steps": visited.steps}

    merged: List[RunResult] = []
    for results, shard_budget, shard_ledger in _run_chunks(
        tasks,
        workers,
        driver="explore",
        lost=lost,
        tally=tally,
        stored=stored,
        trace=trace,
        checkpoint=checkpoint,
        completed={k: restored(v) for k, v in (completed or {}).items()},
        deadline_at=None if remaining is None else time.monotonic() + remaining,
    ):
        merged.extend(results)
        if provenance is not None and shard_ledger is not None:
            provenance.merge(ExplorationLedger.from_snapshot(shard_ledger))
        if budget is not None:
            budget.runs += shard_budget.runs
            budget.steps += shard_budget.steps
            if shard_budget.tripped and not budget.tripped:
                budget.tripped = True
                budget.reason = shard_budget.reason
    # Counts come from the merged results, in enumeration order, so
    # sharded and sequential campaigns record identical totals and
    # coverage snapshots.
    if metrics is not None:
        metrics.count("explore.runs", len(merged))
        metrics.count("explore.steps", sum(r.steps for r in merged))
        if budget is not None and budget.tripped:
            metrics.count("explore.budget_trips")
    if coverage is not None:
        for position, result in enumerate(merged):
            coverage.observe_run(position, result.schedule, result.history)
    if trace is not None:
        trace.emit(
            "explore_end",
            runs=len(merged),
            tripped=bool(budget is not None and budget.tripped),
            reason=None if budget is None else budget.reason,
        )
    return merged


def _verify_sharded(
    family: str, setup: SetupFn, spec, *, max_steps: Optional[int] = None,
    workers: int = 1, metrics=None, trace=None, coverage=None,
    progress_every: int = 0, checkpoint=None,
    completed: Optional[Mapping[int, Any]] = None, provenance=None, **check,
):
    """``verify_<family>`` by first-decision shards, one chunk each.

    Each shard is verified with ``pin_prefix=[k]`` (and, when ``check``
    carries a ``reduction``, the sleep seed of its siblings — see
    :func:`~repro.substrate.explore.shard_sleep_seeds`); per-shard
    reports merge in pin order to exactly an unsharded sweep's report
    (:meth:`~repro.checkers.verify.VerificationReport.merge`).  A shard
    records coverage from position 0; at commit its samples are shifted
    by the runs attempted in the shards before it, so checkpointed
    reports hold campaign-wide positions and merged saturation curves
    equal a sequential campaign's at any worker count.
    """
    driver = getattr(verify, f"verify_{family}")

    def run_shard(pin: List[int], sleep_seed, sink):
        return driver(
            setup, spec, max_steps=max_steps, metrics=_fresh(metrics),
            trace=sink, coverage=_fresh(coverage, offset=0),
            progress_every=progress_every, pin_prefix=pin,
            sleep_seed=sleep_seed, provenance=_fresh(provenance), **check,
        )

    def rebase(report, before):
        if report.coverage is not None:
            offset = sum(prior.runs + prior.incomplete for prior in before)
            report.coverage = dict(
                report.coverage,
                samples=[
                    [position + offset, fingerprint]
                    for position, fingerprint in report.coverage["samples"]
                ],
            )
        return report

    merged = verify.VerificationReport()
    for report in _run_chunks(
        _shard_tasks(
            setup, max_steps, check.get("reduction", "none"), True, run_shard
        ),
        workers,
        driver=f"verify_{family}",
        lost=lambda index, failure: _lost_shard("verify", checkpoint, index, failure),
        tally=lambda _, report: {
            "attempted": report.runs + report.incomplete, "runs": report.runs,
            "failures": len(report.failures), "unknown": report.unknown,
        },
        rebase=rebase,
        trace=trace,
        checkpoint=checkpoint,
        completed=completed,
    ):
        # Restored shard reports carry their ledger snapshots (they ride
        # inside the pickled report), so resume needs no special casing.
        merged.merge(report)
    return verify._fold_back(merged, metrics, coverage, provenance)


def campaign_runner(kind: str, checker: str) -> Callable[..., Any]:
    """The runner of a ``kind`` campaign (``"fuzz"``, ``"explore"`` or
    ``"verify"``) on a ``checker`` (``"cal"`` or ``"lin"``) workload.

    Store-backed campaigns hand it their ``checkpoint`` writer and the
    restored ``completed`` chunks; the runner owns the chunks.  Looked
    up at call time, so a rebound runner is the one that runs.
    """
    if kind == "explore":
        return explore_parallel
    family = verify._FAMILIES[checker]
    if kind == "verify":
        return partial(_verify_sharded, family)
    return globals()[f"fuzz_{family}_parallel"]
