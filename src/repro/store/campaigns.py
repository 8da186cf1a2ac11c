"""Durable campaign entry points: store-backed fuzz / explore / verify.

These wrap the campaign runners in the store lifecycle that turns a
foreground process into an interruption-safe job:

1. **create-or-resume** — the campaign row is created on first run;
   re-entering the same id (``python -m repro resume``) loads every
   checkpointed chunk and a ``campaign_resume`` trace event records how
   much work is skipped.  Quarantined chunks are *retried* on resume —
   only committed successes are skipped.
2. **run under a checkpoint writer** — the chunks (fuzz seed blocks,
   explore/verify ``pin_prefix`` shards) fan out across the workers
   through the one campaign runner
   (:func:`~repro.checkers.parallel._run_chunks`) and each commits, in
   chunk order, as soon as the chunks before it have; a campaign that
   stops early (``KeyboardInterrupt``, a lost shard) is marked
   ``interrupted`` and the exception re-raised (the CLI exits 130 with
   a resume hint, or with one line naming the lost shard).
3. **persist cross-run knowledge** — on completion the campaign's fresh
   schedule digests and coverage fingerprints are folded into the
   store's fingerprint sets, keyed by ``(workload, checker, width)``, so
   later campaigns can skip already-verified schedules (``--dedup``).
   Greybox fuzz campaigns additionally persist their schedule corpus to
   the ``corpus`` table under the same scope key; a later campaign
   against the same store warm-starts from it, which is how a recorded
   failure keeps paying off across invocations (the regression-hunt
   flow ``bench_e21_guided_search`` measures).

Determinism: chunk boundaries are pure functions of the stored config
(``checkpoint_every`` over the seed range; first-decision arity for
shards), restored chunk payloads are the exact partial reports an
uninterrupted run would have produced, and the merges are associative
and order-restoring — so a resumed campaign's artifact equals an
uninterrupted one's (timers aside).
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional

from repro.obs.provenance import ExplorationLedger
from repro.obs.tracing import span_path
from repro.store.checkpoint import CheckpointWriter, restore_completed
from repro.store.dedup import (
    ScheduleDedup,
    dedup_scope,
    load_dedup,
    persist_fresh,
    probe_width,
)
from repro.store.schema import (
    STATUS_COMPLETE,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    CampaignStore,
    StoreError,
)

#: Fingerprint kinds persisted from a completed campaign's coverage.
COVERAGE_KINDS = ("schedule_prefixes", "histories", "history_shapes")


def default_campaign_id(kind: str, workload: str, config: Dict[str, Any]) -> str:
    """Deterministic id: same command + same config ⇒ same campaign.

    Re-running an identical invocation against the same store therefore
    *continues* it (or, if complete, cheaply reproduces its artifact
    from the checkpoints) instead of starting a sibling.
    """
    digest = hashlib.sha1(
        json.dumps([kind, workload, config], sort_keys=True).encode("utf-8")
    ).hexdigest()[:10]
    return f"{kind}-{workload}-{digest}"


def _span(trace, phase: str, span_id: str, **fields):
    """A hierarchical trace span, or a no-op when tracing is off.

    Campaign runners wrap their campaign and each chunk in spans whose
    ids are pure functions of ``(campaign_id, chunk index)`` — see
    :func:`repro.obs.tracing.span_path` — so the traces of an
    uninterrupted run and of its interrupt/resume pieces reassemble into
    one timeline (:func:`repro.obs.tracing.assemble_spans`).
    """
    if trace is None:
        return nullcontext()
    return trace.span(phase, span_id=span_id, **fields)


@contextmanager
def _running(store: CampaignStore, campaign_id: str, kind: str, trace=None):
    """The campaign span; a campaign that stops early (Ctrl-C, a lost
    shard, a failing task) is left ``interrupted`` for ``resume``."""
    try:
        with _span(
            trace, "campaign", span_path(("campaign", campaign_id)), kind=kind
        ):
            yield
    except BaseException:
        store.set_status(campaign_id, STATUS_INTERRUPTED)
        raise


def _begin(
    store: CampaignStore,
    campaign_id: str,
    kind: str,
    workload: str,
    checker: str,
    config: Dict[str, Any],
    trace=None,
) -> Dict[int, Any]:
    """Create or re-open the campaign; returns restored completed chunks."""
    resumed = store.get_campaign(campaign_id) is not None
    store.create_campaign(campaign_id, kind, workload, checker, config)
    completed = restore_completed(store, campaign_id) if resumed else {}
    if resumed and trace is not None:
        trace.emit(
            "campaign_resume",
            campaign=campaign_id,
            kind=kind,
            chunks_done=len(completed),
            quarantined=len(store.quarantined_chunks(campaign_id)),
        )
    store.set_status(campaign_id, STATUS_RUNNING)
    return completed


def _persist_knowledge(
    store: CampaignStore,
    workload: str,
    checker: str,
    width: int,
    dedup: Optional[ScheduleDedup],
    fresh_schedules: Optional[List[str]],
    coverage,
) -> None:
    """Fold a completed campaign's reusable facts into the store."""
    scope = dedup_scope(workload, checker, width)
    if dedup is not None and fresh_schedules:
        persist_fresh(store, dedup, fresh_schedules)
    if coverage is not None:
        snapshot = coverage.snapshot()
        for kind in COVERAGE_KINDS:
            store.add_fingerprints(
                scope, f"coverage:{kind}", snapshot.get(kind, ())
            )


def durable_fuzz(
    store: CampaignStore,
    campaign_id: str,
    workload: str,
    checker: str,
    setup,
    spec,
    config: Dict[str, Any],
    workers: int = 1,
    metrics=None,
    trace=None,
    coverage=None,
    progress_every: int = 0,
    abort_after: int = 0,
    use_dedup: bool = False,
    driver_kwargs: Optional[Dict[str, Any]] = None,
    provenance=None,
):
    """Run (or resume) a checkpointed fuzz campaign.

    ``config`` must pin everything that shapes the chunking and the
    per-seed work: at least ``seeds``, ``checkpoint_every`` and
    ``max_steps``.  ``driver_kwargs`` carries checker-family extras
    (``search``, ``check_witness``, …) that the CLI re-derives from the
    workload registry on resume.
    """
    from repro.checkers import parallel
    from repro.checkers.verify import _FAMILIES

    completed = _begin(
        store, campaign_id, "fuzz", workload, checker, config, trace=trace
    )
    width = probe_width(setup)
    dedup = load_dedup(store, workload, checker, width) if use_dedup else None
    driver_kwargs = dict(driver_kwargs or {})
    greybox = driver_kwargs.get("guidance") == "greybox"
    scope = dedup_scope(workload, checker, width)
    if greybox and driver_kwargs.get("corpus") is None:
        # Warm-start from every prior campaign's persisted corpus for
        # this (workload, checker, width) scope.  An empty table yields
        # an empty list, which the engine treats as a cold start.
        stored = store.corpus_entries(scope)
        if stored:
            driver_kwargs["corpus"] = stored
        if trace is not None:
            trace.emit(
                "corpus_loaded",
                campaign=campaign_id,
                scope=scope,
                entries=len(stored),
            )
    writer = CheckpointWriter(
        store, campaign_id, trace=trace, abort_after=abort_after
    )
    driver = getattr(parallel, f"fuzz_{_FAMILIES[checker]}_parallel")
    with _running(store, campaign_id, "fuzz", trace):
        report = driver(
            setup,
            spec,
            seeds=range(config["seeds"]),
            workers=max(1, workers),
            max_steps=config["max_steps"],
            metrics=metrics,
            trace=trace,
            coverage=coverage,
            progress_every=progress_every,
            checkpoint=writer,
            checkpoint_every=config["checkpoint_every"],
            completed=completed,
            dedup=dedup,
            provenance=provenance,
            **driver_kwargs,
        )
    store.set_status(campaign_id, STATUS_COMPLETE)
    _persist_knowledge(
        store, workload, checker, width, dedup, report.fresh_schedules, coverage
    )
    if greybox and getattr(report, "corpus", None):
        # The report snapshot already folds the warm-start baseline, so
        # a plain save (INSERT OR REPLACE) is the correct merge.
        store.save_corpus(scope, report.corpus)
        if trace is not None:
            trace.emit(
                "corpus_persisted",
                campaign=campaign_id,
                scope=scope,
                entries=len(report.corpus),
            )
    return report


def _exhaustive_campaign(
    store: CampaignStore,
    campaign_id: str,
    kind: str,
    workload: str,
    checker: str,
    setup,
    config: Dict[str, Any],
    reduction: str,
    shard: Callable[[List[int], Any, Any], Any],
    fold: Callable[[List[Any]], Any],
    workers: int = 1,
    trace=None,
    coverage=None,
    abort_after: int = 0,
    rebase: Optional[Callable[[Any, List[Any]], Any]] = None,
    progress: Optional[Callable[[List[Any]], Dict[str, Any]]] = None,
):
    """Run (or resume) a durable exhaustive campaign, one chunk per shard.

    The first-decision shards (:func:`~repro.substrate.explore.shard_plan`)
    missing from the store fan out across ``workers`` through the
    campaign runner, which commits them in pin order.
    ``shard(pin, sleep_seed, sink)`` computes one shard's checkpoint
    payload; ``rebase(payload, before)`` adjusts it at commit time, given
    the payloads of the shards before it; ``fold(payloads)`` turns all
    payloads, in pin order, into the campaign's result.  A shard run in
    this process gets its chunk span around its work, a forked one
    around its commit.  A forked shard's own ``campaign_progress`` events
    have no sink to reach, so with ``progress`` its commit emits one
    cumulative event instead, whose fields ``progress(payloads)``
    computes over every committed payload.  A shard whose workers keep
    dying is recorded quarantined and stops the campaign with a
    :class:`~repro.store.schema.StoreError`, leaving it ``interrupted``
    for ``resume`` to retry.
    """
    from repro.checkers.parallel import WorkerFailure, _run_chunks
    from repro.substrate.explore import shard_plan

    completed = _begin(
        store, campaign_id, kind, workload, checker, config, trace=trace
    )
    pins, seeds = shard_plan(setup, config["max_steps"], reduction)
    writer = CheckpointWriter(
        store, campaign_id, trace=trace, abort_after=abort_after
    )
    payloads: Dict[int, Any] = dict(completed)
    ran_here: set = set()
    started = time.monotonic()

    def chunk_span(sink, index: int):
        path = span_path(("campaign", campaign_id), ("chunk", index))
        return _span(sink, "chunk", path, chunk=index)

    def task(index: int):
        def run(sink):
            ran_here.add(index)
            with chunk_span(sink, index):
                seed = None if seeds is None else seeds[index]
                return shard(pins[index], seed, sink)
        return run

    def commit(index: int, payload):
        if isinstance(payload, WorkerFailure):
            writer.chunk_quarantined(index, index, 1, payload.error)
            raise StoreError(
                f"{kind} campaign {campaign_id}: shard {index} lost after "
                f"{payload.attempts} attempt(s) ({payload.error}); "
                "resume retries it"
            )
        if rebase is not None:
            payload = rebase(payload, [payloads[k] for k in range(index)])
        with nullcontext() if index in ran_here else chunk_span(trace, index):
            writer.chunk_done(index, index, 1, payload)
        payloads[index] = payload
        if progress is not None and trace is not None and index not in ran_here:
            trace.emit(
                "campaign_progress",
                chunks_done=len(payloads),
                chunks=len(pins),
                elapsed_s=time.monotonic() - started,
                **progress(list(payloads.values())),
            )
        return payload

    with _running(store, campaign_id, kind, trace):
        tasks = [task(index) for index in range(len(pins))]
        shards = _run_chunks(tasks, workers, commit, completed, trace=trace)
    result = fold(shards)
    store.set_status(campaign_id, STATUS_COMPLETE)
    _persist_knowledge(
        store, workload, checker, probe_width(setup), None, None, coverage
    )
    return result


def durable_explore(
    store: CampaignStore,
    campaign_id: str,
    workload: str,
    checker: str,
    setup,
    config: Dict[str, Any],
    workers: int = 1,
    metrics=None,
    trace=None,
    coverage=None,
    abort_after: int = 0,
    provenance=None,
):
    """Run (or resume) a checkpointed exhaustive enumeration.

    Shards by the first decision point (the same partition
    :func:`~repro.checkers.parallel.explore_parallel` uses), fans the
    shards out across ``workers`` and commits each shard's sanitised
    results as a chunk, in pin order.  Budgets are unsupported here
    because a cut shard has no stable boundary to resume from.
    ``config`` may carry ``reduction`` (``"none"`` | ``"sleep-set"`` |
    ``"dpor"``); reduced shards exchange sleep state at their boundaries
    (see :func:`~repro.substrate.explore.shard_sleep_seeds`), so the
    merged enumeration equals an unsharded reduced sweep — and, because
    the seeds are a pure function of ``setup``, a resumed campaign's
    remaining shards prune exactly as the uninterrupted run's did.
    """
    from repro.checkers.parallel import _explore_shard, _observe_explore
    from repro.substrate.explore import validate_exploration

    reduction = config.get("reduction", "none")
    validate_exploration(reduction)

    def shard(pin, sleep_seed, sink):
        # Each shard records into a private ledger whose snapshot is
        # checkpointed beside the shard's results, so a resumed
        # campaign's merged ledger equals an uninterrupted one's — the
        # coverage discipline.
        results, ledger = _explore_shard(
            setup, pin, sleep_seed, provenance,
            max_steps=config["max_steps"], reduction=reduction,
        )
        if ledger is None:
            return results
        return {"results": results, "provenance": ledger}

    def fold(payloads):
        merged: List[Any] = []
        for payload in payloads:
            # Checkpoints from pre-provenance campaigns (or ledger-off
            # runs) restore as bare result lists; ledger-on chunks
            # restore as {"results", "provenance"} payloads.
            if isinstance(payload, dict):
                if provenance is not None and payload.get("provenance"):
                    provenance.merge(
                        ExplorationLedger.from_snapshot(payload["provenance"])
                    )
                merged.extend(payload["results"])
            else:
                merged.extend(payload)
        _observe_explore(metrics, trace, merged, None, coverage)
        return merged

    return _exhaustive_campaign(
        store, campaign_id, "explore", workload, checker, setup, config,
        reduction, shard, fold, workers, trace, coverage, abort_after,
    )


def durable_verify(
    store: CampaignStore,
    campaign_id: str,
    workload: str,
    checker: str,
    setup,
    spec,
    config: Dict[str, Any],
    workers: int = 1,
    metrics=None,
    trace=None,
    coverage=None,
    progress_every: int = 0,
    abort_after: int = 0,
    driver_kwargs: Optional[Dict[str, Any]] = None,
    provenance=None,
):
    """Run (or resume) a checkpointed exhaustive verification.

    One chunk per first-decision shard, each verified with
    ``pin_prefix=[k]`` across ``workers`` and committed in pin order;
    per-shard reports merge in pin order to exactly an unsharded sweep's
    report (:meth:`~repro.checkers.verify.VerificationReport.merge`).
    Each shard records coverage from position 0; at commit time its
    samples are shifted by the runs attempted in the shards before it,
    so checkpointed reports hold campaign-wide positions and merged
    saturation curves equal a sequential campaign's at any worker count.
    When ``driver_kwargs`` carries a ``reduction``, shards additionally
    exchange sleep state at their boundaries
    (:func:`~repro.substrate.explore.shard_sleep_seeds`), so the merged
    reduced sweep checks the same runs as an unsharded one.
    """
    from repro.checkers import verify
    from repro.substrate.explore import validate_exploration

    driver_kwargs = driver_kwargs or {}
    reduction = driver_kwargs.get("reduction", "none")
    validate_exploration(
        reduction, preemption_bound=driver_kwargs.get("preemption_bound")
    )
    driver = getattr(verify, f"verify_{verify._FAMILIES[checker]}")

    def shard(pin, sleep_seed, sink):
        return driver(
            setup,
            spec,
            max_steps=config["max_steps"],
            metrics=type(metrics)() if metrics is not None else None,
            trace=sink,
            coverage=(
                type(coverage)(prefix_depth=coverage.prefix_depth)
                if coverage is not None
                else None
            ),
            progress_every=progress_every,
            pin_prefix=pin,
            sleep_seed=sleep_seed,
            provenance=type(provenance)() if provenance is not None else None,
            **driver_kwargs,
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

    def progress(reports):
        return dict(
            driver=f"verify_{verify._FAMILIES[checker]}",
            attempted=sum(r.runs + r.incomplete for r in reports),
            runs=sum(r.runs for r in reports),
            failures=sum(len(r.failures) for r in reports),
            unknown=sum(r.unknown for r in reports),
        )

    def fold(reports):
        merged = verify.VerificationReport()
        for report in reports:
            merged.merge(report)
        # Restored shard reports carry their ledger snapshots (they ride
        # inside the pickled report), so resume needs no special casing.
        return verify._fold_back(merged, metrics, coverage, provenance)

    return _exhaustive_campaign(
        store, campaign_id, "verify", workload, checker, setup, config,
        reduction, shard, fold, workers, trace, coverage, abort_after, rebase,
        progress if progress_every else None,
    )


__all__ = [
    "COVERAGE_KINDS",
    "default_campaign_id",
    "durable_explore",
    "durable_fuzz",
    "durable_verify",
]
