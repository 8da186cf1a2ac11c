"""Durable campaign entry points: store-backed fuzz / explore / verify.

These wrap the campaign runners in the store lifecycle that turns a
foreground process into an interruption-safe job:

1. **create-or-resume** — the campaign row is created on first run;
   re-entering the same id (``python -m repro resume``) loads every
   checkpointed chunk and a ``campaign_resume`` trace event records how
   much work is skipped.  Quarantined chunks are *retried* on resume —
   only committed successes are skipped.
2. **run under a checkpoint writer** — each finished chunk (fuzz seed
   block, explore/verify ``pin_prefix`` shard) commits before the next
   begins to matter; ``KeyboardInterrupt`` marks the campaign
   ``interrupted`` and re-raises (the CLI exits 130 with a resume hint).
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
from contextlib import nullcontext
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
    try:
        with _span(
            trace, "campaign", span_path(("campaign", campaign_id)), kind="fuzz"
        ):
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
    except KeyboardInterrupt:
        store.set_status(campaign_id, STATUS_INTERRUPTED)
        raise
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


def _sweep_shards(
    store: CampaignStore,
    campaign_id: str,
    kind: str,
    setup,
    max_steps: Optional[int],
    reduction: str,
    completed: Dict[int, Any],
    run_shard: Callable[[int, List[int], Any, Dict[int, Any]], Any],
    trace=None,
    abort_after: int = 0,
) -> List[Any]:
    """Run a sharded exhaustive campaign, one checkpointed chunk per shard.

    Shards by the first decision point
    (:func:`~repro.substrate.explore.shard_plan`, the partition
    :func:`~repro.checkers.parallel.explore_parallel` uses) and runs the
    shards missing from ``completed`` sequentially in pin order, each in
    a chunk span and committed as it finishes.  Reduced sweeps hand each
    shard the sleep state of its siblings — a pure function of
    ``setup``, so a resumed campaign's remaining shards prune exactly as
    the uninterrupted run's did.
    ``run_shard(index, pin, sleep_seed, shards)`` returns one shard's
    checkpoint payload; ``shards`` already holds the payloads of every
    shard before it.  Returns all payloads in pin order.
    """
    from repro.substrate.explore import shard_plan

    pins, seeds = shard_plan(setup, max_steps, reduction)
    writer = CheckpointWriter(
        store, campaign_id, trace=trace, abort_after=abort_after
    )
    shards: Dict[int, Any] = dict(completed)
    try:
        with _span(
            trace, "campaign", span_path(("campaign", campaign_id)), kind=kind
        ):
            for index, pin in enumerate(pins):
                if index in shards:
                    continue
                with _span(
                    trace,
                    "chunk",
                    span_path(("campaign", campaign_id), ("chunk", index)),
                    chunk=index,
                ):
                    payload = run_shard(
                        index, pin, None if seeds is None else seeds[index], shards
                    )
                writer.chunk_done(index, index, 1, payload)
                shards[index] = payload
    except KeyboardInterrupt:
        store.set_status(campaign_id, STATUS_INTERRUPTED)
        raise
    return [shards[index] for index in range(len(pins))]


def durable_explore(
    store: CampaignStore,
    campaign_id: str,
    workload: str,
    checker: str,
    setup,
    config: Dict[str, Any],
    metrics=None,
    trace=None,
    coverage=None,
    abort_after: int = 0,
    provenance=None,
):
    """Run (or resume) a checkpointed exhaustive enumeration.

    Shards by the first decision point (the same partition
    :func:`~repro.checkers.parallel.explore_parallel` uses) and commits
    each shard's sanitised results as a chunk.  Shards run sequentially
    in pin order — durable explore trades worker fan-out for
    checkpointability; budgets are unsupported here because a cut shard
    has no stable boundary to resume from.  ``config`` may carry
    ``reduction`` (``"none"`` | ``"sleep-set"`` | ``"dpor"``); reduced
    shards exchange sleep state at their boundaries (see
    :func:`~repro.substrate.explore.shard_sleep_seeds`), so the merged
    enumeration equals an unsharded reduced sweep — and, because the
    seeds are a pure function of ``setup``, a resumed campaign's
    remaining shards prune exactly as the uninterrupted run's did.
    """
    from repro.checkers.parallel import _observe_explore, _sanitize
    from repro.substrate.explore import explore_all, validate_exploration

    reduction = config.get("reduction", "none")
    validate_exploration(reduction)
    completed = _begin(
        store, campaign_id, "explore", workload, checker, config, trace=trace
    )

    def run_shard(index, pin, sleep_seed, shards):
        # Each shard records into a private ledger whose snapshot is
        # checkpointed beside the shard's results, so a resumed
        # campaign's merged ledger equals an uninterrupted one's — the
        # coverage discipline.
        shard_ledger = type(provenance)() if provenance is not None else None
        results = [
            _sanitize(result)
            for result in explore_all(
                setup,
                max_steps=config["max_steps"],
                pin_prefix=pin,
                reduction=reduction,
                sleep_seed=sleep_seed,
                provenance=shard_ledger,
            )
        ]
        if shard_ledger is None:
            return results
        return {"results": results, "provenance": shard_ledger.snapshot()}

    merged: List[Any] = []
    for payload in _sweep_shards(
        store,
        campaign_id,
        "explore",
        setup,
        config["max_steps"],
        reduction,
        completed,
        run_shard,
        trace=trace,
        abort_after=abort_after,
    ):
        # Checkpoints from pre-provenance campaigns (or ledger-off runs)
        # restore as bare result lists; ledger-on chunks restore as
        # {"results", "provenance"} payloads.
        if isinstance(payload, dict):
            if provenance is not None and payload.get("provenance"):
                provenance.merge(
                    ExplorationLedger.from_snapshot(payload["provenance"])
                )
            merged.extend(payload["results"])
        else:
            merged.extend(payload)
    _observe_explore(metrics, trace, merged, None, coverage)
    store.set_status(campaign_id, STATUS_COMPLETE)
    _persist_knowledge(
        store, workload, checker, probe_width(setup), None, None, coverage
    )
    return merged


def durable_verify(
    store: CampaignStore,
    campaign_id: str,
    workload: str,
    checker: str,
    setup,
    spec,
    config: Dict[str, Any],
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
    ``pin_prefix=[k]`` and committed as it finishes; per-shard reports
    merge in pin order to exactly an unsharded sweep's report
    (:meth:`~repro.checkers.verify.VerificationReport.merge`).  Shards
    run sequentially because each shard's coverage tracker is seeded
    with the cumulative attempted-run count of the shards before it —
    the offset that keeps merged saturation curves identical to a
    sequential campaign's.  When ``driver_kwargs`` carries a
    ``reduction``, shards additionally exchange sleep state at their
    boundaries (:func:`~repro.substrate.explore.shard_sleep_seeds`), so
    the merged reduced sweep checks the same runs as an unsharded one.
    """
    from repro.checkers import verify
    from repro.substrate.explore import validate_exploration

    reduction = (driver_kwargs or {}).get("reduction", "none")
    validate_exploration(
        reduction,
        preemption_bound=(driver_kwargs or {}).get("preemption_bound"),
    )
    completed = _begin(
        store, campaign_id, "verify", workload, checker, config, trace=trace
    )
    driver = getattr(verify, f"verify_{verify._FAMILIES[checker]}")

    def run_shard(index, pin, sleep_seed, shards):
        shard_coverage = None
        if coverage is not None:
            attempted = sum(
                shards[k].runs + shards[k].incomplete for k in range(index)
            )
            shard_coverage = type(coverage)(
                prefix_depth=coverage.prefix_depth, offset=attempted
            )
        return driver(
            setup,
            spec,
            max_steps=config["max_steps"],
            metrics=type(metrics)() if metrics is not None else None,
            trace=trace,
            coverage=shard_coverage,
            progress_every=progress_every,
            pin_prefix=pin,
            sleep_seed=sleep_seed,
            provenance=type(provenance)() if provenance is not None else None,
            **(driver_kwargs or {}),
        )

    merged = verify.VerificationReport()
    for shard in _sweep_shards(
        store,
        campaign_id,
        "verify",
        setup,
        config["max_steps"],
        reduction,
        completed,
        run_shard,
        trace=trace,
        abort_after=abort_after,
    ):
        merged.merge(shard)
    # Restored shard reports carry their ledger snapshots (they ride
    # inside the pickled report), so resume needs no special casing.
    verify._fold_back(merged, metrics, coverage, provenance)
    store.set_status(campaign_id, STATUS_COMPLETE)
    _persist_knowledge(
        store, workload, checker, probe_width(setup), None, None, coverage
    )
    return merged


__all__ = [
    "COVERAGE_KINDS",
    "default_campaign_id",
    "durable_explore",
    "durable_fuzz",
    "durable_verify",
]
