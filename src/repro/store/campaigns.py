"""Durable campaign entry points: store-backed fuzz / explore / verify.

The store keeps the campaign lifecycle; the runners of
:mod:`repro.checkers.parallel` keep the chunks.  Every ``durable_*``
function is the same lifecycle (:func:`_campaign`) around one runner
call, plus its kind's extras:

1. **create-or-resume** — the campaign row is created on first run;
   re-entering the same id (``python -m repro resume``) restores every
   checkpointed chunk and a ``campaign_resume`` trace event records how
   much work is skipped.  Quarantined chunks are *retried* on resume —
   only committed successes are skipped.
2. **run the runner** (:func:`~repro.checkers.parallel.campaign_runner`)
   with a :class:`~repro.store.checkpoint.CheckpointWriter` and the
   restored chunks.  The runner plans the chunks (fuzz seed blocks,
   explore/verify first-decision shards), runs the missing ones across
   the workers and commits each in chunk order; this module never looks
   inside a chunk.  A campaign that stops early (``KeyboardInterrupt``,
   a lost shard) is marked ``interrupted`` and the exception re-raised
   (the CLI exits 130 with a resume hint, or with one line naming the
   lost shard).
3. **persist cross-run knowledge** — on completion the campaign's fresh
   schedule digests and coverage fingerprints are folded into the
   store's fingerprint sets, keyed by ``(workload, checker, width)``, so
   later campaigns can skip already-verified schedules (``--dedup``).
   Greybox fuzz campaigns additionally persist their schedule corpus to
   the ``corpus`` table under the same scope key; a later campaign
   against the same store warm-starts from it, which is how a recorded
   failure keeps paying off across invocations (the regression-hunt
   flow ``bench_e21_guided_search`` measures).

The stored ``config`` is the only source of a campaign's shape: its
:data:`SHAPE_KEYS` (``seeds``, ``checkpoint_every``, ``max_steps``,
``dedup``, ``guidance``, ``reduction``) are read from it alone, so a
resume, which re-enters with the stored config, sweeps exactly what the
first run swept.  ``driver_kwargs`` carries only the checker-family
extras (``search``, ``check_witness``, ``yield_bias``, …) that the CLI
re-derives from the workload registry; one naming a shape key is
refused before the campaign row is created.

Determinism: chunk boundaries are pure functions of the stored config
(``checkpoint_every`` over the seed range; first-decision arity for
shards), restored chunk payloads are the exact partial results an
uninterrupted run would have produced, and the merges are associative
and order-restoring — so a resumed campaign's artifact equals an
uninterrupted one's (timers aside).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

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
from repro.substrate.explore import validate_exploration

#: Fingerprint kinds persisted from a completed campaign's coverage.
COVERAGE_KINDS = ("schedule_prefixes", "histories", "history_shapes")

#: The config keys that shape a durable campaign, read from the stored
#: config only.
SHAPE_KEYS = (
    "seeds", "checkpoint_every", "max_steps", "dedup", "guidance", "reduction",
)


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


def _extras(driver_kwargs: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """A copy of ``driver_kwargs``, refused when it names a shape key."""
    named = sorted(set(driver_kwargs or ()) & set(SHAPE_KEYS))
    if named:
        raise ValueError(
            f"driver_kwargs may not set {', '.join(named)}: a durable "
            "campaign takes its shape from its config"
        )
    return dict(driver_kwargs or {})


def _campaign(
    store: CampaignStore,
    campaign_id: str,
    kind: str,
    workload: str,
    checker: str,
    config: Dict[str, Any],
    workers: int,
    trace,
    abort_after: int,
    *args: Any,
    **runner: Any,
):
    """The lifecycle every durable campaign shares around its runner.

    Validates the exploration the config and ``runner`` ask for, creates
    or re-opens the campaign row (a re-opened one restores its ``done``
    chunks and traces ``campaign_resume``), then calls the kind's runner
    (:func:`~repro.checkers.parallel.campaign_runner`) with ``args``,
    the config's :func:`~repro.checkers.parallel.campaign_kwargs`,
    ``runner``, the workers, the trace, a checkpoint writer and the
    restored chunks, inside the campaign span ``campaign=<id>`` (see
    :func:`repro.obs.tracing.span_path`).  A campaign that stops early
    (Ctrl-C, a lost shard, a failing task) is left ``interrupted`` for
    ``resume``; one that returns is marked complete.
    """
    from repro.checkers.parallel import campaign_kwargs, campaign_runner

    shape = campaign_kwargs(kind, config)
    if kind != "fuzz":
        validate_exploration(
            shape["reduction"], preemption_bound=runner.get("preemption_bound")
        )
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
    writer = CheckpointWriter(
        store, campaign_id, trace=trace, abort_after=abort_after
    )
    span = nullcontext()
    if trace is not None:
        span_id = span_path(("campaign", campaign_id))
        span = trace.span("campaign", span_id=span_id, kind=kind)
    try:
        with span:
            outcome = campaign_runner(kind, checker)(
                *args,
                workers=max(1, workers),
                trace=trace,
                checkpoint=writer,
                completed=completed,
                **shape,
                **runner,
            )
    except BaseException:
        store.set_status(campaign_id, STATUS_INTERRUPTED)
        raise
    store.set_status(campaign_id, STATUS_COMPLETE)
    return outcome


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
    driver_kwargs: Optional[Dict[str, Any]] = None,
    provenance=None,
):
    """Run (or resume) a checkpointed fuzz campaign.

    ``config`` pins ``seeds``, ``checkpoint_every`` and ``max_steps``,
    and optionally ``dedup`` (skip schedules a previous campaign in the
    store verified) and ``guidance``.  ``driver_kwargs`` carries the
    checker-family extras (``search``, ``check_witness``, …).
    """
    extras = _extras(driver_kwargs)
    width = probe_width(setup)
    dedup = load_dedup(store, workload, checker, width) if config.get("dedup") else None
    greybox = config.get("guidance") == "greybox"
    scope = dedup_scope(workload, checker, width)
    if greybox and extras.get("corpus") is None:
        # Warm-start from every prior campaign's persisted corpus for
        # this (workload, checker, width) scope.  An empty table yields
        # an empty list, which the engine treats as a cold start.
        stored = store.corpus_entries(scope)
        if stored:
            extras["corpus"] = stored
        if trace is not None:
            trace.emit(
                "corpus_loaded",
                campaign=campaign_id,
                scope=scope,
                entries=len(stored),
            )
    report = _campaign(
        store, campaign_id, "fuzz", workload, checker, config, workers,
        trace, abort_after, setup, spec,
        checkpoint_every=config["checkpoint_every"],
        metrics=metrics,
        coverage=coverage,
        progress_every=progress_every,
        dedup=dedup,
        provenance=provenance,
        **extras,
    )
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
    progress_every: int = 0,
    abort_after: int = 0,
    provenance=None,
):
    """Run (or resume) a checkpointed exhaustive enumeration.

    :func:`~repro.checkers.parallel.explore_parallel` shards it by the
    first decision point and commits each shard's sanitised results as
    a chunk, in pin order.  Budgets are unsupported here because a cut
    shard has no stable boundary to resume from.  ``config`` pins
    ``max_steps`` and optionally ``reduction`` (``"none"`` | ``"dpor"``).
    """
    results = _campaign(
        store, campaign_id, "explore", workload, checker, config, workers,
        trace, abort_after, setup,
        metrics=metrics,
        coverage=coverage,
        progress_every=progress_every,
        provenance=provenance,
    )
    _persist_knowledge(
        store, workload, checker, probe_width(setup), None, None, coverage
    )
    return results


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

    One chunk per first-decision shard, verified across ``workers`` and
    committed in pin order; the merged report equals an unsharded
    sweep's, coverage positions included.  ``config`` pins
    ``max_steps`` and optionally ``reduction``; ``driver_kwargs``
    carries the checker-family extras (and may bound preemptions).  A
    ``budget`` there is refused before the campaign row is created: a
    budget-cut shard has no stable boundary to resume from.
    """
    if (driver_kwargs or {}).get("budget") is not None:
        raise ValueError(
            "driver_kwargs may not set budget: a durable campaign runs "
            "every shard to completion"
        )
    report = _campaign(
        store, campaign_id, "verify", workload, checker, config, workers,
        trace, abort_after, setup, spec,
        metrics=metrics,
        coverage=coverage,
        progress_every=progress_every,
        provenance=provenance,
        **_extras(driver_kwargs),
    )
    _persist_knowledge(
        store, workload, checker, probe_width(setup), None, None, coverage
    )
    return report


__all__ = [
    "COVERAGE_KINDS",
    "default_campaign_id",
    "durable_explore",
    "durable_fuzz",
    "durable_verify",
]
