"""``python -m repro`` — a live campaign CLI over the checker drivers.

Subcommands:

* ``fuzz``    — seeded random-schedule campaign (optionally parallel,
  optionally fault-injecting) with live progress on stderr;
* ``explore`` — exhaustive interleaving enumeration with coverage;
* ``verify``  — exhaustive exploration *plus* checking (the paper's
  E1/E2-style experiments);
* ``report``  — read a saved campaign artifact: its summary, the audit
  of its exploration provenance (the reduction ledger), the span
  timeline of its trace and its counterexamples, as text and optionally
  as one self-contained HTML page (``explain`` is a deprecated alias);
* ``resume``  — continue an interrupted store-backed campaign.

With ``--store`` a campaign becomes durable: completed chunks are
checkpointed into a SQLite store, a ``SIGINT``-ed (or killed) campaign
is resumable via ``resume``, and ``--dedup`` skips schedules a previous
campaign already verified (see ``docs/robustness.md``).

Every campaign can save three artifacts: ``--json`` (the campaign
artifact consumed by ``report``), ``--trace`` (the raw JSON-lines event
stream) and ``--html`` via ``report``.  Instrumentation (metrics,
coverage, profiling) is on by default here — the CLI exists to look at
campaigns — but none of it can change verdicts or node counts (the
PR-3/PR-4 invariant, enforced by the differential tests).

The live progress line is driven by the same ``campaign_progress`` trace
events any embedder can consume; the CLI merely renders them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import Metrics
from repro.obs.profile import SearchProfiler, profile_breakdown, render_profile
from repro.obs.provenance import (
    ExplorationLedger,
    audit_artifact,
    render_ledger,
)
from repro.obs.tracing import JsonLinesTraceSink, TeeTraceSink, TraceSink

#: Counterexample reports embedded per artifact (full reports can be
#: regenerated by replaying; the artifact is a summary, not an archive).
MAX_EMBEDDED_REPORTS = 5


# ----------------------------------------------------------------------
# Workload registry
# ----------------------------------------------------------------------
class Workload:
    """One named, ready-to-run program/spec pairing.

    ``kind`` selects the checker family (``"cal"`` or ``"lin"``);
    ``make_setup``/``make_spec`` are zero-argument factories so registry
    construction stays import-light and side-effect free.
    ``yield_bias`` biases fuzz scheduling toward the running thread
    (geometric persistence) — reclamation hazards need long uninterrupted
    adversary windows that uniform random scheduling almost never hits.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        describe: str,
        make_setup: Callable[[], Any],
        make_spec: Callable[[], Any],
        max_steps: int = 2000,
        search: bool = False,
        check_witness: bool = True,
        yield_bias: float = 0.0,
    ) -> None:
        self.name = name
        self.kind = kind
        self.describe = describe
        self.make_setup = make_setup
        self.make_spec = make_spec
        self.max_steps = max_steps
        self.search = search
        self.check_witness = check_witness
        self.yield_bias = yield_bias


def _figure3_setup():
    from repro.workloads.figure3 import figure3_program

    return figure3_program


def _exchanger_setup(values):
    from repro.workloads.programs import exchanger_program

    return exchanger_program(values)


def _sync_queue_setup():
    from repro.workloads.programs import sync_queue_program

    return sync_queue_program(["a"], takers=1)


def _naive_queue_setup():
    """The E13 naive elimination queue: a real FIFO violation to FAIL on."""
    from repro.objects.elimination_queue import NaiveEliminationQueue
    from repro.substrate.program import Program, spawn
    from repro.substrate.runtime import World

    def setup(scheduler):
        world = World()
        queue = NaiveEliminationQueue(
            world, "EQ", slots=1, max_attempts=3, wait_rounds=3
        )
        program = Program(world)
        program.thread(
            "producer",
            spawn(
                lambda ctx: queue.enqueue(ctx, 1),
                lambda ctx: queue.enqueue(ctx, 2),
            ),
        )
        program.thread("consumer", lambda ctx: queue.dequeue(ctx))
        return program.runtime(scheduler)

    return setup


def _treiber_reclaim_setup(policy, memory_model="sc"):
    """The Treiber-with-reuse ABA workload: a one-pop victim racing a
    pop/pop/push/pop adversary on a stack seeded [2, 1].  Under the
    ``free-list`` policy the recycled head makes the victim's stale CAS
    succeed — the classic loss/duplication counterexample; under
    ``hazard``/``epoch``/``gc`` the same code keeps passing."""
    from repro.workloads.programs import StackWorkload, manual_treiber_program

    workload = StackWorkload(
        scripts=[
            [("pop",)],
            [("pop",), ("pop",), ("push", 3), ("pop",)],
        ]
    )
    return manual_treiber_program(
        workload,
        policy=policy,
        seed_values=(2, 1),
        max_attempts=20,
        memory_model=memory_model,
    )


def _msqueue_reclaim_setup(policy="hazard"):
    from repro.workloads.programs import manual_msqueue_program

    return manual_msqueue_program(
        [
            [("enqueue", 1), ("dequeue",)],
            [("dequeue",), ("enqueue", 2)],
        ],
        policy=policy,
        seed_values=(5,),
        max_attempts=20,
    )


def _seeded_stack_spec():
    from repro.specs import StackSpec

    return StackSpec("S", initial=(2, 1))


def _msqueue_spec():
    from repro.specs import QueueSpec

    return QueueSpec("Q", initial=(5,))


def _exchanger_spec():
    from repro.specs import ExchangerSpec

    return ExchangerSpec("E")


def _sync_queue_spec():
    from repro.specs import SyncQueueSpec

    return SyncQueueSpec("SQ")


def _queue_spec():
    from repro.specs import QueueSpec

    return QueueSpec("EQ")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "figure3",
            "cal",
            "Figure 3's program P: three threads exchanging 3, 4, 7",
            _figure3_setup,
            _exchanger_spec,
            max_steps=2000,
        ),
        Workload(
            "exchanger2",
            "cal",
            "two threads on one exchanger (the E2 workload)",
            lambda: _exchanger_setup([3, 4]),
            _exchanger_spec,
            max_steps=200,
            search=True,
        ),
        Workload(
            "exchanger3",
            "cal",
            "three threads on one exchanger (the E23 provenance target)",
            lambda: _exchanger_setup([3, 4, 7]),
            _exchanger_spec,
            max_steps=2000,
            search=True,
        ),
        Workload(
            "exchanger4",
            "cal",
            "four threads on one exchanger (wider fuzz target)",
            lambda: _exchanger_setup([3, 4, 7, 9]),
            _exchanger_spec,
            max_steps=4000,
        ),
        Workload(
            "sync-queue",
            "cal",
            "one putter / one taker on a synchronous queue",
            _sync_queue_setup,
            _sync_queue_spec,
            max_steps=2000,
            # Search, not the witness: the queue records its handoffs on
            # its elimination array (F_SQ ∘ F_AR), so the raw trace holds
            # no SQ element to validate.
            search=True,
            check_witness=False,
        ),
        Workload(
            "naive-queue",
            "lin",
            "naive elimination queue vs FIFO spec (FAILs — the E13 bug)",
            _naive_queue_setup,
            _queue_spec,
            max_steps=1000,
            check_witness=False,
        ),
        Workload(
            "treiber-reuse",
            "lin",
            "manual Treiber stack, free-list reclamation (FAILs — ABA reuse)",
            lambda: _treiber_reclaim_setup("free-list"),
            _seeded_stack_spec,
            max_steps=400,
            check_witness=False,
            yield_bias=0.85,
        ),
        Workload(
            "treiber-hazard",
            "lin",
            "manual Treiber stack under hazard-pointer reclamation",
            lambda: _treiber_reclaim_setup("hazard"),
            _seeded_stack_spec,
            max_steps=400,
            check_witness=False,
            yield_bias=0.85,
        ),
        Workload(
            "treiber-epoch",
            "lin",
            "manual Treiber stack under epoch-based reclamation",
            lambda: _treiber_reclaim_setup("epoch"),
            _seeded_stack_spec,
            max_steps=400,
            check_witness=False,
            yield_bias=0.85,
        ),
        Workload(
            "treiber-gc",
            "lin",
            "manual Treiber stack under gc (no-reuse) reclamation",
            lambda: _treiber_reclaim_setup("gc"),
            _seeded_stack_spec,
            max_steps=400,
            check_witness=False,
            yield_bias=0.85,
        ),
        Workload(
            "treiber-hazard-tso",
            "lin",
            "manual Treiber stack, hazard reclamation, TSO store buffers",
            lambda: _treiber_reclaim_setup("hazard", memory_model="tso"),
            _seeded_stack_spec,
            max_steps=600,
            check_witness=False,
            yield_bias=0.85,
        ),
        Workload(
            "msqueue-reclaim",
            "lin",
            "manual Michael–Scott queue under hazard-pointer reclamation",
            lambda: _msqueue_reclaim_setup("hazard"),
            _msqueue_spec,
            max_steps=600,
            check_witness=False,
            yield_bias=0.7,
        ),
    ]
}


def _workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise SystemExit(f"unknown workload {name!r}; known: {known}")


# ----------------------------------------------------------------------
# Live progress rendering
# ----------------------------------------------------------------------
class ProgressRenderer(TraceSink):
    """Renders ``campaign_progress`` events as a live stderr line.

    Shows attempted/total, runs/sec, an ETA extrapolated from the
    attempt rate, verdict counts and (when available) the live count of
    distinct histories — the raw material of the saturation curve.
    Non-progress events pass through silently; the renderer is meant to
    sit inside a :class:`~repro.obs.tracing.TeeTraceSink` next to a
    JSON-lines sink.
    """

    def __init__(self, stream=None) -> None:
        super().__init__()
        self.stream = stream if stream is not None else sys.stderr
        self._dirty = False

    def _write(self, record: Dict[str, Any]) -> None:
        if record.get("event") != "campaign_progress":
            return
        attempted = record.get("attempted", 0)
        total = record.get("total")
        elapsed = record.get("elapsed_s") or 0.0
        rate = attempted / elapsed if elapsed > 0 else 0.0
        parts = [f"[{record.get('driver', 'campaign')}]"]
        if total:
            parts.append(f"{attempted}/{total}")
            if rate > 0 and total > attempted:
                parts.append(f"eta {(total - attempted) / rate:.1f}s")
        else:
            parts.append(f"{attempted} runs")
        if rate > 0:
            parts.append(f"{rate:.0f} runs/s")
        for key, label in (
            ("runs", "ok"),
            ("failures", "fail"),
            ("unknown", "unknown"),
            ("skipped", "skipped"),
        ):
            value = record.get(key)
            if value:
                parts.append(f"{label}={value}")
        if record.get("pruned"):
            # Reduced explores: attempted counts every visited schedule
            # (executed + pruned), so this reads "pruned X of Y visited".
            parts.append(f"pruned={record['pruned']}/{attempted}")
        if "distinct_histories" in record:
            parts.append(f"hist={record['distinct_histories']}")
        line = "  ".join(parts)
        self.stream.write("\r" + line.ljust(78) + "\r")
        self.stream.flush()
        self._dirty = True

    def finish(self) -> None:
        """Terminate the live line so normal output starts cleanly."""
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False

    def close(self) -> None:
        self.finish()


def _build_sinks(args) -> tuple:
    """(combined trace sink or None, closer)."""
    sinks: List[TraceSink] = []
    if not getattr(args, "quiet", False):
        sinks.append(ProgressRenderer())
    if getattr(args, "trace", None):
        sinks.append(JsonLinesTraceSink(args.trace))
    if not sinks:
        return None, lambda: None
    combined = sinks[0] if len(sinks) == 1 else TeeTraceSink(*sinks)
    return combined, combined.close


# ----------------------------------------------------------------------
# Campaign artifact
# ----------------------------------------------------------------------
def _check_kwargs(workload: Workload, kind: str) -> Dict[str, Any]:
    """The checker-family keywords of a ``kind`` (fuzz or verify)
    campaign on ``workload`` — the same for inline and store-backed
    runs, and re-derived from the registry on resume."""
    kwargs: Dict[str, Any] = {"check_witness": workload.check_witness}
    if workload.kind == "cal":
        # Exhaustive verification always searches; fuzzing searches
        # only where the registry asks for it.
        kwargs["search"] = workload.search if kind == "fuzz" else True
    if kind == "fuzz" and workload.yield_bias:
        kwargs["yield_bias"] = workload.yield_bias
    return kwargs


def _campaign_artifact(
    kind: str,
    workload: Workload,
    outcome: Any,
    metrics: Metrics,
    coverage: CoverageTracker,
    provenance: ExplorationLedger,
    elapsed_s: float,
    seeds: int = 0,
    budget=None,
    campaign: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The artifact of a finished campaign.

    ``outcome`` is the report of a fuzz or verify campaign, or the run
    list of an explore; ``seeds`` is a fuzz campaign's requested seed
    count, ``budget`` an inline explore's (a cut explore is UNKNOWN) and
    ``campaign`` a store-backed campaign's id and store.
    """
    extra: Dict[str, Any] = {}
    if campaign is not None:
        extra["campaign"] = campaign
    if kind == "fuzz":
        verdict = outcome.verdict.value.upper()
        tallies = {
            "seeds": seeds,
            "runs": outcome.runs,
            "incomplete": outcome.incomplete,
            "crashed": outcome.crashed,
            "unknown": outcome.unknown,
            "skipped": outcome.skipped,
            "deduped": outcome.deduped,
            "failures": len(outcome.failures),
            "quarantined": len(outcome.quarantined),
        }
        reports = outcome.reports
        extra["quarantined"] = outcome.quarantined
    elif kind == "explore":
        tripped = bool(budget is not None and budget.tripped)
        verdict = "UNKNOWN" if tripped else "OK"
        tallies = {
            "runs": len(outcome),
            "steps": sum(r.steps for r in outcome),
            "budget_tripped": tripped,
        }
        reports = []
    else:
        verdict = outcome.verdict.value.upper()
        tallies = {
            "runs": outcome.runs,
            "incomplete": outcome.incomplete,
            "nodes": outcome.nodes,
            "unknown": outcome.unknown,
            "failures": len(outcome.failures),
        }
        reports = [f.report for f in outcome.failures if f.report is not None]
    dropped = max(0, len(reports) - MAX_EMBEDDED_REPORTS)
    return {
        "kind": kind,
        "workload": workload.name,
        "checker": workload.kind,
        "verdict": verdict,
        "tallies": tallies,
        "stats": metrics.snapshot(),
        "coverage": coverage.snapshot(),
        "provenance": provenance.snapshot(),
        "profile": profile_breakdown(metrics),
        "counterexamples": [
            r.to_dict() for r in reports[:MAX_EMBEDDED_REPORTS]
        ],
        "counterexamples_dropped": dropped,
        "elapsed_s": elapsed_s,
        **extra,
    }


def _save_artifact(path: Optional[str], artifact: Dict[str, Any]) -> None:
    if not path:
        return
    # Atomic: write a sibling temp file, fsync, then rename over the
    # target — a campaign killed mid-save never leaves a half-written
    # artifact, only the old file or the new one.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    print(f"campaign artifact written to {path}")


def _print_summary(artifact: Dict[str, Any]) -> None:
    tallies = artifact["tallies"]
    rows = [[key, value] for key, value in sorted(tallies.items())]
    print(
        format_table(
            f"{artifact['kind']} {artifact['workload']} — {artifact['verdict']}",
            ["tally", "value"],
            rows,
        )
    )
    if artifact.get("coverage"):
        tracker = CoverageTracker.from_snapshot(artifact["coverage"])
        print()
        print(tracker.render(bucket=tracker.bucket_for(12)))
    if artifact.get("profile") and artifact.get("stats"):
        print()
        print(render_profile(artifact["stats"]))


def _run_campaign(args, kind: str, workload: Workload, launch, **context) -> int:
    """Run one campaign, inline or store-backed, and emit its artifact.

    ``launch(setup, spec, instruments)`` runs the campaign with the
    CLI's instruments (profiler, coverage, ledger, trace sink) as
    keywords; ``context`` goes to :func:`_campaign_artifact`.
    """
    setup = workload.make_setup()
    spec = workload.make_spec()
    metrics = SearchProfiler()
    coverage = CoverageTracker()
    ledger = ExplorationLedger()
    sink, close = _build_sinks(args)
    started = time.monotonic()
    try:
        outcome = launch(
            setup,
            spec,
            dict(metrics=metrics, trace=sink, coverage=coverage, provenance=ledger),
        )
    finally:
        close()
    artifact = _campaign_artifact(
        kind,
        workload,
        outcome,
        metrics,
        coverage,
        ledger,
        time.monotonic() - started,
        **context,
    )
    _print_summary(artifact)
    _save_artifact(args.json, artifact)
    return 0 if artifact["verdict"] == "OK" else 1


# ----------------------------------------------------------------------
# Durable campaigns (--store)
# ----------------------------------------------------------------------
def _durable_config(kind: str, workload: Workload, args) -> Dict[str, Any]:
    """The campaign config persisted in the store.

    Only what shapes the work is included — worker count, trace paths
    and progress cadence are per-invocation knobs a resume may change
    freely without breaking the config-immutability check.
    """
    max_steps = args.max_steps or workload.max_steps
    if kind == "fuzz":
        config = {
            "seeds": args.seeds,
            "checkpoint_every": args.checkpoint_every or args.seeds,
            "max_steps": max_steps,
            "dedup": bool(args.dedup),
        }
        # Non-default guidance only: keeps the derived campaign ids of
        # every pre-greybox invocation (and store) byte-identical.
        if getattr(args, "guidance", "uniform") != "uniform":
            config["guidance"] = args.guidance
        return config
    config = {"max_steps": max_steps}
    if getattr(args, "reduction", "none") != "none":
        config["reduction"] = args.reduction
    return config


def _run_durable(
    args, kind: str, workload: Workload, config: Dict[str, Any],
    campaign_id: Optional[str] = None,
) -> int:
    """Run (or resume) a store-backed campaign and emit its artifact.

    ``KeyboardInterrupt`` — a real Ctrl-C or the deterministic
    ``--abort-after-checkpoints`` test hook — leaves the campaign marked
    ``interrupted`` in the store and exits 130 with a resume hint; every
    chunk checkpointed before the interrupt survives.
    """
    from repro.store import (
        CampaignStore,
        StoreError,
        default_campaign_id,
        durable_explore,
        durable_fuzz,
        durable_verify,
    )

    campaign_id = (
        campaign_id
        or getattr(args, "campaign_id", "")
        or default_campaign_id(kind, workload.name, config)
    )

    def launch(setup, spec, instruments):
        instruments["abort_after"] = getattr(args, "abort_after_checkpoints", 0)
        instruments["workers"] = max(1, getattr(args, "workers", 0))
        with CampaignStore(args.store) as store:
            head = (store, campaign_id, workload.name, workload.kind, setup)
            try:
                if kind == "explore":
                    return durable_explore(*head, config, **instruments)
                extras = _check_kwargs(workload, kind)
                if kind == "verify":
                    if config.get("reduction", "none") != "none":
                        extras["reduction"] = config["reduction"]
                    return durable_verify(
                        *head,
                        spec,
                        config,
                        progress_every=args.progress or 200,
                        driver_kwargs=extras,
                        **instruments,
                    )
                if config.get("guidance", "uniform") != "uniform":
                    extras["guidance"] = config["guidance"]
                return durable_fuzz(
                    *head,
                    spec,
                    config,
                    progress_every=args.progress or max(1, config["seeds"] // 50),
                    use_dedup=config.get("dedup", False),
                    driver_kwargs=extras,
                    **instruments,
                )
            except StoreError as exc:
                raise SystemExit(str(exc))

    try:
        return _run_campaign(
            args,
            kind,
            workload,
            launch,
            seeds=config.get("seeds", 0),
            campaign={"id": campaign_id, "store": args.store},
        )
    except KeyboardInterrupt:
        print(
            f"campaign {campaign_id} interrupted; resume with: "
            f"python -m repro resume {campaign_id} --store {args.store}",
            file=sys.stderr,
        )
        return 130


def _cmd_resume(args) -> int:
    from repro.store import CampaignStore, StoreError, plan_resume

    try:
        with CampaignStore(args.store) as store:
            plan = plan_resume(store, args.campaign_id)
    except StoreError as exc:
        raise SystemExit(str(exc))
    print(f"resuming {plan.describe()}", file=sys.stderr)
    workload = _workload(plan.campaign["workload"])
    return _run_durable(
        args, plan.kind, workload, plan.config, campaign_id=plan.campaign_id
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_fuzz(args) -> int:
    from repro.checkers import fuzz, parallel
    from repro.checkers.verify import _FAMILIES

    workload = _workload(args.workload)
    if args.store:
        return _run_durable(
            args, "fuzz", workload, _durable_config("fuzz", workload, args)
        )
    if args.dedup or args.checkpoint_every:
        raise SystemExit(
            "--dedup and --checkpoint-every act on a campaign store; "
            "add --store PATH"
        )
    family = _FAMILIES[workload.kind]
    kwargs = dict(
        seeds=range(args.seeds),
        max_steps=args.max_steps or workload.max_steps,
        progress_every=args.progress or max(1, args.seeds // 50),
        guidance=args.guidance,
        **_check_kwargs(workload, "fuzz"),
    )
    if args.workers and args.workers > 1:
        driver = getattr(parallel, f"fuzz_{family}_parallel")
        kwargs["workers"] = args.workers
    else:
        driver = getattr(fuzz, f"fuzz_{family}")
    return _run_campaign(
        args,
        "fuzz",
        workload,
        lambda setup, spec, instruments: driver(
            setup, spec, **kwargs, **instruments
        ),
        seeds=args.seeds,
    )


def _cmd_explore(args) -> int:
    from repro.checkers.parallel import explore_parallel
    from repro.substrate.explore import ExploreBudget

    workload = _workload(args.workload)
    if args.store:
        if args.max_runs:
            raise SystemExit(
                "--max-runs is incompatible with --store: a budget-cut "
                "shard has no stable boundary to resume from"
            )
        return _run_durable(
            args, "explore", workload, _durable_config("explore", workload, args)
        )
    budget = ExploreBudget(max_runs=args.max_runs) if args.max_runs else None
    return _run_campaign(
        args, "explore", workload,
        lambda setup, spec, instruments: explore_parallel(
            setup,
            max_steps=args.max_steps or workload.max_steps,
            workers=args.workers or 1,
            budget=budget,
            reduction=args.reduction,
            progress_every=args.progress or 200,
            **instruments,
        ),
        budget=budget,
    )


def _cmd_verify(args) -> int:
    from repro.checkers import verify

    workload = _workload(args.workload)
    if args.store:
        return _run_durable(
            args, "verify", workload, _durable_config("verify", workload, args)
        )
    driver = getattr(verify, f"verify_{verify._FAMILIES[workload.kind]}")
    return _run_campaign(
        args,
        "verify",
        workload,
        lambda setup, spec, instruments: driver(
            setup,
            spec,
            max_steps=args.max_steps or workload.max_steps,
            progress_every=args.progress or 200,
            reduction=args.reduction,
            **_check_kwargs(workload, "verify"),
            **instruments,
        ),
    )


def _load_artifact(
    path: str, command: str, required: Sequence[str] = ()
) -> Dict[str, Any]:
    """Read a campaign artifact, or exit with one line naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"{command}: cannot read {path}: {exc.strerror}")
    except ValueError as exc:
        raise SystemExit(f"{command}: {path} is not valid JSON: {exc}")
    if not isinstance(artifact, dict):
        raise SystemExit(
            f"{command}: {path} is not a campaign artifact "
            "(its root is not a JSON object)"
        )
    missing = [key for key in required if key not in artifact]
    if missing:
        raise SystemExit(
            f"{command}: {path} is not a campaign artifact "
            f"(missing {', '.join(missing)})"
        )
    return artifact


def _render_span_tree(roots: List[Dict[str, Any]], indent: int = 0) -> List[str]:
    lines = []
    for node in roots:
        flags = []
        if node.get("visits", 0) > 1:
            flags.append(f"visits={node['visits']}")
        if node.get("open"):
            flags.append("OPEN")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"{'  ' * indent}{node['span_id']}  "
            f"{node.get('elapsed_s', 0.0):.3f}s{suffix}"
        )
        lines.extend(_render_span_tree(node.get("children", ()), indent + 1))
    return lines


def _cmd_report(args) -> int:
    """Read a campaign artifact: print its summary, the audit of its
    provenance ledger, the span timeline of ``--trace`` and its
    counterexamples; ``--html`` also writes them as one page.

    Exits 1 when the audit fails — no ledger, books that do not balance,
    or a ledger that disagrees with the tallies (see
    :func:`~repro.obs.provenance.audit_artifact`) — and 0 otherwise, a
    FAIL verdict included.
    """
    if args.command == "explain":
        print(
            "explain is deprecated and will be removed: use report",
            file=sys.stderr,
        )
    if not args.json:
        raise SystemExit(f"{args.command}: --json is required")
    artifact = _load_artifact(
        args.json, args.command, ("kind", "workload", "verdict", "tallies")
    )
    audit = audit_artifact(artifact)
    _print_summary(artifact)
    print()
    if audit["ledger"] is not None:
        print(render_ledger(audit["ledger"]))
    if audit["failure"]:
        print(audit["failure"])
    spans = []
    if args.trace:
        from repro.obs.tracing import assemble_spans, read_trace

        spans = assemble_spans(read_trace(args.trace))
        if spans:
            print("span timeline")
            for line in _render_span_tree(spans):
                print(f"  {line}")
    for entry in artifact.get("counterexamples", ()):
        print()
        header = f"{entry['verdict'].upper()}: {entry['reason']}"
        print(header)
        print("-" * len(header))
        print(entry.get("timeline", ""))
    if args.html:
        from repro.analysis.htmlreport import render_html_report

        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html_report(artifact, spans, audit))
        print(f"HTML report written to {args.html}")
    return 1 if audit["failure"] else 0


def _cmd_workloads(args) -> int:
    rows = [
        [w.name, w.kind, w.describe]
        for w in sorted(WORKLOADS.values(), key=lambda w: w.name)
    ]
    print(format_table("workloads", ["name", "checker", "description"], rows))
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _count(text: str) -> int:
    """The type of every count option: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_run_args(parser: argparse.ArgumentParser, workers: bool) -> None:
    """The per-invocation knobs of every campaign and of ``resume``."""
    if workers:
        parser.add_argument(
            "--workers", type=_count, default=0, help="parallel workers (0 = inline)"
        )
    parser.add_argument(
        "--trace", default="", help="write the JSON-lines event stream here"
    )
    parser.add_argument(
        "--json", default="", help="write the campaign artifact here"
    )
    parser.add_argument(
        "--progress",
        type=_count,
        default=0,
        help="emit progress every N runs (0 = auto)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the live progress line"
    )
    # Deterministic-interrupt hook for tests and the CI resume-smoke
    # job: raise KeyboardInterrupt after N checkpoint commits.
    parser.add_argument(
        "--abort-after-checkpoints",
        type=int,
        default=0,
        help=argparse.SUPPRESS,
    )


def _add_campaign_args(
    parser: argparse.ArgumentParser, workers: bool, reduction: bool
) -> None:
    parser.add_argument(
        "--workload",
        default="figure3",
        help="named workload (see `python -m repro workloads`)",
    )
    parser.add_argument(
        "--max-steps", type=_count, default=0, help="per-run step bound"
    )
    _add_run_args(parser, workers)
    parser.add_argument(
        "--store",
        default="",
        help="SQLite campaign store; makes the campaign checkpointed and "
        "resumable (see docs/robustness.md)",
    )
    parser.add_argument(
        "--campaign-id",
        default="",
        help="campaign id in the store (default: derived from the config, "
        "so re-running the same command resumes the same campaign)",
    )
    if reduction:
        parser.add_argument(
            "--reduction",
            choices=("none", "sleep-set", "dpor"),
            default="none",
            help="partial-order reduction mode (see docs/search.md)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Concurrency-aware linearizability campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="seeded random-schedule campaign")
    _add_campaign_args(fuzz, workers=True, reduction=False)
    fuzz.add_argument(
        "--checkpoint-every",
        type=_count,
        default=0,
        help="with --store: checkpoint every N seeds (default: one "
        "checkpoint at the end)",
    )
    fuzz.add_argument(
        "--dedup",
        action="store_true",
        help="with --store: skip schedules a previous campaign in the "
        "store already verified for this workload",
    )
    fuzz.add_argument("--seeds", type=_count, default=200, help="seed count")
    fuzz.add_argument(
        "--guidance",
        choices=("uniform", "greybox"),
        default="uniform",
        help="schedule guidance: uniform random draws, or the greybox "
        "corpus-mutation engine (see docs/search.md)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    explore = sub.add_parser("explore", help="exhaustive enumeration")
    _add_campaign_args(explore, workers=True, reduction=True)
    explore.add_argument(
        "--max-runs", type=_count, default=0, help="stop after this many runs"
    )
    explore.set_defaults(func=_cmd_explore)

    verify = sub.add_parser("verify", help="exhaustive exploration + checking")
    _add_campaign_args(verify, workers=False, reduction=True)
    verify.set_defaults(func=_cmd_verify)

    resume = sub.add_parser(
        "resume", help="continue an interrupted store-backed campaign"
    )
    resume.add_argument("campaign_id", help="campaign id (see the store)")
    resume.add_argument(
        "--store", required=True, help="SQLite campaign store path"
    )
    _add_run_args(resume, workers=True)
    resume.set_defaults(func=_cmd_resume)

    report = sub.add_parser(
        "report",
        aliases=["explain"],
        help="read a saved campaign artifact: summary, provenance audit, "
        "span timeline and counterexamples",
    )
    report.add_argument("--json", default="", help="campaign artifact path")
    report.add_argument(
        "--trace",
        default="",
        help="JSON-lines trace file; adds the hierarchical span timeline",
    )
    report.add_argument(
        "--html", default="", help="also write the report as one HTML page"
    )
    report.set_defaults(func=_cmd_report)

    workloads = sub.add_parser("workloads", help="list named workloads")
    workloads.set_defaults(func=_cmd_workloads)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover — exercised via __main__
    raise SystemExit(main())
