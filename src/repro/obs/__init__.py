"""Observability for the checker searches and the substrate runtime.

The evaluation loop of this reproduction lives on two artifacts that the
bare verdicts do not carry:

* **search/runtime statistics** — nodes expanded, memo hits, subset
  enumerations, frontier widths, scheduler steps, CAS failures, injected
  faults — the numbers that make checker comparisons meaningful
  (Dongol & Derrick's survey point) and budget-`UNKNOWN` verdicts
  diagnosable;
* **counterexample artifacts** — seed, schedule, fault plan, a rendered
  timeline and a replay snippet — the primary debugging currency of any
  FAIL.

This package provides both, zero-dependency and off by default:

* :class:`Metrics` — a dict-backed counter/timer registry.  Thread- and
  fork-safe by *construction*: every worker gets its own instance and
  the parent merges snapshots on join (merging is associative and
  commutative, so partition order cannot change the totals).
* :class:`TraceSink` / :class:`JsonLinesTraceSink` — an optional event
  stream (JSON lines) for search phase transitions, budget trips,
  worker lifecycle and shrink iterations, with a :meth:`TraceSink.span`
  timer context manager for per-phase wall clock.
* :class:`CounterexampleReport` — bundles everything needed to stare at
  (and replay) a FAIL/UNKNOWN verdict into one serializable object.
* :class:`CoverageTracker` — schedule-space coverage: fingerprints of
  explored schedule prefixes, history shapes and spec-state transitions,
  with saturation curves and the same partition-transparent merge law as
  :class:`Metrics`.
* :class:`SearchProfiler` — a :class:`Metrics` subclass that additionally
  buckets the search tallies per (checker, object, history width);
  :func:`profile_breakdown` / :func:`render_profile` read it back.
* :class:`ExplorationLedger` — the reduction-audit ledger: the
  disposition of every candidate schedule (executed, pruned, deferred
  into a wakeup tree, spawned by a race reversal, with race evidence)
  plus greybox energy/mutation telemetry, same merge law as
  :class:`Metrics`; :func:`render_ledger`, :func:`audit_artifact` and
  ``repro report`` read it back.

Every entry point that accepts ``metrics=``/``trace=``/``coverage=``
defaults them to ``None``; the disabled path is the plain code path
(guarded by the E17 overhead bench).  See ``docs/observability.md`` for
the counter-name tables and the trace event schema.
"""

from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import Metrics, observe_run
from repro.obs.profile import SearchProfiler, profile_breakdown, render_profile
from repro.obs.provenance import (
    ExplorationLedger,
    audit_artifact,
    ledger_report,
    render_ledger,
)
from repro.obs.report import CounterexampleReport
from repro.obs.tracing import (
    JsonLinesTraceSink,
    TeeTraceSink,
    TraceSink,
    assemble_spans,
    read_trace,
    span_path,
)

__all__ = [
    "CounterexampleReport",
    "CoverageTracker",
    "ExplorationLedger",
    "JsonLinesTraceSink",
    "Metrics",
    "SearchProfiler",
    "TeeTraceSink",
    "TraceSink",
    "assemble_spans",
    "audit_artifact",
    "ledger_report",
    "observe_run",
    "profile_breakdown",
    "read_trace",
    "render_ledger",
    "render_profile",
    "span_path",
]
