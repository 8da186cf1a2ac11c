"""Layer seams: wrap each layer's public callables in timing spans.

Runs only inside a traced child process (see ``child.py``): the patches
are installed after the seam modules are imported and die with the
process, so nothing under ``src/`` changes and nothing leaks into the
harness.  Spans are aggregated in memory as ``(parent layer -> layer)``
edges — calls, inclusive seconds and self seconds, where self time is
span time minus the time of the spans nested in it — and read out once
when the campaign ends.

A module-level function can be bound under its name in several modules
(``from repro.checkers.fuzz import fuzz_linearizability`` in
``checkers/parallel.py``), so :meth:`Tracer.install` replaces the
function in every loaded ``repro`` module that holds it, not just the
module that defines it.  Methods are patched on their class, which
covers every caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Parent name of spans opened outside every other span.
ROOT = "-"

#: Methods of ``CampaignStore`` that open a transaction and commit it.
_COMMITTING = (
    "__init__",
    "create_campaign",
    "set_status",
    "record_chunk",
    "add_fingerprints",
    "save_corpus",
    "append_trajectory",
)

_STORE_READS = (
    "close",
    "get_campaign",
    "list_campaigns",
    "chunk_rows",
    "completed_payloads",
    "quarantined_chunks",
    "fingerprints",
    "corpus_entries",
    "trajectory",
)


def _one(_result: Any) -> int:
    return 1


def _steps(result: Any) -> int:
    return result.steps


def _nodes(result: Any) -> int:
    return result.nodes


def _admitted(minted: Any) -> int:
    return 1 if minted else 0


# (layer, module, attribute path, tallies).  An attribute path with a
# dot is a method on a class; tallies are (counter, fn(result)) pairs
# added up on every call that returns.
SEAMS: Tuple[Tuple[str, str, str, Tuple[Tuple[str, Callable], ...]], ...] = (
    ("cli", "repro.cli", "main", ()),
    ("store.campaigns", "repro.store.campaigns", "durable_fuzz", ()),
    ("store.campaigns", "repro.store.campaigns", "durable_verify", ()),
    ("store.campaigns", "repro.store.campaigns", "durable_explore", ()),
    *(
        ("store.schema", "repro.store.schema", f"CampaignStore.{name}",
         (("store.schema.commits", _one),))
        for name in _COMMITTING
    ),
    *(
        ("store.schema", "repro.store.schema", f"CampaignStore.{name}", ())
        for name in _STORE_READS
    ),
    ("store.checkpoint", "repro.store.checkpoint", "CheckpointWriter.chunk_done", ()),
    ("store.checkpoint", "repro.store.checkpoint",
     "CheckpointWriter.chunk_quarantined", ()),
    ("store.checkpoint", "repro.store.checkpoint", "restore_completed", ()),
    ("checkers.parallel", "repro.checkers.parallel", "fuzz_cal_parallel", ()),
    ("checkers.parallel", "repro.checkers.parallel",
     "fuzz_linearizability_parallel", ()),
    ("checkers.parallel", "repro.checkers.parallel", "explore_parallel", ()),
    ("checkers.fuzz", "repro.checkers.fuzz", "fuzz_cal", ()),
    ("checkers.fuzz", "repro.checkers.fuzz", "fuzz_linearizability", ()),
    ("checkers.fuzz.shrink", "repro.checkers.fuzz", "shrink_failure", ()),
    ("checkers.verify", "repro.checkers.verify", "verify_cal", ()),
    ("checkers.verify", "repro.checkers.verify", "verify_linearizability", ()),
    ("checkers.cal.search", "repro.checkers.cal", "CALChecker.check",
     (("checkers.nodes", _nodes),)),
    ("checkers.cal.witness", "repro.checkers.cal", "CALChecker.check_witness",
     (("checkers.nodes", _nodes),)),
    ("checkers.linearizability", "repro.checkers.linearizability",
     "LinearizabilityChecker.check", (("checkers.nodes", _nodes),)),
    ("core.history", "repro.core.history", "History.__init__", ()),
    ("substrate.runtime", "repro.substrate.runtime", "Runtime.run",
     (("substrate.runtime.steps", _steps),)),
    *(
        ("substrate.dpor", "repro.substrate.dpor", f"DporExplorer.{name}", ())
        for name in (
            "begin_run",
            "on_thread_choice",
            "on_value_choice",
            "on_step",
            "end_run",
            "backtrack",
        )
    ),
    ("search.greybox", "repro.search.greybox", "GreyboxEngine.propose", ()),
    ("search.greybox", "repro.search.greybox", "GreyboxEngine.observe",
     (("search.greybox.observed", _one), ("search.greybox.admitted", _admitted))),
    ("search.greybox", "repro.search.greybox", "GreyboxEngine.record_failure", ()),
    *(
        ("obs.coverage", "repro.obs.coverage", f"CoverageTracker.{name}", ())
        for name in (
            "observe_run",
            "observe_spec_trace",
            "merge",
            "snapshot",
            "from_snapshot",
            "prefix_depths",
            "saturation",
            "report",
            "render",
        )
    ),
    *(
        ("obs.profile", "repro.obs.profile", f"SearchProfiler.{name}", ())
        for name in ("begin_check", "enter_completion", "observe_search")
    ),
    ("obs.profile", "repro.obs.profile", "profile_breakdown", ()),
    ("obs.profile", "repro.obs.profile", "render_profile", ()),
    *(
        ("obs.provenance", "repro.obs.provenance", f"ExplorationLedger.{name}", ())
        for name in (
            "count",
            "record_executed",
            "record_pruned",
            "record_advance",
            "record_race",
            "record_wakeup",
            "wants_race_evidence",
            "record_pick",
            "record_mutation",
            "record_admission",
            "record_rejection",
            "get",
            "prune_causes",
            "reconcile",
            "merge",
            "snapshot",
            "from_snapshot",
        )
    ),
    ("obs.provenance", "repro.obs.provenance", "render_ledger", ()),
    ("obs.provenance", "repro.obs.provenance", "ledger_report", ()),
    *(
        ("obs.report", "repro.obs.report", f"CounterexampleReport.{name}", ())
        for name in ("build", "from_failure", "to_dict", "to_json", "render")
    ),
    ("obs.tracing", "repro.obs.tracing", "TraceSink.emit", ()),
    ("obs.tracing", "repro.obs.tracing", "TraceSink.close", ()),
)

#: The explorer generator is timed per ``next()``, not per call: the
#: call only builds the generator, and every schedule is produced by
#: one ``next()``.
ITER_SEAM = ("substrate.explore", "repro.substrate.explore", "explore_all")

#: The workload's setup callable is wrapped by the child, per workload.
SETUP_LAYER = "workloads.setup"

#: Every layer the seams can attribute time to, in report order.
LAYERS: Tuple[str, ...] = (
    "cli",
    "store.campaigns",
    "store.schema",
    "store.checkpoint",
    "checkers.parallel",
    "checkers.fuzz",
    "checkers.fuzz.shrink",
    "checkers.verify",
    "checkers.cal.search",
    "checkers.cal.witness",
    "checkers.linearizability",
    "substrate.explore",
    "substrate.dpor",
    "substrate.runtime",
    SETUP_LAYER,
    "core.history",
    "search.greybox",
    "obs.coverage",
    "obs.profile",
    "obs.provenance",
    "obs.report",
    "obs.tracing",
)

#: Whole-run counters the seams tally.
TALLIES = (
    "substrate.runtime.steps",
    "substrate.explore.schedules",
    "checkers.nodes",
    "store.schema.commits",
    "search.greybox.observed",
    "search.greybox.admitted",
)


class SeamError(RuntimeError):
    """A seam target no longer exists, or an expected seam never fired."""


class Tracer:
    """In-memory span aggregator plus the patches that feed it."""

    def __init__(self) -> None:
        # Each frame is [layer, start, time spent in nested spans].
        self.stack: List[List[Any]] = [[ROOT, 0.0, 0.0]]
        # (parent layer, layer) -> [calls, inclusive s, self s]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self.tallies: Dict[str, int] = dict.fromkeys(TALLIES, 0)

    # -- spans ---------------------------------------------------------
    def _close(self, layer: str, frame: List[Any], end: float) -> None:
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        spent = end - frame[1]
        parent[2] += spent
        key = (parent[0], layer)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += spent
        edge[2] += spent - frame[2]

    def wrap(
        self, layer: str, fn: Callable, tallies: Sequence[Tuple[str, Callable]] = ()
    ) -> Callable:
        """``fn`` timed as one ``layer`` span per call."""
        stack = self.stack
        close = self._close
        totals = self.tallies
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, frame, clock())
            for name, tally in tallies:
                totals[name] += tally(result)
            return result

        return traced

    def wrap_iter(self, layer: str, fn: Callable, counter: str) -> Callable:
        """``fn`` returns an iterator; time the call and each ``next()``."""
        stack = self.stack
        close = self._close
        totals = self.tallies
        clock = time.perf_counter
        start = self.wrap(layer, fn)

        def timed(inner):
            try:
                while True:
                    frame = [layer, clock(), 0.0]
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(layer, frame, clock())
                    totals[counter] += 1
                    yield item
            finally:
                close_inner = getattr(inner, "close", None)
                if close_inner is not None:
                    close_inner()

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return timed(start(*args, **kwargs))

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Patch every seam; raises :class:`SeamError` on a missing target."""
        functions: Dict[int, Tuple[Any, Callable]] = {}
        for layer, module_name, path, tallies in SEAMS:
            module = importlib.import_module(module_name)
            class_name, _, name = path.rpartition(".")
            if class_name:
                cls = _resolve(module, class_name)
                _patch_method(cls, name, self.wrap(layer, _method(cls, name), tallies))
            else:
                original = _resolve(module, name)
                functions[id(original)] = (original, self.wrap(layer, original, tallies))
        layer, module_name, name = ITER_SEAM
        original = _resolve(importlib.import_module(module_name), name)
        functions[id(original)] = (
            original,
            self.wrap_iter(layer, original, "substrate.explore.schedules"),
        )
        # Rebind by identity in every loaded repro module, so by-name
        # imports (``from x import f``) see the wrapper too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- read-out ------------------------------------------------------
    def fired(self) -> Dict[str, int]:
        """Calls per layer (layers that never fired are absent)."""
        calls: Dict[str, int] = {}
        for (_, layer), (count, _, _) in self.edges.items():
            calls[layer] = calls.get(layer, 0) + int(count)
        return calls

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready edges and tallies."""
        return {
            "edges": [
                [parent, layer, int(calls), incl, own]
                for (parent, layer), (calls, incl, own) in sorted(self.edges.items())
            ],
            "tallies": dict(self.tallies),
        }


def _resolve(module: Any, name: str) -> Any:
    try:
        return getattr(module, name)
    except AttributeError:
        raise SeamError(f"seam {module.__name__}.{name} no longer exists") from None


def _method(cls: type, name: str) -> Callable:
    """The plain function behind ``cls.name``, defined on ``cls`` itself."""
    raw = cls.__dict__.get(name)
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    if callable(raw):
        return raw
    raise SeamError(f"seam {cls.__module__}.{cls.__name__}.{name} is not a method")


def _patch_method(cls: type, name: str, wrapper: Callable) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapper = type(raw)(wrapper)
    setattr(cls, name, wrapper)


def check_fired(tracer: Tracer, expected: Sequence[str]) -> None:
    """Raise :class:`SeamError` naming each expected layer that never fired."""
    fired = tracer.fired()
    missing = [layer for layer in expected if not fired.get(layer)]
    if missing:
        raise SeamError("expected seams never fired: " + ", ".join(missing))


def layer_metrics(snapshot: Dict[str, Any], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign.

    ``<layer>.self_s`` and ``<layer>.calls`` for every layer in
    :data:`LAYERS` (0 when it never fired), the derived ratios, the
    whole-run tallies and ``residual_share`` — wall time no span
    accounts for, as a share of ``wall_s``.
    """
    own = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    shrink_incl = 0.0
    replays = 0
    for parent, layer, count, incl, self_s in snapshot["edges"]:
        own[layer] = own.get(layer, 0.0) + self_s
        calls[layer] = calls.get(layer, 0) + count
        if layer == "checkers.fuzz.shrink" and parent != layer:
            shrink_incl += incl
        if parent == "checkers.fuzz.shrink" and layer == "substrate.runtime":
            replays += count
    tallies = snapshot["tallies"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    runs = calls["substrate.runtime"]
    metrics["core.history.per_run"] = calls["core.history"] / runs if runs else 0.0
    metrics["checkers.fuzz.shrink.incl_s"] = shrink_incl
    metrics["checkers.fuzz.shrink.replays"] = replays
    observed = tallies.get("search.greybox.observed", 0)
    metrics["search.greybox.admit_ratio"] = (
        tallies.get("search.greybox.admitted", 0) / observed if observed else 0.0
    )
    metrics["obs.self_s"] = sum(v for k, v in own.items() if k.startswith("obs."))
    for name in (
        "store.schema.commits",
        "substrate.runtime.steps",
        "substrate.explore.schedules",
        "checkers.nodes",
    ):
        metrics[name] = tallies.get(name, 0)
    metrics["residual_share"] = (wall_s - sum(own.values())) / wall_s
    return metrics
