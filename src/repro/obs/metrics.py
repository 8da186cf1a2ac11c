"""The metrics registry: named counters, maxima and wall-clock timers.

Design constraints (see ``docs/observability.md``):

* **zero-dep, dict-backed** — a :class:`Metrics` is three plain dicts;
  snapshots are plain nested dicts, picklable across process pipes and
  serializable as JSON.
* **fork/thread safety by partition** — nothing here locks.  Each
  worker (process or thread) owns a private instance; the parent folds
  worker snapshots back with :meth:`Metrics.merge`.  Because counters
  merge by ``+``, maxima by ``max`` and timers by ``+``, the merge is
  associative and commutative: any partition of the same work produces
  identical totals (the parallel-campaign determinism guarantee).
* **deterministic counters** — everything recorded under ``counters``
  and ``maxima`` by the library is a pure function of the inputs
  (histories, seeds, schedules), never of process-local cache warmth or
  wall clock; ``timers`` are the only wall-clock-dependent entries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping


class Metrics:
    """A registry of named counters (sum), maxima (max) and timers (sum).

    Counter names are dotted strings grouped by subsystem —
    ``search.nodes``, ``runtime.cas_failure``, ``fuzz.seeds`` — see
    ``docs/observability.md`` for the full table.
    """

    __slots__ = ("counters", "maxima", "timers")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.maxima: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}

    # -- recording -----------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def record_max(self, name: str, value: int) -> None:
        """Raise maximum ``name`` to ``value`` if larger."""
        current = self.maxima.get(name)
        if current is None or value > current:
            self.maxima[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        """Add ``seconds`` of wall clock to timer ``name``."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into timer ``name`` (exception-safe)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    # -- reading -------------------------------------------------------
    def get(self, name: str, default: int = 0) -> int:
        """Counter ``name``, or ``default`` when never counted."""
        return self.counters.get(name, default)

    def __len__(self) -> int:
        return len(self.counters) + len(self.maxima) + len(self.timers)

    def __repr__(self) -> str:
        return (
            f"Metrics({len(self.counters)} counters, "
            f"{len(self.maxima)} maxima, {len(self.timers)} timers)"
        )

    # -- merging / serialization ---------------------------------------
    def merge(self, other: "Metrics") -> "Metrics":
        """Fold ``other`` into this registry; returns self.

        Sum counters and timers, max maxima — associative and
        commutative, so per-worker instances merged on join total
        exactly what one sequential instance would have recorded.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.maxima.items():
            self.record_max(name, value)
        for name, value in other.timers.items():
            self.timers[name] = self.timers.get(name, 0.0) + value
        return self

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A plain-dict copy — picklable, JSON-serializable, detached."""
        return {
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "timers": dict(self.timers),
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Mapping[str, Any]]) -> "Metrics":
        """Rebuild a registry from a :meth:`snapshot` dict."""
        metrics = cls()
        metrics.counters.update(snapshot.get("counters", {}))
        metrics.maxima.update(snapshot.get("maxima", {}))
        metrics.timers.update(snapshot.get("timers", {}))
        return metrics


def observe_run(metrics: Metrics, result: Any) -> None:
    """Flush one run's substrate tallies into ``metrics``.

    ``result`` is duck-typed as a
    :class:`~repro.substrate.runtime.RunResult` (``steps``, ``counters``,
    ``crashed``) and produces the ``runtime.*`` counters.  The fuzz and
    verify drivers call it on every finished run: they see results, never
    the runtime itself.
    """
    metrics.count("runtime.runs")
    metrics.count("runtime.steps", result.steps)
    for name, value in result.counters.items():
        metrics.count(f"runtime.{name}", value)
    injected = result.counters.get("injected_pause", 0) + result.counters.get(
        "injected_halt", 0
    )
    if injected:
        metrics.count("runtime.injected_faults", injected)
    if result.crashed:
        metrics.count("runtime.crashed_threads", len(result.crashed))
