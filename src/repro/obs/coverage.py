"""Schedule-space coverage: how much of the campaign actually explored.

A verdict says *that* a campaign passed; the paper's evaluation style
(E1: 1650 runs, E2: all 4622 interleavings) and Dongol & Derrick's
survey point — checker comparisons hinge on exploration accounting —
both need to know *how much* was explored.  :class:`CoverageTracker`
fingerprints three facets of every observed run:

* **schedule prefixes** — the first ``prefix_depth`` scheduler decisions,
  one fingerprint per prefix length: how much of the decision tree near
  the root the campaign has touched;
* **histories** — a digest of the full action sequence (distinct
  observable behaviours) plus the *span-structure signature* the search
  core already computes (:func:`repro.checkers._search.structural_key`):
  distinct history *shapes*, the unit the structural mask cache dedups;
* **spec-state transitions** — ``(state, element, successor)`` triples
  walked along each run's recorded witness trace: which parts of the
  specification's transition system the campaign has exercised.

Everything is a **pure function of the observed runs** — fingerprints
are content digests (:mod:`hashlib`), never ``hash()`` (which is
process-seeded) — and merging is set union plus a position-keyed sample
union, so the same merge-law discipline as
:class:`~repro.obs.metrics.Metrics` holds: any partition of a campaign
across workers merges to exactly the sequential tracker
(``tests/test_coverage.py::TestParallelCoverageDeterminism``).

The **saturation curve** ("new histories per 1k runs") comes from the
per-position samples: each observed run records, at its global campaign
position, the history fingerprint it produced; bucketing first
occurrences over positions yields the curve, identically for sequential
and merged parallel trackers.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default number of leading scheduler decisions fingerprinted per run.
DEFAULT_PREFIX_DEPTH = 8

#: Default saturation-curve bucket width, in campaign positions (runs:
#: fuzz seeds or explored schedules).
DEFAULT_BUCKET = 1000

#: Bound on the shared history-digest memo (:func:`history_digests`) and
#: on each tracker's walked-witness memo, read at call time.  A memo is
#: cleared wholesale when full; a miss recomputes the same digests, so
#: eviction is invisible.
_DIGEST_MEMO_CAP = 4096

#: History content key -> (history digest, shape digest), shared by every
#: tracker and the greybox engine in this process.
_DIGESTS: Dict[Any, Tuple[str, Optional[str]]] = {}


def _digest(text: str) -> str:
    """A short, process-independent content fingerprint."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def canonical_repr(value: Any) -> str:
    """A deterministic textual form of ``value``.

    ``repr()`` of sets/frozensets/dicts follows hash iteration order,
    which is process-seeded for strings; this walks containers and
    sorts unordered ones so two processes fingerprint the same abstract
    spec state identically.
    """
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(canonical_repr(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(
            (canonical_repr(k), canonical_repr(v)) for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(canonical_repr(v) for v in value)
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    return repr(value)


def _element_signature(element: Any) -> str:
    """Order-insensitive fingerprint of a CA-element's operations."""
    ops = sorted(canonical_repr(op) for op in element.operations)
    return "{" + ",".join(ops) + "}"


def history_digests(history: Any) -> Tuple[str, Optional[str]]:
    """(action-sequence digest, structural-shape digest or None when the
    history is ill-formed) — the two history facets of a run.

    Memoized on the history's
    :meth:`~repro.core.history.History.content_key` in one memo for the
    whole process; digests are pure functions of that content, so the
    memo changes no fingerprint.
    """
    try:
        key = history.content_key()
        digests = _DIGESTS.get(key)
    except TypeError:  # an unhashable argument or result
        key = digests = None
    if digests is not None:
        return digests
    # Lazy import: repro.checkers.__init__ pulls in the drivers, which
    # import repro.obs — resolve the cycle at call time.
    from repro.checkers._search import structural_key

    fingerprint = _digest(canonical_repr(tuple(history.actions)))
    shape = None
    if history.is_well_formed():
        shape = _digest(canonical_repr(structural_key(history.spans())))
    if key is not None:
        if len(_DIGESTS) >= _DIGEST_MEMO_CAP:
            _DIGESTS.clear()
        if len(_DIGESTS) < _DIGEST_MEMO_CAP:
            _DIGESTS[key] = fingerprint, shape
    return fingerprint, shape


class CoverageTracker:
    """Accumulates schedule/history/spec coverage over a campaign.

    ``offset`` shifts every observed position — the parallel campaign
    runner gives each worker's tracker the global index of its chunk's
    first seed, so merged samples land exactly where the sequential
    tracker would have put them.  Like :class:`~repro.obs.metrics.Metrics`,
    nothing locks: one tracker per worker, merged on join.

    History digests come from the shared memo of
    :func:`history_digests`, and a witness this tracker already walked
    through the same spec is not walked again.  Digests are pure
    functions of content, so the memos change no fingerprint; they stay
    out of :meth:`snapshot` and :meth:`merge`.
    """

    __slots__ = (
        "prefix_depth",
        "offset",
        "schedule_prefixes",
        "histories",
        "history_shapes",
        "spec_transitions",
        "samples",
        "observed",
        "_walked",
    )

    def __init__(
        self, prefix_depth: int = DEFAULT_PREFIX_DEPTH, offset: int = 0
    ) -> None:
        self.prefix_depth = prefix_depth
        self.offset = offset
        self.schedule_prefixes: set = set()  # "depth:decision,decision,…"
        self.histories: set = set()  # digest of the full action sequence
        self.history_shapes: set = set()  # digest of the structural key
        self.spec_transitions: set = set()  # digest of (state, elem, succ)
        self.samples: Dict[int, str] = {}  # global position -> history digest
        self.observed = 0
        self._walked: set = set()  # (spec, witness content key) pairs

    # -- observing -----------------------------------------------------
    def observe_run(
        self,
        position: int,
        schedule: Sequence[int],
        history: Any,
        oid: Optional[str] = None,
    ) -> bool:
        """Record one run; returns True when its history was new.

        ``position`` is the run's index within *this campaign call*;
        the tracker's ``offset`` turns it into the global position.
        ``history`` is a :class:`~repro.core.history.History`; with
        ``oid`` it is projected to that object first (matching what the
        checkers look at).
        """
        self.observed += 1
        decisions = [str(d) for d in schedule[: self.prefix_depth]]
        for depth in range(1, len(decisions) + 1):
            prefix = ",".join(decisions[:depth])
            self.schedule_prefixes.add(f"{depth}:{prefix}")
        target = history.project_object(oid) if oid is not None else history
        fingerprint, shape = history_digests(target)
        new = fingerprint not in self.histories
        self.histories.add(fingerprint)
        if shape is not None:
            self.history_shapes.add(shape)
        self.samples[self.offset + position] = fingerprint
        return new

    def observe_spec_trace(self, spec: Any, trace: Iterable[Any]) -> None:
        """Walk ``trace`` through ``spec``, recording each transition.

        ``spec`` may be a CA-spec (``step(state, element)``) or a
        sequential spec (``apply(state, op)``, singleton elements).  A
        rejected element records a terminal ``REJECT`` transition and
        stops — the walk is a pure function of (spec, trace), so a trace
        this tracker already walked through ``spec`` is skipped.
        """
        try:
            key = (spec, trace.content_key())
            if key in self._walked:
                return
        except (AttributeError, TypeError):  # not a CATrace, or unhashable
            key = None
        self._walk_spec_trace(spec, trace)
        if key is not None:
            if len(self._walked) >= _DIGEST_MEMO_CAP:
                self._walked.clear()
            if len(self._walked) < _DIGEST_MEMO_CAP:
                self._walked.add(key)

    def _walk_spec_trace(self, spec: Any, trace: Iterable[Any]) -> None:
        step = getattr(spec, "step", None)
        apply = getattr(spec, "apply", None)
        state = spec.initial()
        for element in trace:
            if getattr(element, "oid", spec.oid) != spec.oid:
                return
            if step is not None:
                successor = step(state, element)
            else:
                if not element.is_singleton():
                    return
                successor = apply(state, element.single())
            origin = canonical_repr(state)
            signature = _element_signature(element)
            if successor is None:
                self.spec_transitions.add(
                    _digest(f"{origin}|{signature}|REJECT")
                )
                return
            self.spec_transitions.add(
                _digest(f"{origin}|{signature}|{canonical_repr(successor)}")
            )
            state = successor

    # -- merging / serialization ---------------------------------------
    def merge(self, other: "CoverageTracker") -> "CoverageTracker":
        """Fold ``other`` into this tracker; returns self.

        Set unions plus a position-keyed sample union — associative and
        commutative, so per-worker trackers merged on join equal the
        sequential tracker exactly (positions are globally unique by
        construction: each worker observes a disjoint chunk).
        """
        self.schedule_prefixes |= other.schedule_prefixes
        self.histories |= other.histories
        self.history_shapes |= other.history_shapes
        self.spec_transitions |= other.spec_transitions
        self.samples.update(other.samples)
        self.observed += other.observed
        return self

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy — picklable, JSON-serializable, detached.

        Sets are serialized sorted, samples as position-sorted pairs, so
        equal trackers produce byte-equal snapshots.
        """
        return {
            "prefix_depth": self.prefix_depth,
            "observed": self.observed,
            "schedule_prefixes": sorted(self.schedule_prefixes),
            "histories": sorted(self.histories),
            "history_shapes": sorted(self.history_shapes),
            "spec_transitions": sorted(self.spec_transitions),
            "samples": [
                [position, fingerprint]
                for position, fingerprint in sorted(self.samples.items())
            ],
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "CoverageTracker":
        """Rebuild a tracker from a :meth:`snapshot` dict."""
        tracker = cls(
            prefix_depth=snapshot.get("prefix_depth", DEFAULT_PREFIX_DEPTH)
        )
        tracker.observed = snapshot.get("observed", 0)
        tracker.schedule_prefixes = set(snapshot.get("schedule_prefixes", ()))
        tracker.histories = set(snapshot.get("histories", ()))
        tracker.history_shapes = set(snapshot.get("history_shapes", ()))
        tracker.spec_transitions = set(snapshot.get("spec_transitions", ()))
        tracker.samples = {
            int(position): fingerprint
            for position, fingerprint in snapshot.get("samples", ())
        }
        return tracker

    # -- reading -------------------------------------------------------
    def prefix_depths(self) -> Dict[int, int]:
        """Distinct schedule prefixes per depth: ``{depth: count}``."""
        counts: Dict[int, int] = {}
        for entry in self.schedule_prefixes:
            depth = int(entry.split(":", 1)[0])
            counts[depth] = counts.get(depth, 0) + 1
        return dict(sorted(counts.items()))

    def saturation(self, bucket: int = DEFAULT_BUCKET) -> List[Tuple[int, int]]:
        """New-history counts per position bucket: ``[(start, new), …]``.

        Walks samples in global position order with a fresh seen-set, so
        a merged parallel tracker yields the identical curve to the
        sequential one.
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        curve: Dict[int, int] = {}
        seen: set = set()
        for position in sorted(self.samples):
            fingerprint = self.samples[position]
            start = (position // bucket) * bucket
            curve.setdefault(start, 0)
            if fingerprint not in seen:
                seen.add(fingerprint)
                curve[start] += 1
        return sorted(curve.items())

    def bucket_for(self, points: int) -> int:
        """A saturation bucket width that draws the curve in about
        ``points`` points."""
        if not self.samples:
            return 1000
        span = max(self.samples) + 1
        for bucket in (1, 5, 10, 50, 100, 500, 1000, 5000):
            if span // bucket <= points:
                return bucket
        return 10000

    def report(self, bucket: int = DEFAULT_BUCKET) -> Dict[str, Any]:
        """Aggregate coverage numbers plus the saturation curve."""
        return {
            "observed": self.observed,
            "distinct_histories": len(self.histories),
            "distinct_history_shapes": len(self.history_shapes),
            "distinct_schedule_prefixes": len(self.schedule_prefixes),
            "prefix_depths": self.prefix_depths(),
            "spec_transitions": len(self.spec_transitions),
            "saturation": [list(pair) for pair in self.saturation(bucket)],
        }

    def render(self, bucket: int = DEFAULT_BUCKET, width: int = 40) -> str:
        """ASCII coverage report: counts table plus the saturation curve."""
        # Lazy: repro.analysis imports the verify driver via its
        # experiment tables; keep this module import-light.
        from repro.analysis.tables import format_table

        summary = format_table(
            "schedule-space coverage",
            ["facet", "distinct"],
            [
                ["runs observed", self.observed],
                ["histories", len(self.histories)],
                ["history shapes", len(self.history_shapes)],
                ["schedule prefixes", len(self.schedule_prefixes)],
                ["spec transitions", len(self.spec_transitions)],
            ],
        )
        parts = [summary]
        curve = self.saturation(bucket)
        if curve:
            peak = max(new for _, new in curve) or 1
            lines = [f"\nnew histories per {bucket} runs:"]
            for start, new in curve:
                bar = "#" * max(1 if new else 0, round(new / peak * width))
                lines.append(f"  [{start:>8}..) {bar} {new}")
            parts.append("\n".join(lines))
        return "\n".join(parts)

    def __repr__(self) -> str:
        return (
            f"CoverageTracker({self.observed} runs, "
            f"{len(self.histories)} histories, "
            f"{len(self.history_shapes)} shapes, "
            f"{len(self.spec_transitions)} transitions)"
        )
