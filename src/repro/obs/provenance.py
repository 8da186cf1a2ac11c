"""Exploration provenance: the reduction-audit ledger.

A verdict plus a schedule count says *what* a reduced campaign explored;
the :class:`ExplorationLedger` says **why**.  It records the disposition
of every candidate schedule an engine considered:

* **executed** — the run went through ``runtime.run`` (whether or not
  the run completed within ``max_steps``);
* **pruned by sleep set** — the continuation was abandoned because every
  enabled thread was asleep;
* **deferred into a wakeup tree** — a race reversal was queued as a
  wakeup sequence for later execution (DPOR only), with the admission
  outcome (queued / rotated / conservative fallback / rejected and why);
* **spawned by race reversal** — a backtrack advanced into a queued
  wakeup sequence, i.e. a schedule that exists *because* a specific race
  demanded it, with the racing step pair and vector-clock evidence.

It also carries greybox telemetry from
:class:`~repro.search.greybox.GreyboxEngine`: per-entry energy at pick
time (bucketed histogram), mutation-operator outcomes (novel vs stale
per operator), and novelty admissions/rejections with reasons.

Like :class:`~repro.obs.metrics.Metrics` and
:class:`~repro.obs.coverage.CoverageTracker`, the ledger is **off by
default** (every hook takes ``ledger=None`` / ``provenance=None``), owns
no locks, and merges with the partition-transparent law: counters sum,
race-edge counts sum, race evidence keeps the canonically smallest
exemplar per edge (associative, commutative, idempotent) — so per-worker
ledgers folded on join equal the sequential ledger exactly, and recording
can never change a verdict, a node count, or a schedule
(``tests/test_provenance.py`` pins the differential).

Counter reference (all plain ``counters`` entries):

* ``schedule.executed`` / ``schedule.completed`` — runs that executed /
  that additionally ran to completion;
* ``schedule.pruned.sleep_set`` — continuations abandoned as redundant;
* ``schedule.root`` — exploration entry points that attempted at least
  one schedule (1 sequentially; one per shard when sharded);
* ``schedule.race_reversal`` — backtracks into a queued wakeup sequence;
* ``schedule.sibling_advance`` — backtracks into the next awake sibling,
  booked only by the retired ``reduction="sleep-set"`` engine; still
  summed so the ledgers that engine stored keep balancing;
* ``schedule.value_flip`` — backtracks that advanced a ``Choose`` node;
* ``race.immediate`` / ``race.pinned`` — immediate races analysed /
  races whose earlier step ran under a pinned (shard) decision;
* ``wakeup.queued`` / ``wakeup.queued_rotated`` /
  ``wakeup.queued_conservative`` / ``wakeup.queued_unobserved`` —
  admissions, by how the sequence was admitted;
* ``wakeup.rejected_sleep_covered`` / ``wakeup.rejected_duplicate_head``
  / ``wakeup.rejected_covered_since_queued`` — rejections, by cause;
* ``greybox.pick.<bucket>`` — corpus-entry energy at pick time;
* ``greybox.op.<op>.novel`` / ``greybox.op.<op>.stale`` — mutation
  outcomes per operator;
* ``greybox.admitted.history`` / ``greybox.admitted.shape`` /
  ``greybox.rejected.duplicate`` — novelty admissions and rejections;
* ``greybox.failure_donated`` / ``greybox.failure_duplicate`` — failing
  schedules donated to (or already in) the corpus.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

#: Energy-histogram bucket edges (left-inclusive).  Corpus energy is
#: ``(hits + 1) / (children + 1)``: fresh entries start at 1.0, heavily
#: mutated stale entries decay toward 0, failure entries start at
#: :data:`~repro.search.greybox.FAILURE_ENERGY` + 1.
ENERGY_BUCKETS = (
    (8.0, "8+"),
    (4.0, "4-8"),
    (2.0, "2-4"),
    (1.0, "1-2"),
    (0.5, "0.5-1"),
    (0.25, "0.25-0.5"),
)


def energy_bucket(value: float) -> str:
    """The histogram bucket label for an energy ``value``."""
    for floor, label in ENERGY_BUCKETS:
        if value >= floor:
            return label
    return "<0.25"


def _canonical(record: Mapping[str, Any]) -> str:
    """Deterministic serialization for evidence min-merging."""
    return json.dumps(record, sort_keys=True)


def _step_key(record: Mapping[str, Any]) -> Any:
    """Cheap leading component of the evidence order: the racing step
    pair.  Records without integer step indices sort after ones with."""
    i, j = record.get("i"), record.get("j")
    if isinstance(i, int) and isinstance(j, int):
        return (0, i, j)
    return (1, 0, 0)


def _evidence_less(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """``a < b`` under the canonical evidence order: by racing step pair
    first, full canonical serialization on ties.  A total order, so
    min-merging is associative, commutative, idempotent — and the step
    key dodges the serialization cost on the hot recording path."""
    a_key, b_key = _step_key(a), _step_key(b)
    if a_key != b_key:
        return a_key < b_key
    return _canonical(a) < _canonical(b)


class ExplorationLedger:
    """The reduction-audit ledger: schedule dispositions with evidence.

    Three plain dicts, mirroring :class:`~repro.obs.metrics.Metrics`:

    * :attr:`counters` — named tallies (merge by ``+``);
    * :attr:`races` — race-graph edges ``"earlier->later"`` to counts
      (merge by ``+``);
    * :attr:`evidence` — per edge, one exemplar racing step pair with
      its vector clock (merge keeps the canonically smallest record, an
      associative/commutative/idempotent law, so sequential and merged
      parallel ledgers agree exactly).
    """

    __slots__ = ("counters", "races", "evidence")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.races: Dict[str, int] = {}
        self.evidence: Dict[str, Dict[str, Any]] = {}

    # -- recording: engine dispositions --------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def record_executed(self, completed: bool) -> None:
        """One candidate schedule went through ``runtime.run``."""
        self.count("schedule.executed")
        if completed:
            self.count("schedule.completed")

    def record_pruned(self, cause: str = "sleep_set") -> None:
        """One continuation was abandoned as redundant."""
        self.count(f"schedule.pruned.{cause}")

    def record_advance(self, kind: str) -> None:
        """One backtrack advanced — ``kind`` names what it advanced into.

        ``"race_reversal"`` (a queued wakeup sequence) or
        ``"value_flip"`` (a ``Choose`` alternative); ledgers stored by
        the retired sleep-set engine also hold ``"sibling_advance"``
        (its next awake sibling).  Every attempted schedule after its
        root's first is preceded by exactly one advance, which is what
        makes :meth:`reconcile` exact.
        """
        self.count(f"schedule.{kind}")

    def record_race(
        self,
        earlier: str,
        later: str,
        pinned: bool = False,
        evidence: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """One immediate race between steps of ``earlier`` and ``later``.

        ``pinned`` marks races whose earlier step ran under a pinned
        shard decision (no reversal is queued — the sibling shard owns
        it).  ``evidence`` is a JSON-safe dict (step indices, vector
        clock); one exemplar per edge is kept, the canonically
        smallest, so the choice is merge-order independent.
        """
        self.count("race.pinned" if pinned else "race.immediate")
        key = f"{earlier}->{later}"
        self.races[key] = self.races.get(key, 0) + 1
        if evidence is not None:
            existing = self.evidence.get(key)
            if existing is None:
                self.evidence[key] = dict(evidence)
            elif evidence != existing and _evidence_less(evidence, existing):
                self.evidence[key] = dict(evidence)

    def record_wakeup(self, outcome: str) -> None:
        """One wakeup-tree admission decision (see module docstring)."""
        self.count(f"wakeup.{outcome}")

    def wants_race_evidence(
        self, earlier: str, later: str, i: int, j: int
    ) -> bool:
        """Cheap pre-check for the engines' hot recording path: could a
        race at steps ``(i, j)`` replace the stored exemplar for this
        edge?  Skipping evidence the check rejects never changes what
        :meth:`record_race` would keep — it only dodges building the
        record (step pair + vector clock) for races that cannot win."""
        existing = self.evidence.get(f"{earlier}->{later}")
        if existing is None:
            return True
        return (0, i, j) <= _step_key(existing)

    # -- recording: greybox telemetry -----------------------------------
    def record_pick(self, energy: float) -> None:
        """A corpus entry was picked for mutation at ``energy``."""
        self.count(f"greybox.pick.{energy_bucket(energy)}")

    def record_mutation(self, op: str, novel: bool) -> None:
        """A mutated schedule's outcome, attributed to its operator."""
        self.count(f"greybox.op.{op}.{'novel' if novel else 'stale'}")

    def record_admission(self, reason: str) -> None:
        """A run minted novelty and was admitted to the corpus."""
        self.count(f"greybox.admitted.{reason}")

    def record_rejection(self, reason: str) -> None:
        """A run minted nothing and was rejected from the corpus."""
        self.count(f"greybox.rejected.{reason}")

    # -- reading ---------------------------------------------------------
    def get(self, name: str, default: int = 0) -> int:
        """Counter ``name``, or ``default`` when never recorded."""
        return self.counters.get(name, default)

    def __len__(self) -> int:
        return len(self.counters) + len(self.races)

    def __repr__(self) -> str:
        return (
            f"ExplorationLedger({len(self.counters)} counters, "
            f"{len(self.races)} race edges)"
        )

    def prune_causes(self) -> Dict[str, int]:
        """``cause -> count`` over the ``schedule.pruned.*`` counters."""
        prefix = "schedule.pruned."
        return {
            name[len(prefix):]: value
            for name, value in sorted(self.counters.items())
            if name.startswith(prefix)
        }

    def reconcile(self, visited: Optional[int] = None) -> Dict[str, Any]:
        """Audit the ledger's books against the engine's schedule count.

        Two identities must hold over any reduced exploration:

        * every visited schedule has exactly one disposition:
          ``visited == executed + pruned``;
        * every schedule after a root's first was reached by exactly one
          backtrack advance:
          ``executed + pruned == roots + advances``.

        ``roots`` counts exploration entry points that attempted at
        least one schedule — 1 for a sequential sweep, one per shard for
        a sharded or durable campaign (each shard's first schedule is
        reached by its pin, not by an advance), so the identity stays
        exact when per-shard ledgers merge.

        ``visited`` is the engine's own attempted-schedule count (from
        ``ExploreBudget.runs`` or an artifact's tallies); when ``None``
        the internal identity alone is checked.  Returns the audit as a
        plain dict with a ``balanced`` verdict — the acceptance gate for
        "no unaccounted schedules".
        """
        executed = self.get("schedule.executed")
        pruned = sum(self.prune_causes().values())
        roots = self.get("schedule.root")
        advances = (
            self.get("schedule.race_reversal")
            + self.get("schedule.sibling_advance")
            + self.get("schedule.value_flip")
        )
        total = executed + pruned
        balanced = total == roots + advances
        if visited is not None:
            balanced = balanced and total == visited
        return {
            "visited": visited if visited is not None else total,
            "executed": executed,
            "completed": self.get("schedule.completed"),
            "pruned": pruned,
            "roots": roots,
            "advances": advances,
            "race_reversals": self.get("schedule.race_reversal"),
            "balanced": balanced,
        }

    # -- merging / serialization ----------------------------------------
    def merge(self, other: "ExplorationLedger") -> "ExplorationLedger":
        """Fold ``other`` into this ledger; returns self.

        Counters and race-edge counts sum; evidence keeps the
        canonically smallest exemplar per edge.  Associative,
        commutative and (for evidence) idempotent, so any partition of
        the same work merges to the identical ledger.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for key, value in other.races.items():
            self.races[key] = self.races.get(key, 0) + value
        for key, record in other.evidence.items():
            existing = self.evidence.get(key)
            if existing is None or (
                record != existing and _evidence_less(record, existing)
            ):
                self.evidence[key] = dict(record)
        return self

    def snapshot(self) -> Dict[str, Any]:
        """A key-sorted plain-dict copy — JSON- and pickle-safe.

        Sorted so equal ledgers serialize byte-identically, the same
        property :class:`~repro.obs.coverage.CoverageTracker` provides.
        """
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "races": {k: self.races[k] for k in sorted(self.races)},
            "evidence": {
                k: dict(self.evidence[k]) for k in sorted(self.evidence)
            },
        }

    @classmethod
    def from_snapshot(
        cls, snapshot: Mapping[str, Any]
    ) -> "ExplorationLedger":
        """Rebuild a ledger from a :meth:`snapshot` dict."""
        ledger = cls()
        ledger.counters.update(snapshot.get("counters", {}))
        ledger.races.update(snapshot.get("races", {}))
        for key, record in snapshot.get("evidence", {}).items():
            ledger.evidence[key] = dict(record)
        return ledger


def _as_ledger(source: Any) -> ExplorationLedger:
    """Accept a ledger or a snapshot dict (artifact JSON)."""
    if isinstance(source, ExplorationLedger):
        return source
    return ExplorationLedger.from_snapshot(source or {})


def ledger_report(source: Any, visited: Optional[int] = None) -> Dict[str, Any]:
    """The ledger's aggregate numbers as a plain dict.

    ``source`` is a ledger or a snapshot; ``visited`` (the engine's own
    attempted-schedule count) tightens the reconciliation audit.
    """
    ledger = _as_ledger(source)
    wakeups = {
        name[len("wakeup."):]: value
        for name, value in sorted(ledger.counters.items())
        if name.startswith("wakeup.")
    }
    greybox = {
        name[len("greybox."):]: value
        for name, value in sorted(ledger.counters.items())
        if name.startswith("greybox.")
    }
    return {
        "reconciliation": ledger.reconcile(visited),
        "prune_causes": ledger.prune_causes(),
        "wakeups": wakeups,
        "races": {k: ledger.races[k] for k in sorted(ledger.races)},
        "greybox": greybox,
    }


def audit_artifact(artifact: Mapping[str, Any]) -> Dict[str, Any]:
    """The provenance audit of a campaign artifact — ``repro report``'s
    exit code and the badge on its page.

    Returns ``{"ledger": ..., "failure": ...}``: the artifact's ledger
    (``None`` when it recorded none) and why its books do not balance
    (``None`` when they do).  They fail when there is no ledger, when its
    dispositions do not reconcile, or when it disagrees with the
    artifact's own tallies: an explore's ``runs`` must equal the ledger's
    completed count, a verify's ``runs + incomplete`` its executed count.
    """
    snapshot = artifact.get("provenance")
    if not snapshot:
        return {
            "ledger": None,
            "failure": "no provenance recorded in this artifact "
            "(pre-provenance campaign, or a driver invoked without a ledger)",
        }
    ledger = ExplorationLedger.from_snapshot(snapshot)
    books = ledger.reconcile()
    tallies = artifact.get("tallies") or {}
    failure = None
    if not books["balanced"]:
        failure = (
            f"UNACCOUNTED SCHEDULES: executed {books['executed']} + pruned "
            f"{books['pruned']} != roots {books['roots']} + advances "
            f"{books['advances']}"
        )
    elif books["executed"] and "runs" in tallies and artifact.get("kind") in (
        "explore",
        "verify",
    ):
        if artifact["kind"] == "explore":
            field, name, claimed = "completed", "runs", tallies["runs"]
        else:
            field, name = "executed", "runs+incomplete"
            claimed = tallies["runs"] + tallies.get("incomplete", 0)
        if books[field] != claimed:
            failure = (
                f"RECONCILIATION MISMATCH: ledger {field} {books[field]} "
                f"!= artifact {name} {claimed}"
            )
    return {"ledger": ledger, "failure": failure}


def render_ledger(source: Any, visited: Optional[int] = None) -> str:
    """ASCII rendering of the ledger — the audit ``repro report`` prints."""
    report = ledger_report(source, visited)
    ledger = _as_ledger(source)
    lines = []
    audit = report["reconciliation"]
    verdict = "balanced" if audit["balanced"] else "UNACCOUNTED SCHEDULES"
    lines.append("schedule dispositions")
    lines.append(
        f"  visited {audit['visited']}  = executed {audit['executed']}"
        f" + pruned {audit['pruned']}   [{verdict}]"
    )
    lines.append(
        f"  completed {audit['completed']}  roots {audit['roots']}"
        f"  advances {audit['advances']}"
        f"  (race reversals {audit['race_reversals']})"
    )
    if report["prune_causes"]:
        lines.append("prune causes")
        for cause, count in report["prune_causes"].items():
            lines.append(f"  {cause:<28} {count}")
    if report["wakeups"]:
        lines.append("wakeup-tree admissions")
        for outcome, count in report["wakeups"].items():
            lines.append(f"  {outcome:<28} {count}")
    if report["races"]:
        lines.append("race graph (earlier -> later : races)")
        for edge, count in report["races"].items():
            suffix = ""
            exemplar = ledger.evidence.get(edge)
            if exemplar is not None:
                suffix = f"   e.g. steps {exemplar.get('i')}<{exemplar.get('j')}"
            lines.append(f"  {edge:<28} {count}{suffix}")
    if report["greybox"]:
        lines.append("greybox telemetry")
        for name, count in report["greybox"].items():
            lines.append(f"  {name:<28} {count}")
    return "\n".join(lines)


__all__ = [
    "ENERGY_BUCKETS",
    "ExplorationLedger",
    "audit_artifact",
    "energy_bucket",
    "ledger_report",
    "render_ledger",
]
