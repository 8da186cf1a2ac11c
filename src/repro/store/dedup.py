"""Cross-run schedule dedup: skip schedules a prior campaign verified.

A fuzz run is a pure function of its seed, so two campaigns over
overlapping seed ranges — or a resumed campaign re-running a partially
finished chunk — re-check many schedules that an earlier run already
proved fine.  :class:`ScheduleDedup` persists the digests of
**fault-free passing** schedules keyed by a ``(workload, checker,
width)`` scope and lets later campaigns skip them.

Two properties keep this sound and deterministic:

* **Only verdict-preserving runs are skipped.**  A digest is recorded
  only for runs that passed without injected faults; failing or unknown
  runs are always re-checked, and dedup is disabled outright when a
  :class:`~repro.checkers.fuzz.FaultPlan` is active (the plan, not just
  the schedule, determines the verdict).
* **The known-set is frozen at campaign start.**  ``seen`` consults only
  digests loaded *before* the campaign began — never digests minted
  during it — so every worker (and the sequential runner) makes the same
  skip decisions regardless of execution order, preserving partition
  transparency.  Fresh digests ride back on
  ``report.fresh_schedules`` and are folded into the store afterwards.
"""

from __future__ import annotations

import hashlib
from typing import FrozenSet, Iterable, Sequence

from repro.substrate.schedulers import ReplayScheduler

#: Fingerprint kind under which verified schedule digests are stored.
SCHEDULE_KIND = "schedule"


def dedup_scope(workload: str, checker: str, width: int) -> str:
    """The fingerprint scope key: schedules only transfer between
    campaigns that run the same program at the same thread width under
    the same checker."""
    return f"{workload}|{checker}|w{width}"


def probe_width(setup) -> int:
    """Thread width of a workload (how many thread ids its setup spawns).

    Runs the setup against an empty replay schedule — no steps execute,
    but registration happens — mirroring the arity probe in
    :func:`repro.substrate.explore.shard_plan`.
    """
    scheduler = ReplayScheduler(())
    runtime = setup(scheduler)
    return len(runtime.thread_ids)


class ScheduleDedup:
    """Skip-list of schedule digests known verified for one scope."""

    __slots__ = ("scope", "known")

    def __init__(self, scope: str, known: Iterable[str] = ()) -> None:
        self.scope = scope
        self.known: FrozenSet[str] = frozenset(known)

    @staticmethod
    def digest(schedule: Sequence[int]) -> str:
        """Stable digest of a full schedule (the run's decision list)."""
        payload = ",".join(str(choice) for choice in schedule)
        return hashlib.sha1(payload.encode("ascii")).hexdigest()[:16]

    def seen(self, digest: str) -> bool:
        # Membership against the pre-campaign frozen set only: digests
        # minted during the campaign never influence it, so sequential
        # and parallel runs dedup identically.
        return digest in self.known

    def __len__(self) -> int:
        return len(self.known)

    def __repr__(self) -> str:
        return f"ScheduleDedup({self.scope!r}, {len(self.known)} known)"


def load_dedup(store, workload: str, checker: str, width: int) -> ScheduleDedup:
    """Build a :class:`ScheduleDedup` from the store's persisted digests."""
    scope = dedup_scope(workload, checker, width)
    return ScheduleDedup(scope, store.fingerprints(scope, SCHEDULE_KIND))


def persist_fresh(store, dedup: ScheduleDedup, fresh: Iterable[str]) -> int:
    """Fold a finished campaign's fresh digests into the store.

    ``INSERT OR IGNORE`` under the hood, so cross-chunk duplicates in
    ``fresh`` (workers cannot see each other's digests mid-campaign)
    collapse harmlessly.  Returns how many digests were actually new.
    """
    return store.add_fingerprints(dedup.scope, SCHEDULE_KIND, fresh)


__all__ = [
    "SCHEDULE_KIND",
    "ScheduleDedup",
    "dedup_scope",
    "load_dedup",
    "persist_fresh",
    "probe_width",
]
