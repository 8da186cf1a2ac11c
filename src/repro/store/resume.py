"""Resume planner: reconstruct the remaining work of a stored campaign.

``python -m repro resume <campaign-id>`` calls :func:`plan_resume` to
read what an interrupted campaign already committed — the indices of
its ``done`` chunks, counted without unpickling them (the campaign
entry point restores them once), plus the list of quarantined chunks
(which a resume retries; only committed successes are skipped) — and
the original config, from which the CLI rebuilds the workload and
re-enters the same campaign entry point.  Because chunk boundaries are a
pure function of the stored config (``checkpoint_every`` over the seed
range, or ``pin_prefix`` arity), the resumed invocation reconstructs the
identical chunk list and the deterministic merge yields an artifact
equal to an uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.store.schema import (
    CHUNK_DONE,
    STATUS_COMPLETE,
    CampaignStore,
    StoreError,
)


@dataclass
class ResumePlan:
    """Everything a resumed invocation needs from the store."""

    campaign: Dict[str, Any]
    #: Indices of the ``done`` chunks (skipped by the runner).
    completed: List[int] = field(default_factory=list)
    #: Chunk rows previously quarantined (retried by the resume).
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def campaign_id(self) -> str:
        return self.campaign["id"]

    @property
    def kind(self) -> str:
        return self.campaign["kind"]

    @property
    def config(self) -> Dict[str, Any]:
        return self.campaign["config"]

    def describe(self) -> str:
        return (
            f"campaign {self.campaign_id} ({self.kind}, "
            f"{self.campaign['workload']}): {len(self.completed)} chunk(s) "
            f"checkpointed, {len(self.quarantined)} quarantined, "
            f"status {self.campaign['status']}"
        )


def plan_resume(store: CampaignStore, campaign_id: str) -> ResumePlan:
    """Load the resume state of ``campaign_id`` from ``store``.

    Raises :class:`~repro.store.schema.StoreError` for an unknown id.
    Resuming a ``complete`` campaign is legal — every chunk is already
    ``done``, so the runner skips straight to the merge and reproduces
    the original artifact (a cheap way to regenerate lost output files).
    """
    campaign = store.get_campaign(campaign_id)
    if campaign is None:
        known = ", ".join(c["id"] for c in store.list_campaigns()) or "<none>"
        raise StoreError(
            f"no campaign {campaign_id!r} in {store.path!r} (known: {known})"
        )
    return ResumePlan(
        campaign=campaign,
        completed=[
            row["chunk_index"]
            for row in store.chunk_rows(campaign_id)
            if row["status"] == CHUNK_DONE and row["payload"] is not None
        ],
        quarantined=store.quarantined_chunks(campaign_id),
    )


def is_complete(plan: ResumePlan) -> bool:
    return plan.campaign["status"] == STATUS_COMPLETE


__all__ = ["ResumePlan", "plan_resume", "is_complete"]
