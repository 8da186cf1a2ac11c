"""Checkpoint writer: persist finished campaign chunks as they complete.

The campaign runners (:mod:`repro.checkers.parallel`) call back into a
:class:`CheckpointWriter` from the parent process as each chunk settles:
``chunk_done`` for a completed partial report, ``chunk_quarantined`` for
a chunk whose workers kept dying.  Each call is one SQLite transaction,
so after any interruption — ``SIGINT``, ``SIGKILL`` of the parent, power
loss — the store holds exactly the chunks whose calls returned.

Reports are pickled (protocol 4): :class:`~repro.checkers.fuzz.FuzzReport`
and :class:`~repro.checkers.verify.VerificationReport` already cross
worker pipes, so picklability is an existing invariant, and restoring
the identical object is what keeps resumed merges byte-equal to
uninterrupted ones.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

from repro.store.schema import CHUNK_DONE, CHUNK_QUARANTINED, CampaignStore

_PICKLE_PROTOCOL = 4


def dump_report(report: Any) -> bytes:
    """Serialise a partial report for a chunk payload."""
    return pickle.dumps(report, protocol=_PICKLE_PROTOCOL)


def load_report(payload: bytes) -> Any:
    """Restore a chunk payload written by :func:`dump_report`."""
    return pickle.loads(payload)


class CheckpointWriter:
    """Persist chunk outcomes for one campaign into a store.

    ``abort_after`` is a deterministic-interrupt hook for tests and the
    CI resume-smoke job: after that many ``chunk_done`` writes it raises
    :class:`KeyboardInterrupt` — *after* committing — which exercises the
    exact SIGINT code path (supervisor cleanup, campaign marked
    ``interrupted``, exit 130) without racing a real signal against the
    scheduler.
    """

    def __init__(
        self,
        store: CampaignStore,
        campaign_id: str,
        trace=None,
        abort_after: int = 0,
    ) -> None:
        self.store = store
        self.campaign_id = campaign_id
        self.trace = trace
        self.abort_after = abort_after
        self.writes = 0

    def chunk_done(
        self, index: int, seed_start: int, seed_count: int, report: Any
    ) -> None:
        self.store.record_chunk(
            self.campaign_id,
            index,
            seed_start,
            seed_count,
            CHUNK_DONE,
            dump_report(report),
        )
        self.writes += 1
        if self.trace is not None:
            self.trace.emit(
                "checkpoint",
                campaign=self.campaign_id,
                chunk=index,
                seed_start=seed_start,
                seed_count=seed_count,
                status=CHUNK_DONE,
            )
        if self.abort_after and self.writes >= self.abort_after:
            raise KeyboardInterrupt(
                f"aborting after {self.writes} checkpoint(s) as requested"
            )

    def chunk_quarantined(
        self, index: int, seed_start: int, seed_count: int, error: str
    ) -> None:
        self.store.record_chunk(
            self.campaign_id,
            index,
            seed_start,
            seed_count,
            CHUNK_QUARANTINED,
            None,
            error=error,
        )
        if self.trace is not None:
            self.trace.emit(
                "checkpoint",
                campaign=self.campaign_id,
                chunk=index,
                seed_start=seed_start,
                seed_count=seed_count,
                status=CHUNK_QUARANTINED,
            )


def restore_completed(
    store: CampaignStore, campaign_id: str
) -> "dict[int, Any]":
    """Chunk index → restored partial report, for every ``done`` chunk."""
    return {
        index: load_report(payload)
        for index, payload in store.completed_payloads(campaign_id).items()
        if payload is not None
    }


__all__ = [
    "CheckpointWriter",
    "dump_report",
    "load_report",
    "restore_completed",
]
