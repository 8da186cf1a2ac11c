"""The SQLite campaign store: schema and low-level access.

One file (``--store campaigns.db``) holds every durable campaign's
lifecycle: the campaign row itself (kind, workload, config, status),
one row per checkpointed **chunk** (a contiguous block of fuzz seeds or
one ``pin_prefix`` shard, with its pickled partial report), and the
cross-run **fingerprint** sets (verified schedule digests, coverage
facets) keyed by a ``(workload, checker, width)`` scope.

Design notes:

* **SQLite, stdlib only.**  The store is a local durability substrate,
  not a server: one writer (the campaign parent process), WAL mode for
  crash safety, one transaction per chunk checkpoint — a ``SIGKILL``-ed
  worker or a ``SIGINT``-ed parent leaves at worst one uncommitted
  chunk, never a corrupt store.
* **Partial reports are pickled.**  Chunk payloads are the same
  :class:`~repro.checkers.fuzz.FuzzReport` /
  :class:`~repro.checkers.verify.VerificationReport` objects that
  already cross worker pipes; pickling preserves them exactly, which is
  what makes a resumed campaign's merged artifact *equal* to an
  uninterrupted run's (the deterministic-merge guarantee).
* **Configs are immutable.**  Reopening a campaign id with a different
  config raises :class:`StoreError` — chunk indices are only meaningful
  against the chunking the original config induced.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id         TEXT PRIMARY KEY,
    kind       TEXT NOT NULL,
    workload   TEXT NOT NULL,
    checker    TEXT NOT NULL,
    config     TEXT NOT NULL,
    status     TEXT NOT NULL,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS chunks (
    campaign_id TEXT    NOT NULL,
    chunk_index INTEGER NOT NULL,
    seed_start  INTEGER NOT NULL,
    seed_count  INTEGER NOT NULL,
    status      TEXT    NOT NULL,
    error       TEXT    NOT NULL DEFAULT '',
    payload     BLOB,
    updated_at  REAL    NOT NULL,
    PRIMARY KEY (campaign_id, chunk_index)
);
CREATE TABLE IF NOT EXISTS fingerprints (
    scope       TEXT NOT NULL,
    kind        TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    PRIMARY KEY (scope, kind, fingerprint)
);
CREATE TABLE IF NOT EXISTS trajectory (
    sequence    INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment  TEXT NOT NULL,
    commit_sha  TEXT NOT NULL,
    recorded_at TEXT NOT NULL,
    entry       TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS corpus (
    scope    TEXT NOT NULL,
    prefix   TEXT NOT NULL,
    children INTEGER NOT NULL DEFAULT 0,
    hits     INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (scope, prefix)
);
"""

#: Campaign lifecycle states.
STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_COMPLETE = "complete"

#: Chunk states.  ``done`` chunks are skipped on resume; ``quarantined``
#: chunks (their workers kept dying) are retried by a resume.
CHUNK_DONE = "done"
CHUNK_QUARANTINED = "quarantined"


class StoreError(RuntimeError):
    """A campaign-store invariant was violated (config mismatch, …), or
    a durable campaign stopped on a shard its workers kept losing."""


class CampaignStore:
    """Open (creating if needed) the campaign store at ``path``.

    Usable as a context manager; every mutating method commits before
    returning, so any prefix of a campaign's checkpoints is durable the
    moment the corresponding call returns.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        with self._conn:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row["value"]) != SCHEMA_VERSION:
                raise StoreError(
                    f"store {path!r} has schema version {row['value']}, "
                    f"this build expects {SCHEMA_VERSION}"
                )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- campaigns -----------------------------------------------------
    def create_campaign(
        self,
        campaign_id: str,
        kind: str,
        workload: str,
        checker: str,
        config: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Create (or re-open) a campaign row.

        Re-opening with an identical config is the resume path and is a
        no-op; a *different* config for the same id raises — chunk
        indices only line up against the original chunking.
        """
        existing = self.get_campaign(campaign_id)
        if existing is not None:
            if existing["config"] != config:
                raise StoreError(
                    f"campaign {campaign_id!r} exists with a different "
                    f"config: stored {existing['config']!r}, got {config!r}"
                )
            return existing
        now = time.time()
        with self._conn:
            self._conn.execute(
                "INSERT INTO campaigns "
                "(id, kind, workload, checker, config, status, "
                " created_at, updated_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    kind,
                    workload,
                    checker,
                    json.dumps(config, sort_keys=True),
                    STATUS_RUNNING,
                    now,
                    now,
                ),
            )
        created = self.get_campaign(campaign_id)
        assert created is not None
        return created

    def get_campaign(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        row = self._conn.execute(
            "SELECT * FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            return None
        campaign = dict(row)
        campaign["config"] = json.loads(campaign["config"])
        return campaign

    def set_status(self, campaign_id: str, status: str) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE campaigns SET status = ?, updated_at = ? WHERE id = ?",
                (status, time.time(), campaign_id),
            )

    def list_campaigns(self) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM campaigns ORDER BY created_at"
        ).fetchall()
        campaigns = []
        for row in rows:
            campaign = dict(row)
            campaign["config"] = json.loads(campaign["config"])
            campaigns.append(campaign)
        return campaigns

    # -- chunks --------------------------------------------------------
    def record_chunk(
        self,
        campaign_id: str,
        chunk_index: int,
        seed_start: int,
        seed_count: int,
        status: str,
        payload: Optional[bytes],
        error: str = "",
    ) -> None:
        """Upsert one chunk row (one transaction — the checkpoint unit)."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO chunks "
                "(campaign_id, chunk_index, seed_start, seed_count, "
                " status, error, payload, updated_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    chunk_index,
                    seed_start,
                    seed_count,
                    status,
                    error,
                    payload,
                    time.time(),
                ),
            )

    def chunk_rows(self, campaign_id: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM chunks WHERE campaign_id = ? ORDER BY chunk_index",
            (campaign_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def completed_payloads(self, campaign_id: str) -> Dict[int, bytes]:
        """Chunk index → pickled partial report, for ``done`` chunks."""
        rows = self._conn.execute(
            "SELECT chunk_index, payload FROM chunks "
            "WHERE campaign_id = ? AND status = ? ORDER BY chunk_index",
            (campaign_id, CHUNK_DONE),
        ).fetchall()
        return {row["chunk_index"]: row["payload"] for row in rows}

    def quarantined_chunks(self, campaign_id: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM chunks "
            "WHERE campaign_id = ? AND status = ? ORDER BY chunk_index",
            (campaign_id, CHUNK_QUARANTINED),
        ).fetchall()
        return [dict(row) for row in rows]

    # -- fingerprints --------------------------------------------------
    def add_fingerprints(
        self, scope: str, kind: str, fingerprints: Iterable[str]
    ) -> int:
        """Union ``fingerprints`` into ``(scope, kind)``; returns new count."""
        rows: List[Tuple[str, str, str]] = [
            (scope, kind, fp) for fp in fingerprints
        ]
        if not rows:
            return 0
        with self._conn:
            before = self._count_fingerprints(scope, kind)
            self._conn.executemany(
                "INSERT OR IGNORE INTO fingerprints "
                "(scope, kind, fingerprint) VALUES (?, ?, ?)",
                rows,
            )
            return self._count_fingerprints(scope, kind) - before

    def fingerprints(self, scope: str, kind: str) -> Set[str]:
        rows = self._conn.execute(
            "SELECT fingerprint FROM fingerprints WHERE scope = ? AND kind = ?",
            (scope, kind),
        ).fetchall()
        return {row["fingerprint"] for row in rows}

    # -- greybox corpus ------------------------------------------------
    def save_corpus(
        self, scope: str, entries: Iterable[Dict[str, Any]]
    ) -> None:
        """Upsert a corpus snapshot (see
        :meth:`repro.search.corpus.ScheduleCorpus.snapshot`) under
        ``scope`` — keyed like :class:`~repro.store.dedup.ScheduleDedup`
        scopes, so corpora never leak across workloads or checkers.
        Snapshots already carry the warm-start baseline folded into
        their counters, so rows are replaced, not summed."""
        rows = [
            (
                scope,
                ",".join(str(int(d)) for d in entry["prefix"]),
                int(entry.get("children", 0)),
                int(entry.get("hits", 0)),
            )
            for entry in entries
        ]
        if not rows:
            return
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO corpus "
                "(scope, prefix, children, hits) VALUES (?, ?, ?, ?)",
                rows,
            )

    def corpus_entries(self, scope: str) -> List[Dict[str, Any]]:
        """The stored corpus snapshot for ``scope`` (possibly empty),
        in deterministic (prefix-sorted) order."""
        rows = self._conn.execute(
            "SELECT prefix, children, hits FROM corpus "
            "WHERE scope = ? ORDER BY prefix",
            (scope,),
        ).fetchall()
        return [
            {
                "prefix": [int(d) for d in row["prefix"].split(",") if d != ""],
                "children": int(row["children"]),
                "hits": int(row["hits"]),
            }
            for row in rows
        ]

    # -- bench trajectory ----------------------------------------------
    def append_trajectory(self, entry: Dict[str, Any]) -> None:
        """Append one bench-trajectory entry.  The entry dict is stored
        verbatim as JSON; ``experiment``/``commit``/``recorded_at`` are
        additionally lifted into columns for filtering.

        Nothing in the toolkit writes this table any more: the perf
        record is ``benchmarks/layers/trajectory.jsonl``.  The table
        stays because it is part of the version-1 schema (dropping it
        needs a ``SCHEMA_VERSION`` bump that would reject every
        existing store), and the layer tracer in
        ``benchmarks/layers/seams.py`` wraps this method and
        :meth:`trajectory` as store seams."""
        with self._conn:
            self._conn.execute(
                "INSERT INTO trajectory "
                "(experiment, commit_sha, recorded_at, entry) "
                "VALUES (?, ?, ?, ?)",
                (
                    str(entry.get("experiment", "")),
                    str(entry.get("commit", "")),
                    str(entry.get("recorded_at", "")),
                    json.dumps(entry, sort_keys=True),
                ),
            )

    def trajectory(self, experiment: Optional[str] = None) -> List[Dict[str, Any]]:
        """Stored trajectory entries in append order, optionally filtered
        by experiment name."""
        if experiment is None:
            rows = self._conn.execute(
                "SELECT entry FROM trajectory ORDER BY sequence"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT entry FROM trajectory WHERE experiment = ? "
                "ORDER BY sequence",
                (experiment,),
            ).fetchall()
        return [json.loads(row["entry"]) for row in rows]

    def _count_fingerprints(self, scope: str, kind: str) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) AS n FROM fingerprints "
            "WHERE scope = ? AND kind = ?",
            (scope, kind),
        ).fetchone()
        return int(row["n"])

    def __repr__(self) -> str:
        campaigns = self._conn.execute(
            "SELECT COUNT(*) AS n FROM campaigns"
        ).fetchone()["n"]
        return f"CampaignStore({self.path!r}, {campaigns} campaigns)"
