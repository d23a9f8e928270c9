"""Relational store over sqlite3 (the MySQL/PMDB class of Section IV-C).

NCSA keeps compute-node performance data "in a pre-existing MySQL
database containing other system and workload data"; NERSC uses MySQL
"for a variety of job, software usage and node-state data".  The value is
*joinability*, and the cost is ingest/query scalability, which the
storage-comparison bench measures against the TSDB.

Schema:

* ``jobs``          — job lifecycle records,
* ``samples``       — generic numeric samples (the apples-to-apples
  ingest target for the comparison bench).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Any, Sequence

from ..core.metric import SeriesBatch

__all__ = ["SqlStore", "JobRow"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id      INTEGER PRIMARY KEY,
    app         TEXT NOT NULL,
    n_nodes     INTEGER NOT NULL,
    submit_time REAL NOT NULL,
    start_time  REAL,
    end_time    REAL,
    state       TEXT NOT NULL,
    nodes       TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS samples (
    metric    TEXT NOT NULL,
    component TEXT NOT NULL,
    time      REAL NOT NULL,
    value     REAL
);
CREATE INDEX IF NOT EXISTS idx_samples_key
    ON samples(metric, component, time);
"""


@dataclass(frozen=True, slots=True)
class JobRow:
    job_id: int
    app: str
    n_nodes: int
    submit_time: float
    start_time: float | None
    end_time: float | None
    state: str
    nodes: tuple[str, ...]


class SqlStore:
    """sqlite3-backed relational store (in-memory by default)."""

    def __init__(self, path: str = ":memory:") -> None:
        self._db = sqlite3.connect(path)
        self._db.executescript(_SCHEMA)

    def close(self) -> None:
        self._db.close()

    # -- jobs -------------------------------------------------------------------

    def upsert_job(
        self,
        job_id: int,
        app: str,
        n_nodes: int,
        submit_time: float,
        state: str,
        start_time: float | None = None,
        end_time: float | None = None,
        nodes: Sequence[str] = (),
    ) -> None:
        self._db.execute(
            "INSERT INTO jobs VALUES (?,?,?,?,?,?,?,?) "
            "ON CONFLICT(job_id) DO UPDATE SET "
            "state=excluded.state, start_time=excluded.start_time, "
            "end_time=excluded.end_time, nodes=excluded.nodes",
            (
                job_id, app, n_nodes, submit_time,
                start_time, end_time, state, ",".join(nodes),
            ),
        )
        self._db.commit()

    def job(self, job_id: int) -> JobRow | None:
        row = self._db.execute(
            "SELECT * FROM jobs WHERE job_id=?", (job_id,)
        ).fetchone()
        return self._job_row(row) if row else None

    def jobs(
        self,
        state: str | None = None,
        app: str | None = None,
    ) -> list[JobRow]:
        q = "SELECT * FROM jobs WHERE 1=1"
        args: list[Any] = []
        if state is not None:
            q += " AND state=?"
            args.append(state)
        if app is not None:
            q += " AND app=?"
            args.append(app)
        q += " ORDER BY job_id"
        return [self._job_row(r) for r in self._db.execute(q, args)]

    @staticmethod
    def _job_row(row: tuple) -> JobRow:
        return JobRow(
            job_id=row[0],
            app=row[1],
            n_nodes=row[2],
            submit_time=row[3],
            start_time=row[4],
            end_time=row[5],
            state=row[6],
            nodes=tuple(row[7].split(",")) if row[7] else (),
        )

    # -- generic samples (comparison-bench surface) ---------------------------------------

    def append(self, batch: SeriesBatch) -> int:
        rows = [
            (batch.metric, str(c), float(t), float(v))
            for c, t, v in zip(batch.components, batch.times, batch.values)
        ]
        self._db.executemany("INSERT INTO samples VALUES (?,?,?,?)", rows)
        return len(rows)

    def commit(self) -> None:
        self._db.commit()

    def query(
        self,
        metric: str,
        component: str,
        t0: float = float("-inf"),
        t1: float = float("inf"),
    ) -> SeriesBatch:
        rows = self._db.execute(
            "SELECT time, value FROM samples WHERE metric=? AND component=?"
            " AND time >= ? AND time < ? ORDER BY time",
            (metric, component, t0, t1),
        ).fetchall()
        return SeriesBatch.for_component(
            metric,
            component,
            [r[0] for r in rows],
            [r[1] for r in rows],
        )

    def sample_count(self) -> int:
        return self._db.execute("SELECT COUNT(*) FROM samples").fetchone()[0]

    def footprint_bytes(self) -> int:
        """Approximate database footprint via sqlite page accounting."""
        page_count = self._db.execute("PRAGMA page_count").fetchone()[0]
        page_size = self._db.execute("PRAGMA page_size").fetchone()[0]
        return page_count * page_size
