"""Unit tests for the relational store."""

import sqlite3
import threading

import pytest

from repro.core.metric import SeriesBatch
from repro.storage.sqlstore import SqlStore


@pytest.fixture()
def db():
    store = SqlStore()
    yield store
    store.close()


class TestJobs:
    def test_upsert_and_fetch(self, db):
        db.upsert_job(1, "lammps", 64, 0.0, "pending")
        row = db.job(1)
        assert row.app == "lammps" and row.state == "pending"
        assert row.nodes == ()

    def test_upsert_updates_state(self, db):
        db.upsert_job(1, "lammps", 64, 0.0, "pending")
        db.upsert_job(1, "lammps", 64, 0.0, "running",
                      start_time=10.0, nodes=["n0", "n1"])
        row = db.job(1)
        assert row.state == "running"
        assert row.start_time == 10.0
        assert row.nodes == ("n0", "n1")

    def test_missing_job_none(self, db):
        assert db.job(99) is None

    def test_filter_by_state_and_app(self, db):
        db.upsert_job(1, "a", 1, 0.0, "running")
        db.upsert_job(2, "b", 1, 0.0, "completed")
        db.upsert_job(3, "a", 1, 0.0, "completed")
        assert [j.job_id for j in db.jobs(state="completed")] == [2, 3]
        assert [j.job_id for j in db.jobs(app="a")] == [1, 3]

class TestSamples:
    def test_append_query_round_trip(self, db):
        b = SeriesBatch.for_component("m", "a", [0.0, 1.0, 2.0], [5, 6, 7])
        assert db.append(b) == 3
        out = db.query("m", "a", 0.5, 2.5)
        assert list(out.values) == [6.0, 7.0]

    def test_sample_count(self, db):
        db.append(SeriesBatch.sweep("m", 0.0, ["a", "b"], [1, 2]))
        assert db.sample_count() == 2

    def test_footprint_grows(self, db):
        before = db.footprint_bytes()
        for i in range(200):
            db.append(SeriesBatch.sweep("m", float(i),
                                        [f"c{j}" for j in range(20)],
                                        list(range(20))))
        db.commit()
        assert db.footprint_bytes() > before


class TestOneThread:
    def test_another_thread_is_refused(self, db):
        """The store keeps sqlite's own same-thread check: the thread
        that built it is the one that ticks and queries."""
        raised = []

        def call():
            try:
                db.sample_count()
            except sqlite3.ProgrammingError as exc:
                raised.append(exc)

        t = threading.Thread(target=call)
        t.start()
        t.join()
        assert len(raised) == 1
        assert db.sample_count() == 0    # the owning thread still reads
