"""The shared static-table cache: validity, sharing, immutability, bound.

Every binding of the same static SQL under the same alias against the
same :class:`Database` gets one :class:`StaticTable`, for as long as the
database's change stamp holds.  Each test below checks one property of
that contract through the public binding paths (``StreamEngine.bind``,
``ShardedEngine.bind``, the gateway and crash recovery).
"""

import sqlite3

from cqgen import build_engine, measurement_rows, snapshot, static_db
from repro.exastream import GatewayServer, ShardedEngine, plan_sql, static_cache
from repro.exastream.durability import CheckpointManager, recover
from repro.exastream.static_cache import static_cache_for
from repro.relational import Column, Database, Schema, SQLType, Table
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet

ROWS = measurement_rows(n_seconds=40)

JOIN_SQL = (
    "SELECT w.sid AS s, COUNT(*) AS n, SUM(w.val) AS v "
    "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
    "WHERE w.sid = t.sid GROUP BY w.sid"
)
FILTERED_SQL = (
    "SELECT w.sid AS s, AVG(w.val) AS a "
    "FROM timeSlidingWindow(S, 20, 5) AS w, sensors AS t "
    "WHERE w.sid = t.sid AND t.kind = 'temp' GROUP BY w.sid"
)


def engine_on(db, **kwargs):
    engine = build_engine(ROWS, attach_static=False, **kwargs)
    engine.attach_database("meta", db)
    return engine


def bound_sids(engine, sql=JOIN_SQL, name="q"):
    runtime = engine.bind(plan_sql(sql, engine, name=name))
    rows = runtime.statics["t"].relation.rows
    runtime.release_demand()
    return sorted(row[0] for row in rows)


def run_all(engine, sqls):
    gateway = GatewayServer(engine)
    registered = [
        gateway.register(sql, name=f"q{i}") for i, sql in enumerate(sqls)
    ]
    while gateway.step():
        pass
    return [snapshot(q) for q in registered], gateway


def totals(source):
    snap = source.metrics_snapshot()
    return (
        snap.total("static_table_cache_hits_total"),
        snap.total("static_table_cache_misses_total"),
    )


class TestValidity:
    def test_insert_between_binds_is_seen(self):
        db = static_db()
        engine = engine_on(db)
        assert bound_sids(engine) == [0, 1, 2, 3, 4, 5]
        assert bound_sids(engine) == [0, 1, 2, 3, 4, 5]
        assert totals(engine) == (1, 1)
        db.insert("sensors", [(6, "temp")])
        assert bound_sids(engine) == [0, 1, 2, 3, 4, 5, 6]
        assert totals(engine) == (1, 2)

    def test_raw_dml_invalidates(self):
        db = static_db()
        engine = engine_on(db)
        assert bound_sids(engine) == [0, 1, 2, 3, 4, 5]
        db.query("DELETE FROM sensors WHERE sid = 0")
        assert bound_sids(engine) == [1, 2, 3, 4, 5]
        db.query("UPDATE sensors SET sid = 9 WHERE sid = 5")
        assert bound_sids(engine) == [1, 2, 3, 4, 9]
        assert totals(engine) == (0, 3)

    def test_commit_from_another_connection_invalidates(self, tmp_path):
        path = str(tmp_path / "meta.db")
        db = Database(
            Schema("meta", {"sensors": Table("sensors", [
                Column("sid", SQLType.INTEGER), Column("kind", SQLType.TEXT),
            ])}),
            path,
        )
        db.insert("sensors", [(1, "temp"), (2, "temp")])
        engine = engine_on(db)
        assert bound_sids(engine) == [1, 2]
        other = sqlite3.connect(path)
        other.execute("INSERT INTO sensors VALUES (3, 'temp')")
        other.commit()
        other.close()
        assert bound_sids(engine) == [1, 2, 3]
        db.close()

    def test_stale_table_stays_with_its_holder(self):
        db = static_db()
        engine = engine_on(db)
        old = engine.bind(plan_sql(JOIN_SQL, engine, name="old"))
        db.insert("sensors", [(6, "temp")])
        new = engine.bind(plan_sql(JOIN_SQL, engine, name="new"))
        assert old.statics["t"] is not new.statics["t"]
        assert len(old.statics["t"].relation.rows) == 6
        assert len(new.statics["t"].relation.rows) == 7
        again = engine.bind(plan_sql(JOIN_SQL, engine, name="again"))
        assert again.statics["t"] is new.statics["t"]


class TestSharing:
    def test_sharded_bind_hands_one_table_to_every_shard(self):
        engine = engine_on(static_db(), shards=4)
        assert isinstance(engine, ShardedEngine)
        runtime = engine.bind(plan_sql(JOIN_SQL, engine, name="q"), shards=4)
        tables = [shard.statics["t"] for shard in runtime.shard_runtimes]
        assert len(tables) == 4
        assert all(table is tables[0] for table in tables)
        assert totals(engine) == (3, 1)

    def test_engines_on_one_database_share(self):
        db = static_db()
        first, second = engine_on(db), engine_on(db)
        a = first.bind(plan_sql(JOIN_SQL, first, name="a"))
        b = second.bind(plan_sql(JOIN_SQL, second, name="b"))
        assert a.statics["t"] is b.statics["t"]
        assert totals(second) == (1, 0)

    def test_filtered_and_unfiltered_plans_match_uncached_runs(self):
        db = static_db()
        cached, gateway = run_all(engine_on(db), [FILTERED_SQL, JOIN_SQL])
        assert totals(gateway) == (1, 1)
        # uncached: each plan alone, on its own freshly built database
        for sql, out in zip([FILTERED_SQL, JOIN_SQL], cached):
            reference, _ = run_all(engine_on(static_db()), [sql])
            assert out == reference[0]
            assert out
        filtered = gateway.query("q0").runtime.statics["t"]
        shared = gateway.query("q1").runtime.statics["t"]
        assert filtered is not shared  # pushdown built its own table
        assert len(filtered.relation.rows) == 4
        names, rows = db.query_with_names("SELECT * FROM sensors")
        assert shared.relation.rows == rows
        assert shared.relation.columns == [f"t.{n}" for n in names]


class TestRowBudget:
    def test_least_recently_used_entry_is_evicted(self, monkeypatch):
        monkeypatch.setattr(static_cache, "ROW_BUDGET", 12)
        db = static_db()  # 6 rows per entry
        engine = engine_on(db)
        sqls = {
            alias: JOIN_SQL.replace(" t ", f" {alias} ").replace(
                "t.sid", f"{alias}.sid"
            )
            for alias in ("a", "b", "c")
        }
        # a, b, c: c evicts a; then b (a hit) becomes the most recent,
        # so a's re-read evicts c
        for alias in ("a", "b", "c", "b", "a", "b", "c"):
            engine.bind(plan_sql(sqls[alias], engine, name=alias))
        cache = static_cache_for(db)
        assert len(cache) == 2 and cache.rows == 12
        snap = engine.metrics_snapshot()
        calls = {
            alias: (
                snap.value("static_table_cache_hits_total", query=alias),
                snap.value("static_table_cache_misses_total", query=alias),
            )
            for alias in sqls
        }
        assert calls == {"a": (None, 2), "b": (2, 1), "c": (None, 2)}

    def test_newest_entry_is_kept_above_the_budget(self, monkeypatch):
        monkeypatch.setattr(static_cache, "ROW_BUDGET", 0)
        engine = engine_on(static_db(), shards=4)
        runtime = engine.bind(plan_sql(JOIN_SQL, engine, name="q"), shards=4)
        tables = [shard.statics["t"] for shard in runtime.shard_runtimes]
        assert all(table is tables[0] for table in tables)
        assert totals(engine) == (3, 1)


class TestRecovery:
    def test_restore_rebinds_through_the_cache(self, tmp_path):
        sqls = [JOIN_SQL, FILTERED_SQL]
        oracle, _ = run_all(engine_on(static_db()), sqls)
        db = static_db()
        gateway = GatewayServer(engine_on(db))
        for i, sql in enumerate(sqls):
            gateway.register(sql, name=f"q{i}")
        CheckpointManager(gateway, tmp_path, interval=1)
        for _ in range(3):  # then the process dies
            gateway.step()
        # a fresh engine on the same database: the re-bind hits the cache
        recovered = recover(tmp_path, engine_on(db))
        assert recovered is not None
        assert totals(recovered) == (2, 0)
        while recovered.step():
            pass
        for i, expected in enumerate(oracle):
            assert snapshot(recovered.query(f"q{i}")) == expected


class TestObservability:
    def test_counters_in_session_metrics(self):
        fleet = generate_fleet(FleetConfig(turbines=2, plants=1))
        deployment = deploy(fleet=fleet, stream_duration=10)
        session = deployment.session(sink_capacity=None)
        task = next(t for t in diagnostic_catalog() if "STATIC" in t.starql)
        session.submit(task.starql, name="first").close()
        session.submit(task.starql, name="second")
        report = session.metrics()
        assert report.query("second")["static_cache_hits"] >= 1
        assert report.query("second")["static_cache_misses"] == 0
        assert report.query("first")["static_cache_misses"] >= 1
        assert "static tables: cache_hits=" in report.render()
        session.close()

    def test_counters_in_cli_live_mode(self, capsys):
        from repro.obs.__main__ import main

        assert main(["--live", "--tasks", "2", "--rounds", "1"]) == 0
        assert "static tables: cache_hits=" in capsys.readouterr().out
