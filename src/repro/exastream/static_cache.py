"""Bound static tables, shared across bindings, shards and engines.

Static relations "remain invariant in time": every binding that reads the
same static SQL under the same alias from the same
:class:`~repro.relational.Database` gets the same :class:`StaticTable` —
the SQLite query runs once and each lazy hash index is built once, for
every query, every shard engine and every engine attached to that
database.

* **Validity.** Entries are valid while the database's change stamp
  (:attr:`Database.version <repro.relational.Database.version>`) is the
  one they were read under; any write, through any path, empties the
  cache, so the next bind re-reads.  Bindings already holding an old
  table keep it.
* **Immutability.** A cached table is never mutated: a binding that
  pushes filters down builds its own filtered :class:`StaticTable`
  (``PlanRuntime.__post_init__``).
* **Bound.** A least-recently-used order bounded by :data:`ROW_BUDGET`
  rows per database.  The newest entry is always kept, so the shards of
  one binding share a table even when it alone exceeds the budget.  An
  evicted table a binding still uses lives on with that binding.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

from ..relational import Database
from .operators import Relation, StaticTable

__all__ = ["ROW_BUDGET", "StaticTableCache", "static_cache_for"]

#: Rows one database's cache keeps — about twice the largest static
#: result of the Siemens catalog (task 5, 125,440 rows).
ROW_BUDGET = 250_000


class StaticTableCache:
    """One database's bound static tables, keyed by ``(alias, sql)``."""

    def __init__(self) -> None:
        #: least recently used first
        self._tables: OrderedDict[tuple[str, str], StaticTable] = OrderedDict()
        self._version: tuple | None = None
        self._rows = 0

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def rows(self) -> int:
        return self._rows

    def get(
        self, database: Database, alias: str, sql: str
    ) -> tuple[StaticTable, bool]:
        """The bound table for ``(alias, sql)`` and whether it was cached.

        A miss reads through :meth:`Database.query_with_names`, so every
        real SQLite query still goes through the database's public query
        path.
        """
        version = database.version
        if version != self._version:
            self._tables.clear()
            self._rows = 0
            self._version = version
        key = (alias, sql)
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
            return table, True
        names, rows = database.query_with_names(sql)
        table = StaticTable(Relation([f"{alias}.{n}" for n in names], rows))
        self._tables[key] = table
        self._rows += len(rows)
        while self._rows > ROW_BUDGET and len(self._tables) > 1:
            _, old = self._tables.popitem(last=False)
            self._rows -= len(old.relation.rows)
        return table, False


_CACHES: weakref.WeakKeyDictionary[Database, StaticTableCache] = (
    weakref.WeakKeyDictionary()
)


def static_cache_for(database: Database) -> StaticTableCache:
    """The process-wide cache of ``database``'s bound static tables; it
    lives as long as the database object does."""
    cache = _CACHES.get(database)
    if cache is None:
        cache = StaticTableCache()
        _CACHES[database] = cache
    return cache
