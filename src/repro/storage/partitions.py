"""SQL-pushdown stripped partitions for the out-of-core backend.

The in-memory engine materializes every stripped partition as row-id tuples.
At out-of-core scale that is exactly the memory the ``sql`` backend exists to
avoid, so :class:`SqlStrippedPartition` keeps a partition as a *query spec*
instead — a ``FROM``/``WHERE``/group-expression triple over the store's
``rows`` table — and pushes the group-heavy work into SQLite:

* attribute partitions group by the code column with ``HAVING COUNT(*) > 1``
  (stripped semantics) and exclude the empty-value code from coverage;
* pattern-projected partitions join a ``(code, comp)`` scratch table mapping
  each *distinct* matched value to its constrained-component id (the
  :class:`~repro.engine.evaluator.PatternEvaluator` still matches once per
  distinct value — the paper's always-fits working set);
* ``class_count`` / ``stripped_row_count`` / ``covered_count`` are SQL
  aggregates over the spec, so discovery's coverage pruning and the partition
  ``error`` never materialize a single row id;
* variable-row PFD violation search runs as a violating-groups query (see
  :mod:`repro.core.pfd`), fetching only the classes that actually violate.
  A search scoped to the rows a write changed pushes them into that query
  on a fresh spec of the leaf (:meth:`SqlPartitionManager.leaf_spec`), so
  it reads no cached partition.

A write drops the cached specs over the touched attributes, as in memory;
each leaf's grouping state (a pattern leaf's ``(code, comp)`` scratch
table) survives and only gains the codes first seen since.  Every spec pins
``rid < max_rid`` at build time, so partitions handed out before an append
keep describing the old rows.  Materializing the class arrays
and covered rows stays available as a lazy fallback (a rid-ascending fetch
grouped into the same ``(rowids, offsets)`` arrays an in-memory build
produces), which is what the array algebra — intersections, refinement,
minority scans — runs on; the product of two SQL leaves is an ordinary
in-memory :class:`~repro.engine.partitions.StrippedPartition`.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from ..engine.dictionary import DictionaryColumn
from ..engine.evaluator import PatternEvaluator
from ..engine.partitions import (
    PartitionKey,
    PartitionManager,
    StrippedPartition,
    _AttributeGroups,
    _group_stripped,
    _PatternGroups,
)
from .relation import SqlDictionaryColumn, SqlRelation
from .store import SqlStore


class SqlStrippedPartition(StrippedPartition):
    """A stripped partition described by a SQL spec, materialized lazily."""

    __slots__ = (
        "_store",
        "_sql_from",
        "_sql_where",
        "_sql_group",
        "_class_count_cache",
        "_stripped_cache",
        "_covered_count_cache",
    )

    @classmethod
    def build(
        cls,
        store: SqlStore,
        from_clause: str,
        where: str,
        group: str,
        row_count: int,
    ) -> "SqlStrippedPartition":
        partition = cls.__new__(cls)
        partition._init(None, None, row_count, None, None)
        partition._store = store
        partition._sql_from = from_clause
        partition._sql_where = where
        partition._sql_group = group
        partition._class_count_cache = None
        partition._stripped_cache = None
        partition._covered_count_cache = None
        return partition

    # -- query fragments ------------------------------------------------------

    def _stripped_groups_sql(self) -> str:
        """Group keys with >= 2 covered rows — the pushed-down stripping."""
        return (
            f"SELECT {self._sql_group} AS g, COUNT(*) AS n FROM {self._sql_from} "
            f"WHERE {self._sql_where} GROUP BY g HAVING n >= 2"
        )

    # -- lazy materialization -------------------------------------------------

    def class_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rowids is None:
            sql = (
                f"SELECT {self._sql_group} AS g, r.rid FROM {self._sql_from} "
                f"WHERE {self._sql_where} AND {self._sql_group} IN "
                f"(SELECT g FROM ({self._stripped_groups_sql()})) ORDER BY r.rid"
            )
            cursor = self._store.execute(sql)
            pairs = np.fromiter(itertools.chain.from_iterable(cursor), dtype=np.int64)
            pairs = pairs.reshape(-1, 2)
            # rid-ascending fetch: rows are ascending within every group, so
            # the shared grouping yields the in-memory build's exact arrays.
            self._rowids, self._offsets = _group_stripped(pairs[:, 0], pairs[:, 1])
        return self._rowids, self._offsets

    def covered_array(self) -> np.ndarray:
        if self._covered_array is None:
            cursor = self._store.execute(
                f"SELECT r.rid FROM {self._sql_from} WHERE {self._sql_where} ORDER BY r.rid"
            )
            self._covered_array = np.fromiter((row[0] for row in cursor), dtype=np.int64)
        return self._covered_array

    # -- pushed-down aggregates -----------------------------------------------

    def _fetch_counts(self) -> None:
        self._class_count_cache, self._stripped_cache = self._store.fetch_one(
            f"SELECT COUNT(*), COALESCE(SUM(n), 0) FROM ({self._stripped_groups_sql()})"
        )

    @property
    def class_count(self) -> int:
        if self._rowids is not None:
            return len(self._offsets) - 1
        if self._class_count_cache is None:
            self._fetch_counts()
        return self._class_count_cache

    @property
    def stripped_row_count(self) -> int:
        if self._rowids is not None:
            return len(self._rowids)
        if self._stripped_cache is None:
            self._fetch_counts()
        return self._stripped_cache

    @property
    def covered_count(self) -> int:
        if self._covered_array is not None:
            return len(self._covered_array)
        if self._covered_count_cache is None:
            self._covered_count_cache = self._store.fetch_value(
                f"SELECT COUNT(*) FROM {self._sql_from} WHERE {self._sql_where}"
            )
        return self._covered_count_cache

    # -- violation pushdown ---------------------------------------------------

    def variable_violation_classes(
        self,
        rhs_cols: Sequence[int],
        bucket_tables: Sequence[str],
        changed_rows: Optional[Sequence[int]] = None,
    ) -> list[tuple[int, ...]]:
        """The stripped classes that can violate a variable tableau row.

        ``bucket_tables`` map each RHS attribute's codes to RHS-bucket ids
        (matched/constrained vs literal value).  A class violates only if it
        spans >= 2 distinct buckets on some RHS attribute and, when
        ``changed_rows`` is given, contains one of those rows — both
        conditions are pushed into one grouped query, so agreeing classes
        (the vast majority) never leave SQLite.  Returned classes are in partition order (smallest
        member first).
        """
        joins = " ".join(
            f"JOIN {table} b{i} ON b{i}.code = r.c{col}"
            for i, (col, table) in enumerate(zip(rhs_cols, bucket_tables))
        )
        disagree = " OR ".join(
            f"COUNT(DISTINCT b{i}.comp) >= 2" for i in range(len(rhs_cols))
        )
        phase1_scratch: list[str] = []
        touches = "1"
        if changed_rows is not None:
            rid_in_sql, phase1_scratch = self._store.code_set_sql("r.rid", changed_rows)
            touches = f"SUM(CASE WHEN {rid_in_sql} THEN 1 ELSE 0 END) > 0"
        phase1 = (
            f"SELECT {self._sql_group} AS g FROM {self._sql_from} {joins} "
            f"WHERE {self._sql_where} GROUP BY g "
            f"HAVING COUNT(*) >= 2 AND {touches} AND ({disagree})"
        )
        try:
            group_keys = [row[0] for row in self._store.execute(phase1).fetchall()]
        finally:
            for table in phase1_scratch:
                self._store.drop_table(table)
        if not group_keys:
            return []
        in_sql, scratch = self._store.code_set_sql(self._sql_group, group_keys)
        phase2 = (
            f"SELECT {self._sql_group} AS g, r.rid FROM {self._sql_from} "
            f"WHERE {self._sql_where} AND {in_sql} ORDER BY r.rid"
        )
        try:
            groups: dict[int, list[int]] = {}
            for group_key, rid in self._store.execute(phase2):
                groups.setdefault(group_key, []).append(rid)
        finally:
            for table in scratch:
                self._store.drop_table(table)
        return [tuple(rows) for rows in groups.values()]


class SqlAttributeState(_AttributeGroups):
    """Attribute-partition state of the sql backend: every build is a fresh
    spec snapshot (new rid bound, re-checked empty code) over rows the
    store already holds, so SQLite regroups on demand."""

    __slots__ = ("store",)

    def __init__(self, store: SqlStore) -> None:
        self.store = store

    def build(self, column: SqlDictionaryColumn) -> SqlStrippedPartition:
        store = self.store
        col = column._col_index
        max_rid = store.row_count
        where = f"r.rid < {max_rid}"
        empty_code = store.code_of[column.attribute].get("")
        if empty_code is not None:
            where += f" AND r.c{col} != {empty_code}"
        return SqlStrippedPartition.build(store, "rows r", where, f"r.c{col}", max_rid)


class SqlPatternState(_PatternGroups):
    """Pattern-partition grouping state mirrored into a ``(code, comp)``
    SQL scratch table, so the partition itself is a join spec."""

    __slots__ = ("store", "col_index", "table", "mapped")

    def __init__(self, store: SqlStore, col_index: int) -> None:
        super().__init__()
        self.store = store
        self.col_index = col_index
        self.table: Optional[str] = None
        #: Codes already written to the scratch table (codes never
        #: renumber, so existing map rows stay valid across mutations).
        self.mapped = 0

    def build(self, column: DictionaryColumn) -> "SqlStrippedPartition":
        ids = self.component_ids
        pairs = (
            (code, component)
            for code, component in enumerate(ids[self.mapped :].tolist(), self.mapped)
            if component >= 0
        )
        if self.table is None:
            self.table = self.store.int_map_table(pairs)
        else:
            self.store.extend_int_map(self.table, pairs)
        self.mapped = len(ids)
        max_rid = self.store.row_count
        return SqlStrippedPartition.build(
            self.store,
            f"rows r JOIN {self.table} m ON m.code = r.c{self.col_index}",
            f"r.rid < {max_rid}",
            "m.comp",
            max_rid,
        )


class SqlPartitionManager(PartitionManager):
    """A :class:`PartitionManager` whose leaf partitions are SQL specs.

    Cache keys, hit/miss counters, intersection memoization, the drop on
    writes and the snapshot contract are all inherited; only the leaf
    states change.  A leaf rebuilt after a write is a fresh spec over rows
    the store already holds (a pattern leaf's scratch table only gains the
    codes first seen since), so SQLite regroups on demand.
    """

    def __init__(self, relation: SqlRelation):
        super().__init__(relation)
        self._store: SqlStore = relation.store

    # -- leaf states ----------------------------------------------------------

    def _new_attribute_state(self, column: SqlDictionaryColumn) -> SqlAttributeState:
        return SqlAttributeState(self._store)

    def _new_pattern_state(self, column: SqlDictionaryColumn) -> SqlPatternState:
        return SqlPatternState(self._store, column._col_index)

    def leaf_spec(
        self, key: PartitionKey, evaluator: Optional[PatternEvaluator] = None
    ) -> SqlStrippedPartition:
        """A fresh spec of one leaf, outside the cache: a scoped search
        pushes its changed rows into the spec's query, so it needs no
        cached partition and counts as neither hit nor miss."""
        column = self._relation.dictionary(key.attribute)
        return self._state(key, column, evaluator).build(column)
