"""Out-of-core relation and dictionary wrappers over :class:`SqlStore`.

:class:`SqlRelation` is a drop-in :class:`~repro.dataset.relation.Relation`
whose per-row state lives in a temporary SQLite database instead of decoded
Python column lists.  The public surface — accessors, ``append_rows`` with
delta maintenance, ``set_cell``, derivation — is identical; only the memory
profile changes: peak usage is bounded by the ingestion chunk size plus the
per-attribute distinct values, never by the row count.

:class:`SqlDictionaryColumn` fronts one attribute's encode state for the
engine.  The distinct values, value → code map, and per-code counts are the
store's live structures (always in memory, always small); the per-row code
vector is fetched from SQLite only when a consumer genuinely needs a full
scan, and then lives as the same ``int32`` ndarray (4 bytes/row) an
in-memory dictionary holds.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..dataset.relation import Relation
from ..dataset.schema import Schema
from ..engine.backend import SQL, resolve_backend
from ..engine.dictionary import DictionaryColumn, DictionaryDelta, DictionaryUpdate
from ..exceptions import SchemaError
from .store import BATCH_ROWS, SqlStore


class SqlDictionaryColumn(DictionaryColumn):
    """A :class:`DictionaryColumn` view over one attribute of a store."""

    __slots__ = ("_store", "_col_index")

    def __init__(self, store: SqlStore, attribute: str):
        # Deliberately bypasses the base constructor: the encode state is
        # *shared live* with the store (updated by store appends), and the
        # code vector stays in SQLite until someone scans it.
        self.attribute = attribute
        self.values = tuple(store.values[attribute])
        self._codes = None
        self._length = store.row_count
        self._code_of = store.code_of[attribute]
        self._rows_by_code = None
        self._counts = store.counts[attribute]
        self._counts_array = None
        self.has_updates = store.has_updates
        self._store = store
        self._col_index = store.column_index(attribute)

    @property
    def codes(self) -> np.ndarray:
        """The per-row code vector, fetched from SQLite on first use."""
        if self._codes is None:
            self._codes = np.asarray(self._store.codes_for(self._col_index), dtype=np.int32)
        return super().codes

    def value_of_row(self, row_id: int) -> str:
        if self._codes is None:
            return self.values[self._store.code_at(row_id, self._col_index)]
        return self.values[self._codes[row_id]]

    def extend(self, cells) -> DictionaryDelta:
        raise RuntimeError(
            "SqlDictionaryColumn is extended through SqlRelation.append_rows, "
            "not directly"
        )

    def update_rows(self, assignments) -> DictionaryUpdate:
        raise RuntimeError(
            "SqlDictionaryColumn is updated through SqlRelation.apply, not directly"
        )

    def _apply_delta(self, delta: DictionaryDelta) -> None:
        """Mirror a store append into this wrapper (same patching contract
        as :meth:`DictionaryColumn.extend`)."""
        store_values = self._store.values[self.attribute]
        if len(store_values) > len(self.values):
            self.values = self.values + tuple(store_values[len(self.values) :])
        if self._codes is not None:
            self._append_codes(delta.appended_codes)
        else:
            self._length += len(delta.appended_codes)
        if self._rows_by_code is not None:
            self._rows_by_code.extend(
                [] for _ in range(len(self.values) - delta.old_distinct_count)
            )
            for offset, code in enumerate(delta.appended_codes):
                self._rows_by_code[code].append(delta.start_row + offset)
        self._counts_array = None

    def _apply_update(self, update: DictionaryUpdate) -> None:
        """Mirror a store update into this wrapper (same patching contract
        as :meth:`DictionaryColumn.update_rows`): the counts list is shared
        live with the store, so only the values snapshot and any
        materialized per-row structures need patching."""
        store_values = self._store.values[self.attribute]
        if len(store_values) > len(self.values):
            self.values = self.values + tuple(store_values[len(self.values) :])
        if self._codes is not None:
            for row_id, _old_code, new_code in update.assignments:
                self._codes[row_id] = new_code
        if self._rows_by_code is not None:
            while len(self._rows_by_code) < len(self.values):
                self._rows_by_code.append([])
            for row_id, old_code, new_code in update.assignments:
                old_rows = self._rows_by_code[old_code]
                del old_rows[bisect.bisect_left(old_rows, row_id)]
                bisect.insort(self._rows_by_code[new_code], row_id)
        self._counts_array = None
        if update:
            self.has_updates = True


class SqlRelation(Relation):
    """A relation backed by a temporary SQLite database.

    Constructed via ``Relation(..., backend="sql")``, ``read_csv(...,
    backend="sql")``, or ``REPRO_ENGINE=sql``; everything downstream (the
    evaluator, the partition manager, discovery, detection, repair) sees the
    ordinary relation API and produces bit-identical results.
    """

    #: Feature probe for scale-sensitive callers (``getattr(...,
    #: "is_sql_backed", False)``): discovery/detection stay serial on sql
    #: relations.
    is_sql_backed = True
    backend = SQL

    def __init__(
        self,
        schema: Schema,
        columns: Optional[Mapping[str, Sequence[str]]] = None,
        backend: Optional[str] = None,
    ):
        if backend is not None and resolve_backend(backend) != SQL:
            raise ValueError(
                f"SqlRelation is always backed by the {SQL!r} backend, got {backend!r}"
            )
        self.schema = schema
        self._store = SqlStore(schema.attribute_names)
        self._dictionaries = {}
        self._partitions = None
        self._version = 0
        self._deleted = set()
        if columns:
            names = schema.attribute_names
            cols = {name: columns.get(name, []) for name in names}
            lengths = {len(column) for column in cols.values()}
            if len(lengths) > 1:
                raise SchemaError(
                    f"columns of {schema.name!r} have differing lengths: "
                    f"{sorted(lengths)}"
                )
            total = lengths.pop() if lengths else 0
            for start in range(0, total, BATCH_ROWS):
                stop = min(start + BATCH_ROWS, total)
                self._store.append(
                    [[cols[name][i] for name in names] for i in range(start, stop)]
                )

    # -- store plumbing -------------------------------------------------------

    @property
    def store(self) -> SqlStore:
        return self._store

    def close(self) -> None:
        """Release the backing database (also dropped when GC'd)."""
        self._store.close()

    # -- size / access --------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._store.row_count

    def column(self, name: str) -> list[str]:
        """The full column, decoded.

        The result is a list of *pointers into the shared distinct values*
        (O(rows) pointers, not O(rows) string copies) — cheap relative to the
        decoded table, but still per-row; scale-sensitive callers should stay
        on the dictionary/partition layer instead.
        """
        self.schema.position(name)
        values = self._store.values[name]
        return [values[code] for code in self._store.codes_for(self._store.column_index(name))]

    def dictionary(self, name: str) -> SqlDictionaryColumn:
        self.schema.position(name)
        cached = self._dictionaries.get(name)
        if cached is None:
            cached = SqlDictionaryColumn(self._store, name)
            self._dictionaries[name] = cached
        return cached

    def partitions(self):
        if self._partitions is None:
            from .partitions import SqlPartitionManager

            self._partitions = SqlPartitionManager(self)
        return self._partitions

    def cell(self, row_id: int, name: str) -> str:
        self.schema.position(name)
        return self._store.cell(row_id, name)

    def row(self, row_id: int) -> tuple[str, ...]:
        codes = self._store.row_codes(row_id)
        values = self._store.values
        return tuple(
            values[name][code] for name, code in zip(self.schema.attribute_names, codes)
        )

    def row_dict(self, row_id: int) -> dict[str, str]:
        return dict(zip(self.schema.attribute_names, self.row(row_id)))

    def iter_rows(self) -> Iterator[tuple[str, ...]]:
        names = self.schema.attribute_names
        decoders = [self._store.values[name] for name in names]
        for codes in self._store.iter_code_rows():
            yield tuple(decoder[code] for decoder, code in zip(decoders, codes))

    def iter_row_dicts(self) -> Iterator[dict[str, str]]:
        names = self.schema.attribute_names
        for row in self.iter_rows():
            yield dict(zip(names, row))

    # -- mutation -------------------------------------------------------------

    def append_rows(
        self, rows: "Union[Sequence[object], Mapping[str, object]]"
    ) -> range:
        normalized = [self._normalize_row(row) for row in rows]
        start = self.row_count
        if not normalized:
            return range(start, start)
        deltas = self._store.append(normalized)
        for name, wrapper in self._dictionaries.items():
            wrapper._apply_delta(deltas[name])
        if self._partitions is not None:
            # The store derives a delta for *every* attribute (unlike the
            # in-memory path, which only has deltas for cached dictionaries),
            # so all cached partitions can be patched instead of dropped.
            self._partitions.extend(deltas)
        self._version += 1
        return range(start, start + len(normalized))

    def _apply_assignments(self, assignments):
        """Route validated cell assignments through the store.

        The store is the single encode authority for the sql backend: it
        drops no-op assignments, pushes ``UPDATE rows SET c<i> = ?`` batches
        down to SQLite, and returns the effective
        :class:`~repro.engine.dictionary.DictionaryUpdate` per attribute.
        Cached wrappers are patched in place so evaluator masks survive;
        the inherited :meth:`Relation.apply` then marks the touched
        partition specs for a fresh snapshot on their next read.
        """
        results = self._store.update_rows(assignments)
        updates = {name: update for name, update in results.items() if update}
        touched = set(updates)
        changed = {row for update in updates.values() for row in update.rows}
        for name, update in updates.items():
            wrapper = self._dictionaries.get(name)
            if wrapper is not None:
                wrapper._apply_update(update)
        return updates, touched, changed

    # -- derivation -----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "SqlRelation":
        schema = self.schema if name is None else Schema(self.schema.attributes, name=name)
        clone = SqlRelation.__new__(SqlRelation)
        clone.schema = schema
        clone._store = self._store.copy()
        clone._dictionaries = {}
        clone._partitions = None
        clone._version = 0
        clone._deleted = set(self._deleted)
        return clone

    def project(self, names: Sequence[str], name: Optional[str] = None) -> "SqlRelation":
        schema = self.schema.project(names, name=name)
        return SqlRelation(schema, {n: self.column(n) for n in names})

    def select_rows(self, row_ids: Sequence[int], name: Optional[str] = None) -> "SqlRelation":
        schema = self.schema if name is None else Schema(self.schema.attributes, name=name)
        result = SqlRelation(schema)
        batch: list[tuple[str, ...]] = []
        for row_id in row_ids:
            batch.append(self.row(row_id))
            if len(batch) >= BATCH_ROWS:
                result._store.append(batch)
                batch = []
        if batch:
            result._store.append(batch)
        return result

    # -- value summaries (served from the encode state, no row scan) ----------

    def distinct_values(self, name: str) -> list[str]:
        self.schema.position(name)
        return [
            value
            for value, count in zip(self._store.values[name], self._store.counts[name])
            if value and count
        ]

    def value_counts(self, name: str) -> dict[str, int]:
        self.schema.position(name)
        return {
            value: count
            for value, count in zip(self._store.values[name], self._store.counts[name])
            if count
        }

    def active_domain(self, name: str) -> set[str]:
        self.schema.position(name)
        return {
            value
            for value, count in zip(self._store.values[name], self._store.counts[name])
            if value and count
        }

    def code_cooccurrence(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        store = self._store
        rows = store.code_tuple_counts([store.column_index(name) for name in names])
        table = np.array(rows, dtype=np.int64).reshape(len(rows), len(names) + 1)
        return table[:, :-1], table[:, -1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SqlRelation({self.schema.name!r}, rows={self.row_count}, "
            f"columns={list(self.schema.attribute_names)})"
        )
