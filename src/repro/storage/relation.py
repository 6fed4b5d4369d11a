"""Out-of-core relation and dictionary wrappers over :class:`SqlStore`.

:class:`SqlRelation` is a drop-in :class:`~repro.dataset.relation.Relation`
whose per-row state lives in a temporary SQLite database instead of
in-memory code vectors.  The public surface — accessors, ``append_rows`` with
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

from typing import Iterator, Mapping, Optional, Sequence

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
        # code vector stays in SQLite until someone scans it.  Wrappers are
        # built when a relation attaches a fresh or freshly copied (cold)
        # store, so no update has run yet.
        self.attribute = attribute
        self.values = tuple(store.values[attribute])
        self._codes = None
        self._length = store.row_count
        self._code_of = store.code_of[attribute]
        self._counts = None
        self.has_updates = False
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
        return super().value_of_row(row_id)

    # Whole-column reads answer from SQLite and leave the code vector
    # uncached, so they keep the out-of-core memory bound.

    def decode(self) -> list[str]:
        values = self.values
        return [values[code] for code in self._store.codes_for(self._col_index)]

    def seen_codes(self) -> np.ndarray:
        return np.asarray(self._store.seen_codes(self._col_index), dtype=np.intp)

    def extend(self, cells) -> DictionaryDelta:
        raise RuntimeError(
            "SqlDictionaryColumn is extended through SqlRelation.append_rows, "
            "not directly"
        )

    def update_rows(self, assignments) -> DictionaryUpdate:
        raise RuntimeError(
            "SqlDictionaryColumn is updated through SqlRelation.apply, not directly"
        )

    def counts_array(self) -> np.ndarray:
        """Rows per code, read from the store's live counts list (cached
        until the next append or update)."""
        if self._counts is None:
            self._counts = np.asarray(self._store.counts[self.attribute], dtype=np.int64)
        return self._counts

    def _sync_values(self) -> None:
        store_values = self._store.values[self.attribute]
        if len(store_values) > len(self.values):
            self.values = self.values + tuple(store_values[len(self.values) :])
        self._counts = None

    def _apply_delta(self, delta: DictionaryDelta) -> None:
        """Mirror a store append into this wrapper."""
        self._sync_values()
        if self._codes is not None:
            self._append_codes(delta.appended_codes)
        else:
            self._length += len(delta.appended_codes)

    def _apply_update(self, update: DictionaryUpdate) -> None:
        """Mirror a store update into this wrapper."""
        self._sync_values()
        if self._codes is not None:
            rows, _old_codes, new_codes = update.code_changes()
            self.codes[rows] = new_codes
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
    #: "is_sql_backed", False)``): discovery stays serial on sql relations.
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
        self._attach(schema, SqlStore(schema.attribute_names))
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
                self._append_cells(
                    [[cols[name][i] for name in names] for i in range(start, stop)]
                )

    def _attach(self, schema: Schema, store: SqlStore) -> None:
        self._store = store
        self._install(
            schema, {name: SqlDictionaryColumn(store, name) for name in schema.attribute_names}
        )

    # -- store plumbing -------------------------------------------------------

    @property
    def store(self) -> SqlStore:
        return self._store

    def close(self) -> None:
        """Release the backing database (also dropped when GC'd)."""
        self._store.close()

    # -- size / access --------------------------------------------------------

    def partitions(self):
        if self._partitions is None:
            from .partitions import SqlPartitionManager

            self._partitions = SqlPartitionManager(self)
        return self._partitions

    def row(self, row_id: int) -> tuple[str, ...]:
        codes = self._store.row_codes(row_id)
        values = self._store.values
        return tuple(
            values[name][code] for name, code in zip(self.schema.attribute_names, codes)
        )

    def iter_rows(self) -> Iterator[tuple[str, ...]]:
        names = self.schema.attribute_names
        decoders = [self._store.values[name] for name in names]
        for codes in self._store.iter_code_rows():
            yield tuple(decoder[code] for decoder, code in zip(decoders, codes))

    # -- mutation -------------------------------------------------------------

    def _append_cells(self, rows: Sequence[Sequence[str]]) -> dict[str, DictionaryDelta]:
        """Encode rows through the store and mirror the deltas into the
        wrappers (the store derives a delta for every attribute)."""
        deltas = self._store.append(rows)
        for name, wrapper in self._dictionaries.items():
            wrapper._apply_delta(deltas[name])
        return deltas

    def _update_cells(self, assignments) -> dict[str, DictionaryUpdate]:
        """Route validated cell assignments through the store.

        The store is the single encode authority for the sql backend: it
        drops no-op assignments, pushes ``UPDATE rows SET c<i> = ?`` batches
        down to SQLite, and returns the effective
        :class:`~repro.engine.dictionary.DictionaryUpdate` per attribute.
        The wrappers are patched in place so evaluator masks survive.
        """
        updates = {
            name: update for name, update in self._store.update_rows(assignments).items() if update
        }
        for name, update in updates.items():
            self._dictionaries[name]._apply_update(update)
        return updates

    # -- derivation -----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "SqlRelation":
        schema = self.schema if name is None else Schema(self.schema.attributes, name=name)
        clone = SqlRelation.__new__(SqlRelation)
        clone._attach(schema, self._store.copy())
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
                result._append_cells(batch)
                batch = []
        if batch:
            result._append_cells(batch)
        return result

    def code_cooccurrence(
        self, names: Sequence[str], rows: Optional[Sequence[int]] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        cols = [self.dictionary(name)._col_index for name in names]
        counted = self._store.code_tuple_counts(cols, rows)
        table = np.array(counted, dtype=np.int64).reshape(len(counted), len(names) + 1)
        return table[:, :-1], table[:, -1]

    def rows_with_code_tuples(
        self, names: Sequence[str], tuples: np.ndarray, rows: Optional[Sequence[int]] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        cols = [self.dictionary(name)._col_index for name in names]
        found = self._store.code_tuple_rows(cols, tuples.tolist(), rows)
        pairs = np.array(found, dtype=np.int64).reshape(len(found), 2)
        return pairs[:, 0], pairs[:, 1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SqlRelation({self.schema.name!r}, rows={self.row_count}, "
            f"columns={list(self.schema.attribute_names)})"
        )
