"""The :class:`Relation` — the library's in-memory table.

A relation is column-oriented: each attribute is stored as one
:class:`~repro.engine.dictionary.DictionaryColumn` — its distinct string
values plus one integer code per row — and cells are decoded through it on
read.  Every cell is a string (the pattern machinery is purely textual);
``None`` / missing values are stored as the empty string.  Row identity is
positional (row ``i`` of every column belongs to tuple ``i``), matching the
tuple ids of the paper's algorithms.

Relations are cheap to project, filter, and copy, and support the handful of
relational operations the discovery / cleaning pipelines need.  They are not
a general-purpose dataframe.

The engine structures a relation derives — dictionary columns, match masks,
stripped partitions — are the numpy engine's ndarrays (see
:mod:`repro.engine.backend`).  ``Relation(..., backend="sql")`` builds the
out-of-core :class:`~repro.storage.relation.SqlRelation` instead; an
in-memory relation is always ``numpy``.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..engine.backend import NUMPY, SQL, resolve_backend
from ..engine.dictionary import DictionaryColumn, DictionaryDelta, DictionaryUpdate
from ..engine.partitions import PartitionManager
from ..exceptions import ReproError, SchemaError
from .mutations import (
    DeleteOp,
    MutationBatch,
    MutationResult,
    UpdateOp,
    UpsertOp,
)
from .schema import Attribute, AttributeRole, Schema


def _normalize_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return str(value)


#: Rows per block when :meth:`Relation.iter_rows` decodes its columns.
_DECODE_ROWS = 4096


class Relation:
    """A named, schema-typed, column-oriented table of strings."""

    #: Engine backend of the relation's derived state: ``"numpy"`` for every
    #: in-memory relation, ``"sql"`` for :class:`~repro.storage.relation.SqlRelation`.
    backend = NUMPY

    def __new__(
        cls,
        schema: Optional[Schema] = None,
        columns: Optional[Mapping[str, Sequence[str]]] = None,
        backend: Optional[str] = None,
    ):
        # ``Relation(..., backend="sql")`` transparently builds the
        # out-of-core SQLite-backed subclass.  Only an *explicit* backend
        # argument dispatches — a bare ``Relation(...)`` stays in memory even
        # under ``REPRO_ENGINE=sql`` (the env default engages via read_csv),
        # so existing construction sites keep their memory profile.
        if cls is Relation and backend is not None and resolve_backend(backend) == SQL:
            from ..storage.relation import SqlRelation

            return super().__new__(SqlRelation)
        return super().__new__(cls)

    def __init__(
        self,
        schema: Schema,
        columns: Optional[Mapping[str, Sequence[str]]] = None,
        backend: Optional[str] = None,
    ):
        columns = columns or {}
        self._install(
            schema,
            {
                name: DictionaryColumn.from_values(columns.get(name, ()), attribute=name)
                for name in schema.attribute_names
            },
        )

    def _install(self, schema: Schema, dictionaries: Mapping[str, DictionaryColumn]) -> None:
        lengths = {dictionary.row_count for dictionary in dictionaries.values()}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        self.schema = schema
        self._dictionaries: dict[str, DictionaryColumn] = {
            name: dictionaries[name] for name in schema.attribute_names
        }
        self._partitions: Optional[PartitionManager] = None
        self._version = 0
        self._deleted: set[int] = set()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dictionaries(
        cls, schema: Schema, dictionaries: Mapping[str, DictionaryColumn]
    ) -> "Relation":
        """An in-memory relation whose columns are ``dictionaries`` (one per
        attribute, equal row counts), installed as they are."""
        relation = Relation.__new__(Relation)
        relation._install(schema, dictionaries)
        return relation

    @classmethod
    def from_rows(
        cls,
        schema: Union[Schema, Sequence[str]],
        rows: Iterable[Sequence[object]],
        name: str = "R",
        backend: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from an iterable of row tuples.

        ``schema`` may be a :class:`Schema` or a plain list of column names.
        """
        if not isinstance(schema, Schema):
            schema = Schema(schema, name=name)
        relation = cls(schema, backend=backend)
        relation.append_rows(rows)
        return relation

    @classmethod
    def from_dicts(
        cls,
        rows: Sequence[Mapping[str, object]],
        schema: Optional[Schema] = None,
        name: str = "R",
        backend: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from a list of dict rows.

        When ``schema`` is omitted, the keys of the first row define it.
        """
        if schema is None:
            if not rows:
                raise SchemaError("cannot infer a schema from zero dict rows")
            schema = Schema(list(rows[0].keys()), name=name)
        relation = cls(schema, backend=backend)
        relation.append_rows(rows)
        return relation

    # -- size / access ------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    @property
    def row_count(self) -> int:
        first = self.schema.attribute_names[0]
        return self._dictionaries[first].row_count

    @property
    def version(self) -> int:
        """Monotonic mutation counter: bumped by every effective mutation —
        :meth:`append_rows` and :meth:`apply` (so also the :meth:`set_cell`
        / :meth:`delete_rows` wrappers) — alongside the dictionary/partition
        delta maintenance.  Consumers holding results derived from the
        relation (e.g. a :class:`~repro.session.CleaningSession`'s memoized
        stages) compare versions to decide whether a cached result is still
        current."""
        return self._version

    @property
    def deleted_rows(self) -> tuple[int, ...]:
        """Rows tombstoned by :meth:`delete_rows` / delete ops, ascending.

        Deleted rows keep their (dense, stable) row ids but hold only empty
        cells, which no partition, pattern, or PFD covers — they are
        invisible to every analytical result.
        """
        return tuple(sorted(self._deleted))

    def __len__(self) -> int:
        return self.row_count

    def column(self, name: str) -> list[str]:
        """The full column ``name``, decoded into a fresh list."""
        return self.dictionary(name).decode()

    def dictionary(self, name: str) -> DictionaryColumn:
        """The dictionary encoding of column ``name`` — the column's storage.

        :meth:`append_rows` *extends* it in place and :meth:`apply` (so also
        ``set_cell`` / ``delete_rows``) *patches* its code vector, so the
        returned object always reflects the current column contents.
        Everything downstream (the pattern index, PFD validation, error
        detection) keys its memoized per-distinct-value work on the returned
        object's identity — which both appends and updates deliberately
        preserve.
        """
        self.schema.position(name)
        return self._dictionaries[name]

    def partitions(self) -> PartitionManager:
        """The relation's stripped-partition (PLI) cache.

        Built lazily on first use; :meth:`append_rows` and :meth:`apply`
        (so also ``set_cell`` / ``delete_rows``) report every write to it,
        and it drops the cached partitions over the touched attributes
        while keeping each leaf's grouping state, from which a scoped
        search finds a changed row's class.  The manager object itself is
        stable across mutations, so its hit/miss statistics describe the
        relation's whole lifetime.
        """
        if self._partitions is None:
            self._partitions = PartitionManager(self)
        return self._partitions

    def cell(self, row_id: int, name: str) -> str:
        """The value of attribute ``name`` in tuple ``row_id``."""
        return self.dictionary(name).value_of_row(row_id)

    def row(self, row_id: int) -> tuple[str, ...]:
        """Tuple ``row_id`` in schema order."""
        return tuple(column.value_of_row(row_id) for column in self._dictionaries.values())

    def row_dict(self, row_id: int) -> dict[str, str]:
        """Tuple ``row_id`` as an attribute → value dict."""
        return dict(zip(self.schema.attribute_names, self.row(row_id)))

    def iter_rows(self) -> Iterator[tuple[str, ...]]:
        """Every tuple in row order, decoded column-wise in blocks."""
        blocks = [column.decoded_blocks(_DECODE_ROWS) for column in self._dictionaries.values()]
        for block in zip(*blocks):
            yield from zip(*block)

    def iter_row_dicts(self) -> Iterator[dict[str, str]]:
        names = self.schema.attribute_names
        for row in self.iter_rows():
            yield dict(zip(names, row))

    # -- mutation ------------------------------------------------------------

    def _normalize_row(self, row: Union[Sequence[object], Mapping[str, object]]) -> list[str]:
        if isinstance(row, Mapping):
            return [_normalize_cell(row.get(name, "")) for name in self.schema.attribute_names]
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row has {len(row)} values, schema {self.schema.name!r} "
                f"has {len(self.schema)} attributes"
            )
        return [_normalize_cell(value) for value in row]

    def append_rows(
        self, rows: Iterable[Union[Sequence[object], Mapping[str, object]]]
    ) -> range:
        """Append a batch of tuples; returns the appended row-id range.

        This is the incremental ingestion path: every column's
        :class:`~repro.engine.dictionary.DictionaryColumn` is extended in
        place (fresh codes for unseen values, counts patched), and the
        stripped-partition cache drops its cached partitions, keeping the
        leaves' grouping states
        (:meth:`~repro.engine.partitions.PartitionManager.extend`).  Downstream consumers
        keyed on the dictionary objects' identity (the pattern evaluator's
        memoized masks) observe the growth and extend themselves lazily.  An
        empty batch is a no-op (no version bump).
        """
        normalized = [self._normalize_row(row) for row in rows]
        start = self.row_count
        if not normalized:
            return range(start, start)
        deltas = self._append_cells(normalized)
        if self._partitions is not None:
            self._partitions.extend(deltas)
        self._version += 1
        return range(start, start + len(normalized))

    def _append_cells(self, rows: Sequence[Sequence[str]]) -> dict[str, DictionaryDelta]:
        """Encode normalized rows onto the columns; one delta per attribute."""
        return {
            name: dictionary.extend(cells)
            for (name, dictionary), cells in zip(self._dictionaries.items(), zip(*rows))
        }

    def set_cell(self, row_id: int, name: str, value: object) -> None:
        """Overwrite one cell (used by error injection and repair).

        A one-cell :meth:`apply` batch: the dictionary is patched in place
        and survives — so the evaluator's memoized per-distinct-value masks
        stay valid — and the partition cache drops the touched attribute's
        partitions.  Writing the value the cell already holds is a no-op
        (no version bump).
        """
        self.apply(MutationBatch.update_cells(((row_id, name, value),)))

    def delete_rows(self, row_ids: Iterable[int]) -> MutationResult:
        """Tombstone rows: every cell becomes empty, row ids stay stable.

        Logical deletion keeps row ids dense and append-ordered (the
        contract the delta paths and the SQL backend's ``rid`` arithmetic
        rely on) while removing the rows from every analytical result —
        empty cells are uncovered by all partition and PFD semantics.  The
        deleted ids are recorded in :attr:`deleted_rows`.
        """
        return self.apply(MutationBatch.deletes(row_ids))

    def apply(self, batch: MutationBatch) -> MutationResult:
        """Apply a :class:`~repro.dataset.mutations.MutationBatch` atomically.

        The unified mutation entry point: updates and deletes target
        *pre-batch* row ids, appends land last, and the whole batch is
        validated (row ranges, attribute names, append shapes) before any
        cell changes.  The columns' dictionaries patch their code vectors in
        place (:meth:`~repro.engine.dictionary.DictionaryColumn.update_rows`,
        so memoized evaluator masks survive), the partition cache drops the
        partitions over the touched attributes
        (:meth:`~repro.engine.partitions.PartitionManager.apply_update`),
        and appended rows ride the existing :meth:`append_rows` extend path.
        """
        if not isinstance(batch, MutationBatch):
            raise ReproError(
                f"Relation.apply expects a MutationBatch, got {type(batch).__name__}"
            )
        appends, assignments, deletes = self._collect_mutations(batch)
        updates = self._update_cells(assignments)
        changed = {row_id for update in updates.values() for row_id in update.rows}
        if updates:
            if self._partitions is not None:
                self._partitions.apply_update(updates)
            self._version += 1
        if deletes:
            self._deleted.update(deletes)
        start = self.row_count
        appended = self.append_rows(appends) if appends else range(start, start)
        return MutationResult(
            appended=appended,
            updated_rows=tuple(sorted(changed - deletes)),
            deleted_rows=tuple(sorted(deletes)),
        )

    def _collect_mutations(
        self, batch: MutationBatch
    ) -> tuple[list[list[str]], dict[str, dict[int, str]], set[int]]:
        """Validate and flatten a batch against the pre-batch state.

        Returns normalized append rows, per-attribute ``{row_id: value}``
        assignments (later ops override earlier ones; deletes blank every
        attribute of their rows), and the deleted row-id set.  Raises before
        anything has been mutated, so a bad batch leaves the relation
        untouched.
        """
        row_count = self.row_count
        appends: list[list[str]] = []
        assignments: dict[str, dict[int, str]] = {}
        deletes: set[int] = set()
        for op in batch.ops:
            if isinstance(op, UpsertOp):
                appends.extend(self._normalize_row(row) for row in op.rows)
            elif isinstance(op, UpdateOp):
                if not 0 <= op.row_id < row_count:
                    raise ReproError(
                        f"update targets row {op.row_id}, but rows 0..{row_count - 1} "
                        "existed before this batch"
                    )
                for attribute, value in op.values:
                    self.schema.position(attribute)
                    assignments.setdefault(attribute, {})[op.row_id] = _normalize_cell(value)
            elif isinstance(op, DeleteOp):
                for row_id in op.row_ids:
                    if not 0 <= row_id < row_count:
                        raise ReproError(
                            f"delete targets row {row_id}, but rows 0..{row_count - 1} "
                            "existed before this batch"
                        )
                    deletes.add(row_id)
            else:  # pragma: no cover - MutationBatch validates op types
                raise ReproError(f"unknown mutation op {type(op).__name__}")
        for row_id in deletes:
            for name in self.schema.attribute_names:
                assignments.setdefault(name, {})[row_id] = ""
        return appends, assignments, deletes

    def _update_cells(
        self, assignments: Mapping[str, Mapping[int, str]]
    ) -> dict[str, DictionaryUpdate]:
        """Write validated cell assignments into the columns.

        Returns the :class:`DictionaryUpdate` of every attribute with at
        least one effective change (assignments matching the stored value
        are dropped), in schema order.
        """
        updates: dict[str, DictionaryUpdate] = {}
        for name, dictionary in self._dictionaries.items():
            per_row = assignments.get(name)
            if per_row:
                update = dictionary.update_rows(list(per_row.items()))
                if update:
                    updates[name] = update
        return updates

    # -- derivation ----------------------------------------------------------

    # Derived relations re-encode nothing: each column's codes are
    # renumbered first-seen (DictionaryColumn.select), which gives exactly
    # the dictionaries a cold encode of the derived cells would build.

    def copy(self, name: Optional[str] = None) -> "Relation":
        """A deep copy (new columns, same schema object)."""
        schema = self.schema if name is None else Schema(self.schema.attributes, name=name)
        clone = Relation.from_dictionaries(
            schema, {n: column.select() for n, column in self._dictionaries.items()}
        )
        clone._deleted = set(self._deleted)
        return clone

    def project(self, names: Sequence[str], name: Optional[str] = None) -> "Relation":
        """A new relation with only the columns in ``names``."""
        schema = self.schema.project(names, name=name)
        return Relation.from_dictionaries(schema, {n: self.dictionary(n).select() for n in names})

    def select_rows(self, row_ids: Sequence[int], name: Optional[str] = None) -> "Relation":
        """A new relation with only the given rows, in the given order."""
        schema = self.schema if name is None else Schema(self.schema.attributes, name=name)
        rows = np.asarray(row_ids, dtype=np.intp)
        return Relation.from_dictionaries(
            schema, {n: column.select(rows) for n, column in self._dictionaries.items()}
        )

    def filter_rows(
        self, predicate: Callable[[dict[str, str]], bool], name: Optional[str] = None
    ) -> "Relation":
        """Rows for which ``predicate(row_dict)`` is true."""
        keep = [i for i in range(self.row_count) if predicate(self.row_dict(i))]
        return self.select_rows(keep, name=name)

    def sample_rows(self, count: int, seed: int = 0, name: Optional[str] = None) -> "Relation":
        """A deterministic random sample of ``count`` rows (without replacement)."""
        rng = random.Random(seed)
        count = min(count, self.row_count)
        row_ids = rng.sample(range(self.row_count), count)
        return self.select_rows(sorted(row_ids), name=name)

    def distinct_values(self, name: str) -> list[str]:
        """Distinct non-empty values of a column, in first-seen row order."""
        dictionary = self.dictionary(name)
        values = dictionary.values
        return [values[code] for code in dictionary.seen_codes().tolist() if values[code]]

    def value_counts(self, name: str) -> dict[str, int]:
        """Histogram of the values of a column (including empty strings), in
        first-seen row order."""
        dictionary = self.dictionary(name)
        values = dictionary.values
        counts = dictionary.counts_array().tolist()
        return {values[code]: counts[code] for code in dictionary.seen_codes().tolist()}

    def non_empty_rows(self, name: str) -> list[int]:
        """The rows whose ``name`` cell is non-empty, ascending."""
        codes = [[code] for code, value in enumerate(self.dictionary(name).values) if value]
        tuples = np.array(codes, dtype=np.int64).reshape(-1, 1)
        return self.rows_with_code_tuples((name,), tuples)[0].tolist()

    def active_domain(self, name: str) -> set[str]:
        """The active domain of ``name``: the set of non-empty values present."""
        dictionary = self.dictionary(name)
        return {
            value
            for value, count in zip(dictionary.values, dictionary.counts_array().tolist())
            if value and count
        }

    def code_cooccurrence(
        self, names: Sequence[str], rows: Optional[Sequence[int]] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct dictionary-code tuples of ``names`` with their row
        counts: an ``(n, len(names))`` int64 array sorted lexicographically,
        and the matching int64 counts.  ``rows`` (ascending unique row ids)
        restricts the count to those rows."""
        columns = [self.dictionary(name) for name in names]
        scope = slice(None) if rows is None else np.asarray(rows, dtype=np.int64)
        codes = [column.codes[scope] for column in columns]
        if len(columns) == 1:
            # One attribute needs no sort: its codes are dense bin indices.
            counts = np.bincount(codes[0], minlength=len(columns[0].values))
            present = np.flatnonzero(counts)
            return present.reshape(-1, 1), counts[present].astype(np.int64, copy=False)
        # One sort per column after the first: each pass keys the previous
        # pass's dense tuple ids by the next column's codes.  The keys grow
        # in lexicographic tuple order, and re-densifying before every
        # intermediate pass keeps them below rows x distinct values, so they
        # never overflow.  The last pass returns only counts; the tuples are
        # decoded back through each pass's keys by divmod.
        radices = [len(column.values) for column in columns[1:]]
        key = codes[0].astype(np.int64)
        seen = []
        for radix, column_codes in zip(radices[:-1], codes[1:-1]):
            distinct, key = np.unique(key * radix + column_codes, return_inverse=True)
            seen.append(distinct)
        if radices:
            key = key * radices[-1] + codes[-1]
        key, counts = np.unique(key, return_counts=True)
        table = np.empty((len(key), len(columns)), dtype=np.int64)
        for position in range(len(columns) - 1, 0, -1):
            key, table[:, position] = np.divmod(key, radices[position - 1])
            if position > 1:
                key = seen[position - 2][key]
        table[:, 0] = key
        return table, counts.astype(np.int64)

    def rows_with_code_tuples(
        self,
        names: Sequence[str],
        tuples: np.ndarray,
        rows: Optional[Sequence[int]] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ascending rows (among ``rows`` when given) whose codes on
        ``names`` form one of ``tuples`` — distinct code tuples sorted
        lexicographically, as :meth:`code_cooccurrence` returns them — and,
        per row, the index of its tuple in ``tuples``."""
        scope = np.arange(self.row_count) if rows is None else np.asarray(rows, dtype=np.int64)
        # Column by column, a surviving row carries the dense id of its code
        # prefix among the tuples' prefixes (in the tuples' order).
        row_ids = np.zeros(len(scope), dtype=np.int64)
        tuple_ids = np.zeros(len(tuples), dtype=np.int64)
        for position, name in enumerate(names):
            column = self.dictionary(name)
            radix = len(column.values)
            prefixes, tuple_ids = np.unique(
                tuple_ids * radix + tuples[:, position], return_inverse=True
            )
            keys = row_ids * radix + column.codes[scope]
            hit = np.isin(keys, prefixes)
            scope, row_ids = scope[hit], np.searchsorted(prefixes, keys[hit])
        return scope, row_ids

    # -- convenience ---------------------------------------------------------

    def declare_role(self, name: str, role: AttributeRole) -> None:
        """Declare the semantic role of a column in place."""
        self.schema = self.schema.with_role(name, role)

    def rename(self, name: str) -> "Relation":
        """A shallow-schema renamed copy of the relation."""
        return self.copy(name=name)

    def head(self, count: int = 5) -> list[dict[str, str]]:
        """The first ``count`` rows as dicts (handy in examples / debugging)."""
        return [self.row_dict(i) for i in range(min(count, self.row_count))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Relation({self.schema.name!r}, rows={self.row_count}, "
            f"columns={list(self.schema.attribute_names)})"
        )

    def pretty(self, limit: int = 10) -> str:
        """A fixed-width textual rendering of the first ``limit`` rows."""
        names = list(self.schema.attribute_names)
        rows = [self.row(i) for i in range(min(limit, self.row_count))]
        widths = [len(n) for n in names]
        for row in rows:
            for i, value in enumerate(row):
                widths[i] = max(widths[i], len(value))
        header = "  ".join(n.ljust(widths[i]) for i, n in enumerate(names))
        separator = "  ".join("-" * widths[i] for i in range(len(names)))
        lines = [header, separator]
        for row in rows:
            lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
        if self.row_count > limit:
            lines.append(f"... ({self.row_count - limit} more rows)")
        return "\n".join(lines)


def concat(relations: Sequence[Relation], name: Optional[str] = None) -> Relation:
    """Concatenate relations with identical attribute names."""
    if not relations:
        raise SchemaError("concat needs at least one relation")
    first = relations[0]
    for other in relations[1:]:
        if other.attribute_names != first.attribute_names:
            raise SchemaError(
                "cannot concat relations with different attributes: "
                f"{first.attribute_names} vs {other.attribute_names}"
            )
    if first.backend == SQL:
        # An out-of-core result: the store encodes the appended rows.
        result = first.copy(name=name or first.name)
        for other in relations[1:]:
            result.append_rows(other.iter_rows())
        return result
    schema = Schema(first.schema.attributes, name=name or first.name)
    result = Relation.from_dictionaries(
        schema,
        {
            attribute: DictionaryColumn.concat(
                [relation.dictionary(attribute) for relation in relations], attribute=attribute
            )
            for attribute in first.attribute_names
        },
    )
    result._deleted = set(first._deleted)
    return result
