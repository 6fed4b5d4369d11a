"""Dictionary encoding of string columns.

A :class:`DictionaryColumn` stores a column once as its distinct values (the
*dictionary*) plus one integer code per row.  Anything that is a function of
the cell value alone — pattern matching, part extraction, equality against a
constant — can then be computed per distinct value and broadcast to rows
through the codes, which is the whole point of the engine: per-row work
becomes per-*distinct*-value work.

The per-row code vector is an ``int32`` ndarray, grown geometrically so
appends stay amortized O(delta); per-code masks broadcast to rows with one
fancy-indexing operation.

The class is deliberately standalone (it knows nothing about relations,
schemas, or patterns) so that the dataset and core layers can depend on it
without cycles.  A relation stores each of its columns as one instance
(:meth:`repro.dataset.relation.Relation.dictionary`) — the codes *are* the
column — and mutations patch it in place.  Batch ingestion calls
:meth:`DictionaryColumn.extend`, which appends new rows — unseen values get
fresh codes at the end of the dictionary, the per-code counts are patched
rather than rebuilt — and returns a :class:`DictionaryDelta`.  Cell
overwrites and deletes (``Relation.apply``, so also ``set_cell``) call
:meth:`DictionaryColumn.update_rows`, which rewrites the touched codes and
returns a :class:`DictionaryUpdate` of ``(row, old_code, new_code)``
triples.  Both records describe exactly what changed: the partition layer
drops the partitions over the attributes they name, and the pattern
evaluator delta-maintains its masks.  Existing codes and values never renumber
(values whose rows all moved away stay as zero-count tombstones), so every
result computed per distinct value stays valid; downstream caches only have
to *grow*.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .backend import stable_order


@dataclasses.dataclass(frozen=True)
class DictionaryDelta:
    """What one :meth:`DictionaryColumn.extend` call appended.

    Attributes
    ----------
    attribute:
        The column name (mirrors :attr:`DictionaryColumn.attribute`).
    start_row:
        Row id of the first appended row (== row count before the extend).
    appended_codes:
        One code per appended row, in append order (``start_row + i`` has
        code ``appended_codes[i]``).
    old_distinct_count:
        Dictionary size before the extend; codes ``>= old_distinct_count``
        belong to values first seen in this batch.
    """

    attribute: str
    start_row: int
    appended_codes: tuple[int, ...]
    old_distinct_count: int

    @property
    def row_count(self) -> int:
        return len(self.appended_codes)


@dataclasses.dataclass(frozen=True)
class DictionaryUpdate:
    """What one :meth:`DictionaryColumn.update_rows` call changed in place.

    Attributes
    ----------
    attribute:
        The column name (mirrors :attr:`DictionaryColumn.attribute`).
    assignments:
        One ``(row_id, old_code, new_code)`` triple per *effective* cell
        overwrite (no-op assignments — the cell already held the value — are
        dropped), in ascending row order.
    old_distinct_count:
        Dictionary size before the update; codes ``>= old_distinct_count``
        belong to values first seen (or revived) by this update.
    """

    attribute: str
    assignments: tuple[tuple[int, int, int], ...]
    old_distinct_count: int

    @property
    def rows(self) -> tuple[int, ...]:
        """The updated row ids, ascending."""
        return tuple(assignment[0] for assignment in self.assignments)

    def code_changes(self) -> np.ndarray:
        """A ``(3, n)`` int64 block stacking ``(rows, old_codes,
        new_codes)``, rows ascending."""
        return np.asarray(self.assignments, dtype=np.int64).reshape(-1, 3).T

    def __bool__(self) -> bool:
        return bool(self.assignments)


class DictionaryColumn:
    """Distinct values of a column plus a per-row integer code.

    Attributes
    ----------
    attribute:
        The column name (informational only).
    values:
        The distinct cell values in first-seen order; ``values[codes[i]]`` is
        the cell value of row ``i``.
    codes:
        One code per row, indexing into ``values`` (an ``int32`` ndarray
        view).
    has_updates:
        True once :meth:`update_rows` has run.  Until then, codes are in
        first-seen row order (so walking codes in order visits groups by
        their smallest row id); afterwards consumers that relied on that
        ordering must sort groups explicitly.  Updates may also leave
        *tombstoned* codes behind — values whose count dropped to zero stay
        in ``values``/``code_of`` with no rows so every handed-out code (and
        everything memoized per code) keeps its meaning; a later write of
        the same value revives the code instead of minting a new one.
    """

    __slots__ = (
        "attribute",
        "values",
        "has_updates",
        "_codes",
        "_length",
        "_code_of",
        "_counts",
        "__weakref__",
    )

    def __init__(
        self,
        values: Sequence[str],
        codes: Sequence[int],
        attribute: str = "",
    ):
        self.attribute = attribute
        self.values: tuple[str, ...] = tuple(values)
        self._codes: np.ndarray = np.array(codes, dtype=np.int32)
        self._length = len(self._codes)
        self.has_updates = False
        self._code_of: Optional[dict[str, int]] = None
        self._counts: Optional[np.ndarray] = np.bincount(
            self._codes, minlength=len(self.values)
        ).astype(np.int64, copy=False)

    @classmethod
    def from_values(cls, cells: Iterable[str], attribute: str = "") -> "DictionaryColumn":
        """Encode a raw column (one string per row)."""
        code_of: dict[str, int] = {}
        codes: list[int] = []
        for cell in cells:
            code = code_of.get(cell)
            if code is None:
                code = len(code_of)
                code_of[cell] = code
            codes.append(code)
        column = cls(tuple(code_of), codes, attribute=attribute)
        column._code_of = code_of
        return column

    @classmethod
    def concat(
        cls, columns: Sequence["DictionaryColumn"], attribute: str = ""
    ) -> "DictionaryColumn":
        """The cold encoding of ``columns``' rows laid end to end.

        Equal to :meth:`from_values` over the decoded cells, built from the
        codes alone: each part is renumbered first-seen (:meth:`select`) and
        its distinct values are mapped once into the merged dictionary.
        """
        code_of: dict[str, int] = {}
        parts: list[np.ndarray] = []
        for column in columns:
            part = column.select()
            remap = np.fromiter(
                (code_of.setdefault(value, len(code_of)) for value in part.values),
                dtype=np.int32,
                count=part.distinct_count,
            )
            parts.append(remap[part.codes])
        codes = np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)
        merged = cls(tuple(code_of), codes, attribute=attribute)
        merged._code_of = code_of
        return merged

    def select(self, rows: Optional[np.ndarray] = None) -> "DictionaryColumn":
        """The cold encoding of the cells at ``rows`` (every row when None).

        The codes are renumbered in first-seen order without decoding, so
        the result equals :meth:`from_values` over the same cells: no
        zero-count tombstones and ``has_updates`` false.
        """
        codes = self.codes if rows is None else self.codes[rows]
        seen = _first_seen(codes, self.distinct_count)
        remap = np.empty(self.distinct_count, dtype=np.int32)
        remap[seen] = np.arange(len(seen), dtype=np.int32)
        values = self.values
        return DictionaryColumn(
            [values[code] for code in seen.tolist()], remap[codes], attribute=self.attribute
        )

    # -- code storage ---------------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """The per-row code vector (an ``int32`` view; do not mutate)."""
        return self._codes[: self._length]

    def _append_codes(self, appended: Sequence[int]) -> None:
        needed = self._length + len(appended)
        capacity = len(self._codes)
        if needed > capacity:
            grown = np.empty(max(needed, capacity * 2, 16), dtype=np.int32)
            grown[: self._length] = self._codes[: self._length]
            self._codes = grown
        self._codes[self._length : needed] = appended
        self._length = needed

    def _code_map(self) -> dict[str, int]:
        if self._code_of is None:
            self._code_of = {v: code for code, v in enumerate(self.values)}
        return self._code_of

    def _add_values(self, new_values: Sequence[str]) -> None:
        """Mint codes for ``new_values`` (already in the code map)."""
        self.values = self.values + tuple(new_values)
        self._counts = np.concatenate(
            (self._counts, np.zeros(len(new_values), dtype=np.int64))
        )

    # -- mutation -------------------------------------------------------------

    def extend(self, cells: Iterable[str]) -> DictionaryDelta:
        """Append rows in place; returns the delta description.

        Unseen values receive fresh codes *after* every existing one, so all
        previously handed-out codes (and anything memoized per code) remain
        valid; the per-code counts are patched in O(delta).  The code buffer
        grows geometrically, so the amortized append cost stays O(delta).
        This is the primitive behind
        :meth:`repro.dataset.relation.Relation.append_rows`.
        """
        code_of = self._code_map()
        start_row = self._length
        old_distinct = len(self.values)
        appended: list[int] = []
        new_values: list[str] = []
        for cell in cells:
            code = code_of.get(cell)
            if code is None:
                code = len(code_of)
                code_of[cell] = code
                new_values.append(cell)
            appended.append(code)
        if new_values:
            self._add_values(new_values)
        self._append_codes(appended)
        np.add.at(self._counts, np.asarray(appended, dtype=np.intp), 1)
        return DictionaryDelta(
            attribute=self.attribute,
            start_row=start_row,
            appended_codes=tuple(appended),
            old_distinct_count=old_distinct,
        )

    def update_rows(self, assignments: Sequence[tuple[int, str]]) -> DictionaryUpdate:
        """Overwrite cells in place; returns the update description.

        ``assignments`` is ``(row_id, new_value)`` pairs; a row listed more
        than once takes its last value.  The dictionary stays append-only:
        an unseen value receives a fresh code after every existing one, a
        value whose rows all moved away keeps its code as a zero-count
        tombstone (revived if the value returns), and existing codes never
        renumber — so per-code memoized state (match masks, component
        tables) stays valid and only has to grow.  The per-code counts are
        patched in O(delta).  Assignments whose cell already holds the new
        value are dropped from the returned delta.
        """
        code_of = self._code_map()
        old_distinct = len(self.values)
        assignments = sorted(dict(assignments).items())
        new_values: list[str] = []
        new_codes: list[int] = []
        for _row_id, value in assignments:
            code = code_of.get(value)
            if code is None:
                code = len(code_of)
                code_of[value] = code
                new_values.append(value)
            new_codes.append(code)
        if new_values:
            self._add_values(new_values)
        codes = self.codes
        rows = np.array([row_id for row_id, _value in assignments], dtype=np.intp)
        old = codes[rows].astype(np.int64)
        new = np.array(new_codes, dtype=np.int64)
        moved = old != new
        rows, old, new = rows[moved], old[moved], new[moved]
        codes[rows] = new
        np.subtract.at(self._counts, old, 1)
        np.add.at(self._counts, new, 1)
        effective = list(zip(rows.tolist(), old.tolist(), new.tolist()))
        if effective:
            self.has_updates = True
        return DictionaryUpdate(
            attribute=self.attribute,
            assignments=tuple(effective),
            old_distinct_count=old_distinct,
        )

    # -- size ----------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._length

    @property
    def distinct_count(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return self.row_count

    # -- lookup --------------------------------------------------------------

    def value_of_row(self, row_id: int) -> str:
        """The cell value of row ``row_id`` (decoded through the dictionary)."""
        return self.values[self.codes[row_id]]

    def decode(self) -> list[str]:
        """Every row's cell value, decoded in one gather."""
        return self._value_array()[self.codes].tolist()

    def decoded_blocks(self, block_rows: int) -> Iterator[list[str]]:
        """The column decoded in consecutive blocks of ``block_rows`` rows."""
        values = self._value_array()
        codes = self.codes
        for start in range(0, len(codes), block_rows):
            yield values[codes[start : start + block_rows]].tolist()

    def _value_array(self) -> np.ndarray:
        values = np.empty(len(self.values), dtype=object)
        values[:] = self.values
        return values

    def code_of(self, value: str) -> Optional[int]:
        """The code of ``value``, or ``None`` if the value does not occur."""
        return self._code_map().get(value)

    def seen_codes(self) -> np.ndarray:
        """The codes that have rows, in first-seen row order."""
        return _first_seen(self.codes, self.distinct_count)

    def rows_by_code(self) -> list[list[int]]:
        """Row ids per code, each list in ascending order (computed on
        demand by one stable argsort)."""
        order = stable_order(self.codes)
        ends = np.cumsum(self.counts_array()).tolist()
        rows = order.tolist()
        return [rows[start:end] for start, end in zip([0, *ends], ends)]

    def counts(self) -> list[int]:
        """Number of rows per code."""
        return self.counts_array().tolist()

    def counts_array(self) -> np.ndarray:
        """Rows per code as an int64 ndarray (do not mutate)."""
        return self._counts

    @property
    def duplication_factor(self) -> float:
        """Average number of rows per distinct value (1.0 = all unique)."""
        if not self.values:
            return 1.0
        return self.row_count / len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DictionaryColumn({self.attribute!r}, rows={self.row_count}, "
            f"distinct={self.distinct_count})"
        )


def _first_seen(codes: np.ndarray, distinct_count: int) -> np.ndarray:
    """The distinct members of ``codes`` (each below ``distinct_count``),
    ordered by their first position."""
    first = np.full(distinct_count, len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes), dtype=np.int64))
    present = np.flatnonzero(first < len(codes))
    return present[np.argsort(first[present])]
