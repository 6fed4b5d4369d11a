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
without cycles.  Relations build and cache one instance per column via
:meth:`repro.dataset.relation.Relation.dictionary`, and mutations patch it
in place rather than invalidating it.  Batch ingestion calls
:meth:`DictionaryColumn.extend`, which appends new rows — unseen values get
fresh codes at the end of the dictionary, ``rows_by_code``/``counts`` are
patched rather than rebuilt — and returns a :class:`DictionaryDelta`.  Cell
overwrites and deletes (``Relation.apply``, so also ``set_cell``) call
:meth:`DictionaryColumn.update_rows`, which rewrites the touched codes and
returns a :class:`DictionaryUpdate` of ``(row, old_code, new_code)``
triples.  Both records describe exactly what changed; the partition layer
patches its cached classes from them and the pattern evaluator
delta-maintains its masks.  Existing codes and values never renumber
(values whose rows all moved away stay as zero-count tombstones), so every
result computed per distinct value stays valid; downstream caches only have
to *grow*.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Iterable, Optional, Sequence

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

    def new_rows(self) -> range:
        """The appended row ids."""
        return range(self.start_row, self.start_row + len(self.appended_codes))

    def code_changes(self) -> np.ndarray:
        """A ``(3, n)`` int64 block stacking ``(rows, old_codes,
        new_codes)``, rows ascending; an appended row had no code before, so
        its old code is ``-1``."""
        count = len(self.appended_codes)
        block = np.empty((3, count), dtype=np.int64)
        block[0] = np.arange(self.start_row, self.start_row + count)
        block[1] = -1
        block[2] = self.appended_codes
        return block


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
        in ``values``/``code_of`` with an empty row list so every handed-out
        code (and everything memoized per code) keeps its meaning; a later
        write of the same value revives the code instead of minting a new
        one.
    """

    __slots__ = (
        "attribute",
        "values",
        "has_updates",
        "_codes",
        "_length",
        "_code_of",
        "_rows_by_code",
        "_counts",
        "_counts_array",
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
        self._rows_by_code: Optional[list[list[int]]] = None
        self._counts: Optional[list[int]] = None
        self._counts_array: Optional[np.ndarray] = None

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

    # -- mutation -------------------------------------------------------------

    def extend(self, cells: Iterable[str]) -> DictionaryDelta:
        """Append rows in place; returns the delta description.

        Unseen values receive fresh codes *after* every existing one, so all
        previously handed-out codes (and anything memoized per code) remain
        valid; the lazily built ``rows_by_code`` / ``counts`` structures are
        patched rather than invalidated.  The code buffer grows
        geometrically, so the amortized append cost stays O(delta).  This is
        the primitive behind
        :meth:`repro.dataset.relation.Relation.append_rows`.
        """
        if self._code_of is None:
            self._code_of = {v: code for code, v in enumerate(self.values)}
        code_of = self._code_of
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
            self.values = self.values + tuple(new_values)
        self._append_codes(appended)
        if self._rows_by_code is not None:
            self._rows_by_code.extend([] for _ in range(len(self.values) - old_distinct))
            for offset, code in enumerate(appended):
                self._rows_by_code[code].append(start_row + offset)
        if self._counts is not None:
            self._counts.extend(0 for _ in range(len(self.values) - old_distinct))
            for code in appended:
                self._counts[code] += 1
        self._counts_array = None
        return DictionaryDelta(
            attribute=self.attribute,
            start_row=start_row,
            appended_codes=tuple(appended),
            old_distinct_count=old_distinct,
        )

    def update_rows(self, assignments: Sequence[tuple[int, str]]) -> DictionaryUpdate:
        """Overwrite cells in place; returns the update description.

        ``assignments`` is ``(row_id, new_value)`` pairs, at most one per
        row.  The dictionary stays append-only: an unseen value receives a
        fresh code after every existing one, a value whose rows all moved
        away keeps its code as a zero-count tombstone (revived if the value
        returns), and existing codes never renumber — so per-code memoized
        state (match masks, component tables) stays valid and only has to
        grow.  The lazily built ``rows_by_code`` / ``counts`` structures are
        patched, not rebuilt.  Assignments whose cell already holds the new
        value are dropped from the returned delta.
        """
        if self._code_of is None:
            self._code_of = {v: code for code, v in enumerate(self.values)}
        code_of = self._code_of
        old_distinct = len(self.values)
        effective: list[tuple[int, int, int]] = []
        new_values: list[str] = []
        codes = self._codes
        for row_id, value in sorted(assignments):
            old_code = int(codes[row_id])
            if self.values[old_code] == value and code_of.get(value) == old_code:
                continue
            new_code = code_of.get(value)
            if new_code is None:
                new_code = len(code_of)
                code_of[value] = new_code
                new_values.append(value)
            if new_code == old_code:
                continue
            effective.append((row_id, old_code, new_code))
        if new_values:
            self.values = self.values + tuple(new_values)
            if self._rows_by_code is not None:
                self._rows_by_code.extend([] for _ in new_values)
            if self._counts is not None:
                self._counts.extend(0 for _ in new_values)
        for row_id, old_code, new_code in effective:
            codes[row_id] = new_code
            if self._rows_by_code is not None:
                old_rows = self._rows_by_code[old_code]
                del old_rows[bisect.bisect_left(old_rows, row_id)]
                bisect.insort(self._rows_by_code[new_code], row_id)
            if self._counts is not None:
                self._counts[old_code] -= 1
                self._counts[new_code] += 1
        if effective:
            self.has_updates = True
            self._counts_array = None
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

    def code_of(self, value: str) -> Optional[int]:
        """The code of ``value``, or ``None`` if the value does not occur."""
        if self._code_of is None:
            self._code_of = {v: code for code, v in enumerate(self.values)}
        return self._code_of.get(value)

    def rows_by_code(self) -> list[list[int]]:
        """Row ids per code, each list in ascending order (built lazily)."""
        if self._rows_by_code is None:
            rows: list[list[int]] = [[] for _ in self.values]
            # Stable argsort groups rows by code with ascending row ids.
            codes = self.codes
            order = stable_order(codes)
            sorted_codes = codes[order]
            boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
            row_lists = order.tolist()
            start = 0
            for end in (*boundaries.tolist(), len(row_lists)):
                if end > start:
                    rows[sorted_codes[start]] = row_lists[start:end]
                    start = end
            self._rows_by_code = rows
        return self._rows_by_code

    def counts(self) -> list[int]:
        """Number of rows per code (built lazily)."""
        if self._counts is None:
            self._counts = self.counts_array().tolist()
        return self._counts

    def counts_array(self) -> np.ndarray:
        """Rows per code as an int64 ndarray."""
        if self._counts_array is None:
            if self._counts is not None:
                self._counts_array = np.asarray(self._counts, dtype=np.int64)
            else:
                self._counts_array = np.bincount(
                    self.codes, minlength=self.distinct_count
                ).astype(np.int64)
        return self._counts_array

    def broadcast_codes(self, accepted: Sequence[bool]) -> list[int]:
        """Row ids whose code is accepted, in ascending order.

        ``accepted`` is a per-code mask (``accepted[code]`` truthy keeps the
        rows carrying that code), broadcast to rows with one fancy-indexing
        operation.
        """
        mask = np.asarray(accepted, dtype=bool)
        return np.flatnonzero(mask[self.codes]).tolist()

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
