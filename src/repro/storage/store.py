"""The SQLite backing store of the out-of-core ``sql`` backend.

One :class:`SqlStore` owns a private temporary on-disk database holding a
dictionary-encoded copy of a relation:

``rows(rid INTEGER PRIMARY KEY, c0, c1, ...)``
    One row per tuple; ``c<i>`` is the dictionary code of attribute ``i``
    (schema order).  Row ids are dense and append-ordered, matching the
    in-memory engine's row numbering exactly.
``vals(attr, code, value)``
    The dictionary table: one row per distinct ``(attribute, value)`` pair
    with its code, in first-seen order per attribute.

The *encode state* (distinct values, value → code map, per-code counts)
stays in process memory — the paper's working assumption, shared by the
whole engine, is that the distinct values of a column always fit even when
the decoded rows do not.  Everything per-row lives in SQLite and is written
and read in bounded batches, so peak memory is O(chunk + distinct), not
O(rows).
"""

from __future__ import annotations

import sqlite3
from array import array
from typing import Iterable, Iterator, Optional, Sequence

from ..engine.dictionary import DictionaryDelta, DictionaryUpdate

#: Rows per INSERT batch during ingestion/copy (peak-memory bound).
BATCH_ROWS = 8192

#: Code sets up to this size are inlined as SQL literal lists; larger sets
#: go through a temporary table (SQLite's parser dislikes huge IN lists).
MAX_INLINE_CODES = 500


class SqlStore:
    """Dictionary-encoded rows in a private temporary SQLite database."""

    def __init__(self, attribute_names: Sequence[str]):
        self.attributes = tuple(attribute_names)
        self.row_count = 0
        # Live encode state, one entry per attribute (shared with the
        # SqlDictionaryColumn wrappers layered on top).
        self.values: dict[str, list[str]] = {name: [] for name in self.attributes}
        self.code_of: dict[str, dict[str, int]] = {name: {} for name in self.attributes}
        self.counts: dict[str, list[int]] = {name: [] for name in self.attributes}
        self._positions = {name: i for i, name in enumerate(self.attributes)}
        # Attributes with at least one effective in-place update: only their
        # codes can have left first-seen order (see :meth:`copy`).
        self.updated: set[str] = set()
        self._temp_serial = 0
        # sqlite3.connect("") creates a private temporary *on-disk* database
        # that SQLite deletes when the connection closes.
        self._conn = sqlite3.connect("")
        cursor = self._conn
        cursor.execute("PRAGMA journal_mode=OFF")
        cursor.execute("PRAGMA synchronous=OFF")
        cursor.execute("PRAGMA cache_size=-8192")
        cursor.execute("PRAGMA temp_store=FILE")
        code_columns = ", ".join(f"c{i} INTEGER NOT NULL" for i in range(len(self.attributes)))
        cursor.execute(f"CREATE TABLE rows (rid INTEGER PRIMARY KEY{', ' if code_columns else ''}{code_columns})")
        cursor.execute("CREATE TABLE vals (attr TEXT NOT NULL, code INTEGER NOT NULL, value TEXT NOT NULL)")

    # -- identity -------------------------------------------------------------

    def column_index(self, name: str) -> int:
        return self._positions[name]

    def close(self) -> None:
        self._conn.close()

    # -- SQL plumbing ---------------------------------------------------------

    def execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        return self._conn.execute(sql, params)

    def fetch_one(self, sql: str, params: Sequence = ()) -> tuple:
        return self._conn.execute(sql, params).fetchone()

    def fetch_value(self, sql: str, params: Sequence = ()):
        return self._conn.execute(sql, params).fetchone()[0]

    def int_map_table(self, pairs: Iterable[tuple[int, int]]) -> str:
        """Materialize ``(key, val)`` int pairs as a keyed scratch table."""
        self._temp_serial += 1
        name = f"map_{self._temp_serial}"
        self._conn.execute(f"CREATE TABLE {name} (code INTEGER PRIMARY KEY, comp INTEGER NOT NULL)")
        self._conn.executemany(f"INSERT INTO {name} VALUES (?, ?)", pairs)
        return name

    def int_set_table(self, values: Iterable[int]) -> str:
        """Materialize a set of ints as a single-column scratch table."""
        self._temp_serial += 1
        name = f"set_{self._temp_serial}"
        self._conn.execute(f"CREATE TABLE {name} (v INTEGER PRIMARY KEY)")
        self._conn.executemany(f"INSERT OR IGNORE INTO {name} VALUES (?)", ((v,) for v in values))
        return name

    def extend_int_map(self, name: str, pairs: Iterable[tuple[int, int]]) -> None:
        self._conn.executemany(f"INSERT INTO {name} VALUES (?, ?)", pairs)

    def drop_table(self, name: str) -> None:
        self._conn.execute(f"DROP TABLE IF EXISTS {name}")

    def code_set_sql(self, expr: str, codes: Sequence[int]) -> tuple[str, list[str]]:
        """``expr IN <codes>`` as SQL, plus scratch tables to drop after use."""
        if len(codes) <= MAX_INLINE_CODES:
            return f"{expr} IN ({', '.join(str(int(c)) for c in codes)})", []
        table = self.int_set_table(codes)
        return f"{expr} IN (SELECT v FROM {table})", [table]

    # -- ingestion ------------------------------------------------------------

    def append(self, normalized_rows: Sequence[Sequence[str]]) -> dict[str, DictionaryDelta]:
        """Append encoded rows; returns one delta per attribute.

        ``normalized_rows`` must already be lists of strings in schema order
        (the relation layer normalizes).  New distinct values get fresh codes
        after all existing ones — the same first-seen contract as
        :meth:`repro.engine.dictionary.DictionaryColumn.extend` — so the
        returned :class:`DictionaryDelta` objects plug straight into the
        partition cache's incremental maintenance.
        """
        start_row = self.row_count
        width = len(self.attributes)
        old_distinct = {name: len(self.values[name]) for name in self.attributes}
        appended: dict[str, list[int]] = {name: [] for name in self.attributes}
        new_vals: list[tuple[str, int, str]] = []
        encoded: list[tuple[int, ...]] = []
        rid = start_row
        for row in normalized_rows:
            codes = [rid]
            for i in range(width):
                name = self.attributes[i]
                value = row[i]
                code_of = self.code_of[name]
                code = code_of.get(value)
                if code is None:
                    code = len(code_of)
                    code_of[value] = code
                    self.values[name].append(value)
                    self.counts[name].append(0)
                    new_vals.append((name, code, value))
                self.counts[name][code] += 1
                appended[name].append(code)
                codes.append(code)
            encoded.append(tuple(codes))
            rid += 1
        placeholders = ", ".join("?" for _ in range(width + 1))
        insert = f"INSERT INTO rows VALUES ({placeholders})"
        for start in range(0, len(encoded), BATCH_ROWS):
            self._conn.executemany(insert, encoded[start : start + BATCH_ROWS])
        if new_vals:
            self._conn.executemany("INSERT INTO vals VALUES (?, ?, ?)", new_vals)
        self.row_count = rid
        return {
            name: DictionaryDelta(
                attribute=name,
                start_row=start_row,
                appended_codes=tuple(appended[name]),
                old_distinct_count=old_distinct[name],
            )
            for name in self.attributes
        }

    # -- point / bulk access --------------------------------------------------

    def code_at(self, row_id: int, col_index: int) -> int:
        row = self.fetch_one(f"SELECT c{col_index} FROM rows WHERE rid = ?", (row_id,))
        if row is None:
            raise IndexError(f"row id {row_id} out of range")
        return row[0]

    def row_codes(self, row_id: int) -> tuple[int, ...]:
        cols = ", ".join(f"c{i}" for i in range(len(self.attributes)))
        row = self.fetch_one(f"SELECT {cols} FROM rows WHERE rid = ?", (row_id,))
        if row is None:
            raise IndexError(f"row id {row_id} out of range")
        return row

    def codes_for(self, col_index: int) -> "array":
        """The full code vector of one column as a compact int array."""
        codes = array("i")
        cursor = self._conn.execute(f"SELECT c{col_index} FROM rows ORDER BY rid")
        while True:
            chunk = cursor.fetchmany(BATCH_ROWS)
            if not chunk:
                break
            codes.extend(row[0] for row in chunk)
        return codes

    def seen_codes(self, col_index: int) -> list[int]:
        """The codes one column's rows carry, in first-seen row order (one
        ``GROUP BY`` over the rows table; zero-count codes never appear)."""
        return [
            code
            for (code,) in self._conn.execute(
                f"SELECT c{col_index} FROM rows GROUP BY c{col_index} ORDER BY MIN(rid)"
            )
        ]

    def iter_code_rows(self) -> Iterator[tuple[int, ...]]:
        """All rows' code tuples (without rid), in row order, batched."""
        cols = ", ".join(f"c{i}" for i in range(len(self.attributes)))
        cursor = self._conn.execute(f"SELECT {cols} FROM rows ORDER BY rid")
        while True:
            chunk = cursor.fetchmany(BATCH_ROWS)
            if not chunk:
                break
            yield from chunk

    def code_tuple_counts(
        self, col_indexes: Sequence[int], rids: Optional[Sequence[int]] = None
    ) -> list[tuple[int, ...]]:
        """Distinct code tuples of the given columns with their row counts
        (the count last), sorted: one ``GROUP BY`` over the rows table, or
        over the rows ``rids`` names."""
        cols = ", ".join(f"c{int(i)}" for i in col_indexes)
        scope, scratch = ("1", []) if rids is None else self.code_set_sql("rid", rids)
        try:
            return self.execute(
                f"SELECT {cols}, COUNT(*) FROM rows WHERE {scope} GROUP BY {cols} ORDER BY {cols}"
            ).fetchall()
        finally:
            for table in scratch:
                self.drop_table(table)

    def code_tuple_rows(
        self,
        col_indexes: Sequence[int],
        tuples: Sequence[Sequence[int]],
        rids: Optional[Sequence[int]] = None,
    ) -> list[tuple[int, int]]:
        """``(rid, t)`` for the rows (among ``rids`` when given) whose codes
        on the given columns equal ``tuples[t]``, ascending by rid: the
        tuples ship as a keyed scratch table that the rows join."""
        self._temp_serial += 1
        name = f"tuples_{self._temp_serial}"
        keys = ", ".join(f"k{i}" for i in range(len(col_indexes)))
        self._conn.execute(f"CREATE TABLE {name} ({keys}, t, PRIMARY KEY ({keys})) WITHOUT ROWID")
        scope, scratch = ("1", []) if rids is None else self.code_set_sql("r.rid", rids)
        on = " AND ".join(f"s.k{i} = r.c{int(col)}" for i, col in enumerate(col_indexes))
        try:
            self._conn.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * (len(col_indexes) + 1))})",
                ((*codes, t) for t, codes in enumerate(tuples)),
            )
            return self.execute(
                f"SELECT r.rid, s.t FROM rows r JOIN {name} s ON {on} WHERE {scope} ORDER BY r.rid"
            ).fetchall()
        finally:
            for table in (name, *scratch):
                self.drop_table(table)

    # -- mutation -------------------------------------------------------------

    def update_rows(
        self, assignments: "dict[str, dict[int, str]]"
    ) -> dict[str, DictionaryUpdate]:
        """Batch-overwrite cells; returns one effective update per attribute.

        ``assignments`` maps attribute name -> ``{row_id: new_value}``.  New
        distinct values get fresh codes after all existing ones (same
        first-seen contract as :meth:`append`); codes whose last row is
        rewritten away become zero-count tombstones, never renumbered.
        Assignments matching the stored value are dropped, so the returned
        :class:`DictionaryUpdate` objects carry effective changes only.
        """
        results: dict[str, DictionaryUpdate] = {}
        for name in self.attributes:
            per_attr = assignments.get(name)
            if not per_attr:
                continue
            col = self.column_index(name)
            values = self.values[name]
            code_of = self.code_of[name]
            counts = self.counts[name]
            old_distinct = len(values)
            effective: list[tuple[int, int, int]] = []
            writes: list[tuple[int, int]] = []
            new_vals: list[tuple[str, int, str]] = []
            for row_id in sorted(per_attr):
                value = per_attr[row_id]
                old_code = self.code_at(row_id, col)
                code = code_of.get(value)
                if code is None:
                    code = len(code_of)
                    code_of[value] = code
                    values.append(value)
                    counts.append(0)
                    new_vals.append((name, code, value))
                if code == old_code:
                    continue
                counts[old_code] -= 1
                counts[code] += 1
                effective.append((row_id, old_code, code))
                writes.append((code, row_id))
            if new_vals:
                self._conn.executemany("INSERT INTO vals VALUES (?, ?, ?)", new_vals)
            if writes:
                self._conn.executemany(f"UPDATE rows SET c{col} = ? WHERE rid = ?", writes)
                self.updated.add(name)
            results[name] = DictionaryUpdate(
                attribute=name,
                assignments=tuple(effective),
                old_distinct_count=old_distinct,
            )
        return results

    # -- copy -----------------------------------------------------------------

    def copy(self) -> "SqlStore":
        """An independent store with identical rows, encoded cold: each
        attribute's codes are renumbered in first-seen row order, so the
        zero-count tombstones updates leave behind are not carried over
        (the same contract as an in-memory ``Relation.copy``)."""
        clone = SqlStore(self.attributes)
        remaps: dict[int, str] = {}
        for index, name in enumerate(self.attributes):
            # Appends mint codes in first-seen order; only updates can
            # reorder first appearances or leave tombstones behind.
            seen = list(range(len(self.values[name])))
            if name in self.updated:
                seen = self.seen_codes(index)
                remaps[index] = self.int_map_table((old, new) for new, old in enumerate(seen))
            clone.values[name] = [self.values[name][code] for code in seen]
            clone.code_of[name] = {value: code for code, value in enumerate(clone.values[name])}
            clone.counts[name] = [self.counts[name][code] for code in seen]
        clone._conn.executemany(
            "INSERT INTO vals VALUES (?, ?, ?)",
            (
                (name, code, value)
                for name in self.attributes
                for code, value in enumerate(clone.values[name])
            ),
        )
        # SQLite renumbers the rows: an updated attribute's code is read
        # through its remap table, so no cell passes through Python.
        width = len(self.attributes)
        renumbered = ", ".join(f"m{i}.comp" if i in remaps else f"r.c{i}" for i in range(width))
        joins = " ".join(f"JOIN {table} m{i} ON m{i}.code = r.c{i}" for i, table in remaps.items())
        placeholders = ", ".join("?" for _ in range(width + 1))
        insert = f"INSERT INTO rows VALUES ({placeholders})"
        cursor = self._conn.execute(f"SELECT r.rid, {renumbered} FROM rows r {joins} ORDER BY r.rid")
        while True:
            chunk = cursor.fetchmany(BATCH_ROWS)
            if not chunk:
                break
            clone._conn.executemany(insert, chunk)
        for table in remaps.values():
            self.drop_table(table)
        clone.row_count = self.row_count
        return clone
