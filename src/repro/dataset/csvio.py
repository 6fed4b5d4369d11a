"""CSV import / export for :class:`~repro.dataset.relation.Relation`.

The experiment datasets ship as generated relations, but downstream users of
the library will want to run discovery on their own files, so the reader
handles the usual CSV dialects (delimiter sniffing, optional header) and the
writer is lossless for the string-valued relations this library uses.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Optional, Sequence, Union

from ..engine.backend import SQL, resolve_backend
from ..exceptions import SchemaError
from .relation import Relation
from .schema import Schema


def read_csv(
    source: Union[str, Path, io.TextIOBase],
    name: Optional[str] = None,
    delimiter: Optional[str] = None,
    has_header: bool = True,
    column_names: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
) -> Relation:
    """Read a CSV file (or open text stream) into a relation.

    Parameters
    ----------
    source:
        Path or readable text stream.
    name:
        Relation name; defaults to the file stem or ``"R"`` for streams.
    delimiter:
        Field delimiter; sniffed from the first 4 KiB when omitted.
    has_header:
        Whether the first row holds column names.
    column_names:
        Explicit column names (required when ``has_header`` is False and
        useful to override a header).
    backend:
        Engine backend for the loaded relation.  When it resolves to
        ``"sql"`` — explicitly, or because the process default
        (``REPRO_ENGINE=sql``) says so — the file is *streamed* in bounded
        chunks into an out-of-core SQLite-backed relation: peak memory is
        one chunk plus the per-column distinct values, never the decoded
        table.  ``"numpy"`` loads an in-memory relation.
    """
    if resolve_backend(backend) == SQL:
        return _read_csv_sql(source, name, delimiter, has_header, column_names)
    if isinstance(source, (str, Path)):
        path = Path(source)
        text = path.read_text(encoding="utf-8")
        inferred_name = name or path.stem
    else:
        text = source.read()
        inferred_name = name or "R"

    if delimiter is None:
        delimiter = _sniff_delimiter(text)

    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [row for row in reader if row]
    if not rows:
        raise SchemaError(f"CSV source {inferred_name!r} contains no rows")

    if has_header:
        header = [cell.strip() for cell in rows[0]]
        data_rows = rows[1:]
    else:
        header = []
        data_rows = rows

    if column_names is not None:
        header = list(column_names)
    elif not has_header:
        width = max(len(row) for row in data_rows)
        header = [f"column_{i + 1}" for i in range(width)]

    # Transpose the padded / truncated rows, so each column is encoded once.
    width = len(header)
    columns = zip(
        *(row if len(row) == width else (row + [""] * width)[:width] for row in data_rows)
    )
    return Relation(Schema(header, name=inferred_name), dict(zip(header, columns)))


def _read_csv_sql(
    source: Union[str, Path, io.TextIOBase],
    name: Optional[str],
    delimiter: Optional[str],
    has_header: bool,
    column_names: Optional[Sequence[str]],
) -> Relation:
    """Chunked out-of-core ingestion (semantics identical to the in-memory
    reader: same sniffing, header, padding/truncation, and empty handling —
    pinned by the round-trip parity tests).

    Path sources are re-opened per pass and never fully buffered.  Stream
    sources are drained once into memory (they cannot be rewound); callers
    with out-of-core data pass paths.
    """
    from ..storage.store import BATCH_ROWS

    if isinstance(source, (str, Path)):
        path = Path(source)
        inferred_name = name or path.stem

        def open_source() -> io.TextIOBase:
            return path.open("r", encoding="utf-8", newline="")

    else:
        text = source.read()
        inferred_name = name or "R"

        def open_source() -> io.TextIOBase:
            return io.StringIO(text)

    if delimiter is None:
        with open_source() as handle:
            delimiter = _sniff_delimiter(handle.read(4096))

    header: list[str] = []
    if column_names is not None:
        header = list(column_names)
    elif not has_header:
        # The in-memory reader sizes the schema to the widest data row;
        # streaming needs one extra (cheap, unbuffered) pass to learn it.
        width = 0
        with open_source() as handle:
            for row in csv.reader(handle, delimiter=delimiter):
                if row and len(row) > width:
                    width = len(row)
        header = [f"column_{i + 1}" for i in range(width)]

    relation: Optional[Relation] = None
    saw_any = False

    def flush(batch: list[list[str]]) -> None:
        nonlocal relation
        if relation is None:
            relation = Relation(Schema(header, name=inferred_name), backend=SQL)
        if batch:
            relation.append_rows(batch)

    with open_source() as handle:
        pending_header = has_header
        batch: list[list[str]] = []
        for row in csv.reader(handle, delimiter=delimiter):
            if not row:
                continue
            saw_any = True
            if pending_header:
                pending_header = False
                if column_names is None:
                    header = [cell.strip() for cell in row]
                continue
            width = len(header)
            batch.append((list(row) + [""] * (width - len(row)))[:width])
            if len(batch) >= BATCH_ROWS:
                flush(batch)
                batch = []
        if not saw_any:
            raise SchemaError(f"CSV source {inferred_name!r} contains no rows")
        flush(batch)
    assert relation is not None
    return relation


def estimate_csv_rows(source: Union[str, Path], has_header: bool = True) -> int:
    """A cheap data-row estimate for a CSV path: line count minus header.

    Reads the file in binary chunks without parsing (quoted newlines count,
    so this can overestimate) — intended for backend auto-selection budgets,
    not exact accounting.  Two edges are pinned exactly: an empty (0-byte)
    file estimates 0 rows, and a final line without a trailing newline still
    counts as a line.  ``has_header=False`` skips the header subtraction for
    headerless files.
    """
    count = 0
    last = b"\n"
    with Path(source).open("rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            count += chunk.count(b"\n")
            last = chunk[-1:]
    if last != b"\n":
        count += 1  # unterminated final line
    return max(0, count - 1 if has_header else count)


def write_csv(
    relation: Relation,
    destination: Union[str, Path, io.TextIOBase],
    delimiter: str = ",",
    include_header: bool = True,
) -> None:
    """Write ``relation`` to a CSV file or open text stream."""
    if isinstance(destination, (str, Path)):
        path = Path(destination)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as handle:
            _write_csv_to(relation, handle, delimiter, include_header)
    else:
        _write_csv_to(relation, destination, delimiter, include_header)


def _write_csv_to(
    relation: Relation, handle, delimiter: str, include_header: bool
) -> None:
    writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
    if include_header:
        writer.writerow(relation.schema.attribute_names)
    for row in relation.iter_rows():
        writer.writerow(row)


def relation_to_csv_string(relation: Relation, delimiter: str = ",") -> str:
    """The relation serialized as a CSV string (round-trips via read_csv)."""
    buffer = io.StringIO()
    _write_csv_to(relation, buffer, delimiter, include_header=True)
    return buffer.getvalue()


def relation_from_csv_string(
    text: str, name: str = "R", delimiter: Optional[str] = None
) -> Relation:
    """Parse a CSV string into a relation (inverse of the writer)."""
    return read_csv(io.StringIO(text), name=name, delimiter=delimiter)


def _sniff_delimiter(text: str) -> str:
    sample = text[:4096]
    try:
        dialect = csv.Sniffer().sniff(sample, delimiters=",;\t|")
        return dialect.delimiter
    except csv.Error:
        return ","
