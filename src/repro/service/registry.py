"""The persistent per-tenant constraint registry.

One directory per tenant under a registry root::

    <root>/
      <tenant>/
        pfds.json   — the tenant's discovered PFD set (the existing
                      ``pfd-set/1`` JSON format, written by ``save_pfds``
                      with a metadata block: discovery config, row count,
                      and format version),
        data.csv    — the tenant's table as of its last ``load`` or
                      compaction, and
        data.log    — every mutation batch applied since, one record per
                      batch (absent when there is none).

This is the durable half of the serving tier: the LRU session manager may
evict a cold tenant's live :class:`~repro.session.CleaningSession` at any
time, and a daemon restart drops all of them — the registry is what makes
both invisible to the tenant.  Rehydration reads ``data.csv`` back, replays
``data.log`` over it, and reads the constraint set out of ``pfds.json``;
all engine caches are rebuilt lazily on the next request (bit-identical,
per the append/rebuild parity the engine pins elsewhere).

The log is append-only, so a write costs I/O in proportion to the batch,
not the table.  Each record is framed as a little-endian ``uint32`` payload
length, the payload's CRC32, and the payload: a
:func:`~repro.dataset.mutations.batch_from_document` JSON document of the
batch's post-images (the full rows of updated rows, the ids of deleted
rows, the appended rows and their start id).  The first record names the
``data.csv`` the log follows (its byte size and CRC32).  An append is
fsynced before the service answers; a failed append is truncated away.
Rehydration cuts a torn or corrupt tail at its first bad record, and
discards a log whose first record names another ``data.csv``.

When a batch would make the log larger than ``data.csv``, the batch is
mirrored by compaction instead: ``data.csv`` is rewritten from the live
table (temp file, fsync, rename) and the log is removed.  A crash after the
rename leaves a log that names the old ``data.csv``, so it is discarded; a
crash before it leaves the old pair intact.  ``load`` writes the same way.
When a mirror write raises, the service evicts the tenant's live session,
so memory never runs ahead of this directory.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import struct
import threading
import zlib
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from ..core.pfd import PFD
from ..core.serialization import load_pfds_document, pfds_to_json
from ..dataset.csvio import read_csv, write_csv
from ..dataset.mutations import MutationResult, batch_from_document
from ..dataset.relation import Relation
from ..exceptions import ServiceError, UnknownTenantError

#: Tenant names become directory names; keep them to a safe charset.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_PFDS_FILE = "pfds.json"
_DATA_FILE = "data.csv"
_LOG_FILE = "data.log"

#: A log record's frame: payload length and the payload's CRC32.
_FRAME = struct.Struct("<II")


def validate_tenant_name(tenant: str) -> str:
    """Return ``tenant`` if it is a safe registry directory name, else raise."""
    if not isinstance(tenant, str) or not _TENANT_NAME.match(tenant):
        raise ServiceError(
            f"invalid tenant name {tenant!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], starting with a letter or digit"
        )
    return tenant


class ConstraintRegistry:
    """Durable per-tenant storage for tables and discovered PFD sets."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._locks_guard = threading.Lock()
        self._file_locks: dict[str, threading.RLock] = {}

    # -- layout --------------------------------------------------------------

    def tenant_dir(self, tenant: str) -> Path:
        return self.root / validate_tenant_name(tenant)

    def constraints_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / _PFDS_FILE

    def data_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / _DATA_FILE

    def log_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / _LOG_FILE

    def _file_lock(self, tenant: str) -> threading.RLock:
        """Serializes a tenant's ``data.csv``/``data.log`` I/O, so that a
        rehydration repairing the log never cuts a record being appended."""
        with self._locks_guard:
            return self._file_locks.setdefault(tenant, threading.RLock())

    def tenants(self) -> list[str]:
        """Tenant names with any durable state, sorted."""
        if not self.root.is_dir():
            return []
        names = []
        for entry in self.root.iterdir():
            if not entry.is_dir() or not _TENANT_NAME.match(entry.name):
                continue
            if (entry / _DATA_FILE).exists() or (entry / _PFDS_FILE).exists():
                names.append(entry.name)
        return sorted(names)

    def has_tenant(self, tenant: str) -> bool:
        directory = self.tenant_dir(tenant)
        return (directory / _DATA_FILE).exists() or (directory / _PFDS_FILE).exists()

    def require_tenant(self, tenant: str) -> None:
        if not self.has_tenant(tenant):
            raise UnknownTenantError(
                f"unknown tenant {tenant!r}: load a table for it first"
            )

    # -- constraints ---------------------------------------------------------

    def save_constraints(
        self,
        tenant: str,
        pfds: Sequence[PFD],
        metadata: Optional[Mapping[str, object]] = None,
    ) -> Path:
        """Persist a tenant's PFD set (atomic replace); returns the path."""
        directory = self.tenant_dir(tenant)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / _PFDS_FILE
        _atomic_write_text(path, pfds_to_json(pfds, metadata=metadata))
        return path

    def load_constraints(self, tenant: str) -> tuple[Optional[list[PFD]], dict]:
        """The tenant's persisted PFD set and metadata, or ``(None, {})``."""
        path = self.constraints_path(tenant)
        if not path.exists():
            return None, {}
        return load_pfds_document(path)

    def has_constraints(self, tenant: str) -> bool:
        return self.constraints_path(tenant).exists()

    # -- data ----------------------------------------------------------------

    def save_data(self, tenant: str, relation: Relation) -> Path:
        """Write a tenant's table as ``data.csv`` and empty its log (``load``
        and compaction); returns the path.

        The new CSV is fsynced before it replaces the old one, and the log
        is removed only after the rename is durable: a crash in between
        leaves a log naming the old CSV, which :meth:`load_data` discards.
        """
        directory = self.tenant_dir(tenant)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / _DATA_FILE
        temp = path.with_suffix(".csv.tmp")
        with self._file_lock(tenant):
            try:
                write_csv(relation, temp)
                with temp.open("rb") as handle:
                    os.fsync(handle.fileno())
                os.replace(temp, path)
            except BaseException:
                temp.unlink(missing_ok=True)
                raise
            _fsync_directory(directory)
            self.log_path(tenant).unlink(missing_ok=True)
            _fsync_directory(directory)
        return path

    def append_data(self, tenant: str, relation: Relation, result: MutationResult) -> int:
        """Mirror one applied batch (``result`` of ``relation.apply``) as a
        log record, fsynced; returns the bytes written.

        When the record would make the log larger than ``data.csv``, the
        table is compacted instead (:meth:`save_data`), which holds the
        batch too.  If the append fails, the log is truncated back to its
        last record before the error propagates.
        """
        path = self.data_path(tenant)
        log = self.log_path(tenant)
        record = _frame(_post_images(relation, result))
        with self._file_lock(tenant):
            if not path.exists():
                raise UnknownTenantError(
                    f"tenant {tenant!r} has no stored table to append to"
                )
            try:
                offset = log.stat().st_size
            except FileNotFoundError:
                offset = 0
            if offset == 0:
                record = _frame(_fingerprint(path)) + record
            if offset + len(record) > path.stat().st_size:
                self.save_data(tenant, relation)
                return path.stat().st_size
            _append(log, record, offset)
            if offset == 0:
                _fsync_directory(log.parent)
        return len(record)

    def load_data(self, tenant: str, backend: Optional[str] = None) -> Relation:
        """Read a tenant's table back: ``data.csv``, then its log replayed.

        Repairs the log on the way: a torn or corrupt tail is truncated at
        its first bad record, and a log that names another ``data.csv`` is
        removed, so later appends follow the last record replayed here.
        """
        path = self.data_path(tenant)
        with self._file_lock(tenant):
            if not path.exists():
                raise UnknownTenantError(
                    f"tenant {tenant!r} has no stored table: load one first"
                )
            relation = read_csv(path, name=tenant, backend=backend)
            for document in self._read_log(tenant):
                start = document.get("start", relation.row_count)
                if start != relation.row_count:
                    raise ServiceError(
                        f"{self.log_path(tenant)} appends at row {start}, "
                        f"but the table has {relation.row_count} rows"
                    )
                relation.apply(batch_from_document(document))
        return relation

    def _read_log(self, tenant: str) -> list[dict]:
        """The batch documents of a tenant's log, after repairing it."""
        log = self.log_path(tenant)
        try:
            raw = log.read_bytes()
        except FileNotFoundError:
            return []
        payloads, end = _unframe(raw)
        if not payloads or json.loads(payloads[0]) != _fingerprint(self.data_path(tenant)):
            log.unlink()
            _fsync_directory(log.parent)
            return []
        if end < len(raw):
            with log.open("r+b") as handle:
                handle.truncate(end)
                os.fsync(handle.fileno())
        return [json.loads(payload) for payload in payloads[1:]]

    def has_data(self, tenant: str) -> bool:
        return self.data_path(tenant).exists()

    # -- lifecycle -----------------------------------------------------------

    def delete(self, tenant: str) -> bool:
        """Remove a tenant's durable state; returns whether anything existed."""
        directory = self.tenant_dir(tenant)
        if not directory.exists():
            return False
        shutil.rmtree(directory)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstraintRegistry({str(self.root)!r}, tenants={len(self.tenants())})"


def _atomic_write_text(path: Path, text: str) -> None:
    temp = path.with_suffix(path.suffix + ".tmp")
    temp.write_text(text, encoding="utf-8")
    os.replace(temp, path)


def _post_images(relation: Relation, result: MutationResult) -> dict:
    """A batch's effect as a ``batch_from_document`` document: replaying
    it on the pre-batch table reproduces the post-batch one."""
    names = relation.attribute_names
    document: dict = {}
    if result.updated_rows:
        document["ops"] = [
            {"op": "update", "row": row_id, "values": dict(zip(names, relation.row(row_id)))}
            for row_id in result.updated_rows
        ]
    if result.deleted_rows:
        document["delete"] = list(result.deleted_rows)
    if len(result.appended):
        document["start"] = result.appended.start
        document["rows"] = [list(relation.row(row_id)) for row_id in result.appended]
    return document


def _fingerprint(path: Path) -> dict:
    """The byte size and CRC32 of ``path``: the first record of its log."""
    crc, size = 0, 0
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return {"csv_bytes": size, "csv_crc32": crc}


def _frame(document: Mapping) -> bytes:
    payload = json.dumps(document, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _unframe(raw: bytes) -> tuple[list[bytes], int]:
    """The payloads of ``raw``'s leading intact records, and where they end."""
    payloads: list[bytes] = []
    offset = 0
    while offset + _FRAME.size <= len(raw):
        length, crc = _FRAME.unpack_from(raw, offset)
        start = offset + _FRAME.size
        payload = raw[start : start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        offset = start + length
    return payloads, offset


def _append(path: Path, data: bytes, offset: int) -> None:
    """Append ``data`` to ``path`` (``offset`` bytes long) and fsync it;
    on failure, truncate the file back to ``offset``."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.fsync(fd)
    except BaseException:
        try:
            os.ftruncate(fd, offset)
        except OSError:
            pass  # rehydration cuts the torn record instead
        raise
    finally:
        os.close(fd)


def _fsync_directory(directory: Path) -> None:
    """Make a rename, creation or removal in ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
