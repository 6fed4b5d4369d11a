"""The persistent per-tenant constraint registry.

One directory per tenant under a registry root::

    <root>/
      <tenant>/
        pfds.json   — the tenant's discovered PFD set (the existing
                      ``pfd-set/1`` JSON format, written by ``save_pfds``
                      with a metadata block: discovery config, row count,
                      and format version), and
        data.csv    — the tenant's table, kept current by ``load`` (full
                      rewrite) and by every write endpoint's mutation
                      batch: appended at the end when the batch only
                      appended rows (every ``ingest``), atomically
                      rewritten otherwise.

This is the durable half of the serving tier: the LRU session manager may
evict a cold tenant's live :class:`~repro.session.CleaningSession` at any
time, and a daemon restart drops all of them — the registry is what makes
both invisible to the tenant.  Rehydration reads ``data.csv`` back into a
session and the constraint set out of ``pfds.json``; all engine caches are
rebuilt lazily on the next request (bit-identical, per the append/rebuild
parity the engine pins elsewhere).

Writes go through a temp-file-then-rename so a crash mid-save never leaves
a half-written document behind; an append (:meth:`ConstraintRegistry.append_data`)
has no such guard yet.  When a mirror write raises, the service evicts the
tenant's live session, so memory never runs ahead of this directory.
"""

from __future__ import annotations

import csv
import os
import re
import shutil
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..core.pfd import PFD
from ..core.serialization import load_pfds_document, pfds_to_json
from ..dataset.csvio import read_csv, write_csv
from ..dataset.relation import Relation
from ..exceptions import ServiceError, UnknownTenantError

#: Tenant names become directory names; keep them to a safe charset.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_PFDS_FILE = "pfds.json"
_DATA_FILE = "data.csv"


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

    # -- layout --------------------------------------------------------------

    def tenant_dir(self, tenant: str) -> Path:
        return self.root / validate_tenant_name(tenant)

    def constraints_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / _PFDS_FILE

    def data_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / _DATA_FILE

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
        """Persist a tenant's table as CSV (atomic replace); returns the path."""
        directory = self.tenant_dir(tenant)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / _DATA_FILE
        temp = path.with_suffix(".csv.tmp")
        write_csv(relation, temp)
        os.replace(temp, path)
        return path

    def append_data(self, tenant: str, rows: Iterable[Sequence[str]]) -> int:
        """Append rows to a tenant's stored CSV (the durable mirror of an
        appends-only mutation batch); returns the number of rows written."""
        path = self.data_path(tenant)
        if not path.exists():
            raise UnknownTenantError(
                f"tenant {tenant!r} has no stored table to append to"
            )
        written = 0
        with path.open("a", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            for row in rows:
                writer.writerow(row)
                written += 1
        return written

    def load_data(self, tenant: str, backend: Optional[str] = None) -> Relation:
        """Read a tenant's stored table back into a relation."""
        path = self.data_path(tenant)
        if not path.exists():
            raise UnknownTenantError(
                f"tenant {tenant!r} has no stored table: load one first"
            )
        return read_csv(path, name=tenant, backend=backend)

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
