"""The cleaning service application: tenants, stages, counters.

:class:`CleaningService` is the transport-independent core of the daemon —
the HTTP layer (:mod:`repro.service.http`) is a thin JSON codec over it, and
the unit tests drive it directly.  One instance owns

* a :class:`~repro.service.registry.ConstraintRegistry` (durable state),
* a :class:`~repro.service.manager.SessionManager` (LRU-bounded live
  sessions), and
* per-endpoint request counters with latency reservoirs (p50/p95).

Concurrency contract (per tenant, via the runtime's RW lock):

=============  ==========  =====================================================
endpoint       lock side   why
=============  ==========  =====================================================
``profile``    read        memoized pure computation
``detect``     read        evaluates against the session's caches
``validate``   read        same
``repair``     read        repairs a *copy*; the session is not mutated
``load``       write\\*     replaces the tenant's table and runtime
``discover``   write       replaces the tenant's active constraint set
``ingest``     write       a :class:`MutationBatch` of appends through ``_mutate``
``update``     write       a :class:`MutationBatch` patches the engine caches
``delete``     write       tombstone deletes, same delta-maintenance path
=============  ==========  =====================================================

(\\* ``load`` installs a fresh runtime; the write lock is taken on the old
one so in-flight readers drain first.)

A checked-out runtime can stop being the tenant's live one while a request
queues on its lock (``load`` replaces it, ``DELETE`` drops it, LRU evicts
it).  Every stage therefore re-verifies, after acquiring, that its runtime
is still current and retries on a fresh checkout otherwise — a request
never reads from or writes to an orphaned session.

Reads may still *compute* (a cold rehydrated tenant's first ``detect``
builds caches); the session's internal state lock makes that safe when many
readers land at once, and the memoized result makes every later read a
cache hit.  Stage results returned to the wire are plain JSON documents
assembled while the lock is held, so a report always describes one
consistent relation version — never a torn view across an append.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics
import threading
import time
from typing import Iterator, Mapping, Optional, Sequence, Union

from .. import __version__
from ..cleaning.detector import DetectionReport
from ..cleaning.repair import RepairResult
from ..dataset.csvio import read_csv
from ..dataset.mutations import MutationBatch, UpsertOp, batch_from_document
from ..dataset.profiler import TableProfile
from ..discovery.config import DiscoveryConfig
from ..exceptions import ReproError, ServiceError
from ..session import CleaningSession, ValidationReport
from .manager import SessionManager, TenantRuntime
from .registry import ConstraintRegistry

#: Discovery knobs a request body may set (subset of DiscoveryConfig).
_CONFIG_KEYS = (
    "min_support",
    "noise_ratio",
    "min_coverage",
    "max_lhs_size",
    "generalize",
    "workers",
)


class _LatencyReservoir:
    """Per-endpoint latency samples (bounded ring) with p50/p95 summaries."""

    def __init__(self, capacity: int = 512):
        self._capacity = capacity
        self._samples: list[float] = []
        self._next = 0
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if len(self._samples) < self._capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._next] = seconds
            self._next = (self._next + 1) % self._capacity

    def percentiles(self) -> dict:
        if not self._samples:
            return {"count": 0}
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "mean_ms": round(self.total_seconds / self.count * 1e3, 3),
            "p50_ms": round(_quantile(ordered, 0.50) * 1e3, 3),
            "p95_ms": round(_quantile(ordered, 0.95) * 1e3, 3),
        }


def _quantile(ordered: Sequence[float], q: float) -> float:
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[
        max(0, min(98, round(q * 100) - 1))
    ]


class CleaningService:
    """Concurrent cleaning sessions over a persistent constraint registry."""

    def __init__(
        self,
        registry: Union[str, ConstraintRegistry],
        max_sessions: int = 8,
        config: Optional[DiscoveryConfig] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ):
        self.registry = (
            registry
            if isinstance(registry, ConstraintRegistry)
            else ConstraintRegistry(registry)
        )
        self.manager = SessionManager(
            self.registry,
            max_sessions=max_sessions,
            config=config,
            backend=backend,
            workers=workers,
        )
        self.started_at = time.time()
        self._counter_lock = threading.Lock()
        self._latencies: dict[str, _LatencyReservoir] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, endpoint: str, seconds: float) -> None:
        with self._counter_lock:
            reservoir = self._latencies.get(endpoint)
            if reservoir is None:
                reservoir = self._latencies[endpoint] = _LatencyReservoir()
            reservoir.record(seconds)

    def _timed(self, endpoint: str):
        service = self

        class _Timer:
            def __enter__(self) -> "_Timer":
                self._start = time.perf_counter()
                return self

            def __exit__(self, *exc_info) -> None:
                service._record(endpoint, time.perf_counter() - self._start)

        return _Timer()

    # -- tenant locking ------------------------------------------------------

    @contextlib.contextmanager
    def _tenant_locked(self, tenant: str, write: bool = False) -> Iterator[TenantRuntime]:
        """Checkout ``tenant``'s runtime with its lock held *and current*.

        Between ``checkout`` and the lock acquisition the runtime can be
        replaced (``load``), dropped, or LRU-evicted — waking up on an
        orphaned runtime's lock would mutate a discarded session while the
        durable mirror (``data.csv`` / ``data.log`` / ``pfds.json``)
        already belongs to the new one.  So after acquiring, verify the
        runtime is still the live one for the tenant and retry on a fresh
        checkout if not.
        """
        while True:
            runtime = self.manager.checkout(tenant)
            lock = runtime.lock
            acquire = lock.acquire_write if write else lock.acquire_read
            release = lock.release_write if write else lock.release_read
            acquire()
            if self.manager.peek(tenant) is runtime:
                break
            release()
        try:
            yield runtime
        finally:
            release()

    # -- tenant data ---------------------------------------------------------

    def load_tenant(
        self,
        tenant: str,
        csv_text: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
        rows: Optional[Sequence[Sequence[str]]] = None,
    ) -> dict:
        """Create (or replace) a tenant's table from CSV text or rows."""
        with self._timed("load"):
            relation = self._parse_table(tenant, csv_text, columns, rows)
            # Drain in-flight requests on the previous table before the
            # durable state and the runtime flip underneath them.  The
            # peeked runtime may itself be replaced while we queue on its
            # write lock, so verify it is still current after acquiring.
            while True:
                old = self.manager.peek(tenant)
                if old is None:
                    break
                old.lock.acquire_write()
                if self.manager.peek(tenant) is old:
                    break
                old.lock.release_write()
            try:
                self.registry.save_data(tenant, relation)
                runtime = self.manager.create(tenant, relation)
                # A reloaded table keeps its persisted constraints (if any):
                # tenants re-upload data far more often than they re-discover.
                pfds, metadata = self.registry.load_constraints(tenant)
                runtime.pfds = pfds
                runtime.constraint_metadata = metadata
            finally:
                if old is not None:
                    # No request is inside the drained runtime (we hold its
                    # write lock), so its worker pool can shut down safely;
                    # writers still queued on this lock will notice the
                    # runtime is stale and retry against the new one.
                    old.session.close()
                    old.lock.release_write()
            return {
                "tenant": tenant,
                "rows": relation.row_count,
                "columns": list(relation.attribute_names),
                "constraints": len(pfds) if pfds is not None else 0,
            }

    def _parse_table(self, tenant, csv_text, columns, rows):
        from ..dataset.relation import Relation

        if csv_text is not None:
            if not isinstance(csv_text, str):
                raise ServiceError("'csv' must be a string of CSV text")
            try:
                return read_csv(io.StringIO(csv_text), name=tenant)
            except ReproError as error:
                raise ServiceError(f"could not parse CSV for {tenant!r}: {error}")
        if columns is not None and rows is not None:
            try:
                return Relation.from_rows(list(columns), rows, name=tenant)
            except ReproError as error:
                raise ServiceError(f"could not build table for {tenant!r}: {error}")
        raise ServiceError("load needs either 'csv' text or 'columns' + 'rows'")

    # -- pipeline stages -----------------------------------------------------

    def profile(self, tenant: str) -> dict:
        with self._timed("profile"):
            with self._tenant_locked(tenant) as runtime:
                return _profile_doc(runtime.session.profile(), runtime)

    def discover(self, tenant: str, **config_kwargs) -> dict:
        """Run discovery, activate + persist the resulting constraint set."""
        with self._timed("discover"):
            config = self._parse_config(config_kwargs)
            with self._tenant_locked(tenant, write=True) as runtime:
                result = runtime.session.discover(config)
                metadata = {
                    "tenant": tenant,
                    "rows": runtime.session.relation.row_count,
                    "config": {
                        key: getattr(result.config, key) for key in _CONFIG_KEYS[:-1]
                    },
                    "runtime_seconds": result.runtime_seconds,
                    "saved_at": time.time(),
                }
                self.registry.save_constraints(tenant, result.pfds, metadata=metadata)
                runtime.pfds = result.pfds
                runtime.constraint_metadata = metadata
                return {
                    "tenant": tenant,
                    "constraints": len(result.pfds),
                    "pfds": [str(pfd) for pfd in result.pfds],
                    "candidates": result.candidate_count,
                    "runtime_seconds": round(result.runtime_seconds, 6),
                    "persisted": str(self.registry.constraints_path(tenant)),
                }

    def _parse_config(self, config_kwargs: dict) -> Optional[DiscoveryConfig]:
        if not config_kwargs:
            return None
        unknown = set(config_kwargs) - set(_CONFIG_KEYS)
        if unknown:
            raise ServiceError(
                f"unknown discovery option(s) {sorted(unknown)}; "
                f"supported: {list(_CONFIG_KEYS)}"
            )
        try:
            return DiscoveryConfig(**config_kwargs)
        except ReproError as error:
            raise ServiceError(f"invalid discovery config: {error}")

    def _active_pfds(self, runtime: TenantRuntime) -> list:
        if runtime.pfds is None:
            raise ServiceError(
                f"tenant {runtime.name!r} has no constraint set: run discover first",
                status=409,
            )
        return runtime.pfds

    def detect(self, tenant: str, min_evidence: int = 1) -> dict:
        with self._timed("detect"):
            with self._tenant_locked(tenant) as runtime:
                pfds = self._active_pfds(runtime)
                report = runtime.session.detect(pfds, min_evidence=min_evidence)
                return _detection_doc(report, runtime, kind="detect")

    def validate(self, tenant: str) -> dict:
        with self._timed("validate"):
            with self._tenant_locked(tenant) as runtime:
                pfds = self._active_pfds(runtime)
                report = runtime.session.validate(pfds)
                return _validation_doc(report, runtime)

    def repair(self, tenant: str, min_evidence: int = 1) -> dict:
        """Detect + repair on a *copy*; the tenant's stored table is not
        modified (repairs are suggestions until the tenant re-loads)."""
        with self._timed("repair"):
            with self._tenant_locked(tenant) as runtime:
                pfds = self._active_pfds(runtime)
                result = runtime.session.repair(pfds, min_evidence=min_evidence)
                return _repair_doc(result, runtime)

    def ingest(
        self,
        tenant: str,
        rows: Optional[Sequence[Sequence[str]]] = None,
        csv_text: Optional[str] = None,
        min_evidence: int = 1,
    ) -> dict:
        """Append a batch and report only the errors around the appended
        rows: a :class:`MutationBatch` of appends through the same write
        path as :meth:`update`."""
        batch, batch_columns = self._parse_batch(rows, csv_text)
        return self._mutate(
            tenant,
            MutationBatch.appends(batch),
            kind="ingest",
            min_evidence=min_evidence,
            columns=batch_columns,
        )

    def update(self, tenant: str, document: dict, min_evidence: int = 1) -> dict:
        """Apply a mutation document (cells / delete / rows / ops) and report
        only the errors around the touched rows.

        The document is the shared wire form of
        :func:`~repro.dataset.mutations.batch_from_document` — the same
        schema the CLI ``update`` subcommand reads from its ops file.  The
        engine caches are patched in place and detection is scoped to the
        changed rows (:meth:`CleaningSession.detect_changed`); the mutated
        table is durably mirrored into the registry.
        """
        try:
            batch = batch_from_document(document)
        except ReproError as error:
            raise ServiceError(str(error))
        return self._mutate(tenant, batch, kind="update", min_evidence=min_evidence)

    def delete_rows(self, tenant: str, row_ids: Sequence[int], min_evidence: int = 1) -> dict:
        """Tombstone rows (cells blank, ids stay stable) and report only the
        errors around the touched classes — same report document as
        :meth:`update`."""
        if not isinstance(row_ids, (list, tuple)) or not row_ids:
            raise ServiceError("'rows' must be a non-empty list of row ids")
        try:
            batch = MutationBatch.deletes(row_ids)
        except (ReproError, TypeError, ValueError):
            raise ServiceError(f"'rows' must be a list of integer row ids, got {row_ids!r}")
        return self._mutate(tenant, batch, kind="delete", min_evidence=min_evidence)

    def _mutate(
        self,
        tenant: str,
        batch: MutationBatch,
        kind: str,
        min_evidence: int,
        columns: Optional[Sequence[str]] = None,
    ) -> dict:
        """The one write path: check, apply, mirror, scoped detect.

        Appended rows are checked against the live table's schema under
        the write lock (``columns`` is an ingest batch's own CSV header).
        The registry mirror appends the applied batch's post-images to the
        tenant's log and fsyncs it before the response is built, so an
        acknowledged write survives a crash (tombstoned rows persist as
        blank rows, keeping ids stable across rehydration).  The mirror
        follows ``apply`` because post-images exist only then, and a batch
        that ``apply`` rejects is never logged.  If the mirror fails, the
        tenant's runtime is evicted, so the next request rehydrates from
        what the registry holds instead of serving rows it never stored.

        Every write endpoint reports through one schema: ``_detection_doc``
        plus ``rows_before`` and the mutation counters.
        """
        with self._timed(kind):
            with self._tenant_locked(tenant, write=True) as runtime:
                session = runtime.session
                names = session.relation.attribute_names
                if columns is not None and tuple(columns) != names:
                    raise ServiceError(
                        f"{kind} columns {list(columns)} do not match "
                        f"table columns {list(names)} of tenant {tenant!r}"
                    )
                for op in batch:
                    if not isinstance(op, UpsertOp):
                        continue
                    for row in op.rows:
                        if not isinstance(row, Mapping) and len(row) != len(names):
                            raise ServiceError(
                                f"{kind} row {row!r} has {len(row)} fields, "
                                f"table {runtime.name!r} has {len(names)} columns"
                            )
                pfds = self._active_pfds(runtime)
                rows_before = session.relation.row_count
                try:
                    result = session.apply(batch)
                except ReproError as error:
                    raise ServiceError(str(error))
                if result:
                    try:
                        self.registry.append_data(tenant, session.relation, result)
                    except BaseException:
                        self.manager.evict(tenant)
                        raise
                    report = session.detect_changed(pfds, min_evidence=min_evidence)
                else:
                    report = DetectionReport(
                        relation_name=session.relation.name, errors=[], violations=[]
                    )
                doc = _detection_doc(report, runtime, kind=kind)
                doc["rows_before"] = rows_before
                doc["rows_updated"] = len(result.updated_rows)
                doc["rows_deleted"] = len(result.deleted_rows)
                doc["rows_appended"] = len(result.appended)
                doc["appended_start"] = result.appended.start if len(result.appended) else None
                doc["changed_rows"] = list(result.changed_rows)
                return doc

    def _parse_batch(
        self, rows, csv_text
    ) -> tuple[list[Sequence[str]], Optional[Sequence[str]]]:
        """The batch rows, plus the batch's own column names when it came as
        CSV text (with header, same as ``pfd-discover ingest`` batch files)
        — checked against the tenant's schema under the write lock."""
        if rows is not None:
            if not isinstance(rows, (list, tuple)):
                raise ServiceError("'rows' must be a list of rows")
            return list(rows), None
        if csv_text is not None:
            try:
                parsed = read_csv(io.StringIO(csv_text), name="batch")
            except ReproError as error:
                raise ServiceError(f"could not parse ingest CSV: {error}")
            return [list(row) for row in parsed.iter_rows()], parsed.attribute_names
        raise ServiceError("ingest needs either 'rows' or 'csv' text")

    # -- tenants / observability ---------------------------------------------

    def list_tenants(self) -> dict:
        live = set(self.manager.live_tenants())
        tenants = []
        for name in self.registry.tenants():
            tenants.append(
                {
                    "tenant": name,
                    "live": name in live,
                    "has_constraints": self.registry.has_constraints(name),
                    "has_data": self.registry.has_data(name),
                }
            )
        return {"tenants": tenants, "live": sorted(live)}

    def tenant_info(self, tenant: str) -> dict:
        self.registry.require_tenant(tenant)
        runtime = self.manager.peek(tenant)
        pfds, metadata = self.registry.load_constraints(tenant)
        doc = {
            "tenant": tenant,
            "live": runtime is not None,
            "constraints": len(pfds) if pfds is not None else 0,
            "constraint_metadata": metadata,
            "has_data": self.registry.has_data(tenant),
        }
        if runtime is not None:
            doc["rows"] = runtime.session.relation.row_count
            doc["requests"] = runtime.requests
        return doc

    def drop_tenant(self, tenant: str) -> dict:
        # Evict + delete under the tenant's write lock so an in-flight
        # request either completes fully before the drop, or wakes up on a
        # stale runtime, retries, and gets a clean 404 — never half-applied
        # state (an append racing the registry rmtree, say).
        while True:
            runtime = self.manager.peek(tenant)
            if runtime is None:
                break
            runtime.lock.acquire_write()
            try:
                if self.manager.peek(tenant) is not runtime:
                    continue  # replaced/evicted while we queued; re-peek
                self.manager.evict(tenant)
                existed = self.registry.delete(tenant)
                return {"tenant": tenant, "deleted": existed}
            finally:
                runtime.lock.release_write()
        existed = self.registry.delete(tenant)
        return {"tenant": tenant, "deleted": existed}

    def stats(self) -> dict:
        """Service counters + per-live-tenant ``SessionStats``."""
        manager_stats = self.manager.stats()
        with self._counter_lock:
            endpoints = {
                name: reservoir.percentiles()
                for name, reservoir in sorted(self._latencies.items())
            }
        sessions = {}
        for name in manager_stats.live_tenants:
            runtime = self.manager.peek(name)
            if runtime is None:  # evicted between the snapshot and now
                continue
            with runtime.lock.read_locked():
                doc = runtime.session.stats().to_json_dict()
            doc["requests"] = runtime.requests
            doc["constraints"] = (
                len(runtime.pfds) if runtime.pfds is not None else 0
            )
            doc["lock"] = {
                "reads": runtime.lock.read_acquisitions,
                "writes": runtime.lock.write_acquisitions,
                "max_concurrent_readers": runtime.lock.max_concurrent_readers,
            }
            sessions[name] = doc
        return {
            "version": __version__,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "registry": str(self.registry.root),
            "registered_tenants": len(self.registry.tenants()),
            "sessions": {
                "max": manager_stats.max_sessions,
                "live": manager_stats.live,
                "live_tenants": list(manager_stats.live_tenants),
                "created": manager_stats.created,
                "evicted": manager_stats.evicted,
                "rehydrated": manager_stats.rehydrated,
                "eviction_skips": manager_stats.eviction_skips,
            },
            "endpoints": endpoints,
            "tenant_sessions": sessions,
        }

    def health(self) -> dict:
        return {"status": "ok", "version": __version__}

    def close(self) -> None:
        """Release every live session (durable state stays in the registry)."""
        self.manager.close()

    def __enter__(self) -> "CleaningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- JSON documents -----------------------------------------------------------


def _runtime_header(runtime: TenantRuntime) -> dict:
    return {
        "tenant": runtime.name,
        "rows": runtime.session.relation.row_count,
    }


def _profile_doc(profile: TableProfile, runtime: TenantRuntime) -> dict:
    doc = _runtime_header(runtime)
    doc["columns"] = [
        {
            "name": column.name,
            "role": column.role.name,
            "strategy": column.strategy,
            "distinct": column.distinct_count,
            "non_empty": column.non_empty_count,
            "usable_for_pfd": column.usable_for_pfd,
        }
        for column in profile.columns
    ]
    return doc


def _detection_doc(report: DetectionReport, runtime: TenantRuntime, kind: str) -> dict:
    doc = _runtime_header(runtime)
    doc.update(
        {
            "kind": kind,
            "backend": report.backend,
            "error_count": len(report.errors),
            "violation_count": len(report.violations),
            "clean": not report.errors,
            "errors": [
                {
                    "row": error.cell.row_id,
                    "attribute": error.cell.attribute,
                    "value": error.current_value,
                    "suggested": error.suggested_value,
                    "evidence": error.evidence_count,
                    "constraints": list(error.constraints),
                }
                for error in report.errors
            ],
        }
    )
    return doc


def _validation_doc(report: ValidationReport, runtime: TenantRuntime) -> dict:
    doc = _runtime_header(runtime)
    doc.update(
        {
            "entries": [
                {
                    "pfd": str(entry.pfd),
                    "coverage": entry.coverage,
                    "violations": entry.violation_count,
                    "holds": entry.holds,
                }
                for entry in report.entries
            ],
            "holding": report.holding_count,
            "total_violations": report.total_violations,
            "all_hold": report.all_hold,
        }
    )
    return doc


def _repair_doc(result: RepairResult, runtime: TenantRuntime) -> dict:
    doc = _runtime_header(runtime)
    remaining = result.remaining_error_cells
    doc.update(
        {
            "repairs": [
                {
                    "row": repair.cell.row_id,
                    "attribute": repair.cell.attribute,
                    "old": repair.old_value,
                    "new": repair.new_value,
                    "justification": list(repair.justification),
                }
                for repair in result.repairs
            ],
            "repair_count": len(result.repairs),
            "unresolved": len(result.unresolved),
            "remaining_errors": len(remaining) if remaining is not None else None,
            "clean": not remaining if remaining is not None else None,
        }
    )
    return doc


def session_stats_doc(session: CleaningSession) -> dict:
    """Convenience used by tests: a session's stats as the service emits."""
    return dataclasses.asdict(session.stats())
