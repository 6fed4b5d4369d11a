"""The :class:`CleaningSession` facade — one stateful object over the whole
profile → discover → detect → repair → validate pipeline.

The paper's workflow is inherently staged: induce patterns, discover PFDs,
then detect and repair errors *against the same table*.  The engine layers
built underneath (dictionary-encoded columns, the memoized
:class:`~repro.engine.evaluator.PatternEvaluator`, shared-DFA pattern sets,
and the stripped-partition cache) all amortize work across stages — but only
if the stages actually share them.  Free functions over a bare
:class:`~repro.dataset.relation.Relation` make that sharing the caller's
problem: our own CLI used to re-load the data, re-prime the evaluator, and
rebuild partition caches between invocations.

A ``CleaningSession`` owns the relation *plus* all engine state and exposes
the pipeline as chainable, memoized stages::

    session = CleaningSession.from_csv("zips.csv")
    result = session.discover()          # primes dictionaries + partitions
    report = session.detect()            # zero new pattern-set compilations
    repaired = session.repair()          # reuses the memoized detection
    print(session.stats().summary())     # one structured counter object

Each stage

* returns the existing result dataclass (``DiscoveryResult``,
  ``DetectionReport``, ``RepairResult``, plus the new
  :class:`ValidationReport`),
* primes the shared caches exactly once (one evaluator, one partition
  manager, for the session's whole lifetime), and
* is memoized per argument set — and invalidated when the relation mutates
  behind the session's back, by watching :attr:`Relation.version` (which is
  bumped by the same ``append_rows``/``apply`` hooks that delta-maintain the
  dictionary and partition caches).

The historical free functions (:func:`repro.discover_pfds`,
:func:`repro.detect_errors`, :func:`repro.repair_errors`) remain as thin
convenience wrappers that construct a throwaway session.

Ingestion rides the same object, through one delta path: every mutation
— :meth:`CleaningSession.append` included, which is a one-op
:class:`~repro.dataset.mutations.MutationBatch` of appends — goes through
:meth:`CleaningSession.apply` and :meth:`Relation.apply` (which
patch the dictionaries and masks in place and drop only the partitions
over the touched attributes) while keeping the memoized discovery, and accumulates
the rows it touched into one pending delta.
:meth:`CleaningSession.detect_changed` (alias :meth:`~CleaningSession.detect_new`)
re-validates just that delta — only the touched tuples, only equivalence
classes containing them.  The full report survives writes too: it is kept
as a :class:`~repro.cleaning.detector.DetectionView`, and the next
:meth:`CleaningSession.detect` or :meth:`CleaningSession.validate` splices
the changed rows into it instead of re-detecting the table.
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path
from typing import Optional, Sequence, Union

from .cleaning.detector import DetectedError, DetectionReport, DetectionView, ErrorDetector
from .cleaning.repair import Repairer, RepairResult
from .core.pfd import PFD, prime_for_pfds
from .dataset.csvio import estimate_csv_rows, read_csv
from .dataset.mutations import MutationBatch, MutationResult
from .dataset.profiler import TableProfile, profile_relation
from .dataset.relation import Relation
from .dataset.schema import Schema
from .discovery.config import DiscoveryConfig
from .discovery.pfd_discovery import DiscoveryResult, PFDDiscoverer
from .engine.backend import resolve_backend
from .engine.evaluator import PatternEvaluator
from .engine.parallel import ParallelExecutor, resolve_workers
from .engine.partitions import PartitionStats
from .exceptions import ReproError


@dataclasses.dataclass(frozen=True)
class SessionStats:
    """A structured snapshot of one session's shared-cache counters.

    Unifies what ``pfd-discover --stats`` used to print ad hoc: the
    evaluator's match/scan counters, the relation's partition-cache
    counters, and the cache sizes, plus which pipeline stages have run.
    Snapshots are immutable; take one before and one after a stage and
    compare fields to see what the stage actually cost.
    """

    relation_name: str
    row_count: int
    column_count: int
    #: Engine backend the session's relation resolves to (see
    #: :mod:`repro.engine.backend`).
    backend: str
    #: Stage names that have completed on this session, in first-run order.
    stages: tuple[str, ...]
    #: Per-distinct-value ``CompiledPattern.match`` calls issued.
    match_calls: int
    #: ``match_column`` calls answered from the evaluator's memo.
    match_cache_hits: int
    #: Shared-DFA scans (one per distinct value per new-pattern batch).
    multi_scans: int
    #: Patterns that took the per-pattern fallback inside a batch.
    multi_fallbacks: int
    #: Shared-DFA builds requested (a stage reusing the session's evaluator
    #: on an already-primed pattern set requests zero).
    pattern_set_compilations: int
    #: Partition-cache hit/miss counters (lifetime of the relation's manager).
    partitions: PartitionStats
    #: Partitions currently cached on the relation.
    cached_partitions: int
    #: Columns with memoized per-pattern match results.
    cached_match_columns: int
    #: Effective ``workers=`` of the session (1 = serial, no pool).
    workers: int = 1
    #: Workers in the session's current/most recent pool (0 = none created).
    pool_size: int = 0
    #: Parallel task submissions across all stages.
    tasks_dispatched: int = 0
    #: Pickled bytes of relation snapshots broadcast to worker pools.
    bytes_broadcast: int = 0
    #: Wall-clock seconds spent waiting on the pool, per stage name (only
    #: ``"discover"`` uses it).
    parallel_stage_seconds: tuple[tuple[str, float], ...] = ()

    @property
    def partition_hits(self) -> int:
        return self.partitions.hits

    @property
    def partition_misses(self) -> int:
        """Partition builds: every miss built a partition from scratch."""
        return self.partitions.misses

    def summary(self) -> str:
        lines = [
            f"session stats for {self.relation_name!r} "
            f"({self.row_count} rows, {self.column_count} columns, "
            f"{self.backend} backend)",
            f"  stages run: {', '.join(self.stages) if self.stages else '(none)'}",
            f"  pattern matching: {self.match_calls} match calls, "
            f"{self.match_cache_hits} cache hits, "
            f"{self.multi_scans} shared-DFA scans, "
            f"{self.multi_fallbacks} fallbacks, "
            f"{self.pattern_set_compilations} pattern-set compilations",
            f"  {self.partitions.summary()}",
            f"  cached partitions: {self.cached_partitions}",
            f"  cached match columns: {self.cached_match_columns}",
        ]
        if self.workers > 1 or self.pool_size:
            stage_times = ", ".join(
                f"{stage} {seconds:.2f}s" for stage, seconds in self.parallel_stage_seconds
            )
            lines.append(
                f"  parallel: {self.workers} worker(s), pool size {self.pool_size}, "
                f"{self.tasks_dispatched} task(s) dispatched, "
                f"{self.bytes_broadcast} byte(s) broadcast"
                + (f", {stage_times}" if stage_times else "")
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """JSON-serializable form (used by ``pfd-discover clean --report``)."""
        return {
            "relation": self.relation_name,
            "rows": self.row_count,
            "columns": self.column_count,
            "backend": self.backend,
            "stages": list(self.stages),
            "match_calls": self.match_calls,
            "match_cache_hits": self.match_cache_hits,
            "multi_scans": self.multi_scans,
            "multi_fallbacks": self.multi_fallbacks,
            "pattern_set_compilations": self.pattern_set_compilations,
            "partition_hits": self.partition_hits,
            "partition_misses": self.partition_misses,
            "cached_partitions": self.cached_partitions,
            "cached_match_columns": self.cached_match_columns,
            "workers": self.workers,
            "pool_size": self.pool_size,
            "tasks_dispatched": self.tasks_dispatched,
            "bytes_broadcast": self.bytes_broadcast,
            "parallel_stage_seconds": {
                stage: seconds for stage, seconds in self.parallel_stage_seconds
            },
        }


@dataclasses.dataclass(frozen=True)
class PFDValidation:
    """Coverage / violation outcome of one PFD on the session's relation."""

    pfd: PFD
    coverage: float
    violation_count: int

    @property
    def holds(self) -> bool:
        return self.violation_count == 0


@dataclasses.dataclass
class ValidationReport:
    """Per-PFD coverage and violation counts on one relation."""

    relation_name: str
    entries: list[PFDValidation]

    @property
    def total_violations(self) -> int:
        return sum(entry.violation_count for entry in self.entries)

    @property
    def holding_count(self) -> int:
        return sum(1 for entry in self.entries if entry.holds)

    @property
    def all_hold(self) -> bool:
        return self.holding_count == len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def summary(self) -> str:
        lines = []
        for entry in self.entries:
            lines.append(
                f"  {entry.pfd}: coverage={entry.coverage:.2%}, "
                f"violations={entry.violation_count}"
            )
        lines.append(
            f"{self.holding_count}/{len(self.entries)} PFD(s) hold on "
            f"{self.relation_name!r} ({self.total_violations} violation(s) in total)"
        )
        return "\n".join(lines)


#: Sentinel for "the session's own discovered PFDs" in stage memo keys.
_DISCOVERED = object()


class CleaningSession:
    """One relation, one engine state, the whole cleaning pipeline.

    Parameters
    ----------
    relation:
        The table to clean.  The session observes (but never copies) it.
        Writes through :meth:`apply` (and its ``update`` / ``delete`` /
        ``append`` wrappers) keep the discovery and the detection view (see
        :meth:`apply`); mutations made on the relation directly
        (``append_rows`` / ``apply`` / ``set_cell`` / ``delete_rows``)
        invalidate every memoized stage result automatically.
    config:
        Default :class:`DiscoveryConfig` for :meth:`discover` (and for the
        implicit discovery that :meth:`detect` runs when no PFDs are given).
    evaluator:
        Optional shared :class:`PatternEvaluator`.  Defaults to a fresh,
        session-scoped one — the usual choice, keeping the many throwaway
        candidate patterns of discovery out of the process-wide cache.
    backend:
        Optional engine backend name (``"numpy"``/``"sql"``), validated
        here.  The backend is a property of the relation, fixed when it is
        built: an in-memory relation is always ``numpy``, and out-of-core
        relations are built at ingestion time (:meth:`from_csv` with
        ``backend="sql"`` or ``max_memory_rows``, or
        ``Relation(..., backend="sql")``).  Both produce bit-identical
        results.
    workers:
        Process-parallel workers for discovery (see
        :mod:`repro.engine.parallel`).  ``None`` defers to a per-call
        config's ``workers``, then the ``REPRO_WORKERS`` environment
        variable, else 1.  With an effective count above 1 the session owns
        one :class:`ParallelExecutor`, which every discovery reuses until a
        mutation makes it re-broadcast; results are bit-identical to
        ``workers=1``, which never creates a pool.  Detection, validation
        and repair always run serially in this process.  Call
        :meth:`close` (or use the session as a context manager) to shut
        the pool down promptly.
    """

    def __init__(
        self,
        relation: Relation,
        config: Optional[DiscoveryConfig] = None,
        evaluator: Optional[PatternEvaluator] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ):
        self.relation = relation
        if backend is not None:
            resolve_backend(backend)  # reject unknown names
        self.config = config
        self.evaluator = evaluator or PatternEvaluator()
        if workers is not None and workers < 1:
            raise ReproError("workers must be at least 1")
        self.workers = workers
        self._executor: Optional[ParallelExecutor] = None
        #: Serializes stage computation + memo updates so one session can be
        #: shared by concurrent threads (the cleaning service does): stage
        #: results stay bit-identical to single-threaded use, and a stage
        #: never observes a half-applied append.  Reentrant because stages
        #: compose (``repair`` -> ``detect`` -> ``discover``).
        self._state_lock = threading.RLock()
        #: Guards only the executor handle, so :meth:`close` is idempotent
        #: and safe to call concurrently without waiting on a running stage.
        self._close_lock = threading.Lock()
        self._observed_version = relation.version
        self._stages_run: dict[str, None] = {}
        self._profile: Optional[TableProfile] = None
        self._discovery: Optional[tuple[DiscoveryConfig, DiscoveryResult]] = None
        self._detection: Optional[tuple[tuple, DetectionReport]] = None
        #: The last detected PFD set's report as a view of the relation
        #: (keyed by its memo marker): writes mark their rows in it, and the
        #: next :meth:`detect` or :meth:`validate` splices them in.
        self._view: Optional[tuple[object, DetectionView]] = None
        self._repair: Optional[tuple[tuple, RepairResult]] = None
        self._validation: Optional[tuple[tuple, ValidationReport]] = None
        #: Row ids touched by :meth:`apply` and its wrappers (appends
        #: included) that :meth:`detect_changed` has not yet examined
        #: (None = no pending delta).
        self._changed_pending: Optional[set[int]] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_csv(
        cls,
        source: Union[str, Path],
        config: Optional[DiscoveryConfig] = None,
        evaluator: Optional[PatternEvaluator] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        max_memory_rows: Optional[int] = None,
        **read_csv_kwargs,
    ) -> "CleaningSession":
        """Open a session on a CSV file (one load for the whole pipeline).

        ``backend`` is routed into :func:`~repro.dataset.csvio.read_csv`:
        ``backend="sql"`` (or ``REPRO_ENGINE=sql``) streams the file into an
        out-of-core SQLite-backed relation in bounded chunks instead of
        materializing the decoded table first.

        ``max_memory_rows`` auto-selects that out-of-core path for *path*
        sources whose (cheaply estimated) data-row count exceeds the budget;
        an explicit ``backend`` always wins.
        """
        if (
            backend is None
            and max_memory_rows is not None
            and isinstance(source, (str, Path))
            and estimate_csv_rows(
                source, has_header=read_csv_kwargs.get("has_header", True)
            )
            > max_memory_rows
        ):
            backend = "sql"
        return cls(
            read_csv(source, backend=backend, **read_csv_kwargs),
            config=config,
            evaluator=evaluator,
            backend=backend,
            workers=workers,
        )

    @classmethod
    def from_rows(
        cls,
        schema: Union[Schema, Sequence[str]],
        rows,
        name: str = "R",
        config: Optional[DiscoveryConfig] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> "CleaningSession":
        """Open a session on rows built in memory (mirrors
        :meth:`Relation.from_rows`)."""
        return cls(
            Relation.from_rows(schema, rows, name=name, backend=backend),
            config=config,
            workers=workers,
        )

    # -- parallel plumbing ---------------------------------------------------

    def _workers_for(self, config: Optional[DiscoveryConfig] = None) -> int:
        """Effective worker count for one stage call: the stage config's
        ``workers``, else the session's, else the session default config's,
        else ``REPRO_WORKERS``, else 1."""
        if config is not None and config.workers is not None:
            return resolve_workers(config.workers)
        if self.workers is not None:
            return resolve_workers(self.workers)
        if self.config is not None and self.config.workers is not None:
            return resolve_workers(self.config.workers)
        return resolve_workers(None)

    def _executor_for(self, workers: int) -> Optional[ParallelExecutor]:
        """The executor discovery shards on (created lazily; None when
        serial)."""
        if workers <= 1:
            return None
        if self._executor is None or self._executor.workers != workers:
            if self._executor is not None:
                self._executor.close()
            self._executor = ParallelExecutor(workers)
        return self._executor

    def close(self) -> None:
        """Shut down the session's discovery pool, if one was created.

        Idempotent and safe to call concurrently: the executor handle is
        detached under a dedicated lock, so a double (or racing) ``close``
        sees ``None`` and returns instead of re-entering pool shutdown.
        The session stays usable afterwards — the next parallel discovery
        recreates the pool (and re-broadcasts the relation).  Serial
        sessions have nothing to close.
        """
        with self._close_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "CleaningSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cache plumbing ------------------------------------------------------

    def _sync(self) -> None:
        """Drop every memoized stage result if the relation has mutated.

        Piggybacks on the same mutation hooks that maintain the dictionary
        and partition caches: ``append_rows``/``apply`` bump
        :attr:`Relation.version`, and the next stage call lands here.
        """
        if self.relation.version != self._observed_version:
            self.invalidate()

    def invalidate(self) -> None:
        """Forget all memoized stage results (engine caches stay shared)."""
        with self._state_lock:
            self._observed_version = self.relation.version
            self._profile = None
            self._discovery = None
            self._detection = None
            self._view = None
            self._repair = None
            self._validation = None
            self._changed_pending = None

    def _mark(self, stage: str) -> None:
        self._stages_run[stage] = None

    # -- ingestion -----------------------------------------------------------

    def apply(self, batch: MutationBatch) -> MutationResult:
        """Apply a mutation batch, keeping the discovered PFDs.

        The unified CRUD entry point: routes through
        :meth:`Relation.apply`, so the dictionaries and pattern-match masks
        are patched in place rather than rebuilt, and only the stripped
        partitions over the touched attributes are dropped (a scoped
        detection reads none).  The memoized *discovery* survives (the whole
        point of ingestion is validating new data against the constraints
        already learned), and so does the detection view: the batch's
        changed rows are recorded in it, O(batch), and the next
        :meth:`detect` or :meth:`validate` splices just those rows into the
        last report instead of re-detecting the table.  The repair and
        validation memos are dropped, since they describe the pre-mutation
        table.  Consecutive batches accumulate into one pending delta for
        :meth:`detect_changed`.  A batch with no effective change (every
        assignment matched the stored value, nothing appended or deleted)
        leaves every memo — including a pending delta — intact.
        """
        with self._state_lock:
            self._sync()
            discovery, view = self._discovery, self._view
            pending_changed = self._changed_pending
            result = self.relation.apply(batch)
            if not result:
                return result
            self.invalidate()
            self._discovery = discovery
            if view is not None:
                view[1].mark(result.changed_rows)
                self._view = view
            changed = set(pending_changed or ())
            changed.update(result.changed_rows)
            self._changed_pending = changed
            self._mark("apply")
            return result

    def append(self, rows) -> range:
        """Append a batch of tuples: a one-op :meth:`apply`.

        Returns the appended row-id range; like every mutation, the
        appended rows join the pending delta of :meth:`detect_changed`.
        """
        with self._state_lock:
            result = self.apply(MutationBatch.appends(rows))
            if result:
                self._mark("append")
            return result.appended

    def update(self, cells) -> MutationResult:
        """Overwrite ``(row_id, attribute, value)`` cells: a thin
        :meth:`apply` over :meth:`MutationBatch.update_cells`.

        Returns the :class:`~repro.dataset.mutations.MutationResult`;
        assignments matching the stored value are dropped, so
        ``result.updated_rows`` lists only genuinely changed rows.
        """
        return self.apply(MutationBatch.update_cells(cells))

    def delete(self, row_ids) -> MutationResult:
        """Tombstone rows (cells blank, ids stay stable): a thin
        :meth:`apply` over :meth:`MutationBatch.deletes`."""
        return self.apply(MutationBatch.deletes(row_ids))

    def detect_changed(
        self,
        pfds: Optional[Sequence[PFD]] = None,
        min_evidence: int = 1,
    ) -> DetectionReport:
        """Detect suspect cells around the pending delta.

        Scopes the violation search (see
        :meth:`~repro.cleaning.detector.ErrorDetector.detect` with
        ``changed_rows``) to the rows touched since the last consumption —
        appended, updated, or deleted — and the equivalence classes
        currently containing them, O(delta) on a primed session.  Defaults
        to the session's discovered PFDs (which :meth:`apply` deliberately
        preserves).  The pending delta is consumed; a second call without a
        new mutation raises.  Suspect cells may reference untouched rows
        when a mutation turns them into the minority of their class.  When
        the detection view of the same PFDs has exactly these rows to
        splice, its next refresh reuses this search.
        """
        with self._state_lock:
            self._sync()
            if self._changed_pending is None:
                raise ReproError(
                    "detect_changed() has no pending mutations: call apply(), "
                    "update(), delete(), or append() first"
                )
            marker, resolved = self._resolve_pfds(pfds)
            scoped = DetectionView(resolved, self.evaluator)
            report = ErrorDetector(
                resolved, min_evidence=min_evidence, evaluator=self.evaluator
            ).detect(self.relation, changed_rows=self._changed_pending, view=scoped)
            if self._view is not None and self._view[0] == marker:
                self._view[1].adopt(scoped)
            self._changed_pending = None
            self._mark("detect_changed")
            return report

    #: Alias of :meth:`detect_changed`: an append is one more mutation, so
    #: after an update-only batch it reports that batch's delta.
    detect_new = detect_changed

    # -- stages --------------------------------------------------------------

    def profile(self) -> TableProfile:
        """Profile the relation's columns (memoized; feeds :meth:`discover`)."""
        with self._state_lock:
            self._sync()
            if self._profile is None:
                self._profile = profile_relation(self.relation)
                self._mark("profile")
            return self._profile

    def discover(self, config: Optional[DiscoveryConfig] = None) -> DiscoveryResult:
        """Discover PFDs (memoized per config; primes all shared caches).

        Uses ``config``, else the session's default, else
        ``DiscoveryConfig()``.  A no-argument call returns the last
        discovery, whatever config produced it; a repeated call with an
        equal config returns the cached :class:`DiscoveryResult`; a
        *different* explicit config (or a relation mutation) recomputes and
        drops the downstream detect / repair memos, whose default PFD set
        would otherwise be stale.
        """
        with self._state_lock:
            self._sync()
            if config is None and self._discovery is not None:
                return self._discovery[1]
            effective = config or self.config or DiscoveryConfig()
            if self._discovery is not None and self._discovery[0] == effective:
                return self._discovery[1]
            workers = self._workers_for(effective)
            discoverer = PFDDiscoverer(
                effective,
                evaluator=self.evaluator,
                workers=workers,
                executor=self._executor_for(workers),
            )
            # Reuse the profile only when the profile stage already ran: a
            # fresh discovery profiles inside its own timed region, so its
            # reported runtime_seconds stays comparable with the seed (and
            # with the FDep/CFDFinder baselines in the experiment tables).
            result = discoverer.discover(self.relation, profile=self._profile)
            self._discovery = (effective, result)
            self._detection = None
            self._view = None
            self._repair = None
            self._validation = None
            self._mark("discover")
            return result

    @property
    def pfds(self) -> list[PFD]:
        """The session's discovered PFDs (runs :meth:`discover` if needed)."""
        return self.discover().pfds

    @property
    def discovery(self) -> Optional[DiscoveryResult]:
        """The memoized discovery result, or None if :meth:`discover` has
        not run (or was invalidated by a mutation)."""
        with self._state_lock:
            self._sync()
            return self._discovery[1] if self._discovery is not None else None

    def _resolve_pfds(self, pfds: Optional[Sequence[PFD]]) -> tuple[object, list[PFD]]:
        """Explicit PFDs, or the session's discovered set (with a stable
        memo-key marker so "the discovered set" survives re-discovery).
        The marker also names the PFDs' compiled tableau plans, so a row
        added to a tableau misses every memo and the detection view."""
        if pfds is None:
            resolved = self.discover().pfds
            marker: object = _DISCOVERED
        else:
            resolved = list(pfds)
            marker = tuple(resolved)
        return (marker, tuple(pfd.plan for pfd in resolved)), resolved

    def detect(
        self,
        pfds: Optional[Sequence[PFD]] = None,
        min_evidence: int = 1,
    ) -> DetectionReport:
        """Detect suspect cells (memoized; defaults to the discovered PFDs).

        Runs on the session's evaluator and partition manager, so after
        :meth:`discover` has primed them this performs zero additional
        pattern-set compilations and reuses the cached partition leaves.
        The report comes from the session's detection view of ``pfds``
        (see :class:`~repro.cleaning.detector.DetectionView`): the first
        call builds it cold, and after writes only the changed rows and
        the classes they entered or left are searched again and spliced in,
        with evidence re-aggregated for the cells whose violations changed.
        The report equals a cold detection, order included.
        """
        with self._state_lock:
            self._sync()
            marker, resolved = self._resolve_pfds(pfds)
            key = (marker, min_evidence)
            if self._detection is not None and self._detection[0] == key:
                return self._detection[1]
            report = ErrorDetector(
                resolved, min_evidence=min_evidence, evaluator=self.evaluator
            ).detect(self.relation, view=self._view_for(marker, resolved))
            self._detection = (key, report)
            self._mark("detect")
            return report

    def changed_since(
        self, report: DetectionReport, since: str, min_evidence: int = 1
    ) -> Optional[tuple[list[DetectedError], list[tuple[int, str]]]]:
        """How ``report``, a :meth:`detect` report at ``min_evidence``,
        differs from the report at the earlier view version ``since``: the
        changed errors and the removed ``(row, attribute)`` cells (see
        :meth:`DetectionView.changed_since`).  None when ``since`` is
        unknown to the session's view or the view has moved past
        ``report``; the caller then needs the whole report."""
        with self._state_lock:
            self._sync()
            view = self._view
            if view is None or view[1].version != report.version:
                return None
            return view[1].changed_since(since, min_evidence)

    def _view_for(self, marker: object, resolved: list[PFD]) -> DetectionView:
        """The detection view of ``resolved``; a new PFD set replaces the
        session's view with a cold one."""
        if self._view is None or self._view[0] != marker:
            self._view = (marker, DetectionView(resolved, self.evaluator))
        return self._view[1]

    def repair(
        self,
        pfds: Optional[Sequence[PFD]] = None,
        min_evidence: int = 1,
        verify: bool = True,
        dry_run: bool = False,
    ) -> RepairResult:
        """Apply the detector's suggestions (memoized; verification on).

        Feeds the memoized :meth:`detect` report straight into the
        :class:`Repairer`, so repairing never re-detects on the session's
        relation.  Repairs are applied to a *copy* (unless ``dry_run``), so
        the session's own caches stay valid; with ``verify=True`` the copy
        is re-detected and still-flagged cells land in
        :attr:`RepairResult.remaining_error_cells`.
        """
        with self._state_lock:
            self._sync()
            marker, resolved = self._resolve_pfds(pfds)
            key = (marker, min_evidence, verify, dry_run)
            if self._repair is not None and self._repair[0] == key:
                return self._repair[1]
            report = self.detect(pfds, min_evidence=min_evidence)
            result = Repairer(
                resolved,
                min_evidence=min_evidence,
                dry_run=dry_run,
                evaluator=self.evaluator,
                verify=verify,
            ).repair(self.relation, report=report)
            self._repair = (key, result)
            self._mark("repair")
            return result

    def validate(self, pfds: Optional[Sequence[PFD]] = None) -> ValidationReport:
        """Per-PFD coverage and violation counts (memoized).

        The violation counts are read from the same detection view as
        :meth:`detect`, spliced first if writes made it stale, so a
        validate after a write searches only around the changed rows.
        Coverage is recomputed per PFD, on an evaluator primed
        set-at-a-time for the whole PFD set.
        """
        with self._state_lock:
            self._sync()
            marker, resolved = self._resolve_pfds(pfds)
            key = (marker,)
            if self._validation is not None and self._validation[0] == key:
                return self._validation[1]
            view = self._view_for(marker, resolved)
            view.refresh(self.relation)
            prime_for_pfds(self.relation, resolved, self.evaluator)
            entries = [
                PFDValidation(
                    pfd=pfd,
                    coverage=pfd.coverage(self.relation, evaluator=self.evaluator),
                    violation_count=count,
                )
                for pfd, count in zip(resolved, view.violation_counts())
            ]
            report = ValidationReport(relation_name=self.relation.name, entries=entries)
            self._validation = (key, report)
            self._mark("validate")
            return report

    # -- observability -------------------------------------------------------

    def stats(self) -> SessionStats:
        """An immutable snapshot of the session's shared-cache counters."""
        with self._state_lock:
            return self._stats_locked()

    def _stats_locked(self) -> SessionStats:
        manager = self.relation.partitions()
        executor = self._executor
        parallel = executor.stats if executor is not None else None
        return SessionStats(
            relation_name=self.relation.name,
            row_count=self.relation.row_count,
            column_count=len(self.relation.attribute_names),
            backend=self.relation.backend,
            stages=tuple(self._stages_run),
            match_calls=self.evaluator.match_calls,
            match_cache_hits=self.evaluator.cache_hits,
            multi_scans=self.evaluator.multi_scans,
            multi_fallbacks=self.evaluator.multi_fallbacks,
            pattern_set_compilations=self.evaluator.pattern_set_compilations,
            partitions=dataclasses.replace(manager.stats),
            cached_partitions=manager.cached_partition_count(),
            cached_match_columns=self.evaluator.cached_column_count(),
            workers=self._workers_for(),
            pool_size=parallel.pool_size if parallel is not None else 0,
            tasks_dispatched=parallel.tasks_dispatched if parallel is not None else 0,
            bytes_broadcast=parallel.bytes_broadcast if parallel is not None else 0,
            parallel_stage_seconds=(
                (("discover", parallel.seconds),)
                if parallel is not None and parallel.tasks_dispatched
                else ()
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CleaningSession({self.relation.name!r}, rows={self.relation.row_count}, "
            f"stages={list(self._stages_run)})"
        )


def validate_pfds(
    relation: Relation,
    pfds: Sequence[PFD],
    evaluator: Optional[PatternEvaluator] = None,
) -> ValidationReport:
    """Convenience wrapper: validate ``pfds`` through a throwaway session."""
    if not pfds:
        raise ReproError("validate_pfds needs at least one PFD")
    return CleaningSession(relation, evaluator=evaluator).validate(pfds)
