"""Process-parallel execution of discovery.

Figure-4 discovery validates every candidate of a lattice level
independently (the only cross-candidate coupling — superset pruning — acts
*between* levels), so once the engine state is shared a level's candidates
can be validated by a process pool.  This module owns that parallelism:

* :func:`resolve_workers` — the ``workers=`` knob resolution: an explicit
  value wins, else the ``REPRO_WORKERS`` environment variable, else 1.
  ``workers=1`` means *no pool is ever created*; discovery then validates
  each level in process, through the same walk.
* :class:`ParallelExecutor` — a lazily created
  :class:`~concurrent.futures.ProcessPoolExecutor` bound to one relation
  snapshot.  The dictionary-encoded relation (distinct values + the
  ``int32`` code vectors from :attr:`DictionaryColumn.codes`) is
  pickled **once per pool** through the pool initializer, not once per
  task; tasks then carry only candidate descriptions.  The pool rebinds
  (new broadcast) when the relation object or its
  :attr:`~repro.dataset.relation.Relation.version` changes, so a discovery
  after a mutation sees the mutated table.
* the task protocol — :func:`_run_task` hands one chunk of a lattice
  level's LHS groups to
  :meth:`~repro.discovery.pfd_discovery.PFDDiscoverer._validate_groups`,
  the same method a serial run calls in process, and returns its outcomes
  in chunk order; the parent puts them back in enumeration order before
  the level-barrier merge, so parallel output is bit-identical to serial.

Error detection is deliberately not here.  Its per-tuple and per-class
checks take milliseconds on a warm session, while a pool would re-pickle
the whole relation after every write and rebuild in each worker the
partitions and match memos the session already holds; it lost on every
table shape measured, so detection always runs serially in the caller's
process.

Determinism of the discovery protocol
-------------------------------------

Within one lattice level, ``mark_satisfied(lhs, rhs)`` prunes only *strict*
supersets of ``lhs`` (never another same-size LHS) and
``mark_coverage_deficient(lhs)`` prunes ``lhs`` itself and its supersets
(between equal-size sets, only the identical LHS).  Therefore the set of
candidates a level enumerates is fully determined at the level boundary
(:meth:`~repro.discovery.lattice.CandidateLattice.level_groups`), and each
LHS group — all surviving RHS of one LHS — can be validated atomically by
any worker.  Serial and pooled runs share one level walk: only where
``_validate_groups`` runs differs, and the parent applies lattice marks and
appends accepted dependencies in enumeration order at the level barrier.
Candidate counts, per-level counts, dependencies, and tableaux are
bit-identical at any worker count.

Fork/spawn safety
-----------------

Worker processes never rely on inherited interpreter state:

* task functions and task/result dataclasses are module top-level, so they
  pickle by reference under the ``spawn`` start method;
* the pattern-compilation memos (``compile_pattern_set``, the NFA/DFA
  caches in :mod:`repro.patterns`) are ``functools.lru_cache`` maps from
  immutable inputs to immutable values — they repopulate independently and
  identically in every worker, so both an inherited (fork) and an empty
  (spawn) cache are correct;
* evaluators (:class:`~repro.engine.evaluator.PatternEvaluator` holds
  ``WeakKeyDictionary`` memos and is deliberately unpicklable) are created
  fresh inside each worker and shared across that worker's tasks.

``fork`` is preferred when the platform offers it (workers start in
milliseconds and inherit the imported modules); ``spawn`` is the fallback
and is fully supported — override with ``REPRO_START_METHOD`` to force one.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataset -> engine)
    from ..dataset.relation import Relation


# -- the workers= knob --------------------------------------------------------

def resolve_workers(value: Optional[int] = None) -> int:
    """The effective worker count: explicit value > ``REPRO_WORKERS`` > 1."""
    if value is not None:
        if value < 1:
            raise ValueError(f"workers must be at least 1, got {value}")
        return value
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            parsed = int(env)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
        if parsed < 1:
            raise ValueError(f"REPRO_WORKERS must be at least 1, got {parsed}")
        return parsed
    return 1


def default_start_method() -> str:
    """``REPRO_START_METHOD`` if set, else ``fork`` when available, else
    ``spawn``.  Everything in this module is spawn-safe; fork is simply the
    faster default where the platform offers it."""
    env = os.environ.get("REPRO_START_METHOD", "").strip().lower()
    methods = multiprocessing.get_all_start_methods()
    if env:
        if env not in methods:
            raise ValueError(
                f"REPRO_START_METHOD {env!r} is not available (have {methods})"
            )
        return env
    return "fork" if "fork" in methods else "spawn"


def chunk_round_robin(items: Sequence, chunks: int) -> list[list]:
    """Deal ``items`` into at most ``chunks`` buckets, round robin.

    Neighboring items (which tend to cost alike) land on different workers;
    merge order is recovered from per-item position tags, never from bucket
    order.
    """
    count = max(1, min(chunks, len(items)))
    buckets: list[list] = [[] for _ in range(count)]
    for index, item in enumerate(items):
        buckets[index % count].append(item)
    return [bucket for bucket in buckets if bucket]


# -- observability ------------------------------------------------------------

@dataclasses.dataclass
class ParallelStats:
    """Counters of one :class:`ParallelExecutor` (surfaced by
    :meth:`repro.session.CleaningSession.stats`)."""

    #: Workers in the current/most recent pool (0 = no pool ever created).
    pool_size: int = 0
    #: Total pickled bytes of the broadcast snapshots.
    bytes_broadcast: int = 0
    #: Task submissions (discovery is the only stage that uses the pool).
    tasks_dispatched: int = 0
    #: Wall-clock seconds spent waiting on pool tasks.
    seconds: float = 0.0


# -- the broadcast snapshot ---------------------------------------------------

@dataclasses.dataclass
class RelationSnapshot:
    """The pickle-once payload a pool initializer ships to every worker.

    ``columns`` maps each attribute to its dictionary: the distinct values
    plus the per-row ``int32`` code vector (pickled as its compact buffer).
    """

    schema: object
    columns: dict[str, tuple[tuple[str, ...], object]]


def snapshot_relation(relation: "Relation") -> RelationSnapshot:
    """Capture the dictionary-encoded relation for broadcast."""
    columns: dict[str, tuple[tuple[str, ...], object]] = {}
    for name in relation.attribute_names:
        dictionary = relation.dictionary(name)
        columns[name] = (dictionary.values, dictionary.codes)
    return RelationSnapshot(schema=relation.schema, columns=columns)


def _restore_relation(snapshot: RelationSnapshot) -> "Relation":
    """Rebuild the relation inside a worker from the shipped dictionaries:
    identical values/codes mean every downstream structure (masks,
    partitions) is bit-identical to the parent."""
    from ..dataset.relation import Relation
    from .dictionary import DictionaryColumn

    return Relation.from_dictionaries(
        snapshot.schema,
        {
            name: DictionaryColumn(values, codes, attribute=name)
            for name, (values, codes) in snapshot.columns.items()
        },
    )


# -- worker-side state --------------------------------------------------------

class _WorkerState:
    """Everything one worker process holds between tasks."""

    def __init__(self, snapshot: RelationSnapshot):
        from .evaluator import PatternEvaluator

        self.relation = _restore_relation(snapshot)
        self.evaluator = PatternEvaluator()
        self._discovery_contexts: list[tuple[object, object, tuple]] = []

    def discovery_context(self, config, profile) -> tuple:
        """A (discoverer, index) pair per (config, profile), built lazily and
        reused by every discovery task of this worker."""
        for cached_config, cached_profile, context in self._discovery_contexts:
            if cached_config == config and cached_profile == profile:
                return context
        from ..discovery.pfd_discovery import PFDDiscoverer

        discoverer = PFDDiscoverer(config, evaluator=self.evaluator)
        context = (discoverer, discoverer._pattern_index(self.relation, profile))
        self._discovery_contexts.append((config, profile, context))
        return context


_STATE: Optional[_WorkerState] = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the broadcast exactly once per worker."""
    global _STATE
    _STATE = _WorkerState(pickle.loads(payload))


# -- the task protocol --------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _DiscoveryTask:
    """One chunk of a lattice level: whole LHS groups, validated atomically."""

    config: object
    profile: object
    coverage_floor: int
    #: ``(lhs, rhs_tuple)`` pairs, a subsequence of the level's groups.
    groups: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


def _run_task(task: _DiscoveryTask) -> tuple[int, list]:
    """The single worker entry point (top-level, so it pickles by
    reference): validate one chunk of LHS groups; returns (index entries,
    one :class:`~repro.discovery.pfd_discovery.GroupOutcome` per group)."""
    state = _STATE
    if state is None:
        raise RuntimeError("parallel worker used before its initializer ran")
    discoverer, index = state.discovery_context(task.config, task.profile)
    outcomes = discoverer._validate_groups(
        state.relation, index, task.groups, task.coverage_floor
    )
    return index.total_entries(), outcomes


# -- the executor -------------------------------------------------------------

class ParallelExecutor:
    """A lazily created process pool bound to one relation broadcast.

    The pool is created on the first :meth:`run_tasks` call and rebound
    (state re-broadcast) when the target relation object or its mutation
    version changes.  ``workers=1`` callers must not construct one — the
    serial code paths bypass this class entirely.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.workers = workers
        self.start_method = start_method or default_start_method()
        self.stats = ParallelStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._bound: Optional[tuple[weakref.ref, int]] = None
        #: Guards pool teardown so concurrent/double close() calls never
        #: race into ProcessPoolExecutor.shutdown twice.
        self._close_lock = threading.Lock()

    # -- pool lifecycle ------------------------------------------------------

    def _pool_for(self, relation: "Relation") -> ProcessPoolExecutor:
        if self._pool is not None and self._bound is not None:
            bound_relation, bound_version = self._bound
            if bound_relation() is relation and bound_version == relation.version:
                return self._pool
        self.close()
        payload = pickle.dumps(
            snapshot_relation(relation), protocol=pickle.HIGHEST_PROTOCOL
        )
        context = multiprocessing.get_context(self.start_method)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(payload,),
        )
        self._bound = (weakref.ref(relation), relation.version)
        self.stats.pool_size = self.workers
        self.stats.bytes_broadcast += len(payload)
        return self._pool

    def run_tasks(self, relation: "Relation", tasks: Sequence) -> list:
        """Submit ``tasks`` against ``relation``'s broadcast; returns results
        in task order."""
        pool = self._pool_for(relation)
        started = time.perf_counter()
        futures = [pool.submit(_run_task, task) for task in tasks]
        results = [future.result() for future in futures]
        self.stats.tasks_dispatched += len(futures)
        self.stats.seconds += time.perf_counter() - started
        return results

    def close(self) -> None:
        """Shut the pool down (idempotent, thread-safe); the next run
        re-broadcasts.  The pool handle is detached under a lock first, so
        two racing closers cannot both enter ``shutdown``."""
        with self._close_lock:
            pool, self._pool = self._pool, None
            self._bound = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "idle" if self._pool is None else "pooled"
        return f"ParallelExecutor(workers={self.workers}, {self.start_method}, {state})"
