"""The LRU-bounded tenant session manager.

The daemon may serve far more tenants than it can afford live
:class:`~repro.session.CleaningSession` objects for (each one pins the
decoded table plus dictionary / mask / partition caches).  The manager keeps
at most ``max_sessions`` of them, in LRU order:

* **checkout** returns the live runtime for a tenant, rehydrating it from
  the :class:`~repro.service.registry.ConstraintRegistry` on a miss —
  ``data.csv`` with its ``data.log`` replayed back into a session,
  ``pfds.json`` back into the active constraint set.  Engine caches
  rebuild lazily on the next stage call; the *global*
  ``compile_pattern_set`` / NFA / DFA memos survive eviction,
  which is what keeps a rehydrated tenant's first request well below a
  true cold start when tenants share pattern shapes.
* **eviction** pops the least-recently-used tenant once the bound is
  exceeded — but only if its readers-writer lock can be taken without
  waiting.  A tenant currently serving a request is skipped (the bound is
  soft for exactly as long as every live tenant is mid-request) and
  retried on the next install.  An evicted victim's session is closed
  *while its write lock is held*, so a request that checked the victim out
  just before eviction can never have its work cancelled mid-stage: it
  either finished already, or wakes up on the lock, notices the runtime is
  no longer live, and retries.  Durable state is not touched: constraints
  and data stay in the registry, which is why eviction is safe at all.

Every runtime owns one :class:`~repro.service.rwlock.RWLock`; the service
layer takes the read side for ``detect``/``validate``/``profile``/``repair``
and the write side for ``load``/``discover``/``ingest``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from typing import Optional

from ..core.pfd import PFD
from ..dataset.relation import Relation
from ..discovery.config import DiscoveryConfig
from ..exceptions import UnknownTenantError
from ..session import CleaningSession
from .registry import ConstraintRegistry
from .rwlock import RWLock


@dataclasses.dataclass
class TenantRuntime:
    """One tenant's live state: a session, its lock, and its constraints."""

    name: str
    session: CleaningSession
    lock: RWLock = dataclasses.field(default_factory=RWLock)
    #: The tenant's active PFD set (discovered this lifetime or rehydrated
    #: from the registry); ``None`` until ``discover`` has run at least once.
    pfds: Optional[list[PFD]] = None
    #: Metadata block of the persisted constraint document.
    constraint_metadata: dict = dataclasses.field(default_factory=dict)
    #: Monotonic timestamps for observability.
    created_at: float = dataclasses.field(default_factory=time.monotonic)
    last_used_at: float = dataclasses.field(default_factory=time.monotonic)
    #: Requests served by this runtime (any endpoint).
    requests: int = 0

    def touch(self) -> None:
        self.last_used_at = time.monotonic()
        self.requests += 1


@dataclasses.dataclass(frozen=True)
class ManagerStats:
    """Counters of one :class:`SessionManager` (for the stats endpoint)."""

    max_sessions: int
    live: int
    live_tenants: tuple[str, ...]
    created: int
    evicted: int
    rehydrated: int
    eviction_skips: int


class SessionManager:
    """At most ``max_sessions`` live tenant runtimes, LRU-evicted."""

    def __init__(
        self,
        registry: ConstraintRegistry,
        max_sessions: int = 8,
        config: Optional[DiscoveryConfig] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be at least 1, got {max_sessions}")
        self.registry = registry
        self.max_sessions = max_sessions
        self.config = config
        self.backend = backend
        self.workers = workers
        self._lock = threading.Lock()
        self._live: "OrderedDict[str, TenantRuntime]" = OrderedDict()
        self._created = 0
        self._evicted = 0
        self._rehydrated = 0
        self._eviction_skips = 0

    # -- checkout / creation -------------------------------------------------

    def checkout(self, tenant: str) -> TenantRuntime:
        """The live runtime for ``tenant``, rehydrated from the registry on
        a miss.  Raises :class:`UnknownTenantError` for tenants with no
        durable state."""
        with self._lock:
            runtime = self._live.get(tenant)
            if runtime is not None:
                self._live.move_to_end(tenant)
                runtime.touch()
                return runtime
        # Rehydrate outside the manager lock: reading the CSV back can be
        # slow, and other tenants' requests must not stall behind it.
        runtime = self._rehydrate(tenant)
        return self._install(runtime, rehydrated=True)

    def create(self, tenant: str, relation: Relation) -> TenantRuntime:
        """Install a *new* runtime for freshly loaded data (replacing any
        live one); the caller persists the data to the registry."""
        runtime = TenantRuntime(name=tenant, session=self._session_for(relation))
        return self._install(runtime, rehydrated=False)

    def _session_for(self, relation: Relation) -> CleaningSession:
        return CleaningSession(
            relation,
            config=self.config,
            backend=self.backend,
            workers=self.workers,
        )

    def _rehydrate(self, tenant: str) -> TenantRuntime:
        if not self.registry.has_data(tenant):
            raise UnknownTenantError(
                f"unknown tenant {tenant!r}: load a table for it first"
            )
        relation = self.registry.load_data(tenant, backend=self.backend)
        pfds, metadata = self.registry.load_constraints(tenant)
        return TenantRuntime(
            name=tenant,
            session=self._session_for(relation),
            pfds=pfds,
            constraint_metadata=metadata,
        )

    def _install(self, runtime: TenantRuntime, rehydrated: bool) -> TenantRuntime:
        with self._lock:
            current = self._live.get(runtime.name)
            if rehydrated and current is not None:
                # Another request rehydrated the same tenant while we were
                # reading the registry; keep the installed one.
                self._live.move_to_end(runtime.name)
                current.touch()
                return current
            if current is not None:
                # Replaced, not closed: a request may hold (or be about to
                # take) its lock.  ``load`` closes the one it drained under
                # its write lock; an unowned orphan is garbage-collected
                # once in-flight requests notice it is stale and retry.
                self._live.pop(runtime.name)
            self._live[runtime.name] = runtime
            self._created += 1
            if rehydrated:
                self._rehydrated += 1
            runtime.touch()
            victims = self._evict_over_capacity_locked(protect=runtime.name)
        for old in victims:
            # The victim's write lock is still held from the eviction probe,
            # so no request is inside the session while its worker pool
            # shuts down; a request queued on the lock wakes up, sees the
            # runtime is no longer live, and retries on a fresh checkout.
            try:
                old.session.close()
            finally:
                old.lock.release_write()
        return runtime

    # -- eviction ------------------------------------------------------------

    def _evict_over_capacity_locked(self, protect: str) -> list[TenantRuntime]:
        """Pop cold LRU runtimes beyond the bound whose write lock is free.

        A runtime serving an in-flight request (its lock cannot be taken
        without waiting) is skipped and retried on the next install — the
        bound is soft under full concurrency, never a deadlock.  The
        just-installed ``protect`` runtime is never a victim: its caller is
        about to use it but has not taken its lock yet, so it would
        otherwise look idle and get orphaned immediately.

        Each returned victim's write lock is **still held**: releasing it
        after the probe would let a request that already checked the victim
        out slip in before ``session.close()`` cancels its work.  The
        caller closes the session and then releases the lock.
        """
        evicted: list[TenantRuntime] = []
        while len(self._live) > self.max_sessions:
            victim_name = None
            for name in self._live:  # oldest first
                if name == protect:
                    continue
                if self._live[name].lock.try_acquire_write():
                    victim_name = name
                    break
                self._eviction_skips += 1
            if victim_name is None:
                break  # every live tenant is mid-request; retry later
            evicted.append(self._live.pop(victim_name))
            self._evicted += 1
        return evicted

    def evict(self, tenant: str) -> bool:
        """Forcibly drop a tenant's live runtime (used by tenant deletion).

        The caller must hold the runtime's write lock (as
        :meth:`~repro.service.app.CleaningService.drop_tenant` does) or
        otherwise guarantee no request is inside the session, since this
        closes its worker pool.
        """
        with self._lock:
            runtime = self._live.pop(tenant, None)
        if runtime is None:
            return False
        runtime.session.close()
        return True

    # -- observability / lifecycle -------------------------------------------

    def live_tenants(self) -> list[str]:
        with self._lock:
            return list(self._live)

    def peek(self, tenant: str) -> Optional[TenantRuntime]:
        """The live runtime without touching LRU order (stats endpoint)."""
        with self._lock:
            return self._live.get(tenant)

    def stats(self) -> ManagerStats:
        with self._lock:
            return ManagerStats(
                max_sessions=self.max_sessions,
                live=len(self._live),
                live_tenants=tuple(self._live),
                created=self._created,
                evicted=self._evicted,
                rehydrated=self._rehydrated,
                eviction_skips=self._eviction_skips,
            )

    def close(self) -> None:
        """Drop every live runtime (their durable state stays registered).

        Each runtime's write lock is taken first, so in-flight requests
        drain before their worker pool disappears under them.
        """
        with self._lock:
            runtimes = list(self._live.values())
            self._live.clear()
        for runtime in runtimes:
            runtime.lock.acquire_write()
            try:
                runtime.session.close()
            finally:
                runtime.lock.release_write()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SessionManager(live={len(self._live)}/{self.max_sessions}, "
            f"evicted={self._evicted}, rehydrated={self._rehydrated})"
        )
