"""The cleaning service: a long-running daemon over persistent constraints.

The serving tier of the reproduction (``pfd-discover serve``).  One process
hosts many tenants: each tenant's table and discovered PFD set live in a
durable :class:`ConstraintRegistry` directory, an LRU-bounded
:class:`SessionManager` keeps the hottest K tenants' engine caches live,
and per-tenant readers-writer locks let concurrent ``detect``/``validate``
reads overlap while ``ingest``/``update``/``delete`` write exclusively
(each a ``MutationBatch`` delta-maintaining the caches through
``Relation.apply``).

Layers, transport-independent first::

    ConstraintRegistry     durable per-tenant pfds.json + data.csv
    SessionManager         LRU of live CleaningSessions + RWLocks
    CleaningService        endpoints as methods, counters, latency stats
    http.serve / Client    stdlib JSON-over-HTTP codec around the service

Quick tour (no HTTP needed)::

    from repro.service import CleaningService

    service = CleaningService("registry/", max_sessions=4)
    service.load_tenant("acme", csv_text=open("zips.csv").read())
    service.discover("acme", min_support=3)
    report = service.detect("acme")          # bit-identical to a direct
                                             # CleaningSession.detect()
    print(service.stats()["sessions"])
"""

from .app import CleaningService
from .client import ServiceClient
from .manager import ManagerStats, SessionManager, TenantRuntime
from .registry import ConstraintRegistry, validate_tenant_name
from .rwlock import RWLock
from .http import CleaningServiceServer, serve, start_server

__all__ = [
    "CleaningService",
    "CleaningServiceServer",
    "ConstraintRegistry",
    "ManagerStats",
    "RWLock",
    "ServiceClient",
    "SessionManager",
    "TenantRuntime",
    "serve",
    "start_server",
    "validate_tenant_name",
]
