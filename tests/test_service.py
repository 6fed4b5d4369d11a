"""The cleaning service subsystem: registry, session manager, application.

Covers the tentpole guarantees without HTTP in the way (the HTTP codec has
its own test module): durable constraint/data round-trips, LRU eviction and
lazy rehydration, and service responses bit-identical to driving a
:class:`~repro.session.CleaningSession` directly.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import CleaningSession, DiscoveryConfig, MutationBatch, Relation
from repro.exceptions import ServiceError, UnknownTenantError
from repro.service import (
    CleaningService,
    ConstraintRegistry,
    SessionManager,
    validate_tenant_name,
)


def _zip_rows(errors: int = 0):
    rows = [(f"{90000 + i:05d}", "Los Angeles") for i in range(8)] + [
        (f"{10000 + i:05d}", "New York") for i in range(8)
    ]
    for i in range(errors):
        rows.append((f"{90100 + i:05d}", "New York"))
    return rows


def _zip_relation(errors: int = 0, name: str = "zips") -> Relation:
    return Relation.from_rows(["zip", "city"], _zip_rows(errors), name=name)


CONFIG = DiscoveryConfig(min_support=4)


@pytest.fixture
def registry(tmp_path) -> ConstraintRegistry:
    return ConstraintRegistry(tmp_path / "registry")


@pytest.fixture
def service(registry) -> CleaningService:
    with CleaningService(registry, max_sessions=4, config=CONFIG) as svc:
        yield svc


def _load(service, tenant: str, errors: int = 0) -> dict:
    return service.load_tenant(
        tenant, columns=["zip", "city"], rows=_zip_rows(errors)
    )


class TestTenantNames:
    @pytest.mark.parametrize("name", ["acme", "a", "T-1.two_three", "0start"])
    def test_accepts_safe_names(self, name):
        assert validate_tenant_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", ".hidden", "-dash", "a/b", "a b", "a" * 65, 42, "../up"]
    )
    def test_rejects_unsafe_names(self, name):
        with pytest.raises(ServiceError):
            validate_tenant_name(name)


class TestRegistry:
    def test_data_round_trip(self, registry):
        relation = _zip_relation(1)
        registry.save_data("acme", relation)
        restored = registry.load_data("acme")
        assert restored.attribute_names == relation.attribute_names
        assert list(restored.iter_rows()) == list(relation.iter_rows())

    def test_constraints_round_trip_with_metadata(self, registry):
        pfds = CleaningSession(_zip_relation(), config=CONFIG).discover().pfds
        assert pfds
        registry.save_constraints("acme", pfds, metadata={"rows": 16})
        restored, metadata = registry.load_constraints("acme")
        assert restored == pfds
        assert metadata == {"rows": 16}

    def test_missing_constraints_is_none(self, registry):
        registry.save_data("acme", _zip_relation())
        assert registry.load_constraints("acme") == (None, {})

    def test_append_data_mirrors_delta(self, registry):
        relation = _zip_relation()
        registry.save_data("acme", relation)
        result = relation.apply(MutationBatch.appends([["90009", "Los Angeles"]]))
        written = registry.append_data("acme", relation, result)
        assert written == registry.log_path("acme").stat().st_size
        assert registry.load_data("acme").row_count == 17

    def test_append_without_table_raises(self, registry):
        relation = _zip_relation()
        result = relation.apply(MutationBatch.appends([["1", "2"]]))
        with pytest.raises(UnknownTenantError):
            registry.append_data("ghost", relation, result)

    def test_load_missing_tenant_raises(self, registry):
        with pytest.raises(UnknownTenantError):
            registry.load_data("ghost")

    def test_tenants_listing_and_delete(self, registry):
        registry.save_data("beta", _zip_relation())
        registry.save_data("alpha", _zip_relation())
        assert registry.tenants() == ["alpha", "beta"]
        assert registry.has_tenant("alpha")
        assert registry.delete("alpha") is True
        assert registry.delete("alpha") is False
        assert registry.tenants() == ["beta"]

    def test_save_is_atomic_leaves_no_temp(self, registry):
        registry.save_data("acme", _zip_relation())
        pfds = CleaningSession(_zip_relation(), config=CONFIG).discover().pfds
        registry.save_constraints("acme", pfds)
        leftovers = [p for p in registry.tenant_dir("acme").iterdir()]
        assert sorted(p.name for p in leftovers) == ["data.csv", "pfds.json"]


class TestSessionManager:
    def test_checkout_unknown_tenant_raises(self, registry):
        manager = SessionManager(registry, max_sessions=2)
        with pytest.raises(UnknownTenantError):
            manager.checkout("ghost")

    def test_lru_eviction_keeps_most_recent(self, registry):
        manager = SessionManager(registry, max_sessions=2, config=CONFIG)
        for name in ("a", "b", "c"):
            registry.save_data(name, _zip_relation(name=name))
        manager.checkout("a")
        manager.checkout("b")
        manager.checkout("a")  # refresh a; b is now LRU
        manager.checkout("c")  # evicts b
        assert manager.live_tenants() == ["a", "c"]
        stats = manager.stats()
        assert stats.evicted == 1
        assert stats.rehydrated == 3

    def test_rehydration_restores_constraints(self, registry):
        manager = SessionManager(registry, max_sessions=1, config=CONFIG)
        registry.save_data("acme", _zip_relation())
        pfds = CleaningSession(_zip_relation(), config=CONFIG).discover().pfds
        registry.save_constraints("acme", pfds, metadata={"rows": 16})
        runtime = manager.checkout("acme")
        assert runtime.pfds == pfds
        assert runtime.constraint_metadata == {"rows": 16}
        assert runtime.session.relation.row_count == 16

    def test_busy_tenant_is_not_evicted(self, registry):
        manager = SessionManager(registry, max_sessions=1, config=CONFIG)
        for name in ("a", "b"):
            registry.save_data(name, _zip_relation(name=name))
        busy = manager.checkout("a")
        busy.lock.acquire_read()  # simulate an in-flight detect
        try:
            manager.checkout("b")  # over capacity, but "a" is mid-request
            assert set(manager.live_tenants()) == {"a", "b"}
            assert manager.stats().eviction_skips >= 1
        finally:
            busy.lock.release_read()

    def test_max_sessions_must_be_positive(self, registry):
        with pytest.raises(ValueError):
            SessionManager(registry, max_sessions=0)

    def test_close_drops_all_runtimes(self, registry):
        manager = SessionManager(registry, max_sessions=4, config=CONFIG)
        registry.save_data("acme", _zip_relation())
        manager.checkout("acme")
        manager.close()
        assert manager.live_tenants() == []
        assert registry.has_tenant("acme")  # durable state untouched


class TestCleaningService:
    def test_load_discover_detect_matches_direct_session(self, service):
        _load(service, "acme", errors=1)
        discovery = service.discover("acme")
        assert discovery["constraints"] >= 1
        doc = service.detect("acme")
        assert doc["error_count"] > 0

        direct = CleaningSession.from_rows(
            ["zip", "city"], _zip_rows(1), name="acme", config=CONFIG
        )
        report = direct.detect()
        assert doc["error_count"] == len(report.errors)
        assert {(e["row"], e["attribute"]) for e in doc["errors"]} == {
            (err.cell.row_id, err.cell.attribute) for err in report.errors
        }
        for entry, err in zip(
            sorted(doc["errors"], key=lambda e: (e["row"], e["attribute"])),
            sorted(report.errors, key=lambda e: (e.cell.row_id, e.cell.attribute)),
        ):
            assert entry["value"] == err.current_value
            assert entry["suggested"] == err.suggested_value

    def test_two_tenants_are_isolated(self, service):
        _load(service, "acme", errors=1)
        _load(service, "globex", errors=0)
        service.discover("acme")
        service.discover("globex")
        assert service.detect("acme")["clean"] is False
        assert service.detect("globex")["clean"] is True

    def test_detect_before_discover_is_409(self, service):
        _load(service, "acme")
        with pytest.raises(ServiceError) as excinfo:
            service.detect("acme")
        assert excinfo.value.status == 409

    def test_unknown_tenant_is_404(self, service):
        with pytest.raises(UnknownTenantError) as excinfo:
            service.detect("ghost")
        assert excinfo.value.status == 404

    def test_load_from_csv_text(self, service):
        doc = service.load_tenant("acme", csv_text="zip,city\n90001,Los Angeles\n")
        assert doc == {
            "tenant": "acme",
            "rows": 1,
            "columns": ["zip", "city"],
            "constraints": 0,
        }

    def test_load_requires_a_table(self, service):
        with pytest.raises(ServiceError):
            service.load_tenant("acme")

    def test_reload_keeps_persisted_constraints(self, service):
        _load(service, "acme")
        service.discover("acme")
        doc = _load(service, "acme", errors=1)
        assert doc["constraints"] >= 1
        assert service.detect("acme")["clean"] is False

    def test_ingest_reports_only_new_errors(self, service):
        _load(service, "acme")
        service.discover("acme")
        doc = service.ingest("acme", rows=[["90050", "New York"]])
        assert doc["rows_before"] == 16
        assert doc["rows_appended"] == 1
        assert doc["appended_start"] == 16
        assert doc["clean"] is False
        assert all(entry["row"] >= 16 for entry in doc["errors"])
        # The durable mirror grew too: a fresh service sees the appended row.
        assert service.registry.load_data("acme").row_count == 17

    def test_ingest_rejects_schema_mismatch(self, service):
        _load(service, "acme")
        service.discover("acme")
        with pytest.raises(ServiceError):
            service.ingest("acme", csv_text="zip,town\n90001,LA\n")
        with pytest.raises(ServiceError):
            service.ingest("acme", rows=[["only-one-field"]])

    def test_repair_suggests_without_mutating(self, service):
        _load(service, "acme", errors=1)
        service.discover("acme")
        doc = service.repair("acme")
        assert doc["repair_count"] >= 1
        assert doc["remaining_errors"] is not None
        assert doc["remaining_errors"] < service.detect("acme")["error_count"]
        # The stored table still holds the dirty value.
        assert service.detect("acme")["clean"] is False

    def test_validate_reports_per_constraint(self, service):
        _load(service, "acme")
        service.discover("acme")
        doc = service.validate("acme")
        assert doc["all_hold"] is True
        assert len(doc["entries"]) >= 1

    def test_profile_reports_columns(self, service):
        _load(service, "acme")
        doc = service.profile("acme")
        assert [c["name"] for c in doc["columns"]] == ["zip", "city"]

    def test_unknown_discovery_option_rejected(self, service):
        _load(service, "acme")
        with pytest.raises(ServiceError):
            service.discover("acme", min_supprt=3)

    def test_stats_counts_endpoints_and_sessions(self, service):
        _load(service, "acme")
        service.discover("acme")
        service.detect("acme")
        service.detect("acme")
        stats = service.stats()
        assert stats["sessions"]["live"] == 1
        assert stats["endpoints"]["detect"]["count"] == 2
        assert "p95_ms" in stats["endpoints"]["detect"]
        tenant = stats["tenant_sessions"]["acme"]
        assert tenant["constraints"] >= 1
        assert tenant["lock"]["reads"] >= 2
        assert tenant["lock"]["writes"] >= 1

    def test_drop_tenant_removes_everything(self, service):
        _load(service, "acme")
        assert service.drop_tenant("acme") == {"tenant": "acme", "deleted": True}
        assert service.list_tenants()["tenants"] == []
        with pytest.raises(UnknownTenantError):
            service.detect("acme")

    def test_restart_rehydrates_from_registry(self, registry):
        with CleaningService(registry, config=CONFIG) as first:
            _load(first, "acme", errors=1)
            first.discover("acme")
            before = first.detect("acme")
            assert before["error_count"] > 0
        # A new service over the same registry: no load, no discover.
        with CleaningService(registry, config=CONFIG) as second:
            after = second.detect("acme")
            assert after["error_count"] == before["error_count"]
            assert after["errors"] == before["errors"]
            assert second.stats()["sessions"]["rehydrated"] == 1

    def test_tenant_info_live_and_cold(self, service):
        _load(service, "acme")
        service.discover("acme")
        info = service.tenant_info("acme")
        assert info["live"] is True and info["rows"] == 16
        service.manager.evict("acme")
        cold = service.tenant_info("acme")
        assert cold["live"] is False
        assert cold["constraints"] >= 1


class TestRuntimeCurrencyRaces:
    """A request that wakes up holding the lock of a runtime that was
    replaced (``load``), dropped, or LRU-evicted while it queued must act
    on the *live* runtime, never the orphan — otherwise it mutates a
    discarded session while the durable mirror belongs to the new one."""

    def _replace_with_wider_table(self, service, tenant: str) -> None:
        service.load_tenant(
            tenant,
            columns=["zip", "city", "state"],
            rows=[[zip_code, city, "CA"] for zip_code, city in _zip_rows()],
        )
        service.discover(tenant)

    def _stale_first_checkout(self, service, stale, monkeypatch) -> None:
        """Hand the orphaned runtime to the next checkout, the live one
        after — simulating a writer that queued on the old lock across a
        replacement."""
        real_checkout = service.manager.checkout
        handed = []

        def checkout(tenant):
            if not handed:
                handed.append(stale)
                return stale
            return real_checkout(tenant)

        monkeypatch.setattr(service.manager, "checkout", checkout)

    def test_ingest_on_stale_runtime_lands_on_current(self, service, monkeypatch):
        _load(service, "acme")
        service.discover("acme")
        stale = service.manager.checkout("acme")
        self._replace_with_wider_table(service, "acme")
        self._stale_first_checkout(service, stale, monkeypatch)
        doc = service.ingest("acme", rows=[["90330", "Los Angeles", "CA"]])
        assert doc["rows_appended"] == 1
        current = service.manager.peek("acme")
        assert current is not stale
        assert current.session.relation.row_count == 17
        assert stale.session.relation.row_count == 16  # orphan untouched
        # The durable mirror stayed width-consistent with the new schema.
        data = service.registry.data_path("acme").read_text(encoding="utf-8")
        assert all(line.count(",") == 2 for line in data.strip().splitlines())

    def test_ingest_validates_against_current_schema(self, service, monkeypatch):
        _load(service, "acme")
        service.discover("acme")
        stale = service.manager.checkout("acme")
        self._replace_with_wider_table(service, "acme")
        self._stale_first_checkout(service, stale, monkeypatch)
        # Two-field rows matched the orphan's schema but not the live one.
        with pytest.raises(ServiceError, match="has 2 fields"):
            service.ingest("acme", rows=[["90330", "Los Angeles"]])

    def test_read_on_stale_runtime_lands_on_current(self, service, monkeypatch):
        _load(service, "acme")
        service.discover("acme")
        stale = service.manager.checkout("acme")
        self._replace_with_wider_table(service, "acme")
        self._stale_first_checkout(service, stale, monkeypatch)
        doc = service.profile("acme")
        # The profile describes the live three-column table, not the orphan.
        assert [column["name"] for column in doc["columns"]] == [
            "zip",
            "city",
            "state",
        ]

    def test_load_replaces_and_closes_drained_runtime(self, service):
        _load(service, "acme")
        old = service.manager.peek("acme")
        closed = []
        real_close = old.session.close
        old.session.close = lambda: (closed.append(True), real_close())
        _load(service, "acme")
        assert closed == [True]
        assert service.manager.peek("acme") is not old
        assert old.lock.try_acquire_write()  # released after the drain
        old.lock.release_write()

    def test_evicted_victim_is_closed_under_its_write_lock(self, registry):
        manager = SessionManager(registry, max_sessions=1, config=CONFIG)
        for name in ("a", "b"):
            registry.save_data(name, _zip_relation(name=name))
        victim = manager.checkout("a")
        lock_held_during_close = []
        real_close = victim.session.close

        def close_probe():
            lock_held_during_close.append(not victim.lock.try_acquire_write())
            real_close()

        victim.session.close = close_probe
        manager.checkout("b")  # over capacity: evicts a
        assert lock_held_during_close == [True]
        assert manager.peek("a") is None
        # ... and released afterwards, so a queued request can wake up,
        # notice the runtime is stale, and retry.
        assert victim.lock.try_acquire_write()
        victim.lock.release_write()

    def test_drop_tenant_waits_for_inflight_requests(self, service):
        _load(service, "acme")
        runtime = service.manager.checkout("acme")
        runtime.lock.acquire_read()  # simulate a detect mid-flight
        result: dict = {}
        dropper = threading.Thread(
            target=lambda: result.update(service.drop_tenant("acme"))
        )
        dropper.start()
        time.sleep(0.05)
        assert not result  # blocked behind the reader
        runtime.lock.release_read()
        dropper.join(timeout=10)
        assert result == {"tenant": "acme", "deleted": True}
        assert service.manager.peek("acme") is None
        assert not service.registry.has_tenant("acme")
