"""Service-level CRUD: /update + /delete semantics and torn-report safety.

The write endpoints (``ingest`` included) share one report schema
(rows_before, rows_updated/rows_deleted/rows_appended, changed_rows, errors,
clean), mirror every successful batch into the durable registry (an append
for append-only batches, a full atomic rewrite otherwise, and an eviction of
the live runtime when that mirror fails), and — because reports are
assembled under the tenant's writer lock — can never hand a concurrent
reader a torn view (half pre-update, half post).
"""

from __future__ import annotations

import errno
import threading

import pytest

from repro import DiscoveryConfig
from repro.cleaning.detector import ErrorDetector
from repro.exceptions import ServiceError
from repro.service import CleaningService, ConstraintRegistry

CONFIG = DiscoveryConfig(min_support=4)


def _zip_rows():
    return [[f"{90000 + i:05d}", "Los Angeles"] for i in range(8)] + [
        [f"{10000 + i:05d}", "New York"] for i in range(8)
    ]


@pytest.fixture
def service(tmp_path):
    registry = ConstraintRegistry(tmp_path / "registry")
    with CleaningService(registry, max_sessions=4, config=CONFIG) as svc:
        svc.load_tenant("acme", columns=["zip", "city"], rows=_zip_rows())
        svc.discover("acme")
        yield svc


class TestUpdateEndpoint:
    def test_update_reports_only_touched_errors(self, service):
        doc = service.update("acme", {"cells": [[0, "city", "New York"]]})
        assert doc["kind"] == "update"
        assert doc["rows_before"] == 16
        assert doc["rows_updated"] == 1
        assert doc["rows_deleted"] == 0
        assert doc["rows_appended"] == 0
        assert doc["changed_rows"] == [0]
        assert doc["clean"] is False
        # Both directions of the zip<->city dependency flag the flipped row —
        # and nothing else.
        assert {entry["row"] for entry in doc["errors"]} == {0}
        assert any(
            entry["attribute"] == "city" and entry["suggested"] == "Los Angeles"
            for entry in doc["errors"]
        )

    def test_update_mirrors_durably(self, service):
        service.update("acme", {"cells": [[0, "city", "Chicago"]]})
        persisted = service.registry.load_data("acme")
        assert persisted.cell(0, "city") == "Chicago"

    def test_noop_update_is_clean_and_reports_zero_rows(self, service):
        doc = service.update("acme", {"cells": [[0, "city", "Los Angeles"]]})
        assert doc["rows_updated"] == 0
        assert doc["clean"] is True
        assert doc["changed_rows"] == []

    def test_mixed_document_applies_all_op_kinds(self, service):
        doc = service.update(
            "acme",
            {
                "cells": [[1, "city", "New York"]],
                "delete": [2],
                "rows": [["90020", "Los Angeles"]],
            },
        )
        assert doc["rows_updated"] == 1
        assert doc["rows_deleted"] == 1
        assert doc["rows_appended"] == 1
        assert set(doc["changed_rows"]) == {1, 2, 16}

    def test_bad_document_is_service_error(self, service):
        with pytest.raises(ServiceError):
            service.update("acme", {})
        with pytest.raises(ServiceError):
            service.update("acme", {"cells": [[0, "city"]]})
        with pytest.raises(ServiceError):
            service.update("acme", {"cells": [[99, "city", "x"]]})


class TestDeleteEndpoint:
    def test_delete_tombstones_and_mirrors(self, service):
        doc = service.delete_rows("acme", [0, 3])
        assert doc["kind"] == "delete"
        assert doc["rows_deleted"] == 2
        assert doc["changed_rows"] == [0, 3]
        assert doc["clean"] is True
        persisted = service.registry.load_data("acme")
        assert persisted.row(0) == ("", "")
        assert persisted.row_count == 16

    def test_delete_requires_row_list(self, service):
        with pytest.raises(ServiceError):
            service.delete_rows("acme", [])
        with pytest.raises(ServiceError):
            service.delete_rows("acme", None)

    def test_deleting_the_minority_row_cleans_the_class(self, service):
        # Introduce an error, then delete the offending row: its class heals.
        doc = service.update("acme", {"rows": [["90050", "New York"]]})
        assert doc["clean"] is False
        doc = service.delete_rows("acme", [16])
        assert doc["clean"] is True


class TestMirror:
    def test_append_only_update_mirrors_by_appending(self, service, monkeypatch):
        def rewrite(*args):
            raise AssertionError("an append-only batch rewrote data.csv")

        monkeypatch.setattr(service.registry, "save_data", rewrite)
        doc = service.update(
            "acme", {"rows": [["90020", "Los Angeles"], {"zip": "10020", "city": "Boston"}]}
        )
        assert doc["rows_appended"] == 2
        assert doc["appended_start"] == 16
        live = service.manager.peek("acme").session.relation
        stored = service.registry.load_data("acme")
        assert list(stored.iter_rows()) == list(live.iter_rows())

    @pytest.mark.parametrize(
        "mirror, write",
        [
            ("append_data", lambda svc: svc.ingest("acme", rows=[["90050", "New York"]])),
            ("save_data", lambda svc: svc.update("acme", {"cells": [[0, "city", "New York"]]})),
        ],
    )
    def test_failed_mirror_keeps_memory_and_registry_together(
        self, service, monkeypatch, mirror, write
    ):
        def full_disk(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(service.registry, mirror, full_disk)
        with pytest.raises(OSError):
            write(service)
        doc = service.detect("acme")
        stored = service.registry.load_data("acme")
        assert doc["rows"] == stored.row_count == 16
        pfds, _ = service.registry.load_constraints("acme")
        cold = ErrorDetector(pfds).detect(stored)
        assert [
            (entry["row"], entry["attribute"], entry["value"], entry["suggested"])
            for entry in doc["errors"]
        ] == [
            (error.cell.row_id, error.cell.attribute, error.current_value, error.suggested_value)
            for error in cold.errors
        ]


class TestIngestRows:
    def test_ingest_stores_rows_as_update_does(self, service):
        # A null cell is stored empty and a mapping row by its values, by
        # both write endpoints alike.
        rows = [[None, "Boston"], {"zip": "10030", "city": "Boston"}, [10031, "Boston"]]
        service.ingest("acme", rows=rows)
        service.update("acme", {"rows": rows})
        live = service.manager.peek("acme").session.relation
        stored = service.registry.load_data("acme")
        expected = [("", "Boston"), ("10030", "Boston"), ("10031", "Boston")]
        assert [live.row(row_id) for row_id in range(16, 19)] == expected
        assert [live.row(row_id) for row_id in range(19, 22)] == expected
        assert list(stored.iter_rows()) == list(live.iter_rows())


class TestTornReports:
    def test_concurrent_readers_never_see_torn_state(self, service):
        """A writer flips row 0 between its clean and dirty value while
        readers hammer ``detect``.  Every reader response must describe one
        of the two consistent states — never a mixture."""
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            for i in range(30):
                value = "New York" if i % 2 == 0 else "Los Angeles"
                service.update("acme", {"cells": [[0, "city", value]]})
            stop.set()

        def reader():
            while not stop.is_set():
                doc = service.detect("acme")
                errors = doc["errors"]
                if doc["error_count"] != len(errors):
                    failures.append("error_count disagrees with errors list")
                if doc["clean"] != (len(errors) == 0):
                    failures.append("clean flag disagrees with errors")
                rows = {entry["row"] for entry in errors}
                if rows not in (set(), {0}):
                    failures.append(f"unexpected error rows {rows}")

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not failures, failures[:5]
        # The final state is deterministic: 30 flips end on "Los Angeles".
        assert service.detect("acme")["clean"] is True
