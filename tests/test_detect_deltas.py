"""Detect replies that carry only what changed since the client's version.

A detect document names the report's state with a ``version``.  Sent back
as ``since``, a version the tenant's detection view still knows gets only
the errors changed since then plus the ``removed`` cells; anything else
gets the whole report.  :class:`~repro.service.client.ServiceClient` keeps
its copy of each report and applies the deltas, so its callers always see
the whole report.

Checked here, on every backend: the versions that must get the whole
report (unknown, another tenant's, a view's from before an eviction, a
rediscovery, a drop and reload, a daemon restart, a ``min_evidence``
switch or a failed splice), and a hypothesis battery in which a client
following ``since`` replies through random writes always holds exactly a
cold detection of the stored table, as a fresh client does.
"""

from __future__ import annotations

import http.client
import itertools
import json
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning import DetectionView
from repro.core.pfd import make_pfd
from repro.engine.backend import available_backends
from repro.exceptions import ServiceError
from repro.service import CleaningService, ConstraintRegistry, ServiceClient, start_server
from repro.session import CleaningSession

_BACKENDS = available_backends()
_SCHEMA = ("zip", "city", "state")
_ZIPS = ["90001", "90002", "90011", "10001", "10002", "abc", ""]
_CITIES = ["Los Angeles", "New York", "Chicago", ""]
_STATES = ["CA", "NY", "IL", ""]
_VALUES = {"zip": _ZIPS, "city": _CITIES, "state": _STATES}

_PFDS = [
    make_pfd(
        "zip",
        "city",
        [
            {"zip": r"{{\D{3}}}\D{2}", "city": "⊥"},
            {"zip": r"{{100}}\D{2}", "city": "New\\ York"},
        ],
    ),
    make_pfd("zip", ("city", "state"), [{"zip": r"{{\D{2}}}\D{3}", "city": "⊥", "state": "⊥"}]),
    make_pfd(
        "zip",
        "state",
        [{"zip": r"{{900}}\D{2}", "state": "CA"}, {"zip": r"{{100}}\D{2}", "state": "NY"}],
    ),
]


def _zip_rows() -> list[tuple[str, str, str]]:
    rows = [(f"900{i % 4:02d}", "Los Angeles", "CA") for i in range(24)]
    rows += [(f"100{i % 4:02d}", "New York", "NY") for i in range(10)]
    rows[7] = ("90003", "Las Angeles", "CA")  # a minority cell
    rows[30] = ("10002", "New York", "CA")  # breaks the constant row
    # Salem is a minority only in the coarser class: one violation.
    rows += [("12001", "Troy", "IL"), ("12001", "Troy", "IL"), ("12101", "Salem", "IL")]
    return rows


def _load(service: CleaningService, tenant: str, rows) -> None:
    """Load ``rows`` under the test's PFD set (no discovery)."""
    service.registry.save_constraints(tenant, _PFDS)
    service.load_tenant(tenant, columns=list(_SCHEMA), rows=[list(row) for row in rows])


@pytest.fixture(params=_BACKENDS)
def backend(request, monkeypatch):
    # Loaded tables take the engine from the environment, rehydrated ones
    # from the service.
    monkeypatch.setenv("REPRO_ENGINE", request.param)
    return request.param


@pytest.fixture
def service(tmp_path, backend):
    with CleaningService(ConstraintRegistry(tmp_path / "registry"), backend=backend) as service:
        _load(service, "acme", _zip_rows())
        yield service


def _assert_whole(doc: dict, service: CleaningService, tenant: str, min_evidence: int = 1):
    """``doc`` is the whole report, as a detect without ``since`` sends it."""
    assert "removed" not in doc
    assert doc == service.detect(tenant, min_evidence=min_evidence)


# -- the delta -----------------------------------------------------------------


def test_a_known_version_gets_only_the_changes(service):
    whole = service.detect("acme")
    assert whole["error_count"] > 0 and len(whole["errors"]) == whole["error_count"]
    same = service.detect("acme", since=whole["version"])
    assert (same["errors"], same["removed"], same["constraints"]) == ([], [], [])
    for key in ("version", "error_count", "violation_count", "clean", "rows"):
        assert same[key] == whole[key]

    service.update("acme", {"cells": [[7, "city", "Los Angeles"]]})  # heal the minority
    healed = service.detect("acme", since=whole["version"])
    assert [7, "city"] in healed["removed"]
    assert healed["version"] != whole["version"]
    assert healed["error_count"] < whole["error_count"]
    # The delta's errors are the changed cells the whole report still holds.
    full = service.detect("acme")
    changed = {(error["row"], error["attribute"]) for error in healed["errors"]}
    assert [e for e in _decoded_errors(full) if (e["row"], e["attribute"]) in changed] == (
        _decoded_errors(healed)
    )


def _decoded_errors(doc: dict) -> list[dict]:
    table = doc["constraints"]
    return [
        {**error, "constraints": [table[index] for index in error["constraints"]]}
        for error in doc["errors"]
    ]


def test_the_constraint_table_lists_each_pfd_once(service):
    doc = service.update("acme", {"cells": [[3, "city", "Chicago"]]})
    assert doc["errors"] and len(doc["constraints"]) == len(set(doc["constraints"]))
    assert {i for error in doc["errors"] for i in error["constraints"]} == set(
        range(len(doc["constraints"]))
    )


# -- versions that must get the whole report -----------------------------------


@pytest.mark.parametrize(
    "token", ["", "x", "nonsense/1", "0.1/1", "0.-1/1", "{view}.{next}/1", "{view}.{n}/x"]
)
def test_an_unknown_version_gets_the_whole_report(service, token):
    whole = service.detect("acme")
    view, n = whole["version"].split("/")[0].split(".")
    token = token.format(view=view, n=n, next=int(n) + 1)
    _assert_whole(service.detect("acme", since=token), service, "acme")


def test_another_tenants_version_gets_the_whole_report(service):
    _load(service, "globex", _zip_rows())
    other = service.detect("globex")
    _assert_whole(service.detect("acme", since=other["version"]), service, "acme")


def test_a_version_from_before_an_eviction_gets_the_whole_report(service):
    before = service.detect("acme")
    assert service.manager.evict("acme")
    after = service.detect("acme", since=before["version"])
    # The rehydrated view counts its splices from scratch too: only the
    # nonce tells the two versions apart.
    assert after["version"].split(".")[1] == before["version"].split(".")[1]
    _assert_whole(after, service, "acme")


def test_a_version_from_before_a_rediscovery_gets_the_whole_report(service):
    before = service.detect("acme")
    service.discover("acme", min_support=2)
    _assert_whole(service.detect("acme", since=before["version"]), service, "acme")


def test_a_version_from_before_a_drop_and_reload_gets_the_whole_report(service):
    before = service.detect("acme")
    service.drop_tenant("acme")
    _load(service, "acme", _zip_rows())
    _assert_whole(service.detect("acme", since=before["version"]), service, "acme")


def test_a_version_of_another_min_evidence_gets_the_whole_report(service):
    one = service.detect("acme", min_evidence=1)
    two = service.detect("acme", min_evidence=2)
    assert one["error_count"] > two["error_count"]
    _assert_whole(service.detect("acme", min_evidence=2, since=one["version"]), service, "acme", 2)
    _assert_whole(service.detect("acme", min_evidence=1, since=two["version"]), service, "acme", 1)


def test_a_version_from_before_a_failed_splice_gets_the_whole_report(service, monkeypatch):
    before = service.detect("acme")
    service.update("acme", {"cells": [[20, "zip", "10003"], [21, "city", ""]]})
    aggregate = DetectionView._aggregate

    def failing(*args, **kwargs):
        raise RuntimeError("splice failed")

    monkeypatch.setattr(DetectionView, "_aggregate", failing)
    with pytest.raises(RuntimeError):
        service.detect("acme", since=before["version"])
    monkeypatch.setattr(DetectionView, "_aggregate", aggregate)
    _assert_whole(service.detect("acme", since=before["version"]), service, "acme")


def test_a_trimmed_log_sends_the_whole_report(service):
    before = service.detect("acme")
    # Flag and heal more cells than twice the report holds, one splice at a
    # time: the log drops the oldest, and the first version predates it.
    rows = [row for row in range(24) if row != 7][: 2 * before["error_count"] + 1]
    for row in rows:
        for city in ("Chicago", "Los Angeles"):
            service.update("acme", {"cells": [[row, "city", city]]})
            service.detect("acme")
    after = service.detect("acme", since=before["version"])
    assert after["error_count"] == before["error_count"]
    _assert_whole(after, service, "acme")


# -- over HTTP ------------------------------------------------------------------


def _serve(service: CleaningService, port: int = 0):
    server = start_server(service, port=port, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread) -> None:
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.close()


class _Recording(ServiceClient):
    """A client that records each request's payload and whether its reply
    was a delta."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent: list = []

    def _request(self, method, path, payload=None):
        document = super()._request(method, path, payload)
        self.sent.append((payload, "removed" in document))
        return document


def test_a_version_from_before_a_daemon_restart_gets_the_whole_report(tmp_path, backend):
    root = tmp_path / "registry"
    service = CleaningService(ConstraintRegistry(root), backend=backend)
    _load(service, "acme", _zip_rows())
    server, thread = _serve(service)
    port = server.server_address[1]
    with _Recording(server.url) as client:
        before = client.detect("acme")
        assert client.detect("acme") == before
        assert client.sent[-1] == ({"min_evidence": 1, "since": before["version"]}, True)
        _stop(server, thread)

        server, thread = _serve(CleaningService(ConstraintRegistry(root), backend=backend), port)
        try:
            after = client.detect("acme")
            assert client.sent[-1] == ({"min_evidence": 1, "since": before["version"]}, False)
            with ServiceClient(server.url) as fresh:
                assert after == fresh.detect("acme")
            assert after["errors"] == before["errors"]
        finally:
            _stop(server, thread)


def test_the_client_hands_out_whole_reports_and_fresh_dicts(service):
    server, thread = _serve(service)
    try:
        with _Recording(server.url) as client:
            first = client.detect("acme")
            first["errors"][0]["constraints"].append("scribbled")
            first["errors"].pop()
            client.update("acme", {"cells": [[12, "city", "Chicago"]]})
            second = client.detect("acme")
            assert client.sent[-1][1] is True  # a delta went over the wire
            with ServiceClient(server.url) as fresh:
                assert second == fresh.detect("acme")
            assert "constraints" not in second and "removed" not in second
            assert all(isinstance(text, str) for e in second["errors"] for text in e["constraints"])
    finally:
        _stop(server, thread)


def test_a_4xx_reply_drops_the_clients_copy(service):
    server, thread = _serve(service)
    try:
        with _Recording(server.url) as client:
            client.detect("acme")
            client.drop("acme")
            with pytest.raises(ServiceError) as raised:
                client.detect("acme")
            assert raised.value.status == 404
            _load(service, "acme", _zip_rows())
            client.detect("acme")
            assert client.sent[-1] == ({"min_evidence": 1}, False)
    finally:
        _stop(server, thread)


def test_detect_rejects_a_bool_min_evidence_and_a_non_string_since(service):
    server, thread = _serve(service)
    try:
        with ServiceClient(server.url) as client:
            for payload in ({"min_evidence": True}, {"since": 5}, {"since": ["a.1/1"]}):
                with pytest.raises(ServiceError) as raised:
                    client._request("POST", "/tenants/acme/detect", payload)
                assert raised.value.status == 400
            with pytest.raises(ServiceError) as raised:
                client.update("acme", {"cells": [[1, "city", "Chicago"]]}, min_evidence=True)
            assert raised.value.status == 400
    finally:
        _stop(server, thread)


def test_replies_are_compact_json(service):
    server, thread = _serve(service)
    try:
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            connection.request("POST", "/tenants/acme/detect", b"{}")
            body = connection.getresponse().read()
        finally:
            connection.close()
        compact = json.dumps(json.loads(body), ensure_ascii=False, separators=(",", ":"))
        assert body == compact.encode("utf-8")
    finally:
        _stop(server, thread)


def test_threads_sharing_a_client_see_whole_reports(service):
    server, thread = _serve(service)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    failures: list = []
    try:
        with ServiceClient(server.url) as shared, ServiceClient(server.url) as writer:

            def read() -> None:
                try:
                    for _ in range(20):
                        doc = shared.detect("acme")
                        assert len(doc["errors"]) == doc["error_count"]
                        cells = [(e["row"], e["attribute"]) for e in doc["errors"]]
                        assert cells == sorted(cells)
                except Exception as error:  # noqa: BLE001 - surfaced below
                    failures.append(error)

            def write() -> None:
                try:
                    for row in range(10):
                        writer.update("acme", {"cells": [[row, "city", "Chicago"]]})
                except Exception as error:  # noqa: BLE001 - surfaced below
                    failures.append(error)

            threads = [threading.Thread(target=read) for _ in range(4)]
            threads.append(threading.Thread(target=write))
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in threads)
            assert not failures, failures
            with ServiceClient(server.url) as fresh:
                assert shared.detect("acme") == fresh.detect("acme")
    finally:
        sys.setswitchinterval(interval)
        _stop(server, thread)


# -- the battery ------------------------------------------------------------------

_row = st.tuples(*(st.sampled_from(_VALUES[name]) for name in _SCHEMA))
_step = st.one_of(
    st.tuples(
        st.just("update"),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.sampled_from(_SCHEMA),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    st.tuples(st.just("ingest"), st.lists(_row, min_size=1, max_size=3)),
    st.tuples(st.just("delete"), st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=2)),
    st.tuples(st.just("detect"), st.sampled_from([1, 2])),
    st.tuples(st.just("validate")),
)
_tenants = itertools.count()


@pytest.fixture(scope="module", params=_BACKENDS)
def daemon(request, tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ENGINE", request.param)
        root = tmp_path_factory.mktemp("registry")
        service = CleaningService(ConstraintRegistry(root), backend=request.param)
        server, thread = _serve(service)
        try:
            with ServiceClient(server.url) as client:
                yield service, server, client
        finally:
            _stop(server, thread)


def _cold_errors(service: CleaningService, tenant: str, min_evidence: int):
    stored = service.registry.load_data(tenant)
    report = CleaningSession(stored, workers=1).detect(_PFDS, min_evidence=min_evidence)
    errors = [
        {
            "row": error.cell.row_id,
            "attribute": error.cell.attribute,
            "value": error.current_value,
            "suggested": error.suggested_value,
            "evidence": error.evidence_count,
            "constraints": list(error.constraints),
        }
        for error in report.errors
    ]
    return errors, len(report.violations)


@settings(max_examples=25, deadline=None)
@given(base=st.lists(_row, min_size=1, max_size=14), steps=st.lists(_step, max_size=10))
def test_a_client_following_deltas_holds_a_cold_detection(daemon, base, steps):
    service, server, client = daemon
    tenant = f"t{next(_tenants)}"
    _load(service, tenant, base)
    row_count = len(base)
    for step in [("detect", 1), *steps, ("detect", 1), ("detect", 2)]:
        kind = step[0]
        if kind == "update":
            cells = [
                [row % row_count, attribute, _VALUES[attribute][value % len(_VALUES[attribute])]]
                for row, attribute, value in step[1]
            ]
            client.update(tenant, {"cells": cells})
        elif kind == "ingest":
            client.ingest(tenant, rows=[list(row) for row in step[1]])
            row_count += len(step[1])
        elif kind == "delete":
            client.delete_rows(tenant, sorted({row % row_count for row in step[1]}))
        elif kind == "validate":
            client.validate(tenant)
        else:
            min_evidence = step[1]
            doc = client.detect(tenant, min_evidence=min_evidence)
            errors, violations = _cold_errors(service, tenant, min_evidence)
            assert doc["errors"] == errors
            assert (doc["error_count"], doc["violation_count"], doc["clean"], doc["rows"]) == (
                len(errors),
                violations,
                not errors,
                row_count,
            )
            with ServiceClient(server.url) as fresh:
                assert fresh.detect(tenant, min_evidence=min_evidence) == doc
