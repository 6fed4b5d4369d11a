"""The HTTP codec over :class:`~repro.service.app.CleaningService`.

Starts a real :class:`~repro.service.http.CleaningServiceServer` on an
ephemeral port (serving from a background thread) and drives it with the
stdlib :class:`~repro.service.client.ServiceClient` — the same pair the
``pfd-discover serve`` / ``client`` subcommands wire up.
"""

from __future__ import annotations

import errno
import http.client
import json
import select
import socket
import sys
import threading
import urllib.request

import pytest

from repro import DiscoveryConfig
from repro.exceptions import ServiceError
from repro.service import (
    CleaningService,
    ConstraintRegistry,
    ServiceClient,
    start_server,
)

CONFIG = DiscoveryConfig(min_support=4)


def _zip_rows(errors: int = 0):
    rows = [(f"{90000 + i:05d}", "Los Angeles") for i in range(8)] + [
        (f"{10000 + i:05d}", "New York") for i in range(8)
    ]
    for i in range(errors):
        rows.append((f"{90100 + i:05d}", "New York"))
    return rows


@pytest.fixture
def registry_root(tmp_path):
    return tmp_path / "registry"


@pytest.fixture
def server(registry_root):
    service = CleaningService(ConstraintRegistry(registry_root), config=CONFIG)
    server = start_server(service, port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()


@pytest.fixture
def client(server):
    with ServiceClient(server.url) as client:
        yield client


class TestRoundTrip:
    def test_health_and_stats(self, client):
        health = client.health()
        assert health["status"] == "ok"
        stats = client.stats()
        assert stats["sessions"]["live"] == 0
        assert stats["registered_tenants"] == 0

    def test_full_pipeline_over_http(self, client):
        doc = client.load("acme", columns=["zip", "city"], rows=_zip_rows(1))
        assert doc["rows"] == 17

        discovery = client.discover("acme", min_support=4)
        assert discovery["constraints"] >= 1

        report = client.detect("acme")
        assert report["clean"] is False
        assert report["error_count"] > 0

        validation = client.validate("acme")
        assert validation["entries"]

        repair = client.repair("acme")
        assert repair["repair_count"] >= 1

        ingest = client.ingest("acme", rows=[["90001", "Los Angeles"]])
        assert ingest["rows_appended"] == 1
        assert ingest["clean"] is True

        profile = client.profile("acme")
        assert [c["name"] for c in profile["columns"]] == ["zip", "city"]

    def test_two_tenants_concurrently(self, client):
        client.load("acme", columns=["zip", "city"], rows=_zip_rows(1))
        client.load("globex", columns=["zip", "city"], rows=_zip_rows(0))

        results: dict[str, dict] = {}
        errors: list[Exception] = []

        def run(tenant):
            try:
                client.discover(tenant, min_support=4)
                results[tenant] = client.detect(tenant)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(name,))
            for name in ("acme", "globex")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert results["acme"]["clean"] is False
        assert results["globex"]["clean"] is True

    def test_tenant_listing_and_drop(self, client):
        client.load("acme", columns=["zip", "city"], rows=_zip_rows())
        listing = client.tenants()
        assert [t["tenant"] for t in listing["tenants"]] == ["acme"]
        info = client.tenant("acme")
        assert info["live"] is True
        assert client.drop("acme") == {"tenant": "acme", "deleted": True}
        assert client.tenants()["tenants"] == []


class TestErrors:
    def test_unknown_tenant_maps_to_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.detect("ghost")
        assert excinfo.value.status == 404

    def test_detect_before_discover_maps_to_409(self, client):
        client.load("acme", columns=["zip", "city"], rows=_zip_rows())
        with pytest.raises(ServiceError) as excinfo:
            client.detect("acme")
        assert excinfo.value.status == 409
        assert "discover" in str(excinfo.value)

    def test_bad_payload_maps_to_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.load("acme")  # neither csv nor rows
        assert excinfo.value.status == 400

    def test_invalid_json_body_maps_to_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/tenants/acme/load",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_route_maps_to_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_unreachable_daemon_raises_service_error(self):
        with ServiceClient("http://127.0.0.1:9", timeout=0.5) as client:
            with pytest.raises(ServiceError):
                client.health()


class TestKeepAliveHygiene:
    """Error replies that may not have consumed the request body must not
    leave it on a keep-alive socket, where it would be parsed as the start
    of the connection's next request."""

    def _connect(self, server) -> http.client.HTTPConnection:
        port = server.server_address[1]
        return http.client.HTTPConnection("127.0.0.1", port, timeout=10)

    def test_oversize_body_reply_closes_connection(self, server):
        connection = self._connect(server)
        try:
            # Announce a body far over the cap without sending it: the 413
            # is sent before any of it is read.
            connection.putrequest("POST", "/tenants/acme/load")
            connection.putheader("Content-Length", str(1 << 30))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_unknown_route_with_body_closes_connection(self, server):
        connection = self._connect(server)
        try:
            # /nope has no handler, so its body is never read.
            connection.request("POST", "/nope", body=b'{"x": 1}')
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_success_replies_keep_the_connection_open(self, server):
        connection = self._connect(server)
        try:
            for _ in range(2):  # two requests over one connection
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") != "close"
                response.read()
        finally:
            connection.close()

    def test_quiet_is_per_server_not_per_process(self, registry_root):
        from repro.service.http import _Handler

        loud_service = CleaningService(
            ConstraintRegistry(registry_root / "loud"), config=CONFIG
        )
        loud_server = start_server(loud_service, port=0, quiet=False)
        try:
            assert loud_server.quiet is False
            assert "quiet" not in vars(_Handler)  # no shared class state
        finally:
            loud_server.close()


class TestPersistence:
    def test_registry_survives_daemon_restart(self, registry_root):
        def start(root):
            service = CleaningService(ConstraintRegistry(root), config=CONFIG)
            server = start_server(service, port=0, quiet=True)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            return server, thread

        server, thread = start(registry_root)
        with ServiceClient(server.url) as client:
            client.load("acme", columns=["zip", "city"], rows=_zip_rows(1))
            client.discover("acme", min_support=4)
            before = client.detect("acme")
        assert before["error_count"] > 0
        server.shutdown()
        thread.join(timeout=10)
        server.close()

        # The durable layout is exactly the two documented files.
        tenant_dir = registry_root / "acme"
        assert sorted(p.name for p in tenant_dir.iterdir()) == [
            "data.csv",
            "pfds.json",
        ]
        document = json.loads((tenant_dir / "pfds.json").read_text("utf-8"))
        assert document["format"] == "pfd-set/1"
        assert document["metadata"]["tenant"] == "acme"

        # A fresh daemon serves detect without re-load or re-discover.
        server, thread = start(registry_root)
        try:
            with ServiceClient(server.url) as client:
                after = client.detect("acme")
                assert after["errors"] == before["errors"]
                assert client.stats()["sessions"]["rehydrated"] == 1
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.close()

    def test_shutdown_endpoint_stops_serve_forever(self, registry_root):
        service = CleaningService(ConstraintRegistry(registry_root), config=CONFIG)
        server = start_server(service, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServiceClient(server.url) as client:
            assert client.shutdown()["status"] == "shutting down"
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.close()


class TestPersistentConnection:
    """One client keeps one kept-alive connection, and never sends a request
    twice."""

    @pytest.fixture
    def accepted(self, server, monkeypatch) -> list[socket.socket]:
        """The server-side socket of every connection the daemon accepts."""
        sockets: list[socket.socket] = []
        process_request = server.process_request

        def record(request, client_address):
            sockets.append(request)
            process_request(request, client_address)

        monkeypatch.setattr(server, "process_request", record)
        return sockets

    def test_one_client_opens_one_connection(self, client, accepted):
        for _ in range(20):
            assert client.health()["status"] == "ok"
        assert len(accepted) == 1

    def test_accepted_socket_disables_nagle(self, client, accepted):
        client.health()
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_reconnects_after_the_daemon_closes_an_idle_connection(self, client, accepted):
        client.health()
        accepted[0].shutdown(socket.SHUT_RDWR)
        (idle,) = client._idle
        assert select.select([idle.sock], [], [], 10)[0]  # the close reached the client
        assert client.health()["status"] == "ok"
        assert len(accepted) == 2

    def test_request_that_failed_to_send_goes_again_on_a_new_connection(self, client, accepted):
        client.health()
        (idle,) = client._idle
        send = idle.send

        def broken_pipe(data):
            idle.send = send
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        idle.send = broken_pipe
        assert client.health()["status"] == "ok"
        assert len(accepted) == 2

    def test_request_lost_after_sending_is_not_sent_again(self, client, monkeypatch):
        from repro.service.http import _Handler

        client.load("acme", columns=["zip", "city"], rows=_zip_rows())
        client.discover("acme", min_support=4)
        reply = _Handler._reply

        def die_before_replying(self, document, status=200):
            if self.path.endswith("/ingest"):
                self.close_connection = True  # applied, but never answered
                return
            reply(self, document, status)

        monkeypatch.setattr(_Handler, "_reply", die_before_replying)
        with pytest.raises(ServiceError):
            client.ingest("acme", rows=[["90001", "Los Angeles"]])
        assert client.tenant("acme")["rows"] == 17

    def test_threads_sharing_a_client_never_share_a_connection(self, client, accepted):
        client.load("acme", columns=["zip", "city"], rows=_zip_rows())
        client.discover("acme", min_support=4)
        starts: list[int] = []
        errors: list[Exception] = []

        def ingest():
            try:
                for _ in range(10):
                    doc = client.ingest("acme", rows=[["90001", "Los Angeles"]])
                    starts.append(doc["appended_start"])
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ingest) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(starts) == list(range(16, 76))
        assert client.tenant("acme")["rows"] == 76
        assert len(accepted) <= 6

    def test_shutdown_returns_while_a_connection_is_open(self, server, client):
        client.health()
        stopper = threading.Thread(target=server.shutdown)
        stopper.start()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
