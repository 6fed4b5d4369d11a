"""The HTTP face of the cleaning service: stdlib-only JSON over HTTP.

``ThreadingHTTPServer`` gives one thread per connection, and connections
are kept alive across requests (HTTP/1.1).  That is exactly the
concurrency model the service layer is built for: per-tenant
readers-writer locks let ``detect``/``validate`` requests overlap while an
``ingest`` drains them and appends exclusively.  No dependency beyond the
standard library.

Routes (all bodies and responses are JSON)::

    GET    /health                      liveness + version
    GET    /stats                       service counters + live SessionStats
    GET    /tenants                     registered tenants (live flags)
    GET    /tenants/<t>                 one tenant's durable/live state
    POST   /tenants/<t>/load            {"csv": text} | {"columns":[...],"rows":[[...]]}
    POST   /tenants/<t>/profile         {}
    POST   /tenants/<t>/discover        discovery-config knobs (all optional)
    POST   /tenants/<t>/detect          {"min_evidence": 1}
    POST   /tenants/<t>/validate        {}
    POST   /tenants/<t>/repair          {"min_evidence": 1}
    POST   /tenants/<t>/ingest          {"rows": [[...]]} | {"csv": text}
    POST   /tenants/<t>/update          mutation document: {"cells":[[row,attr,value],...]}
                                        | {"delete":[...]} | {"rows":[[...]]} | {"ops":[...]}
    POST   /tenants/<t>/delete          {"rows": [row_id, ...]}
    DELETE /tenants/<t>                 drop tenant (registry + live session)
    POST   /shutdown                    stop serving after this response

Errors come back as ``{"error": message}`` with the status carried by the
raised :class:`~repro.exceptions.ServiceError` (400 by default, 404 for
unknown tenants, 409 for state conflicts); unexpected failures are 500.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..exceptions import ReproError, ServiceError
from .app import CleaningService

_MAX_BODY_BYTES = 64 << 20  # a tenant table upload is text CSV; 64 MiB is ample


class CleaningServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`CleaningService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: CleaningService,
        quiet: bool = False,
    ):
        super().__init__(address, _Handler)
        self.service = service
        #: Silence per-request stderr lines (per server, not per process).
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        display = "127.0.0.1" if host in ("0.0.0.0", "") else host
        return f"http://{display}:{port}"

    def close(self) -> None:
        self.server_close()
        self.service.close()


class _Handler(BaseHTTPRequestHandler):
    server_version = "pfd-service/1"
    protocol_version = "HTTP/1.1"
    # A reply goes out as two writes (headers, body); with Nagle on, a
    # kept-alive connection holds the second until the client's delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)

    @property
    def service(self) -> CleaningService:
        return self.server.service  # type: ignore[attr-defined]

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        if length > _MAX_BODY_BYTES:
            raise ServiceError(f"request body exceeds {_MAX_BODY_BYTES} bytes", status=413)
        raw = self.rfile.read(length)
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    def _reply(self, document: dict, status: int = 200) -> None:
        payload = json.dumps(document, ensure_ascii=False).encode("utf-8")
        if status >= 400:
            # Error paths may not have read the request body (413 oversize,
            # unknown routes); with keep-alive the leftover bytes would be
            # parsed as the connection's next request, so close instead.
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self, method: str) -> None:
        try:
            handled = self._route(method)
        except ServiceError as error:
            self._reply({"error": str(error)}, status=error.status)
            return
        except ReproError as error:
            self._reply({"error": str(error)}, status=400)
            return
        except Exception as error:  # noqa: BLE001 - the daemon must not die
            self._reply({"error": f"internal error: {error}"}, status=500)
            return
        if not handled:
            self._reply({"error": f"no route for {method} {self.path}"}, status=404)

    def _route(self, method: str) -> bool:
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [part for part in path.split("/") if part]

        if method == "GET":
            if parts == ["health"]:
                self._reply(self.service.health())
                return True
            if parts == ["stats"]:
                self._reply(self.service.stats())
                return True
            if parts == ["tenants"]:
                self._reply(self.service.list_tenants())
                return True
            if len(parts) == 2 and parts[0] == "tenants":
                self._reply(self.service.tenant_info(parts[1]))
                return True
            return False

        if method == "DELETE":
            if len(parts) == 2 and parts[0] == "tenants":
                self._reply(self.service.drop_tenant(parts[1]))
                return True
            return False

        if method == "POST":
            if parts == ["shutdown"]:
                self.close_connection = True
                self._reply({"status": "shutting down"})
                # shutdown() must run off the request thread (it joins the
                # serve loop, which is waiting for this handler to return).
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return True
            if len(parts) == 3 and parts[0] == "tenants":
                tenant, action = parts[1], parts[2]
                body = self._read_body()
                self._reply(self._tenant_action(tenant, action, body))
                return True
            return False

        return False

    def _tenant_action(self, tenant: str, action: str, body: dict) -> dict:
        service = self.service
        if action == "load":
            return service.load_tenant(
                tenant,
                csv_text=body.get("csv"),
                columns=body.get("columns"),
                rows=body.get("rows"),
            )
        if action == "profile":
            return service.profile(tenant)
        if action == "discover":
            return service.discover(tenant, **body)
        if action == "detect":
            return service.detect(tenant, min_evidence=_min_evidence(body))
        if action == "validate":
            return service.validate(tenant)
        if action == "repair":
            return service.repair(tenant, min_evidence=_min_evidence(body))
        if action == "ingest":
            return service.ingest(
                tenant,
                rows=body.get("rows"),
                csv_text=body.get("csv"),
                min_evidence=_min_evidence(body),
            )
        if action == "update":
            document = {
                key: body[key] for key in ("cells", "delete", "rows", "ops") if key in body
            }
            return service.update(tenant, document, min_evidence=_min_evidence(body))
        if action == "delete":
            return service.delete_rows(
                tenant, body.get("rows"), min_evidence=_min_evidence(body)
            )
        raise ServiceError(f"unknown tenant action {action!r}", status=404)

    # -- HTTP verbs ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def _min_evidence(body: dict) -> int:
    value = body.get("min_evidence", 1)
    if not isinstance(value, int) or value < 1:
        raise ServiceError("'min_evidence' must be an integer >= 1")
    return value


def start_server(
    service: CleaningService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = False,
) -> CleaningServiceServer:
    """Bind a server (``port=0`` picks a free port) without serving yet.

    Callers run :meth:`serve_forever` themselves — the CLI blocks on it, the
    tests run it on a background thread.
    """
    return CleaningServiceServer((host, port), service, quiet=quiet)


def serve(
    service: CleaningService,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = False,
    ready: Optional[threading.Event] = None,
) -> None:
    """Serve until ``POST /shutdown`` (or KeyboardInterrupt); closes cleanly."""
    server = start_server(service, host=host, port=port, quiet=quiet)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.close()
