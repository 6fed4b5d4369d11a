"""A thin stdlib client for the cleaning service daemon.

Mirrors the HTTP routes one-to-one; every method returns the decoded JSON
document.  Service-reported failures raise
:class:`~repro.exceptions.ServiceError` carrying the daemon's message and
status code, so callers (the ``pfd-discover client`` subcommand, the CI
smoke job, the tests) never parse error bodies themselves.

Requests reuse kept-alive connections, so a request pays no TCP connect and
the daemon no new handler thread.  Requests from one thread at a time share
one connection; concurrent requests each take an idle one or open another.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.parse
import urllib.request
from typing import Optional, Sequence

from ..exceptions import ServiceError


class ServiceClient:
    """JSON-over-HTTP client for one cleaning-service daemon.

    Close it (or use it as a context manager) to drop its connections.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._netloc = urllib.parse.urlsplit(self.base_url).netloc
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    # -- transport -----------------------------------------------------------

    def _checkout(self) -> http.client.HTTPConnection:
        """An idle connection the daemon has not closed, or a new one."""
        with self._idle_lock:
            while self._idle:
                connection = self._idle.pop()
                # An idle socket that reads as ready holds either EOF (the
                # daemon closed it) or stray bytes; neither can carry a request.
                if not select.select([connection.sock], [], [], 0)[0]:
                    return connection
                connection.close()
        return http.client.HTTPConnection(self._netloc, timeout=self.timeout)

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            headers["Content-Type"] = "application/json; charset=utf-8"
        request = urllib.request.Request(url, data=data, headers=headers, method=method)
        connection = self._checkout()
        reused = connection.sock is not None

        def send() -> None:
            connection.request(
                request.get_method(), request.selector, request.data,
                dict(request.header_items()),
            )

        try:
            try:
                send()
            except OSError:
                if not reused:
                    raise
                # The request never fully left, so the daemon cannot have
                # acted on it: send it again on a fresh connection.
                connection.close()
                send()
        except OSError as error:
            connection.close()
            raise ServiceError(
                f"could not reach service at {self.base_url}: {error}"
            ) from None
        # Once sent, a request is never sent again: the daemon may have
        # applied it before the connection broke.
        try:
            response = connection.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServiceError(
                f"{method} {path} got no reply from {self.base_url} "
                f"(it may have been applied): {error}"
            ) from None
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        if response.status >= 400:
            try:
                message = json.loads(body.decode("utf-8")).get("error", "")
            except (ValueError, UnicodeDecodeError, AttributeError):
                message = body.decode("utf-8", "replace")[:200]
            raise ServiceError(
                f"{method} {path} failed ({response.status}): {message or response.reason}",
                status=response.status,
            )
        return json.loads(body.decode("utf-8"))

    def close(self) -> None:
        """Close the idle connections (a later request opens a new one)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- service endpoints ---------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/health")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def tenants(self) -> dict:
        return self._request("GET", "/tenants")

    def tenant(self, tenant: str) -> dict:
        return self._request("GET", f"/tenants/{tenant}")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown", {})

    # -- tenant endpoints ----------------------------------------------------

    def load(
        self,
        tenant: str,
        csv_text: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
        rows: Optional[Sequence[Sequence[str]]] = None,
    ) -> dict:
        payload: dict = {}
        if csv_text is not None:
            payload["csv"] = csv_text
        if columns is not None:
            payload["columns"] = list(columns)
        if rows is not None:
            payload["rows"] = [list(row) for row in rows]
        return self._request("POST", f"/tenants/{tenant}/load", payload)

    def profile(self, tenant: str) -> dict:
        return self._request("POST", f"/tenants/{tenant}/profile", {})

    def discover(self, tenant: str, **config) -> dict:
        return self._request("POST", f"/tenants/{tenant}/discover", config)

    def detect(self, tenant: str, min_evidence: int = 1) -> dict:
        return self._request(
            "POST", f"/tenants/{tenant}/detect", {"min_evidence": min_evidence}
        )

    def validate(self, tenant: str) -> dict:
        return self._request("POST", f"/tenants/{tenant}/validate", {})

    def repair(self, tenant: str, min_evidence: int = 1) -> dict:
        return self._request(
            "POST", f"/tenants/{tenant}/repair", {"min_evidence": min_evidence}
        )

    def ingest(
        self,
        tenant: str,
        rows: Optional[Sequence[Sequence[str]]] = None,
        csv_text: Optional[str] = None,
        min_evidence: int = 1,
    ) -> dict:
        payload: dict = {"min_evidence": min_evidence}
        if rows is not None:
            payload["rows"] = [list(row) for row in rows]
        if csv_text is not None:
            payload["csv"] = csv_text
        return self._request("POST", f"/tenants/{tenant}/ingest", payload)

    def update(self, tenant: str, document: dict, min_evidence: int = 1) -> dict:
        """POST a mutation document (``cells`` / ``delete`` / ``rows`` /
        ``ops`` keys, the :func:`~repro.dataset.mutations.batch_from_document`
        wire form)."""
        payload = dict(document)
        payload["min_evidence"] = min_evidence
        return self._request("POST", f"/tenants/{tenant}/update", payload)

    def delete_rows(self, tenant: str, row_ids: Sequence[int], min_evidence: int = 1) -> dict:
        return self._request(
            "POST",
            f"/tenants/{tenant}/delete",
            {"rows": list(row_ids), "min_evidence": min_evidence},
        )

    def drop(self, tenant: str) -> dict:
        return self._request("DELETE", f"/tenants/{tenant}")

    # -- helpers -------------------------------------------------------------

    def wait_until_ready(self, attempts: int = 50, delay: float = 0.1) -> dict:
        """Poll ``/health`` until the daemon answers (used right after
        starting one as a subprocess); raises after ``attempts`` failures."""
        last: Optional[ServiceError] = None
        for _ in range(attempts):
            try:
                return self.health()
            except ServiceError as error:  # the failed connection is closed
                last = error
                time.sleep(delay)
        raise ServiceError(
            f"service at {self.base_url} did not become ready: {last}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServiceClient({self.base_url!r})"
