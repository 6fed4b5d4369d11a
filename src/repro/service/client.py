"""A thin stdlib client for the cleaning service daemon.

Mirrors the HTTP routes one-to-one; every method returns the decoded JSON
document.  Service-reported failures raise
:class:`~repro.exceptions.ServiceError` carrying the daemon's message and
status code, so callers (the ``pfd-discover client`` subcommand, the CI
smoke job, the tests) never parse error bodies themselves.

Requests reuse kept-alive connections, so a request pays no TCP connect and
the daemon no new handler thread.  Requests from one thread at a time share
one connection; concurrent requests each take an idle one or open another.

``detect`` keeps a copy of each report it returned and asks the daemon only
for what changed since that copy's ``version``; callers still get the whole
report.  Detection documents come back with each error's ``constraints``
decoded from the wire's constraint table back to constraint strings.
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


#: A client's copy of one detect report: its version, and its decoded error
#: documents by ``(row, attribute)``, in that order.  Never mutated once
#: stored, so a delta can be applied while another thread reads it.
_Copy = tuple[str, dict[tuple[int, str], dict]]


class ServiceClient:
    """JSON-over-HTTP client for one cleaning-service daemon.

    Thread-safe: threads may share one client.  It keeps a copy of the last
    ``detect`` report per tenant and ``min_evidence``, so the daemon sends
    only the errors changed since; a 4xx reply to a detect drops the copy.
    Close it (or use it as a context manager) to drop its connections.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._netloc = urllib.parse.urlsplit(self.base_url).netloc
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self._copies: dict[tuple[str, int], _Copy] = {}
        self._copies_lock = threading.Lock()

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
            data = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
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
        """The tenant's whole detection report, fetched as the changes since
        this client's copy when it has one."""
        key = (tenant, min_evidence)
        with self._copies_lock:
            copy = self._copies.get(key)
        payload: dict = {"min_evidence": min_evidence}
        if copy is not None:
            payload["since"] = copy[0]
        try:
            doc = _decoded(self._request("POST", f"/tenants/{tenant}/detect", payload))
        except ServiceError as error:
            if 400 <= error.status < 500:
                with self._copies_lock:
                    self._copies.pop(key, None)
            raise
        removed = doc.pop("removed", None)  # only a reply to a "since"
        if removed is None:
            errors = {(error["row"], error["attribute"]): error for error in doc["errors"]}
        else:
            errors = _patched(copy[1], doc["errors"], removed)
        with self._copies_lock:
            self._copies[key] = (doc["version"], errors)
        doc["errors"] = [
            {**error, "constraints": list(error["constraints"])} for error in errors.values()
        ]
        return doc

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
        return _decoded(self._request("POST", f"/tenants/{tenant}/ingest", payload))

    def update(self, tenant: str, document: dict, min_evidence: int = 1) -> dict:
        """POST a mutation document (``cells`` / ``delete`` / ``rows`` /
        ``ops`` keys, the :func:`~repro.dataset.mutations.batch_from_document`
        wire form)."""
        payload = dict(document)
        payload["min_evidence"] = min_evidence
        return _decoded(self._request("POST", f"/tenants/{tenant}/update", payload))

    def delete_rows(self, tenant: str, row_ids: Sequence[int], min_evidence: int = 1) -> dict:
        return _decoded(
            self._request(
                "POST",
                f"/tenants/{tenant}/delete",
                {"rows": list(row_ids), "min_evidence": min_evidence},
            )
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


def _decoded(doc: dict) -> dict:
    """A detection document with each error's constraint indices replaced
    by the strings of the document's ``constraints`` table."""
    table = doc.pop("constraints")
    for error in doc["errors"]:
        error["constraints"] = [table[index] for index in error["constraints"]]
    return doc


def _patched(
    errors: dict[tuple[int, str], dict], changed: list[dict], removed: list
) -> dict[tuple[int, str], dict]:
    """A copy of ``errors`` with a detect delta applied, still in cell order
    (``changed`` comes in cell order, as the report lists it)."""
    patched = dict(errors)
    for row, attribute in removed:
        patched.pop((row, attribute), None)
    last = next(reversed(patched), None)
    ordered = True
    for error in changed:
        cell = (error["row"], error["attribute"])
        if cell not in patched:
            if last is not None and cell < last:
                ordered = False
            else:
                last = cell
        patched[cell] = error
    if not ordered:
        patched = {cell: patched[cell] for cell in sorted(patched)}
    return patched
