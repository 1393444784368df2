"""Stdlib HTTP front end for :class:`~repro.service.core.DecompositionService`.

A ``ThreadingHTTPServer`` (one thread per connection, no dependencies)
exposing the service's endpoints as JSON-over-HTTP:

===========================  ==============================================
``GET  /health``             liveness probe
``GET  /stats``              per-endpoint latency + cache hit-rate counters
``GET  /artifacts``          registered artifacts with metadata and stats
``POST /community``          ``{"vertices": [...], "min_level": 1.0}``
``POST /membership``         ``{"vertex": 3}``
``POST /strongest_community``  ``{"vertex": 3, "min_vertices": 2}``
``POST /top_k_densest``      ``{"k": 10, "min_vertices": 3}``
``POST /coreness``           ``{"clique": [0, 1]}``
``POST /batch``              ``{"queries": [{"op": ..., ...}, ...]}``
===========================  ==============================================

Every request body and response is JSON. Multi-artifact deployments pass
``"artifact": "<name>"`` per query. Errors are structured:
``{"error": {"type", "message", "status"}}`` with the matching HTTP
status code; inside a batch, per-query errors are reported in place with
status 200 for the envelope.

:func:`http_query` is the matching client helper (used by
``repro query --url``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.request import Request, urlopen

from ..errors import ReproError, ServiceError
from .core import DecompositionService

#: Cap on accepted request bodies (a batch of ~100k small queries).
MAX_BODY_BYTES = 16 << 20


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one DecompositionService."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: DecompositionService) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the service; JSON in, JSON out."""

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate sends; with Nagle on, every
    # keep-alive response would wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        pass  # queries are metered in service.stats(), not stderr

    def _respond(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, exc: Exception, status: Optional[int] = None) -> None:
        status = status if status is not None else getattr(exc, "status", 400)
        self._respond(status, {"error": {"type": type(exc).__name__,
                                         "message": str(exc),
                                         "status": status}})

    def _read_json(self) -> Dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused:
            # answer and close.
            self.close_connection = True
            if length < 0:
                raise ServiceError(f"invalid Content-Length {header!r}")
            raise ServiceError(
                f"request body too large ({length} > {MAX_BODY_BYTES})",
                status=413)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            doc = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ServiceError("request body must be a JSON object")
        return doc

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path in ("/", "/health"):
                self._respond(200, {"ok": True,
                                    "artifacts": service.artifact_names()})
            elif path == "/stats":
                self._respond(200, service.stats())
            elif path == "/artifacts":
                self._respond(200, {"artifacts": service.artifact_info()})
            else:
                self._fail(ServiceError(f"no such endpoint {path!r}",
                                        status=404))
        except ReproError as exc:
            self._fail(exc)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        service = self.server.service
        op = self.path.split("?", 1)[0].strip("/")
        try:
            params = self._read_json()
            if op == "batch":
                queries = params.get("queries")
                if not isinstance(queries, list):
                    raise ServiceError(
                        'batch body must be {"queries": [...]}')
                self._respond(200,
                              {"results": service.batch(queries),
                               "n": len(queries)})
            else:
                self._respond(200, service.query(op, params))
        except ReproError as exc:
            self._fail(exc)
        except Exception as exc:  # never leak a stack trace as HTML
            self._fail(exc, status=500)


def make_server(artifacts: Dict[str, str], host: str = "127.0.0.1",
                port: int = 0,
                cache_bytes: Optional[int] = None) -> ServiceHTTPServer:
    """Build a server over ``{name: artifact_path}`` (port 0 = ephemeral)."""
    kwargs = {} if cache_bytes is None else {"cache_bytes": cache_bytes}
    service = DecompositionService(artifacts, **kwargs)
    return ServiceHTTPServer((host, port), service)


def serve_background(artifacts: Dict[str, str], host: str = "127.0.0.1",
                     port: int = 0, cache_bytes: Optional[int] = None,
                     ) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start a server on a daemon thread; returns (server, thread).

    The test suite and embedding callers use this to get a live endpoint
    without blocking; call ``server.shutdown()`` to stop.
    """
    server = make_server(artifacts, host=host, port=port,
                         cache_bytes=cache_bytes)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-service", daemon=True)
    thread.start()
    return server, thread


# -- client helper -----------------------------------------------------------

def http_query(url: str, op: str, params: Optional[Dict[str, Any]] = None,
               timeout: float = 30.0) -> Dict[str, Any]:
    """POST one query (or GET an introspection path) to a running server.

    ``op`` of ``health`` / ``stats`` / ``artifacts`` issues a GET;
    anything else POSTs ``params`` to ``/<op>``. Returns the decoded
    JSON payload; raises :class:`ServiceError` carrying the server's
    structured error for non-2xx responses.
    """
    from urllib.error import HTTPError
    url = url.rstrip("/")
    try:
        if op in ("health", "stats", "artifacts"):
            request = Request(f"{url}/{op}")
        else:
            body = json.dumps(params or {}).encode("utf-8")
            request = Request(f"{url}/{op}", data=body,
                              headers={"Content-Type": "application/json"})
        with urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            message = payload.get("error", {}).get("message", str(exc))
        except Exception:
            message = str(exc)
        raise ServiceError(message, status=exc.code)


def http_batch(url: str, queries: Sequence[Dict[str, Any]],
               timeout: float = 60.0) -> List[Dict[str, Any]]:
    """POST a batch; returns the per-query result list."""
    payload = http_query(url, "batch", {"queries": list(queries)},
                         timeout=timeout)
    return payload["results"]
