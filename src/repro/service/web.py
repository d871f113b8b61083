"""Optional stdlib-only HTTP front-end for :class:`ClusterService`.

A thin JSON-over-HTTP veneer on the snapshot query API — handy for
poking a running service with ``curl``; not a production web stack.
Every response carries the snapshot ``version`` that answered it, so a
client can detect which committed state it observed.

Routes::

    GET  /stats                  -> SnapshotStats as JSON
    GET  /top?n=10               -> largest clusters
    GET  /members?cluster=3      -> member doc ids of one cluster
    POST /assign                 -> {"text": ...} or {"terms": {id: n}}
    POST /add                    -> {"documents": [loader records],
                                     "at_time": float}

Reads are served concurrently (ThreadingHTTPServer) straight off the
current snapshot — they never touch the writer. ``/add`` enqueues into
the writer queue like any other producer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, Optional
from urllib.parse import parse_qs, urlparse

from ..exceptions import ReproError

if TYPE_CHECKING:
    from .service import ClusterService


class ServiceHTTPServer:
    """Owns the HTTP listener thread for one :class:`ClusterService`."""

    def __init__(
        self,
        service: "ClusterService",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        handler = _make_handler(service)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return str(self._server.server_address[0])

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with 0)."""
        return int(self._server.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
        self._thread = None


def _make_handler(service: "ClusterService") -> type:
    """Build a request handler class bound to ``service``."""

    class Handler(BaseHTTPRequestHandler):
        # quiet by default: request logging goes nowhere
        def log_message(self, fmt: str, *args: Any) -> None:
            pass

        def _reply(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._reply(status, {"error": message})

        def _read_json(self) -> Optional[Dict[str, Any]]:
            header = self.headers.get("Content-Length") or "0"
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                # rfile.read(-1) would block until the client hangs up
                self._error(400, f"invalid Content-Length {header!r}")
                return None
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._error(400, "body is not valid JSON")
                return None
            if not isinstance(payload, dict):
                self._error(400, "body must be a JSON object")
                return None
            return payload

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            parsed = urlparse(self.path)
            query = parse_qs(parsed.query)
            try:
                if parsed.path == "/stats":
                    stats = service.stats()
                    self._reply(200, {
                        "version": stats.version,
                        "at_time": stats.at_time,
                        "active_documents": stats.active_documents,
                        "non_empty_clusters": stats.non_empty_clusters,
                        "outliers": stats.outliers,
                        "clustering_index": stats.clustering_index,
                        "tdw": stats.tdw,
                        "terms": stats.terms,
                        "k": stats.k,
                    })
                elif parsed.path == "/top":
                    n = int(query.get("n", ["10"])[0])
                    snapshot = service.snapshot()
                    self._reply(200, {
                        "version": snapshot.version,
                        "clusters": [
                            {
                                "cluster_id": info.cluster_id,
                                "size": info.size,
                                "contribution": info.contribution,
                            }
                            for info in snapshot.top_clusters(n)
                        ],
                    })
                elif parsed.path == "/members":
                    if "cluster" not in query:
                        self._error(400, "missing ?cluster= parameter")
                        return
                    cluster_id = int(query["cluster"][0])
                    snapshot = service.snapshot()
                    self._reply(200, {
                        "version": snapshot.version,
                        "cluster_id": cluster_id,
                        "members": list(snapshot.members(cluster_id)),
                    })
                else:
                    self._error(404, f"unknown path {parsed.path!r}")
            except (ReproError, ValueError) as exc:
                self._error(400, str(exc))

        def do_POST(self) -> None:  # noqa: N802 - stdlib casing
            parsed = urlparse(self.path)
            payload = self._read_json()
            if payload is None:
                return
            try:
                if parsed.path == "/assign":
                    result = self._assign(payload)
                    if result is not None:
                        self._reply(200, result)
                elif parsed.path == "/add":
                    count = self._add(payload)
                    if count is not None:
                        self._reply(202, {"queued": count})
                else:
                    self._error(404, f"unknown path {parsed.path!r}")
            except (ReproError, ValueError) as exc:
                self._error(400, str(exc))
            except KeyError as exc:
                # a record missing 'doc_id'/'terms'/'timestamp' is a
                # client error, not a server traceback
                self._error(400, f"missing field {exc.args[0]!r}")
            except (TypeError, AttributeError) as exc:
                self._error(400, f"malformed request: {exc}")

        def _assign(
            self, payload: Dict[str, Any]
        ) -> Optional[Dict[str, Any]]:
            if "text" in payload:
                answer = service.assign(str(payload["text"]))
            elif "terms" in payload:
                terms = {
                    int(term_id): int(count)
                    for term_id, count in payload["terms"].items()
                }
                answer = service.assign(terms)
            else:
                self._error(400, "body needs 'text' or 'terms'")
                return None
            return {
                "cluster_id": answer.cluster_id,
                "gain": answer.gain,
                "is_outlier": answer.is_outlier,
                "version": answer.version,
            }

        def _add(self, payload: Dict[str, Any]) -> Optional[int]:
            if service.vocabulary is None:
                self._error(400, "service has no vocabulary; POST /add "
                                 "is unavailable")
                return None
            records = payload.get("documents")
            if not isinstance(records, list) or not records:
                self._error(400, "'documents' must be a non-empty list")
                return None
            if "at_time" not in payload:
                self._error(400, "missing 'at_time'")
                return None
            # _intern_record serializes Vocabulary.add across the
            # ThreadingHTTPServer handler threads and the tailer
            documents = [
                service._intern_record(record) for record in records
            ]
            service.add(documents, at_time=float(payload["at_time"]))
            return len(documents)

    return Handler
