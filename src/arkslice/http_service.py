"""HTTP façade: serve ``GET /ark:/{naan}/{body}``, minting and catalog APIs.

Built on the stdlib threading HTTP server so the raw request path reaches
the PID grammar untouched: ``+`` stays a literal plus (never form-decoded)
and only ``%XX`` escapes are percent-decoded before parsing.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import unquote, parse_qs

from .catalog import Catalog, DataSource
from .errors import (
    ArksliceError,
    BadNaan,
    DuplicateName,
    InvalidRange,
    InvalidTarget,
    MalformedPid,
    NotFound,
    UnknownMeasurement,
    UnknownNaan,
    UnknownSensor,
)
from .resolver import Data, Info, Minter, Redirect, Resolver
from .timeseries_store import render_csv

_BAD_REQUEST = (MalformedPid, InvalidRange, DuplicateName, BadNaan, InvalidTarget)
_NOT_FOUND = (UnknownNaan, NotFound, UnknownSensor, UnknownMeasurement)

_log = logging.getLogger(__name__)


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 8057
    naans: list[str] = field(default_factory=lambda: ["57460"])
    sources: list[DataSource] = field(default_factory=list)
    state_dir: str = "state"
    base_url: str = ""

    def __post_init__(self):
        if not self.naans:
            raise ValueError("at least one NAAN must be configured")
        if not self.base_url:
            self.base_url = f"http://{self.host}:{self.port}"

    @classmethod
    def from_file(cls, path) -> "ServiceConfig":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        sources = [
            DataSource(
                id=s["id"],
                root=s["root"],
                kind=s.get("kind", "local_directory"),
            )
            for s in doc.get("sources", [])
        ]
        return cls(
            host=doc.get("host", "127.0.0.1"),
            port=doc.get("port", 8057),
            naans=[str(n) for n in doc.get("naans", ["57460"])],
            sources=sources,
            state_dir=doc.get("state_dir", "state"),
            base_url=doc.get("base_url", ""),
        )


class App:
    """Catalog + minter + resolver wired from one config."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        state = Path(config.state_dir)
        state.mkdir(parents=True, exist_ok=True)
        self.catalog = Catalog(state, config.sources)
        self.minter = Minter(state / "mints.log")
        self.resolver = Resolver(
            self.catalog, self.minter, config.naans, config.base_url
        )

    def source(self, source_id: str) -> DataSource:
        src = self.catalog.sources.get(source_id)
        if src is None:
            raise NotFound(f"no configured source {source_id!r}")
        return src


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


class ResolverHandler(BaseHTTPRequestHandler):
    server_version = "arkslice"
    app: App  # set on the server class per instance

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def _send(self, status: int, content_type: str, body: bytes, headers=()):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str):
        self._send(status, "text/plain; charset=utf-8", (message + "\n").encode())

    def _split_target(self):
        raw, _, query = self.path.partition("?")
        return unquote(raw), query

    def _respond(self, route) -> None:
        """Run ``route(path, query)``; every failure becomes a status line."""
        path, query = self._split_target()
        try:
            route(path, query)
        except _BAD_REQUEST as exc:
            self._error(400, str(exc))
        except _NOT_FOUND as exc:
            self._error(404, str(exc))
        except ArksliceError as exc:
            self._error(500, str(exc))
        except Exception:
            _log.exception("error serving %s %s", self.command, self.path)
            self._error(500, "internal error")

    def do_GET(self):
        self._respond(self._get)

    def do_POST(self):
        self._respond(self._post)

    def _get(self, path: str, query: str):
        if path == "/health":
            self._send(200, "text/plain; charset=utf-8", b"ok\n")
        elif path == "/catalog":
            q = parse_qs(query).get("q", [""])[0]
            self._send(200, "application/json; charset=utf-8",
                       _json_bytes(self.app.catalog.search(q)))
        elif path.startswith("/ark:/"):
            self._resolve_ark(path, query)
        else:
            self._error(404, "unknown path")

    def _resolve_ark(self, path: str, query: str):
        remainder = path[len("/ark:/"):]
        naan, sep, body = remainder.partition("/")
        if not sep or not body:
            raise MalformedPid("expected /ark:/NAAN/BODY")
        info = "info" in parse_qs(query, keep_blank_values=True)
        result = self.app.resolver.resolve(naan, body, info=info)
        if isinstance(result, Redirect):
            self._send(result.status, "text/plain; charset=utf-8", b"",
                       headers=[("Location", result.location)])
        elif isinstance(result, Info):
            self._send(200, "application/json; charset=utf-8",
                       _json_bytes(result.document))
        elif isinstance(result, Data):
            self._send(200, "text/csv; charset=utf-8",
                       render_csv(result.slice).encode("utf-8"))

    def _read_json_body(self) -> dict:
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise InvalidTarget(f"bad Content-Length {declared!r}")
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            raise InvalidTarget("request body is not valid JSON") from None
        if not isinstance(doc, dict):
            raise InvalidTarget("request body must be a JSON object")
        return doc

    def _post(self, path: str, query: str):
        if path == "/mint":
            doc = self._read_json_body()
            target = doc.get("target")
            if not isinstance(target, str):
                raise InvalidTarget("missing string field 'target'")
            binding = self.app.minter.mint(target)
            naan = self.app.resolver.primary_naan
            payload = {
                "noid": binding.noid,
                "ark": f"ark:/{naan}/{binding.noid}",
                "url": f"{self.app.config.base_url}/ark:/{naan}/{binding.noid}",
            }
            self._send(201, "application/json; charset=utf-8",
                       _json_bytes(payload))
        elif path == "/crawl":
            events = self.app.catalog.crawl()
            payload = [
                {
                    "kind": e.kind,
                    "dataset": e.dataset,
                    "source_id": e.source_id,
                    "observed_at": e.observed_at,
                    "old_hash": e.old_hash,
                    "new_hash": e.new_hash,
                }
                for e in events
            ]
            self._send(200, "application/json; charset=utf-8",
                       _json_bytes(payload))
        else:
            self._error(404, "unknown path")


def make_server(app: App) -> ThreadingHTTPServer:
    handler = type("BoundResolverHandler", (ResolverHandler,), {"app": app})
    return ThreadingHTTPServer((app.config.host, app.config.port), handler)


def serve(app: App) -> None:
    """Run the service until interrupted; crawls once at startup so every
    dataset directory under the configured sources is resolvable."""
    app.catalog.crawl()
    server = make_server(app)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def start_background(app: App) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the server on a daemon thread; used by tests and embedders."""
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
