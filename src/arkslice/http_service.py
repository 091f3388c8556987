"""HTTP façade: serve ``GET /ark:/{naan}/{body}``, minting and catalog APIs.

Built on the stdlib threading HTTP server so the raw request path reaches
the PID grammar untouched: ``+`` stays a literal plus (never form-decoded)
and only ``%XX`` escapes are percent-decoded before parsing.

Connections are persistent HTTP/1.1: a client sends request after request
on one connection, and each reply leaves in one write (status line,
headers and the first 256 KiB of the body) with Nagle's algorithm off.
The server closes a connection, saying ``Connection: close`` first, when
it can no longer tell where the next request starts (a request body it
did not read in full, or any ``Transfer-Encoding``), when a reply fails
part-way (nothing more is written after it), when the client asks, and
after 30 s idle. An HTTP/1.0 request gets an HTTP/1.0 reply and the
connection closed after it, as before. ``Expect: 100-continue`` is
honoured only for a mint body the server will read; any other gets a 417
and a close. A redirect's ``Location`` is percent-encoded outside
printable ASCII, so no request or minted target can add to the head.

The request head is read by ``RequestHeaders``, not the ``email`` parser.
A line that is not a field line, such as an obs-fold line (RFC 9112
§5.2), gets a 400 and a close; a line over 64 KiB, or 100 field lines or
more, gets the stdlib's 431. Only a request line of two words is
HTTP/0.9: any other refused gets an HTTP/1.0 status line (505 for HTTP/2
and later, 400 for a malformed version). An absolute-form target is
served as its path.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from dataclasses import asdict, dataclass, field
from http.client import HTTPException, LineTooLong
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, quote, unquote

from .catalog import Catalog, DataSource, json_bytes
from .errors import ArksliceError, ConfigError, InvalidTarget, NotFound
from .pid_grammar import is_decimal, split_ark
from .resolver import Data, Info, Minter, Redirect, Resolver
from .timeseries_store import render_csv

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
        naans = self.naans
        if not (isinstance(naans, list) and naans and all(
                isinstance(n, str) and is_decimal(n) for n in naans)):
            raise ConfigError(
                f"naans must be a non-empty list of decimal NAANs, got {naans!r}")
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"sources: each id must be used once, got {ids}")
        if not self.base_url:
            self.base_url = f"http://{self.host}:{self.port}"

    @classmethod
    def from_file(cls, path) -> "ServiceConfig":
        """The config a JSON document states; what it leaves out keeps the
        dataclass default. A file that cannot be read or is not JSON is a
        ``ConfigError`` that names the path; a key it does not know, or a
        source without an ``id`` or ``root``, one that names the key."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: a config is a JSON object")
        try:
            if "sources" in doc:
                doc["sources"] = [DataSource(**s) for s in doc["sources"]]
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"{path}: {exc}") from None


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


_NOT_PRINTABLE_ASCII = re.compile(r"[^ -~]")


def header_safe_url(url: str) -> str:
    """``url`` with every character outside printable ASCII percent-encoded
    as UTF-8. A redirect's suffix is percent-decoded from the request path,
    and a mint log written before the URL pattern matched whole strings may
    bind a target ending in LF, so either may hold a CR or LF that would
    end the reply's head early, or a character the head's latin-1 cannot
    carry. A lone surrogate, which no URL can hold, becomes ``%3F``."""
    return _NOT_PRINTABLE_ASCII.sub(
        lambda m: quote(m.group(), safe="", errors="replace"), url)


# A version as the stdlib reads it: each number at most ten digits.
_HTTP_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
# The scheme and host of an absolute-form target (RFC 9112 §3.2.2), or the
# extra slashes of one that starts "//" (the stdlib's gh-87389 rule).
_TARGET_PREFIX = re.compile(r"https?://[^/?#]*/*|//+", re.IGNORECASE)
# A field line (RFC 9112 §5): a token, a colon and a value without CR, LF
# or NUL. An obs-fold line, which starts with a space or tab, is not one.
_FIELD_LINE = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\r\n\0]*)(?:\r?\n)?")
# http.client's bounds: bytes in a header line, lines in a head counting
# its blank line.
MAX_HEAD_LINE, MAX_HEAD_LINES = 65536, 100
# The reply to a head that ``RequestHeaders.read`` refuses.
_HEAD_REFUSALS = {LineTooLong: (431, "Line too long"),
                  HTTPException: (431, "Too many headers"),
                  ValueError: (400, "Bad header line")}


class RequestHeaders:
    """The header fields of one request: ``get``, ``get_all`` and ``in`` as
    ``http.client.HTTPMessage`` offers them, names matched without regard
    to case and every value of a repeated name kept in order."""

    def __init__(self, fields: list[tuple[str, str]]):
        self._fields = fields  # (lower-case name, value)

    @classmethod
    def read(cls, rfile) -> "RequestHeaders":
        """Read field lines, decoded as ISO-8859-1, up to the blank line or
        EOF. Past a bound it raises what ``http.client.parse_headers``
        raises (``LineTooLong``, ``HTTPException``); at a line that is not a
        field line, ``ValueError``."""
        fields = []
        while True:
            line = rfile.readline(MAX_HEAD_LINE + 1)
            if len(line) > MAX_HEAD_LINE:
                raise LineTooLong("header line")
            if len(fields) == MAX_HEAD_LINES:
                raise HTTPException(f"got more than {MAX_HEAD_LINES} headers")
            if line in (b"\r\n", b"\n", b""):
                return cls(fields)
            parsed = _FIELD_LINE.fullmatch(line.decode("iso-8859-1"))
            if parsed is None:
                raise ValueError(f"not a field line: {line[:80]!r}")
            fields.append((parsed[1].lower(), parsed[2].strip(" \t")))

    def get_all(self, name: str, default=None):
        name = name.lower()
        return [value for key, value in self._fields if key == name] or default

    def get(self, name: str, default=None):
        return (self.get_all(name) or [default])[0]

    def __contains__(self, name: str) -> bool:
        return self.get_all(name) is not None


# A mint body holds one URL or PID; a larger declared length is refused
# before anything is read.
MAX_BODY_BYTES = 64 * 1024
WRITE_CHUNK_BYTES = 256 * 1024
BACKGROUND_POLL_S = 0.05  # a background server's shutdown() waits up to this


class ResolverHandler(BaseHTTPRequestHandler):
    server_version = "arkslice"
    protocol_version = "HTTP/1.1"
    # A reply is one write, so Nagle's algorithm would only hold back the
    # last piece of a large body until the client's delayed ACK.
    disable_nagle_algorithm = True
    app: App  # set on the server class per instance
    # Seconds any one socket read or write may take, so a client that
    # stalls mid-request or mid-reply, or idles between requests,
    # releases its handler thread.
    timeout = 30

    _date = (0, "")  # the second last formatted for Date, and its text

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def date_time_string(self, timestamp=None):
        """A ``Date`` is to the second, so its text is formatted once a
        second and shared by every handler; handlers that race each format
        their own second."""
        second = int(time.time() if timestamp is None else timestamp)
        cached = ResolverHandler._date
        if cached[0] != second:
            cached = (second, super().date_time_string(second))
            ResolverHandler._date = cached
        return cached[1]

    def parse_request(self):
        """Read the request line by the stdlib's rules, and the header block
        with ``RequestHeaders.read``. Only a line of two words is HTTP/0.9;
        any other that is refused gets an HTTP/1.0 status line: 505 for a
        major version of 2 or more, 400 for a malformed version. An
        absolute-form target is reduced to its path and query."""
        self.command, self.close_connection = None, True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        self.request_version = self.protocol_version = (
            "HTTP/0.9" if len(words) == 2 else "HTTP/1.0")
        if len(words) >= 3:
            version = _HTTP_VERSION.fullmatch(words[-1])
            if version is None:
                self.send_error(400, f"Bad request version ({words[-1]!r})")
                return False
            if int(version[1]) >= 2:
                self.send_error(505, f"Invalid HTTP version ({words[-1][5:]})")
                return False
            if (int(version[1]), int(version[2])) >= (1, 1):
                self.request_version = self.protocol_version = "HTTP/1.1"
        if len(words) not in (2, 3) or len(words) == 2 and words[0] != "GET":
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        self.command, self.path = words[:2]
        if prefix := _TARGET_PREFIX.match(self.path):
            self.path = "/" + self.path[prefix.end():]
        try:
            self.headers = RequestHeaders.read(self.rfile)
        except (HTTPException, ValueError) as exc:
            self.send_error(*_HEAD_REFUSALS[type(exc)], str(exc))
            return False
        # An HTTP/1.0 request gets an HTTP/1.0 reply and the connection
        # closed after it, even when it asks for keep-alive.
        self.close_connection = (self.request_version != "HTTP/1.1" or
                                 self.headers.get("Connection", "").lower() == "close")
        if (self.request_version == "HTTP/1.1"
                and self.headers.get("Expect", "").lower() == "100-continue"):
            return self.handle_expect_100()
        return True

    def _content_length(self) -> Optional[int]:
        """The declared body length, 0 without a ``Content-Length``. None
        unless there is one such header and its value is ASCII digits
        (RFC 9112 §6.3): no ``+``, ``_``, sign or second header, so this
        server and any proxy before it find the same end of the body."""
        lengths = self.headers.get_all("Content-Length", ["0"])
        if len(lengths) == 1 and is_decimal(lengths[0]):
            return int(lengths[0])
        return None

    def handle_expect_100(self):
        """Invite the body only of a mint that will read all of it. Any
        other ``Expect: 100-continue`` gets a 417 and the connection closed,
        so no client is asked for a body the server would leave unread; a
        bad ``Content-Length`` is left to the 400 every request gets."""
        length = self._content_length()
        if length is None:
            return True
        if (self.command == "POST" and self._split_target()[0] == "/mint"
                and "Transfer-Encoding" not in self.headers
                and "Content-Length" in self.headers
                and length <= MAX_BODY_BYTES):
            return super().handle_expect_100()
        self.close_connection = True
        self._body_read = False
        self._error(417, "100-continue is offered only for a mint body of "
                         f"at most {MAX_BODY_BYTES} bytes")
        return False

    def _body_unread(self) -> bool:
        """Whether request body bytes may be left on the connection, so the
        start of the next request cannot be found."""
        length = self._content_length()
        if "Transfer-Encoding" in self.headers or length is None:
            return True
        return not self._body_read and length != 0

    def _send(self, status: int, content_type: str, body: bytes, headers=()):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self._body_unread():
            self.close_connection = True
        if self.close_connection and self.protocol_version == "HTTP/1.1":
            self.send_header("Connection", "close")
        # The head leaves with the first piece of the body. The socket
        # timeout bounds each write as a whole, so a large body goes out in
        # pieces: a slow reader is served, a stalled one cut.
        view = memoryview(body)
        self._reply_started = True
        self.wfile.write(self._take_head() + view[:WRITE_CHUNK_BYTES])
        for start in range(WRITE_CHUNK_BYTES, len(body), WRITE_CHUNK_BYTES):
            self.wfile.write(view[start:start + WRITE_CHUNK_BYTES])

    def _take_head(self) -> bytes:
        """The status line and headers ``end_headers`` would write, ended by
        the blank line; nothing for an HTTP/0.9 request, which has none."""
        lines = getattr(self, "_headers_buffer", [])
        self._headers_buffer = []
        return b"".join(lines) + b"\r\n" if lines else b""

    def _error(self, status: int, message: str):
        self._send(status, "text/plain; charset=utf-8", (message + "\n").encode())

    def _split_target(self):
        raw, _, query = self.path.partition("?")
        return unquote(raw), query

    def _respond(self, route) -> None:
        """Run ``route(path, query)``; a failure before the reply starts
        becomes the only status line, one after it closes the connection."""
        path, query = self._split_target()
        self._body_read = False
        self._reply_started = False
        if self._content_length() is None:
            bad = self.headers.get_all("Content-Length")
            self._error(400, f"bad Content-Length {bad!r}")  # and closes
            return
        try:
            route(path, query)
        except Exception as exc:
            if self._reply_started:
                # A second status line would land inside the first reply's
                # body, so nothing more is written on this connection.
                _log.exception("error replying to %s %s", self.command, self.path)
                self.close_connection = True
                return
            # A head half built when the failure came is dropped with it.
            self._headers_buffer = []
            if isinstance(exc, ArksliceError):
                self._error(exc.http_status, str(exc))
            else:
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
                       json_bytes(self.app.catalog.search(q)))
        elif path.startswith("/ark:/"):
            self._resolve_ark(path, query)
        else:
            raise NotFound("unknown path")

    def _resolve_ark(self, path: str, query: str):
        info = "info" in parse_qs(query, keep_blank_values=True)
        result = self.app.resolver.resolve(*split_ark(path[1:]), info=info)
        if isinstance(result, Redirect):
            self._send(result.status, "text/plain; charset=utf-8", b"",
                       headers=[("Location", header_safe_url(result.location))])
        elif isinstance(result, Info):
            self._send(200, "application/json; charset=utf-8",
                       json_bytes(result.document))
        elif isinstance(result, Data):
            self._send(200, "text/csv; charset=utf-8",
                       render_csv(result.slice))

    def _read_json_body(self) -> dict:
        length = self._content_length()  # _respond refused a bad one
        if length > MAX_BODY_BYTES:
            raise InvalidTarget(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raw = b""
        if len(raw) != length:
            raise InvalidTarget("request body shorter than its Content-Length")
        self._body_read = True
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
            self._send(201, "application/json; charset=utf-8",
                       json_bytes(self.app.resolver.mint(target)))
        elif path == "/crawl":
            payload = [asdict(e) for e in self.app.catalog.crawl()]
            self._send(200, "application/json; charset=utf-8",
                       json_bytes(payload))
        else:
            raise NotFound("unknown path")


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
    thread = threading.Thread(
        target=server.serve_forever, args=(BACKGROUND_POLL_S,), daemon=True)
    thread.start()
    return server, thread
