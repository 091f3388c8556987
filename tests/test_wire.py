"""Every request gets a well-formed reply, checked on the wire.

Generated request heads go to one in-process server over raw sockets, one
connection per example, and the replies are read by a strict reader of
this module's own (not ``http.client``):

- every reply is a status line, then header lines of printable ASCII,
  then exactly one ``Content-Length`` of digits and that many body bytes;
- a ``100 Continue`` may come first, only to a request that asked for it;
- a reply to HEAD may leave its body out;
- a request line of two words is HTTP/0.9, and its reply is the bare body.

Each example also holds the server to these invariants: one reply per
complete request, in order; a reply that ends the connection says so (an
HTTP/1.0 status line or ``Connection: close``) and is followed by EOF,
and a request asking ``Connection: close`` gets one; no 5xx other than
501 (method) and 505 (version); a fresh ``GET /health`` gets 200 after.
Every socket has a timeout, so a stalled server fails an example instead
of hanging it. The client half-closes after its last byte, so the server
never waits for more.
"""

import re
import socket
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle
from arkslice.http_service import start_background
from conftest import DATASET, NAAN, make_app

TIMEOUT_S = 5
PID = f"ark:/{NAAN}/{DATASET}.DWE.V@13332~13340"
ORIGIN_TARGETS = [
    "/health", "/nope", "/catalog?q=mini", "/mint", f"/{PID}", f"/{PID}?info",
    f"/ark:/{NAAN}/{DATASET}.HPE+DWE.V+I@13332~13333",
    f"/ark:/{NAAN}/{DATASET}.DWE.V@13332%7E13340",
    f"/ark:/{NAAN}/{DATASET}.DWE.V@1%0A", f"/ark:/{NAAN}/{DATASET}%0D.DWE.V@*",
    f"/ark:/{NAAN}/{DATASET}.DWE.V@%00", "/%FF", "/\xe9t\xe9", "//health",
]
HOSTS = ["http://127.0.0.1", "HTTP://Example.org:8057", "https://h"]
VERSIONS = ["HTTP/1.0", "HTTP/1.1", "HTTP/0.9", "HTTP/2.0", "HTTP/3",
            "HTTP/1.1.1", "HTTX/1.1", "HTTP/1.x", None]  # None: HTTP/0.9 form
BAD_VERSIONS = {"HTTP/3", "HTTP/1.1.1", "HTTX/1.1", "HTTP/1.x"}
BODY = b'{"target": "http://x.org/"}'
FRAMINGS = ["none", "zero", "exact", "abc", "plus", "two", "chunked"]
# A reason phrase may hold obs-text (RFC 9112 §4); a reply's fields are
# printable ASCII.
STATUS_LINE = re.compile(rb"HTTP/1\.[01] ([1-5][0-9][0-9]) [\t\x20-\x7e\x80-\xff]*")
FIELD = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+: [ -~]*")


@dataclass
class Request:
    raw: bytes
    words: int  # in the request line
    method: str
    version: str | None  # None in the two-word form
    target: str  # the origin-form path it names
    clean: bool  # no body, Expect, Transfer-Encoding or obs-fold
    expect: bool
    close: bool


@dataclass
class Reply:
    status: int
    status_line: bytes
    fields: list
    body: bytes
    interim: bool  # a 100 Continue came first

    @property
    def closes(self) -> bool:
        return (self.status_line.startswith(b"HTTP/1.0 ")
                or b"connection: close" in [f.lower() for f in self.fields])


@st.composite
def requests(draw):
    method = draw(st.sampled_from(["GET", "POST", "HEAD", "PUT"]))
    target = draw(st.sampled_from(ORIGIN_TARGETS))
    host = draw(st.none() | st.sampled_from(HOSTS))
    version = draw(st.sampled_from(VERSIONS))
    framing = draw(st.sampled_from(FRAMINGS))
    expect = draw(st.booleans())
    connection = draw(st.sampled_from([None, "close", "keep-alive"]))
    fold = draw(st.booleans())
    line = f"{method} {host + target if host else target}"
    head = [line if version is None else f"{line} {version}", "Host: example.org"]
    body = b""
    if framing == "chunked":
        head.append("Transfer-Encoding: chunked")
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(BODY), BODY)
    elif framing != "none":
        length = {"zero": "0", "exact": str(len(BODY)), "abc": "abc",
                  "plus": f"+{len(BODY)}", "two": f"{len(BODY)}\r\nContent-Length: 0"}
        head.append(f"Content-Length: {length[framing]}")
        body = b"" if framing == "zero" else BODY
    if expect:
        head.append("Expect: 100-continue")
    if connection:
        head.append(f"Connection: {connection}")
    if fold:
        head.append("X-Fold: a\r\n  b")
    raw = ("\r\n".join(head) + "\r\n\r\n").encode("iso-8859-1") + body
    return Request(
        raw=raw, words=len(line.split()) + (version is not None), method=method,
        version=version, target="/" + target.lstrip("/"),
        clean=framing in ("none", "zero") and not (expect or fold),
        expect=expect, close=connection == "close")


def exchange(port: int, data: bytes) -> bytes:
    """Send ``data``, half-close, and return all the server sends until it
    closes (a reset counts as the close)."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def read_reply(data: bytes, pos: int, method: str):
    """The reply at ``data[pos:]`` and the position after it, read strictly."""
    interim = False
    while True:
        end = data.find(b"\r\n\r\n", pos)
        assert end >= 0, f"a head cut short: {data[pos:pos + 200]!r}"
        status_line, *fields = data[pos:end].split(b"\r\n")
        pos = end + 4
        status = STATUS_LINE.fullmatch(status_line)
        assert status, f"not a status line: {status_line[:200]!r}"
        for field in fields:
            assert FIELD.fullmatch(field), f"not a printable field line: {field!r}"
        if status[1] != b"100":
            break
        assert not (interim or fields), "a second or non-empty 100 Continue"
        interim = True
    lengths = [f.split(b":", 1)[1].strip() for f in fields
               if f.lower().startswith(b"content-length:")]
    assert len(lengths) == 1 and lengths[0].isdigit(), f"Content-Length {lengths!r}"
    length = int(lengths[0])
    # A HEAD reply has no body, unless the request line was too broken for
    # the server to know the method; either way it ends the connection.
    if method == "HEAD" and len(data) - pos != length:
        length = 0
    body = data[pos:pos + length]
    assert len(body) == length, "a body cut short"
    return Reply(int(status[1]), status_line, fields, body, interim), pos + length


def check_exchange(port: int, sent: list, cut: bool = False) -> list:
    """Send the requests ``sent`` pipelined on one connection; hold the
    replies to the strict reader and the invariants. With ``cut``, the last
    request is incomplete and may get one reply or none."""
    data = exchange(port, b"".join(r.raw for r in sent))
    replies, pos = [], 0
    for i, request in enumerate(sent):
        if pos == len(data):
            assert cut and i == len(sent) - 1 or (replies and replies[-1].closes), (
                f"no reply to request {i + 1} of {len(sent)}: {data!r}")
            break
        if request.words == 2:  # HTTP/0.9: the bare body, then EOF
            replies.append(Reply(0, b"", [], data[pos:], False))
            pos = len(data)
            break
        reply, pos = read_reply(data, pos, request.method)
        replies.append(reply)
        assert reply.status < 500 or reply.status in (501, 505), reply.status_line
        assert not reply.interim or request.expect, "a 100 Continue not asked for"
        if request.close:
            assert reply.closes, "Connection: close was not answered"
        if reply.closes:
            break
    assert data[pos:] == b"", f"bytes after the last reply: {data[pos:pos + 200]!r}"
    reply = exchange(port, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n") and reply.endswith(b"\r\n\r\nok\n")
    return replies


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    app = make_app(tmp_path_factory.mktemp("wire"))
    httpd, thread = start_background(app)
    yield app, httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    thread.join(TIMEOUT_S)


WIRE = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@WIRE
@given(sent=st.lists(requests(), min_size=1, max_size=2))
def test_every_request_gets_a_well_formed_reply(server, sent):
    app, port = server
    replies = check_exchange(port, sent)
    request, reply = sent[0], replies[0]
    if request.words == 3 and request.version in BAD_VERSIONS:
        assert reply.status_line.startswith(b"HTTP/1.0 400 ")
    elif request.words == 3 and request.version == "HTTP/2.0":
        assert reply.status_line.startswith(b"HTTP/1.0 505 ")
    elif request.words == 3 and request.method == "GET" and request.clean:
        # An absolute-form target is served as its path would be.
        if request.target == "/health":
            assert (reply.status, reply.body) == (200, b"ok\n")
        elif request.target == f"/{PID}":
            data_dir = Path(app.catalog.lookup(DATASET).data_dir)
            assert reply.status == 200
            assert reply.body == oracle.resolve_csv(data_dir, PID).encode()
        elif request.target == "/nope":
            assert reply.status == 404
    elif (request.words, request.method, request.target) == (2, "GET", "/health"):
        assert reply.body == b"ok\n" or not request.clean


@WIRE
@given(request=requests(), data=st.data())
def test_a_head_cut_short_and_half_closed(server, request, data):
    app, port = server
    head = request.raw[:request.raw.index(b"\r\n\r\n") + 4]
    cut = data.draw(st.integers(1, len(head) - 1), label="cut")
    fragment = head[:cut]
    line = fragment.split(b"\n", 1)[0].decode("iso-8859-1")
    request.raw, request.words = fragment, len(line.split())
    request.expect = b"Expect: 100-continue" in fragment
    request.close = b"Connection: close\r\n" in fragment
    check_exchange(port, [request], cut=True)


@pytest.mark.parametrize("line, status_line", [
    pytest.param("GET /health HTTP/2.0", b"HTTP/1.0 505 ", id="2.0"),
    pytest.param("GET /health HTTP/3", b"HTTP/1.0 400 ", id="3"),
    pytest.param("GET /health HTTP/1.1.1", b"HTTP/1.0 400 ", id="1.1.1"),
    pytest.param("GET", b"HTTP/1.0 400 ", id="one-word"),
    pytest.param("GET /health HTTP/0.9", b"HTTP/1.0 200 ", id="0.9-in-three-words"),
])
def test_a_request_line_not_http_1x_gets_a_status_line(server, line, status_line):
    _, port = server
    reply = exchange(port, line.encode() + b"\r\n\r\n")
    assert reply.startswith(status_line)
    read_reply(reply, 0, "GET")


@pytest.mark.parametrize("target", [
    "http://127.0.0.1/health", "HTTPS://example.org:8057/health",
    "http://h//health", "http://h/health?x=1",
])
def test_an_absolute_form_target_is_served_as_its_path(server, target):
    _, port = server
    reply = exchange(port, f"GET {target} HTTP/1.1\r\n\r\n".encode())
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n") and reply.endswith(b"\r\n\r\nok\n")
