"""The request head reader (``RequestHeaders.read``) against the stdlib's
``http.client.parse_headers``, which the server used before.

On generated heads both give the same ``get``, ``get_all`` and ``in`` for
every name, or refuse the head with the same exception, and both leave the
stream at the same byte. Two differences are meant: a value loses its
trailing spaces and tabs as well as its leading ones (RFC 9110 §5.5; the
``email`` parser keeps them), and a line that is not a field line, such as
an obs-fold line, is refused instead of joined to the line before it or
taken for the start of the body. Each has its own tests below.
"""

import email.utils
import http.client
import io
import re
import socket
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from arkslice import http_service
from arkslice.http_service import MAX_HEAD_LINE, RequestHeaders, ResolverHandler

TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Every byte a value may hold: HTAB, SP, VCHAR, obs-text and the control
# bytes other than CR, LF and NUL, which the stdlib passes through too.
VALUE_CHARS = "".join(chr(b) for b in range(256) if b not in (0, 10, 13))
BASE_NAMES = ["Host", "Connection", "Content-Length", "Expect", "X-Bench-Request"]


def outcome(parse, head: bytes):
    """What ``parse`` makes of ``head``: the headers or the refusal, and the
    bytes it left unread."""
    rfile = io.BytesIO(head)
    try:
        result = parse(rfile)
    except http.client.HTTPException as exc:
        result = (type(exc), str(exc))
    return result, rfile.read()


def lookups(headers, name: str) -> tuple:
    return (headers.get(name), headers.get(name, "?"),
            headers.get_all(name), headers.get_all(name, ["?"]), name in headers)


def stdlib_lookups(message, name: str) -> tuple:
    """``lookups`` on a ``parse_headers`` result, the trailing spaces and
    tabs of each value dropped."""
    def strip(value):
        return value.rstrip(" \t") if isinstance(value, str) else value

    values = message.get_all(name)
    values = None if values is None else [strip(v) for v in values]
    return (strip(message.get(name)), strip(message.get(name, "?")),
            values, values or ["?"], name in message)


@st.composite
def names(draw):
    base = draw(st.sampled_from(BASE_NAMES) | st.text(TCHAR, min_size=1, max_size=8))
    flips = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    return "".join(c.swapcase() if flip else c for c, flip in zip(base, flips))


@st.composite
def field_lines(draw, name_pool):
    name = draw(st.sampled_from(name_pool))
    value = draw(st.text(VALUE_CHARS, max_size=12))
    before, after = draw(st.text(" \t", max_size=3)), draw(st.text(" \t", max_size=3))
    end = draw(st.sampled_from(["\r\n", "\n"]))
    return f"{name}:{before}{value}{after}{end}".encode("iso-8859-1")


@st.composite
def heads(draw):
    pool = draw(st.lists(names(), min_size=1, max_size=4))
    lines = draw(st.lists(field_lines(pool), max_size=8))
    count = draw(st.sampled_from([None, 98, 99, 100, 101]))
    if count is not None and lines:  # pad with repeats to the line bounds
        lines = (lines * count)[:count]
    if draw(st.booleans()) and lines:  # one line at or past the length bound
        at = draw(st.integers(0, len(lines) - 1))
        size = MAX_HEAD_LINE + draw(st.integers(-1, 2))
        stem = lines[at].split(b":")[0] + b": "
        lines[at] = stem + b"v" * (size - len(stem) - 2) + b"\r\n"
    end = draw(st.sampled_from([b"\r\n", b"\n", b""]))
    rest = draw(st.sampled_from([b"", b"GET /health HTTP/1.1\r\n\r\n", b"\r\n"]))
    return b"".join(lines) + end + (rest if end else b""), pool


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(heads())
def test_same_view_or_same_refusal_as_parse_headers(generated):
    head, pool = generated
    ours, our_rest = outcome(RequestHeaders.read, head)
    theirs, their_rest = outcome(http.client.parse_headers, head)
    assert our_rest == their_rest
    if isinstance(theirs, tuple):
        assert ours == theirs
        return
    assert isinstance(ours, RequestHeaders)
    for name in pool + [n.swapcase() for n in pool] + ["Absent-Name"]:
        assert lookups(ours, name) == stdlib_lookups(theirs, name), name


@pytest.mark.parametrize("fields, expected", [
    pytest.param(98, "ok", id="98-fields"),
    pytest.param(99, "ok", id="99-fields"),
    # http.client counts the blank line against its bound of 100 lines.
    pytest.param(100, "got more than 100 headers", id="100-fields"),
    pytest.param(101, "got more than 100 headers", id="101-fields"),
])
def test_line_count_bound(fields, expected):
    head = b"".join(b"X-%d: y\r\n" % i for i in range(fields)) + b"\r\n"
    for parse in (RequestHeaders.read, http.client.parse_headers):
        result, _ = outcome(parse, head)
        assert (result[1] if isinstance(result, tuple) else "ok") == expected


def test_values_lose_surrounding_spaces_and_tabs():
    head = b"A: \t x y \t\r\nA:\r\nB:   \r\nc: \xe9\xff \r\n\r\n"
    headers = RequestHeaders.read(io.BytesIO(head))
    assert headers.get_all("a") == ["x y", ""]
    assert headers.get("B") == ""
    assert headers.get("C") == "\xe9\xff"
    assert http.client.parse_headers(io.BytesIO(head)).get("A") == "x y \t"


@pytest.mark.parametrize("head", [
    pytest.param(b"A: x\r\n folded\r\n\r\n", id="obs-fold-space"),
    pytest.param(b"A: x\r\n\tfolded\r\n\r\n", id="obs-fold-tab"),
    pytest.param(b" A: x\r\n\r\n", id="whitespace-before-first-field"),
    pytest.param(b"A x\r\n\r\n", id="no-colon"),
    pytest.param(b"A : x\r\n\r\n", id="space-before-colon"),
    pytest.param(b": x\r\n\r\n", id="empty-name"),
    pytest.param(b"X\xe9: x\r\n\r\n", id="8-bit-name"),
    pytest.param(b"A(b): x\r\n\r\n", id="name-not-a-token"),
    pytest.param(b"A: x\rB: y\r\n\r\n", id="bare-CR-in-value"),
    pytest.param(b"A: x\x00y\r\n\r\n", id="NUL-in-value"),
])
def test_a_line_that_is_not_a_field_line_is_refused(head):
    with pytest.raises(ValueError, match="not a field line"):
        RequestHeaders.read(io.BytesIO(head))


def exchange(port: int, request: bytes) -> bytes:
    """Send ``request``, half-close, and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


HEALTH = b"GET /health HTTP/1.1\r\n\r\n"


@pytest.mark.parametrize("request_bytes", [
    pytest.param(b"GET /health HTTP/1.1\r\nA: x\r\n folded\r\n\r\n" + HEALTH,
                 id="obs-fold"),
    # The stdlib's parser stopped at the bad line, so it never saw the
    # length: the body was left unread and parsed as the next request.
    pytest.param(b"POST /mint HTTP/1.1\r\nX Y: z\r\nContent-Length: 27\r\n\r\n"
                 b'{"target": "http://x.org/"}' + HEALTH, id="length-after-bad-line"),
])
def test_a_bad_field_line_gets_400_and_close(live_server, request_bytes):
    app, _ = live_server
    reply = exchange(app.config.port, request_bytes)
    assert reply.startswith(b"HTTP/1.1 400 Bad header line\r\n")
    assert b"\r\nConnection: close\r\n" in reply
    assert reply.count(b"HTTP/1.1 ") == 1
    assert app.minter.bindings == {}


def test_trailing_space_after_close_still_closes(live_server):
    app, _ = live_server
    reply = exchange(app.config.port,
                     b"GET /health HTTP/1.1\r\nConnection: close \r\n\r\n" + HEALTH)
    assert reply.count(b" 200 OK\r\n") == 1


def test_serving_never_calls_parse_headers(live_server, monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("http.client.parse_headers was called")

    monkeypatch.setattr(http.client, "parse_headers", spy)
    app, _ = live_server
    reply = exchange(app.config.port,
                     b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
                     b"POST /mint HTTP/1.1\r\nExpect: 100-continue\r\n"
                     b"Content-Length: 27\r\n\r\n" b'{"target": "http://x.org/"}'
                     b"GET /health HTTP/1.0\r\n\r\n")
    statuses = re.findall(rb"HTTP/1\.[01] ([0-9]{3}) ", reply)
    assert statuses == [b"200", b"100", b"201", b"200"]


def test_date_is_formatted_once_per_second(monkeypatch):
    clock = SimpleNamespace(now=1_700_000_000.2)
    calls = []

    def formatdate(timeval, **kwargs):
        calls.append(timeval)
        return original(timeval, **kwargs)

    original = email.utils.formatdate
    monkeypatch.setattr(email.utils, "formatdate", formatdate)
    monkeypatch.setattr(http_service, "time", SimpleNamespace(time=lambda: clock.now))
    monkeypatch.setattr(ResolverHandler, "_date", (0, ""))
    handler = ResolverHandler.__new__(ResolverHandler)
    first = [handler.date_time_string() for _ in range(5)]
    clock.now += 1.0
    second = handler.date_time_string()
    assert first == [original(1_700_000_000, usegmt=True)] * 5
    assert second == original(1_700_000_001, usegmt=True)
    assert calls == [1_700_000_000, 1_700_000_001]
