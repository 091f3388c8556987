import hashlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import requests

import arkslice
import oracle
from arkslice import http_service
from arkslice.catalog import append_line
from arkslice.http_service import start_background
from arkslice.resolver import Minter, encode_noid
from conftest import DATASET, NAAN, write_fixture


def refuse(token):
    """A ``parse_constant`` for ``json.loads`` that accepts JSON only."""
    raise ValueError(f"{token} is not JSON")


def state_digest(state_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(state_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(state_dir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestResolveEndpoint:
    def test_csv_slice(self, live_server, data_dir):
        app, base = live_server
        pid = f"ark:/{NAAN}/{DATASET}.DWE.V@13332~13400"
        r = requests.get(f"{base}/{pid}")
        assert r.status_code == 200
        assert r.headers["Content-Type"].startswith("text/csv")
        assert r.text.splitlines()[0] == "timestamp,V"
        assert len(r.text.splitlines()) == 70  # header + 69 rows
        assert r.text == oracle.resolve_csv(data_dir, pid)

    def test_literal_plus_and_tilde_in_path(self, live_server, data_dir):
        _, base = live_server
        pid = f"ark:/{NAAN}/{DATASET}.HPE+DWE+WOE.V+I@13332~13400+24300~25500"
        r = requests.get(f"{base}/{pid}")
        assert r.status_code == 200
        assert r.text == oracle.resolve_csv(data_dir, pid)

    def test_percent_encoded_client(self, live_server, data_dir):
        _, base = live_server
        raw = f"ark:/{NAAN}/{DATASET}.DWE.V@_24300%7E25500"
        r = requests.get(f"{base}/{raw}")
        assert r.status_code == 200
        assert r.text == oracle.resolve_csv(
            data_dir, f"ark:/{NAAN}/{DATASET}.DWE.V@_24300~25500"
        )

    def test_reversed_range_is_400(self, live_server):
        _, base = live_server
        r = requests.get(f"{base}/ark:/{NAAN}/{DATASET}.DWE.V@13400~13332")
        assert r.status_code == 400

    def test_unknown_dataset_is_404(self, live_server):
        _, base = live_server
        r = requests.get(f"{base}/ark:/{NAAN}/nope.DWE.V@*")
        assert r.status_code == 404

    def test_unknown_naan_is_404(self, live_server):
        _, base = live_server
        r = requests.get(f"{base}/ark:/99999/{DATASET}.DWE.V@*")
        assert r.status_code == 404

    def test_info_document(self, live_server):
        _, base = live_server
        r = requests.get(f"{base}/ark:/{NAAN}/{DATASET}.DWE.V@*?info")
        assert r.status_code == 200
        assert r.headers["Content-Type"].startswith("application/json")
        doc = r.json()
        (sensor,) = doc["sensors"]
        v = next(c for c in sensor["columns"] if c["name"] == "V")
        assert (v["basic"], v["derived"]) == ("number", "real")
        assert set(v["properties"]) == {
            "mean", "median", "stddev", "iqr", "skewness",
            "outlier_count", "shape_class",
        }

    def test_statistics_that_are_not_finite_are_null(self, live_server):
        # 1e400 is a plain number that is infinite as a double, and the
        # squares of 1e200 overflow one; JSON has no token for the
        # statistics they would give.
        app, base = live_server
        ds_dir = Path(app.source("local").root) / "Huge-ds"
        ds_dir.mkdir()
        (ds_dir / "S.csv").write_text(
            "timestamp,BIG,MIXED,WIDE,OK\n1,1e400,1e400,1e200,1.5\n"
            "2,2,x,-1e200,2.5\n3,-1e400,,0,3.5\n", encoding="utf-8")
        app.catalog.register_dataset(app.source("local"), "Huge-ds")
        stored = json.loads((app.catalog.entries_dir / "Huge-ds.json").read_bytes(),
                            parse_constant=refuse)
        r = requests.get(f"{base}/ark:/{NAAN}/Huge-ds.S.BIG+MIXED+WIDE+OK@*?info")
        assert r.status_code == 200
        served = json.loads(r.content, parse_constant=refuse)
        for doc in (stored, served):
            columns = {c["name"]: c for c in doc["sensors"][0]["columns"]}
            assert columns["BIG"]["derived"] == "scientific"
            assert columns["MIXED"]["derived"] == "varchar"
            for name in ("BIG", "MIXED", "WIDE"):
                assert columns[name]["properties"] is None
            assert columns["OK"]["properties"]["mean"] == 2.5

    def test_stored_statistics_not_finite_are_null_after_restart(self, app):
        # A document as written when JSON's NaN and Infinity tokens were
        # allowed in it.
        path = app.catalog.entries_dir / f"{DATASET}.json"
        doc = json.loads(path.read_bytes())
        dwe = next(s for s in doc["sensors"] if s["name"] == "DWE")
        columns = {c["name"]: c for c in dwe["columns"]}
        columns["V"]["properties"]["mean"] = float("inf")
        columns["I"]["properties"]["stddev"] = float("nan")
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        assert b"Infinity" in path.read_bytes()

        server, _ = start_background(http_service.App(app.config))
        try:
            r = requests.get(f"http://127.0.0.1:{server.server_address[1]}"
                             f"/ark:/{NAAN}/{DATASET}.DWE.V+I@*?info")
        finally:
            server.shutdown()
            server.server_close()
        assert r.status_code == 200
        served = json.loads(r.content, parse_constant=refuse)
        columns = {c["name"]: c for c in served["sensors"][0]["columns"]}
        assert columns["V"]["properties"] is None
        assert columns["I"]["properties"] is None

    def test_deterministic_bytes(self, live_server):
        _, base = live_server
        url = f"{base}/ark:/{NAAN}/{DATASET}.HPE+DWE+WOE.V+I@*"
        assert requests.get(url).content == requests.get(url).content

    def test_reads_leave_state_untouched(self, live_server):
        app, base = live_server
        state = Path(app.config.state_dir)
        before = state_digest(state)
        for url in (
            f"{base}/ark:/{NAAN}/{DATASET}.DWE.V@*",
            f"{base}/ark:/{NAAN}/{DATASET}.DWE.V@*?info",
            f"{base}/catalog?q=amp",
            f"{base}/health",
        ):
            requests.get(url)
        assert state_digest(state) == before


class TestMintEndpoint:
    def test_mint_and_redirect(self, live_server):
        app, base = live_server
        target = f"ark:/{NAAN}/{DATASET}.DWE.V@*"
        r = requests.post(f"{base}/mint", json={"target": target})
        assert r.status_code == 201
        doc = r.json()
        assert doc["noid"] == "0000"
        assert doc["ark"] == f"ark:/{NAAN}/0000"
        assert doc["url"] == f"{base}/ark:/{NAAN}/0000"

        r302 = requests.get(doc["url"], allow_redirects=False)
        assert r302.status_code == 302
        assert r302.headers["Location"] == f"{base}/{target}"

        followed = requests.get(doc["url"])  # follow the redirect
        direct = requests.get(f"{base}/{target}")
        assert followed.content == direct.content

    def test_suffix_passthrough(self, live_server):
        _, base = live_server
        r = requests.post(f"{base}/mint",
                          json={"target": "https://example.org/data"})
        noid = r.json()["noid"]
        r302 = requests.get(f"{base}/ark:/{NAAN}/{noid}/extra",
                            allow_redirects=False)
        assert r302.headers["Location"] == "https://example.org/data/extra"

    def test_two_mints_distinct(self, live_server):
        _, base = live_server
        body = {"target": f"ark:/{NAAN}/{DATASET}.DWE.V@*"}
        n1 = requests.post(f"{base}/mint", json=body).json()["noid"]
        n2 = requests.post(f"{base}/mint", json=body).json()["noid"]
        assert n1 != n2

    def test_target_under_an_unserved_naan_is_400(self, live_server):
        app, base = live_server
        r = requests.post(f"{base}/mint",
                          json={"target": f"ark:/99999/{DATASET}.DWE.V@*"})
        assert r.status_code == 400
        assert "99999" in r.text
        assert app.minter.bindings == {}
        assert not app.minter.log_path.exists()
        body = {"target": f"ark:/{NAAN}/{DATASET}.DWE.V@*"}
        assert requests.post(f"{base}/mint", json=body).json()["noid"] == "0000"

    def test_empty_target_is_400(self, live_server):
        _, base = live_server
        assert requests.post(f"{base}/mint", json={"target": ""}).status_code == 400

    def test_bad_json_is_400(self, live_server):
        _, base = live_server
        r = requests.post(f"{base}/mint", data="not json")
        assert r.status_code == 400

    def test_target_ending_in_newline_is_400(self, live_server):
        app, base = live_server
        r = requests.post(f"{base}/mint",
                          json={"target": "https://example.org/d\n"})
        assert r.status_code == 400
        assert app.minter.bindings == {}
        assert not app.minter.log_path.exists()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, live_server, length):
        app, _ = live_server
        conn = http.client.HTTPConnection("127.0.0.1", app.config.port, timeout=10)
        try:
            conn.putrequest("POST", "/mint")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert b"Content-Length" in resp.read()
        finally:
            conn.close()
        assert app.minter.bindings == {}


class TestCatalogEndpoints:
    def test_list_all(self, live_server):
        _, base = live_server
        docs = requests.get(f"{base}/catalog").json()
        assert [d["dataset"] for d in docs] == [DATASET]

    def test_query_match(self, live_server):
        _, base = live_server
        docs = requests.get(f"{base}/catalog?q=amp").json()
        assert [d["dataset"] for d in docs] == [DATASET]

    def test_query_miss(self, live_server):
        _, base = live_server
        assert requests.get(f"{base}/catalog?q=zzz").json() == []

    def test_crawl_endpoint(self, live_server, data_dir):
        _, base = live_server
        assert requests.post(f"{base}/crawl").json() == []
        path = data_dir / "DWE.csv"
        path.write_text(path.read_text() + "25620,1.0,2.0\n")
        events = requests.post(f"{base}/crawl").json()
        assert [e["kind"] for e in events] == ["modified"]

    def test_health(self, live_server):
        _, base = live_server
        r = requests.get(f"{base}/health")
        assert (r.status_code, r.text) == (200, "ok\n")

    def test_unknown_path_404(self, live_server):
        _, base = live_server
        assert requests.get(f"{base}/nope").status_code == 404

    def test_unexpected_error_is_500(self, live_server, monkeypatch):
        app, _ = live_server

        def broken(query):
            raise RuntimeError("boom")

        monkeypatch.setattr(app.catalog, "search", broken)
        conn = http.client.HTTPConnection("127.0.0.1", app.config.port, timeout=10)
        try:
            conn.request("GET", "/catalog")
            resp = conn.getresponse()
            assert resp.status == 500
            assert resp.getheader("Content-Type").startswith("text/plain")
            assert resp.read() == b"internal error\n"
        finally:
            conn.close()


def test_canonical_url_shape(live_server):
    # The path after the host is character-for-character the ark:/ form.
    _, base = live_server
    pid = f"ark:/{NAAN}/{DATASET}.DWE.V@13332~13400"
    url = f"{base}/{pid}"
    assert url.split(base + "/", 1)[1] == pid
    assert requests.get(url).status_code == 200


def test_bound_beyond_int64_selects_nothing(live_server):
    _, base = live_server
    r = requests.get(f"{base}/ark:/{NAAN}/{DATASET}.DWE.V@99999999999999999999999")
    assert (r.status_code, r.text) == (200, "timestamp,V\n")


def raw_exchange(port: int, request: bytes, timeout: float) -> bytes:
    """Send raw request bytes; return the reply read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestMintBodyBounds:
    def test_huge_content_length_is_400(self, live_server):
        app, _ = live_server
        request = b"POST /mint HTTP/1.0\r\nContent-Length: 1099511627776\r\n\r\n"
        reply = raw_exchange(app.config.port, request, timeout=10)
        assert reply.startswith(b"HTTP/1.0 400 ")
        assert reply.endswith(b"exceeds 65536\n")
        assert app.minter.bindings == {}

    def test_stalled_body_gets_a_reply(self, app):
        server, _ = start_background(app)
        server.RequestHandlerClass.timeout = 0.5
        body = b'{"target": "http://x.org/"}'  # 27 of the declared 100 bytes
        request = b"POST /mint HTTP/1.0\r\nContent-Length: 100\r\n\r\n" + body
        try:
            started = time.monotonic()
            reply = raw_exchange(server.server_address[1], request, timeout=2)
            assert time.monotonic() - started < 2
        finally:
            server.shutdown()
            server.server_close()
        assert reply.startswith(b"HTTP/1.0 400 ")
        assert app.minter.bindings == {}


HEALTH = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
HEALTH_THEN_CLOSE = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"


def read_response(reader) -> tuple[bytes, bytes]:
    """Read exactly one response from a socket's binary ``makefile`` by its
    Content-Length and return its head and body. The socket's timeout
    bounds every read, so a connection wrongly left open fails fast."""
    lines = [reader.readline()]
    while lines[-1] not in (b"\r\n", b""):
        lines.append(reader.readline())
    head = b"".join(lines)
    assert head.endswith(b"\r\n\r\n"), f"connection closed mid-head: {head!r}"
    (length,) = [int(line.split(b":", 1)[1]) for line in lines
                 if line.lower().startswith(b"content-length:")]
    body = reader.read(length)
    assert len(body) == length, f"connection closed mid-body: {head!r}"
    return head, body


def at_eof(reader) -> bool:
    """Whether the server has closed the connection (a reset counts)."""
    try:
        return reader.read(1) == b""
    except ConnectionResetError:
        return True


def one_reply_then_eof(port: int, request: bytes, timeout: float = 5) -> bytes:
    """Send ``request`` followed by a pipelined ``GET /health``; assert the
    server answers the first only and closes; return that reply's head."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request + HEALTH)
        reader = sock.makefile("rb")
        head, _ = read_response(reader)
        assert at_eof(reader), f"a second reply followed {head!r}"
    if head.startswith(b"HTTP/1.1 "):  # a persistent reply must warn first
        assert b"\r\nConnection: close\r\n" in head
    return head


class CountingConnection(http.client.HTTPConnection):
    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


class TestPersistentConnections:
    def test_one_connection_carries_every_kind_of_request(self, live_server,
                                                          data_dir):
        app, base = live_server
        pid = f"ark:/{NAAN}/{DATASET}.HPE+DWE+WOE.V+I@13332~13400+24300~25500"
        conn = CountingConnection("127.0.0.1", app.config.port, timeout=5)

        def call(method, path, body=None):
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read(), resp.getheader("Location")

        try:
            status, body, _ = call("GET", f"/{pid}")
            assert (status, body.decode()) == (200, oracle.resolve_csv(data_dir, pid))
            status, body, _ = call("GET", f"/{pid}?info")
            assert status == 200 and json.loads(body)["sensors"]
            status, body, _ = call("POST", "/mint", json.dumps({"target": pid}))
            assert status == 201
            status, _, location = call("GET", "/" + json.loads(body)["ark"])
            assert (status, location) == (302, f"{base}/{pid}")
            assert call("GET", "/nope")[0] == 404
            assert call("GET", f"/ark:/{NAAN}/{DATASET}.DWE.V@13400~13332")[0] == 400
        finally:
            conn.close()
        assert conn.connects == 1

    @pytest.mark.parametrize("request_bytes", [
        pytest.param(b"POST /crawl HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                     id="crawl-empty-body"),
        pytest.param(b"POST /mint HTTP/1.1\r\nContent-Length: 27\r\n\r\n"
                     b'{"target": "http://x.org/"}', id="mint"),
        pytest.param(b"POST /mint HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json",
                     id="mint-bad-json"),
        pytest.param(b"GET /nope HTTP/1.1\r\n\r\n", id="unknown-path"),
    ])
    def test_request_read_in_full_keeps_the_connection(self, live_server,
                                                       request_bytes):
        app, _ = live_server
        with socket.create_connection(("127.0.0.1", app.config.port),
                                      timeout=5) as sock:
            sock.sendall(request_bytes + HEALTH)
            reader = sock.makefile("rb")
            head, _ = read_response(reader)
            assert head.startswith(b"HTTP/1.1 ")
            assert b"\r\nConnection:" not in head
            head, body = read_response(reader)
            assert head.startswith(b"HTTP/1.1 200 ") and body == b"ok\n"

    @pytest.mark.parametrize("request_bytes, status_line", [
        pytest.param(b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                     b"HTTP/1.0 200 OK\r\n", id="keep-alive-asked"),
        pytest.param(b"GET /health HTTP/1.0\r\n"
                     + b"".join(b"X-%d: y\r\n" % i for i in range(101)) + b"\r\n",
                     b"HTTP/1.0 431 Too many headers\r\n", id="headers-refused"),
    ])
    def test_http10_reply_is_unchanged_and_closes(self, live_server,
                                                  request_bytes, status_line):
        app, _ = live_server
        head = one_reply_then_eof(app.config.port, request_bytes)
        assert head.startswith(status_line)
        # As before, only the stdlib's own error replies name the connection.
        assert (b"\r\nConnection: close\r\n" in head) == (b" 431 " in status_line)

    def test_idle_connection_closes_after_timeout(self, app):
        server, _ = start_background(app)
        server.RequestHandlerClass.timeout = 0.3
        try:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                reader = sock.makefile("rb")
                for _ in range(2):
                    sock.sendall(HEALTH)
                    assert read_response(reader)[1] == b"ok\n"
                started = time.monotonic()
                assert at_eof(reader)
                assert time.monotonic() - started < 2
        finally:
            server.shutdown()
            server.server_close()

    def test_shutdown_does_not_wait_for_an_idle_connection(self, app):
        server, thread = start_background(app)
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(HEALTH)
            read_response(sock.makefile("rb"))
            started = time.monotonic()
            server.shutdown()
            server.server_close()
            assert time.monotonic() - started < 1
        thread.join(1)
        assert not thread.is_alive()


class TestUntrustedBodyCloses:
    """A request body the server did not read in full leaves bytes that
    could be taken for the next request: the reply says it closes, and a
    request pipelined behind the body is never answered."""

    @pytest.mark.parametrize("request_bytes", [
        pytest.param(b"POST /mint HTTP/1.1\r\nContent-Length: 70000\r\n\r\n"
                     + b"x" * 70000, id="mint-over-64KiB"),
        pytest.param(b"POST /crawl HTTP/1.1\r\nContent-Length: 33\r\n\r\n"
                     b'{"target": "http://x.org/a/b/c"}\n', id="crawl-with-body"),
        pytest.param(b"POST /mint HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b"1b\r\n" b'{"target": "http://x.org/"}' b"\r\n0\r\n\r\n",
                     id="mint-chunked"),
        pytest.param(b"POST /mint HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
                     b'{"target": "http://x.org/"}', id="mint-length-abc"),
        pytest.param(b"POST /mint HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
                     b'{"target": "http://x.org/"}', id="mint-length-negative"),
        pytest.param(b"POST /mint HTTP/1.1\r\nContent-Length: 27\r\n"
                     b"Content-Length: 0\r\n\r\n" b'{"target": "http://x.org/"}',
                     id="mint-two-lengths"),
        pytest.param(b"POST /nope HTTP/1.1\r\nContent-Length: 27\r\n\r\n"
                     b'{"target": "http://x.org/"}', id="unknown-path-with-body"),
        pytest.param(b"GET /health HTTP/1.1\r\nContent-Length: 27\r\n\r\n"
                     b'{"target": "http://x.org/"}', id="get-with-body"),
    ])
    def test_reply_then_close(self, live_server, request_bytes):
        app, _ = live_server
        one_reply_then_eof(app.config.port, request_bytes)

    def test_stalled_body(self, app):
        server, _ = start_background(app)
        server.RequestHandlerClass.timeout = 0.3
        request = (b"POST /mint HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                   b'{"target": "http://x.org/"}')
        try:
            head = one_reply_then_eof(server.server_address[1], request)
        finally:
            server.shutdown()
            server.server_close()
        assert head.split(b" ", 2)[1] == b"400"
        assert app.minter.bindings == {}

    def test_body_cut_short_by_the_client_is_400(self, live_server):
        app, _ = live_server
        with socket.create_connection(("127.0.0.1", app.config.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /mint HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                         b'{"target": "http://x.org/"}')
            sock.shutdown(socket.SHUT_WR)
            reader = sock.makefile("rb")
            head, body = read_response(reader)
            assert at_eof(reader)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert body == b"request body shorter than its Content-Length\n"
        assert app.minter.bindings == {}


class TestContentLengthIsDigits:
    """RFC 9112 §6.3: a ``Content-Length`` that is not ASCII digits leaves
    the body's end unknown, so the request gets a 400 and a close, and a
    request pipelined behind its body is never answered."""

    MINT_29 = b'{"target": "http://x.org/ab"}'

    @pytest.mark.parametrize("declared", [b"+29", b"2_9"])
    @pytest.mark.parametrize("expect", [b"", b"Expect: 100-continue\r\n"],
                             ids=["plain", "expect-100"])
    def test_mint_gets_400_and_close(self, live_server, declared, expect):
        app, _ = live_server
        request = (b"POST /mint HTTP/1.1\r\nContent-Length: " + declared
                   + b"\r\n" + expect + b"\r\n" + self.MINT_29)
        head = one_reply_then_eof(app.config.port, request)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in head
        assert app.minter.bindings == {}

    def test_whitespace_around_the_digits_is_not_part_of_the_value(
            self, live_server):
        app, _ = live_server
        with socket.create_connection(("127.0.0.1", app.config.port),
                                      timeout=5) as sock:
            head, _ = reply_then_health(
                sock, b"POST /mint HTTP/1.1\r\nContent-Length:  29 \r\n\r\n"
                + self.MINT_29)
        assert head.startswith(b"HTTP/1.1 201 ")
        assert len(app.minter.bindings) == 1


def reply_then_health(sock, request: bytes) -> tuple[bytes, bytes]:
    """Send ``request`` and a pipelined ``GET /health`` that asks to close;
    return the first reply, asserting the second is the health reply and
    nothing follows it."""
    sock.sendall(request + HEALTH_THEN_CLOSE)
    reader = sock.makefile("rb")
    reply = read_response(reader)
    assert read_response(reader)[1] == b"ok\n"
    assert at_eof(reader)
    return reply


def restart_with_logged_binding(app, target: str) -> str:
    """Bind a fresh NOID to ``target`` by a record in the mint log, as an
    older release may have written one that no mint accepts now, and
    restart the minter from the log; return the NOID."""
    noid = encode_noid(len(app.minter.bindings))
    append_line(app.minter.log_path, {
        "noid": noid, "target": target, "created_at": "2022-09-21T00:00:00+00:00"})
    app.minter = app.resolver.minter = Minter(app.minter.log_path)
    return noid


class TestReplyHead:
    """A redirect's Location comes from the request path and from a minted
    target; neither may add a header, end the head early or leave a
    second status line on a connection that stays open."""

    @pytest.mark.parametrize("target, suffix, location", [
        pytest.param("https://example.org/d", "/a%0D%0AX:%20y",
                     "https://example.org/d/a%0D%0AX: y", id="crlf-in-suffix"),
        pytest.param("https://example.org/d", "/%E2%82%AC",
                     "https://example.org/d/%E2%82%AC", id="non-latin-1-suffix"),
        pytest.param("https://example.org/d\n", "",
                     "https://example.org/d%0A", id="lf-in-minted-target"),
    ])
    def test_location_is_one_header(self, live_server, target, suffix, location):
        app, _ = live_server
        if target.isprintable():
            noid = app.minter.mint(target).noid
        else:
            noid = restart_with_logged_binding(app, target)
        request = f"GET /ark:/{NAAN}/{noid}{suffix} HTTP/1.1\r\n\r\n".encode()
        with socket.create_connection(("127.0.0.1", app.config.port),
                                      timeout=5) as sock:
            head, body = reply_then_health(sock, request)
        assert head.startswith(b"HTTP/1.1 302 ") and head.count(b"HTTP/1.") == 1
        names = [line.split(b":", 1)[0] for line in head.split(b"\r\n")[1:-2]]
        assert names == [b"Server", b"Date", b"Content-Type", b"Content-Length",
                         b"Location"]
        assert f"\r\nLocation: {location}\r\n".encode() in head
        assert body == b""

    def test_failure_while_building_the_head_leaves_one_status_line(
            self, live_server, monkeypatch):
        app, _ = live_server
        noid = app.minter.mint("https://example.org/d").noid
        send_header = http_service.ResolverHandler.send_header

        def location_fails(self, keyword, value):
            if keyword == "Location":
                raise UnicodeEncodeError("latin-1", value, 0, 1, "not latin-1")
            send_header(self, keyword, value)

        monkeypatch.setattr(http_service.ResolverHandler, "send_header",
                            location_fails)
        request = f"GET /ark:/{NAAN}/{noid} HTTP/1.1\r\n\r\n".encode()
        with socket.create_connection(("127.0.0.1", app.config.port),
                                      timeout=5) as sock:
            head, body = reply_then_health(sock, request)
        assert head.startswith(b"HTTP/1.1 500 ") and head.count(b"HTTP/1.") == 1
        assert b"Location" not in head and body == b"internal error\n"


class TestExpectContinue:
    def test_mint_body_is_invited(self, live_server):
        app, _ = live_server
        with socket.create_connection(("127.0.0.1", app.config.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /mint HTTP/1.1\r\nContent-Length: 27\r\n"
                         b"Expect: 100-continue\r\n\r\n")
            reader = sock.makefile("rb")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            head, _ = reply_then_health(sock, b'{"target": "http://x.org/"}')
        assert head.startswith(b"HTTP/1.1 201 ")
        assert len(app.minter.bindings) == 1

    @pytest.mark.parametrize("request_bytes", [
        pytest.param(b"POST /mint HTTP/1.1\r\nContent-Length: 70000\r\n"
                     b"Expect: 100-continue\r\n\r\n", id="mint-over-64KiB"),
        pytest.param(b"POST /mint HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                     b"Expect: 100-continue\r\n\r\n", id="mint-chunked"),
        pytest.param(b"POST /crawl HTTP/1.1\r\nContent-Length: 33\r\n"
                     b"Expect: 100-continue\r\n\r\n", id="crawl-with-body"),
        pytest.param(b"GET /health HTTP/1.1\r\nExpect: 100-continue\r\n\r\n",
                     id="get"),
    ])
    def test_any_other_body_is_refused(self, live_server, request_bytes):
        app, _ = live_server
        head = one_reply_then_eof(app.config.port, request_bytes)
        assert head.startswith(b"HTTP/1.1 417 ")
        assert app.minter.bindings == {}


class SecondWriteTimesOut:
    """A handler's ``wfile`` whose second write raises, as a socket timeout
    part-way through a reply does."""

    def __init__(self, wfile):
        self._wfile = wfile
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise TimeoutError("timed out")
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


def test_reply_failing_midway_is_cut_not_followed(app, monkeypatch, caplog):
    monkeypatch.setattr(http_service, "WRITE_CHUNK_BYTES", 1024)
    server, _ = start_background(app)
    handler = server.RequestHandlerClass
    setup = handler.setup

    def faulty_setup(self):
        setup(self)
        self.wfile = SecondWriteTimesOut(self.wfile)

    handler.setup = faulty_setup
    pid = f"ark:/{NAAN}/{DATASET}.HPE+DWE+WOE.V+I@*"
    request = f"GET /{pid} HTTP/1.1\r\nHost: test\r\n\r\n".encode() + HEALTH
    try:
        reply = raw_exchange(server.server_address[1], request, timeout=5)
    finally:
        server.shutdown()
        server.server_close()
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n", 1)[0].endswith(b" 200 OK")
    assert reply.count(b"HTTP/1.") == 1  # no 500, no answer to /health
    (length,) = [int(line.split(b":")[1]) for line in head.split(b"\r\n")
                 if line.startswith(b"Content-Length:")]
    assert 0 < len(body) < length  # cut where it failed, visibly short
    assert any(r.exc_info and r.exc_info[0] is TimeoutError
               for r in caplog.records)


def test_serve_exits_on_sigint_with_an_idle_connection(tmp_path):
    data_root = tmp_path / "data"
    write_fixture(data_root)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "port": port, "naans": [NAAN], "state_dir": str(tmp_path / "state"),
        "sources": [{"id": "local", "root": str(data_root)}],
    }))
    env = {**os.environ, "PYTHONPATH": str(Path(arkslice.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "arkslice.cli", "--config", str(config), "serve"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=5)
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.05)
        with sock:
            sock.sendall(HEALTH)
            assert read_response(sock.makefile("rb"))[1] == b"ok\n"
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=5)
    finally:
        proc.kill()
        proc.wait()
