import hashlib
import http.client
import json
from pathlib import Path

import pytest

import requests

import oracle
from conftest import DATASET, NAAN


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

    def test_empty_target_is_400(self, live_server):
        _, base = live_server
        assert requests.post(f"{base}/mint", json={"target": ""}).status_code == 400

    def test_bad_json_is_400(self, live_server):
        _, base = live_server
        r = requests.post(f"{base}/mint", data="not json")
        assert r.status_code == 400

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
