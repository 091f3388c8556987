"""The catalog answers from one state, and a crawl refreshes each dataset
from the directory it was registered from, reading a remote source once."""

import collections
import functools
import hashlib
import http.client
import http.server
import json
import shutil
import threading
from pathlib import Path

import pytest

import oracle
from arkslice import catalog
from arkslice.catalog import Catalog, DataSource, json_bytes
from arkslice.errors import LoadError, NotFound
from arkslice.http_service import App
from arkslice.pid_grammar import parse_pid
from arkslice.timeseries_store import render_csv, select
from conftest import DATASET, FIXTURE_METADATA, NAAN, SENSORS, write_fixture


def resolve_text(app, body: str) -> bytes:
    return render_csv(app.resolver.resolve(NAAN, body).slice)


@pytest.mark.parametrize("default_dir", ["missing", "present"])
def test_crawl_refreshes_from_the_registered_directory(app, tmp_path, default_dir):
    # Registered from an explicit directory, as `arkslice ingest ... DIRECTORY`
    # does; `<root>/<dataset>` is either gone or holds different files.
    mine = write_fixture(tmp_path / "elsewhere", dataset="mine")
    app.catalog.register_dataset(
        app.source("local"), DATASET, metadata=FIXTURE_METADATA, data_dir=mine)
    default = tmp_path / "data" / DATASET
    if default_dir == "missing":
        shutil.rmtree(default)
    else:
        (default / "WOE.csv").unlink()

    dwe = mine / "DWE.csv"
    dwe.write_text(dwe.read_text() + "25611,1.0,2.0\n")
    events = app.catalog.crawl()

    assert [(e.kind, e.dataset) for e in events] == [("modified", DATASET)]
    entry = app.catalog.lookup(DATASET)
    assert entry.data_dir == str(mine)
    assert entry.content_hash == events[0].new_hash
    assert sorted(s["name"] for s in entry.sensors) == ["DWE", "HPE", "WOE"]
    for body in (f"{DATASET}.DWE.V+I@25611", f"{DATASET}.WOE.V@*"):
        assert resolve_text(app, body) == oracle.resolve_csv(
            mine, f"ark:/{NAAN}/{body}").encode("utf-8")
    assert resolve_text(app, f"{DATASET}.DWE.V@25611") == b"timestamp,V\n25611,1.0\n"


def test_document_without_file_hashes_types_everything_once(app, data_dir, work):
    # A document as written before file hashes were recorded.
    path = app.catalog.entries_dir / f"{DATASET}.json"
    doc = json.loads(path.read_bytes())
    del doc["file_hashes"]
    path.write_bytes(json_bytes(doc))

    restarted = App(app.config)
    assert restarted.catalog.lookup(DATASET).file_hashes == {}
    for sensor in SENSORS:
        body = f"{DATASET}.{sensor}.V+I@*"
        assert resolve_text(restarted, body) == oracle.resolve_csv(
            data_dir, f"ark:/{NAAN}/{body}").encode("utf-8")
    assert restarted.catalog.crawl() == []
    assert work.typed == []

    dwe = data_dir / "DWE.csv"
    dwe.write_text(dwe.read_text() + "25610,120.000,1.000\n")
    assert [e.kind for e in restarted.catalog.crawl()] == ["modified"]
    assert sorted(work.typed) == sorted((s, m) for s in SENSORS for m in ("V", "I"))
    assert restarted.catalog.lookup(DATASET).file_hashes == {
        f"{s}.csv": hashlib.sha256((data_dir / f"{s}.csv").read_bytes()).hexdigest()
        for s in SENSORS}


@pytest.fixture
def counting_file_server(tmp_path):
    """Serves ``<tmp>/remote`` over HTTP and counts GETs per path."""
    root = tmp_path / "remote"
    write_fixture(root, dataset="AMPds-remote")
    gets = collections.Counter()

    class CountingHandler(http.server.SimpleHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            gets[self.path] += 1
            super().do_GET()

    handler = functools.partial(CountingHandler, directory=str(root))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    yield root, f"http://127.0.0.1:{server.server_address[1]}", gets
    server.shutdown()
    server.server_close()


REMOTE_FILES = ["HPE.csv", "DWE.csv", "WOE.csv"]


def test_modified_remote_dataset_is_fetched_once_per_crawl(
        tmp_path, counting_file_server, work):
    root, base, gets = counting_file_server
    source = DataSource(id="remote", root=base, kind="remote_http")
    cat = Catalog(tmp_path / "state", [source])
    cat.register_dataset(source, "AMPds-remote", sensor_files=REMOTE_FILES)

    path = root / "AMPds-remote" / "DWE.csv"
    path.write_text(path.read_text() + "25612,1.0,2.0\n")
    gets.clear()
    work.parsed.clear()
    events = cat.crawl()

    assert [e.kind for e in events] == ["modified"]
    assert dict(gets) == {f"/AMPds-remote/{f}": 1 for f in REMOTE_FILES}
    assert work.parsed == ["DWE"]  # once, and only the file that changed
    assert events[0].new_hash == cat.lookup("AMPds-remote").content_hash
    assert 25612 in cat.dataset("AMPds-remote").sensor("DWE").key
    assert (cat.cache_dir / "remote" / "AMPds-remote" / "DWE.csv").read_bytes() \
        == path.read_bytes()


def test_unchanged_remote_dataset_is_neither_parsed_nor_cached_again(
        tmp_path, counting_file_server, work, monkeypatch):
    root, base, gets = counting_file_server
    source = DataSource(id="remote", root=base, kind="remote_http")
    cat = Catalog(tmp_path / "state", [source])
    cat.register_dataset(source, "AMPds-remote", sensor_files=REMOTE_FILES)
    cached = []
    replace_file = catalog.replace_file

    def recording(path, data):
        if cat.cache_dir in path.parents:
            cached.append(path.name)
        replace_file(path, data)

    monkeypatch.setattr(catalog, "replace_file", recording)
    gets.clear()
    work.parsed.clear()
    assert cat.crawl() == []
    assert dict(gets) == {f"/AMPds-remote/{f}": 1 for f in REMOTE_FILES}
    assert work.parsed == cached == []

    # A cache deleted while the service was down: the restart cannot load
    # the dataset, and the next crawl fetches, parses and caches it again.
    shutil.rmtree(cat.cache_dir)
    restarted = Catalog(tmp_path / "state", [source])
    with pytest.raises(NotFound):
        restarted.dataset("AMPds-remote")
    assert restarted.crawl() == []
    assert sorted(cached) == sorted(REMOTE_FILES)
    pid = f"ark:/{NAAN}/AMPds-remote.DWE.V+I@*"
    got = render_csv(select(restarted.dataset("AMPds-remote"), parse_pid(pid)))
    assert got == oracle.resolve_csv(root / "AMPds-remote", pid).encode("utf-8")


def test_remote_source_refuses_a_directory_outside_the_cache(
        tmp_path, counting_file_server):
    # `arkslice ingest --source <remote> ... DIRECTORY`: a crawl fetches
    # over a remote dataset's directory, so only the cache is accepted.
    _, base, gets = counting_file_server
    source = DataSource(id="remote", root=base, kind="remote_http")
    cat = Catalog(tmp_path / "state", [source])
    mine = write_fixture(tmp_path / "elsewhere", dataset="mine")
    before = {p.name: p.read_bytes() for p in mine.iterdir()}

    with pytest.raises(LoadError):
        cat.register_dataset(source, "AMPds-remote", data_dir=mine)
    assert cat.crawl() == []

    with pytest.raises(NotFound):
        cat.lookup("AMPds-remote")
    assert {p.name: p.read_bytes() for p in mine.iterdir()} == before
    assert not gets


def crawl_after_first_read(catalog, monkeypatch) -> list:
    """Make a crawl run right after the first public catalog read returns,
    so the caller finishes its work on a catalog that has changed under it.
    ``record`` gives an entry and its tables together; ``lookup`` and
    ``dataset`` give each alone. Returns the crawl's events once it ran."""
    crawled = []
    for name in ("lookup", "dataset", "record"):
        read = getattr(catalog, name, None)
        if read is None:
            continue

        def wrapped(*args, _read=read):
            result = _read(*args)
            if not crawled:
                crawled.append(catalog.crawl())
            return result

        monkeypatch.setattr(catalog, name, wrapped)
    return crawled


def test_info_reads_one_state_across_a_crawl(live_server, data_dir, monkeypatch):
    app, base = live_server
    shutil.copy(data_dir / "HPE.csv", data_dir / "NEW.csv")
    crawled = crawl_after_first_read(app.catalog, monkeypatch)
    port = int(base.rsplit(":", 1)[1])

    def get_info(pid_body):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", f"/ark:/{NAAN}/{pid_body}?info")
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    # The request started before NEW was registered, so it reads the state
    # without NEW throughout: an unknown sensor, whatever the crawl did.
    status, _ = get_info(f"{DATASET}.NEW.V@*")
    assert [e.kind for e in crawled[0]] == ["modified"]
    assert status == 404
    status, body = get_info(f"{DATASET}.NEW.V@*")
    assert status == 200
    assert [s["name"] for s in json.loads(body)["sensors"]] == ["NEW"]


def test_readers_during_crawls_get_one_state_or_the_next(live_server, data_dir,
                                                         tmp_path):
    """Two HTTP readers run while this thread appends rows, adds and removes
    a sensor file, and crawls. Each CSV reply is the oracle's bytes for a
    version of the file that was on disk, or a 404; nothing is a 500."""
    app, base = live_server
    port = int(base.rsplit(":", 1)[1])
    rounds = 24
    dwe_pid = f"ark:/{NAAN}/{DATASET}.DWE.V+I@25590~99999"
    new_pid = f"ark:/{NAAN}/{DATASET}.NEW.V@*"

    # Every DWE version this test will write, and what each resolves to.
    versions = tmp_path / "versions"
    versions.mkdir()
    dwe_text = (data_dir / "DWE.csv").read_text()
    rows = [f"{25601 + i},{i}.5,{i}.25\n" for i in range(rounds)]
    dwe_expected = set()
    for i in range(rounds + 1):
        (versions / "DWE.csv").write_text(dwe_text + "".join(rows[:i]))
        dwe_expected.add(oracle.resolve_csv(versions, dwe_pid))
    new_text = (data_dir / "HPE.csv").read_text()
    (versions / "NEW.csv").write_text(new_text)
    new_expected = oracle.resolve_csv(versions, new_pid)

    probes = [
        ("/" + dwe_pid, {200: dwe_expected}),
        ("/" + new_pid, {200: {new_expected}, 404: None}),
        (f"/{new_pid}?info", {200: None, 404: None}),
        (f"/ark:/{NAAN}/{DATASET}.DWE+NEW.V@*?info", {200: None, 404: None}),
        ("/catalog", {200: None}),
    ]
    done = threading.Event()
    problems = []
    counts = collections.Counter()

    def read_loop():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            while not done.is_set():
                for path, allowed in probes:
                    conn.request("GET", path)
                    reply = conn.getresponse()
                    body = reply.read().decode("utf-8")
                    counts[reply.status] += 1
                    if reply.status not in allowed:
                        problems.append((path, reply.status, body[:200]))
                    elif allowed[reply.status] is not None and \
                            body not in allowed[reply.status]:
                        problems.append((path, "bytes", body[-200:]))
                    elif "json" in reply.headers["Content-Type"]:
                        json.loads(body)
        except Exception as exc:  # noqa: BLE001 - reported below
            problems.append(("reader", repr(exc)))
        finally:
            conn.close()

    readers = [threading.Thread(target=read_loop) for _ in range(2)]
    for t in readers:
        t.start()
    try:
        for i, row in enumerate(rows):
            with open(data_dir / "DWE.csv", "a", encoding="utf-8") as fh:
                fh.write(row)
            if i % 3 == 0:
                (data_dir / "NEW.csv").write_text(new_text)
            elif i % 3 == 2:
                (data_dir / "NEW.csv").unlink()
            assert [e.kind for e in app.catalog.crawl()] == ["modified"]
    finally:
        done.set()
        for t in readers:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in readers)
    assert problems == []
    assert counts[200] > 0
