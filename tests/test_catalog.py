import functools
import http.server
import json
import random
import shutil
import threading
from pathlib import Path

import pytest

from arkslice.catalog import (
    Catalog,
    CatalogEntry,
    DataSource,
    DatasetMetadata,
    content_hash,
)
from arkslice.errors import DuplicateDataset, LoadError, NotFound

from conftest import DATASET, FIXTURE_METADATA, write_fixture

GOLDEN_SENSORS = Path(__file__).parent / "data" / "catalog_sensors_golden.json"


def write_mixed_fixture(data_root: Path, dataset: str = "Mixed-ds") -> Path:
    """A dataset whose columns cover every derived type the inferrer emits."""
    ds_dir = data_root / dataset
    ds_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(dataset)

    # Epoch keys written out of order; ints with signs, scientific with
    # gaps and plain reals mixed in, reals in every lexical form.
    keys = [1333238400 + 60 * i for i in range(120)]
    rng.shuffle(keys)
    lines = ["time,P,Q,R,N"]
    for i, k in enumerate(keys):
        p = rng.choice(["+", "-", ""]) + str(rng.randint(0, 500))
        q = "" if i % 7 == 0 else (
            f"{rng.uniform(-1e5, 1e5):.3e}" if i % 3 else f"{rng.uniform(0, 9):.2f}")
        r = rng.choice([f"{rng.uniform(-50, 50):.3f}", f".{rng.randint(0, 99)}",
                        f"{rng.randint(0, 9)}.", str(rng.randint(-9, 9))])
        n = str(rng.randint(0, 3)) if i % 2 else f"{rng.randint(0, 3)}.5"
        lines.append(f"{k},{p},{q},{r},{n}")
    (ds_dir / "EPO.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["ts,PCT,CUR,EUR,BOOL,URL,WORD,EMPTY,MIX"]
    for k in range(1, 41):
        lines.append(",".join([
            str(k),
            f"{rng.uniform(0, 100):.1f}%",
            f"${rng.randint(1, 99)}.{rng.randint(10, 99)}",
            f"€{rng.randint(1, 9)}",
            rng.choice(["Yes", "no", "YES", "No"]),
            f"https://x.example/{k}",
            rng.choice(["alpha", "beta", "gamma"]),
            "",
            rng.choice(["1", "2.5", "x"]) if k % 5 else "",
        ]))
    (ds_dir / "TXT.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    (ds_dir / "NIL.csv").write_text("ts,V\n", encoding="utf-8")
    return ds_dir


class TestRegister:
    def test_register_and_lookup(self, app):
        entry = app.catalog.lookup(DATASET)
        assert entry.dataset == DATASET
        assert sorted(s["name"] for s in entry.sensors) == ["DWE", "HPE", "WOE"]
        for sensor in entry.sensors:
            cols = {c["name"]: c for c in sensor["columns"]}
            assert cols["V"]["basic"] == "number"
            assert cols["V"]["derived"] == "real"
            assert cols["I"]["derived"] == "real"
            assert cols["V"]["properties"]["stddev"] >= 0

    def test_lookup_missing(self, app):
        with pytest.raises(NotFound):
            app.catalog.lookup("nope")

    def test_duplicate_across_sources(self, app, tmp_path):
        other_root = tmp_path / "other"
        write_fixture(other_root)
        other = DataSource(id="other", root=str(other_root))
        app.catalog.sources["other"] = other
        with pytest.raises(DuplicateDataset):
            app.catalog.register_dataset(other, DATASET)

    def test_empty_directory(self, app, tmp_path):
        empty = tmp_path / "data" / "Empty-ds"
        empty.mkdir()
        with pytest.raises(LoadError):
            app.catalog.register_dataset(app.source("local"), "Empty-ds")

    def test_reregister_same_source_refreshes(self, app):
        before = app.catalog.lookup(DATASET).content_hash
        entry = app.catalog.register_dataset(
            app.source("local"), DATASET, metadata=FIXTURE_METADATA
        )
        assert entry.content_hash == before

    def test_entry_persisted_as_json(self, app):
        path = app.catalog.entries_dir / f"{DATASET}.json"
        doc = json.loads(path.read_text())
        assert doc["dataset"] == DATASET
        assert doc["schema_name"] == "Dublin Core"
        assert doc["domain"]["environmental"] == "energy monitoring"

    def test_sensors_document_matches_golden(self, tmp_path):
        # Golden bytes were produced by the per-cell inference that ran on
        # every load; typing once at register must not change one byte.
        write_fixture(tmp_path / "data")
        write_mixed_fixture(tmp_path / "data")
        source = DataSource("local", str(tmp_path / "data"))
        cat = Catalog(tmp_path / "state", [source])
        doc = {name: cat.register_dataset(source, name).sensors
               for name in (DATASET, "Mixed-ds")}
        got = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert got == GOLDEN_SENSORS.read_text(encoding="utf-8")

    def test_from_document_inverts_document(self, app):
        entry = app.catalog.lookup(DATASET)
        assert CatalogEntry.from_document(entry.document()) == entry
        restored = json.loads(json.dumps(entry.document()))
        assert CatalogEntry.from_document(restored) == entry

    def test_state_restored_across_restart(self, app):
        reopened = Catalog(app.catalog.state_dir, list(app.catalog.sources.values()))
        assert reopened.lookup(DATASET).content_hash == \
            app.catalog.lookup(DATASET).content_hash
        assert reopened.dataset(DATASET).sensor("DWE").row_count > 0


class TestSearch:
    def test_name_substring(self, app):
        hits = app.catalog.search("amp")
        assert [h["dataset"] for h in hits] == [DATASET]

    def test_dictionary_term(self, app):
        hits = app.catalog.search("DWE")
        assert [h["dataset"] for h in hits] == [DATASET]

    def test_core_field(self, app):
        assert app.catalog.search("energy")

    def test_no_hit(self, app):
        assert app.catalog.search("zzz") == []

    def test_empty_query_lists_all(self, app):
        assert len(app.catalog.search("")) == 1


class TestCrawl:
    def test_no_change_no_events(self, app):
        assert app.catalog.crawl() == []

    def test_modified(self, app, data_dir):
        old_hash = app.catalog.lookup(DATASET).content_hash
        path = data_dir / "DWE.csv"
        path.write_text(path.read_text() + "25610,120.000,1.000\n")
        events = app.catalog.crawl()
        assert [e.kind for e in events] == ["modified"]
        assert events[0].old_hash == old_hash
        assert events[0].new_hash != old_hash
        assert app.catalog.lookup(DATASET).content_hash == events[0].new_hash
        # Reload picked up the new row.
        assert 25610 in app.catalog.dataset(DATASET).sensor("DWE").key
        # Idempotence: second crawl is a fixed point.
        assert app.catalog.crawl() == []

    def test_single_byte_change_changes_hash(self, app, data_dir):
        old_hash = app.catalog.lookup(DATASET).content_hash
        path = data_dir / "WOE.csv"
        raw = bytearray(path.read_bytes())
        idx = raw.index(b".") + 1
        raw[idx] = ord("9") if raw[idx] != ord("9") else ord("8")
        path.write_bytes(bytes(raw))
        events = app.catalog.crawl()
        assert [e.kind for e in events] == ["modified"]
        assert events[0].new_hash != old_hash

    def test_removed(self, app, data_dir):
        shutil.rmtree(data_dir)
        events = app.catalog.crawl()
        assert [e.kind for e in events] == ["removed"]
        with pytest.raises(NotFound):
            app.catalog.lookup(DATASET)
        with pytest.raises(NotFound):
            app.catalog.dataset(DATASET)

    def test_added_autoregisters(self, app, tmp_path):
        write_fixture(tmp_path / "data", dataset="AMPds-extra")
        events = app.catalog.crawl()
        assert [e.kind for e in events] == ["added"]
        assert events[0].dataset == "AMPds-extra"
        assert app.catalog.lookup("AMPds-extra")
        assert app.catalog.crawl() == []

    def test_mixed_batch_one_event_each(self, app, tmp_path, data_dir):
        write_fixture(tmp_path / "data", dataset="AMPds-new")
        path = data_dir / "DWE.csv"
        path.write_text(path.read_text() + "25611,1.0,2.0\n")
        events = app.catalog.crawl()
        kinds = {e.dataset: e.kind for e in events}
        assert kinds == {DATASET: "modified", "AMPds-new": "added"}
        assert len(events) == 2
        assert app.catalog.crawl() == []

    def test_events_logged(self, app, tmp_path, data_dir):
        shutil.rmtree(data_dir)
        app.catalog.crawl()
        lines = app.catalog.events_log.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1]["kind"] == "removed"
        assert records[-1]["dataset"] == DATASET


@pytest.fixture
def file_server(tmp_path):
    root = tmp_path / "remote"
    write_fixture(root, dataset="AMPds-remote")
    class QuietHandler(http.server.SimpleHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            # An ``unavailable`` file in the root makes every request 503.
            if (root / "unavailable").exists():
                self.send_error(503)
            else:
                super().do_GET()

    handler = functools.partial(QuietHandler, directory=str(root))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield root, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestRemoteSource:
    def test_register_and_crawl(self, tmp_path, file_server):
        root, base = file_server
        source = DataSource(id="remote", root=base, kind="remote_http")
        cat = Catalog(tmp_path / "state2", [source])
        entry = cat.register_dataset(
            source, "AMPds-remote",
            metadata=DatasetMetadata(core="remote fixture"),
            sensor_files=["HPE.csv", "DWE.csv", "WOE.csv"],
        )
        assert cat.dataset("AMPds-remote").sensor("DWE").row_count > 0
        # Unified access path: same lookup/search interface as local.
        assert cat.search("remote")[0]["dataset"] == "AMPds-remote"
        assert cat.crawl() == []

        path = root / "AMPds-remote" / "DWE.csv"
        path.write_text(path.read_text() + "25612,1.0,2.0\n")
        events = cat.crawl()
        assert [e.kind for e in events] == ["modified"]
        assert events[0].new_hash != entry.content_hash

    def test_outage_keeps_entry(self, tmp_path, file_server):
        root, base = file_server
        source = DataSource(id="remote", root=base, kind="remote_http")
        cat = Catalog(tmp_path / "state4", [source])
        entry = cat.register_dataset(
            source, "AMPds-remote", sensor_files=["HPE.csv", "DWE.csv", "WOE.csv"]
        )
        before = cat._entry_path("AMPds-remote").read_bytes()
        (root / "unavailable").touch()
        events = cat.crawl()
        assert [(e.kind, e.dataset) for e in events] == [
            ("source_error", "AMPds-remote")]
        assert cat.lookup("AMPds-remote") == entry
        assert cat.dataset("AMPds-remote").sensor("DWE").row_count > 0
        assert cat._entry_path("AMPds-remote").read_bytes() == before
        # Back up: the entry was never lost, so nothing changed.
        (root / "unavailable").unlink()
        assert cat.crawl() == []

    def test_needs_sensor_list(self, tmp_path, file_server):
        _, base = file_server
        source = DataSource(id="remote", root=base, kind="remote_http")
        cat = Catalog(tmp_path / "state3", [source])
        with pytest.raises(LoadError):
            cat.register_dataset(source, "AMPds-remote")


def test_content_hash_order_and_stability(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("ts,V\n1,2\n")
    b.write_text("ts,V\n3,4\n")
    h1 = content_hash([a, b])
    assert content_hash([b, a]) == h1  # lexicographic order, not call order
    b.write_text("ts,V\n3,5\n")
    assert content_hash([a, b]) != h1


def test_federated_lookup_across_sources(tmp_path):
    root1 = tmp_path / "s1"
    root2 = tmp_path / "s2"
    write_fixture(root1, dataset="Alpha-ds")
    write_fixture(root2, dataset="Beta-ds")
    s1 = DataSource(id="s1", root=str(root1))
    s2 = DataSource(id="s2", root=str(root2))
    cat = Catalog(tmp_path / "state", [s1, s2])
    cat.register_dataset(s1, "Alpha-ds")
    cat.register_dataset(s2, "Beta-ds")
    assert cat.lookup("Alpha-ds").source_id == "s1"
    assert cat.lookup("Beta-ds").source_id == "s2"
    assert [h["dataset"] for h in cat.search("")] == ["Alpha-ds", "Beta-ds"]
