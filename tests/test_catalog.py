import collections
import functools
import hashlib
import http.server
import importlib.util
import json
import random
import shutil
import sys
import threading
from pathlib import Path

import pytest

from arkslice.catalog import (
    Catalog,
    CatalogEntry,
    DataSource,
    DatasetMetadata,
    _key_schema,
    content_hash,
    json_bytes,
)
from arkslice import timeseries_store
from arkslice.errors import DuplicateDataset, LoadError, NotFound
from arkslice.pid_grammar import parse_pid
from arkslice.timeseries_store import SensorTable, render_csv, select
from arkslice.type_registry import (
    compute_properties,
    infer_column_type,
    numeric_values,
)

import oracle
from conftest import DATASET, FIXTURE_METADATA, write_fixture

GOLDEN_SENSORS = Path(__file__).parent / "data" / "catalog_sensors_golden.json"
DATAGEN = Path(__file__).resolve().parents[1] / "bench" / "datagen.py"


def load_datagen():
    """The benchmark's seeded data generator, imported from its file."""
    spec = importlib.util.spec_from_file_location("bench_datagen", DATAGEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def cell_path_schema(table: SensorTable, file_name: str) -> dict:
    """A sensor's schema typed from decoded cells, as every column was
    typed before all-number columns were typed from their bytes. The key
    keeps ``_key_schema``, which is checked against the per-cell reference
    in ``test_type_registry``."""
    columns = [_key_schema(table.key_column_name, table.index)]
    for name in table.names:
        cells = table.column(name)
        desc = infer_column_type(cells)
        values = numeric_values(cells)
        columns.append({
            "name": name, "basic": desc.basic, "derived": desc.derived,
            "properties": compute_properties(values).as_dict() if values else None,
        })
    return {"name": table.sensor_name, "file": file_name, "columns": columns}


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

    def test_reregister_unchanged_bytes_parses_and_types_nothing(self, app, work):
        source = app.source("local")
        app.catalog.register_dataset(source, DATASET, metadata=FIXTURE_METADATA)
        assert work.parsed == work.typed == []
        restarted = Catalog(app.catalog.state_dir, [source])
        assert work.parsed == ["DWE", "HPE", "WOE"]  # a restore parses, never types
        restarted.register_dataset(source, DATASET, metadata=FIXTURE_METADATA)
        assert work.parsed == ["DWE", "HPE", "WOE"]
        assert work.typed == []

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

    def test_all_number_sensors_decode_no_cell(self, tmp_path, monkeypatch):
        decoded = []
        cells = SensorTable.cells

        def counting(table, fields):
            decoded.append(len(fields))
            return cells(table, fields)

        monkeypatch.setattr(SensorTable, "cells", counting)
        write_fixture(tmp_path / "data")
        write_mixed_fixture(tmp_path / "data")
        source = DataSource("local", str(tmp_path / "data"))
        cat = Catalog(tmp_path / "state", [source])
        cat.register_dataset(source, DATASET)
        assert decoded == []
        cat.register_dataset(source, "Mixed-ds")  # text columns: cells
        assert decoded

    def test_bench_data_typed_as_from_cells(self, tmp_path):
        datagen = load_datagen()
        datagen.generate(1, 3000, tmp_path / "data")
        source = DataSource("bench", str(tmp_path / "data"))
        entry = Catalog(tmp_path / "state", [source]).register_dataset(
            source, datagen.DATASET)
        files = sorted((tmp_path / "data" / datagen.DATASET).glob("*.csv"))
        expected = [cell_path_schema(timeseries_store.load_sensor_csv(p, p.stem), p.name)
                    for p in files]
        # Bytes, so that -0.0 and 0.0 differ.
        assert json_bytes(entry.sensors) == json_bytes(expected)

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

    def test_crawl_parses_and_types_only_the_changed_file(
            self, app, data_dir, tmp_path, work):
        path = data_dir / "DWE.csv"
        path.write_text(path.read_text() + "25610,120.000,1.000\n")
        assert [e.kind for e in app.catalog.crawl()] == ["modified"]
        assert work.parsed == ["DWE"]
        assert work.typed == [("DWE", "V"), ("DWE", "I")]
        entry = app.catalog.lookup(DATASET)
        assert entry.file_hashes == {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in data_dir.glob("*.csv")}
        # The kept schemas are the bytes a fresh register writes.
        source = DataSource("fresh", str(tmp_path / "data"))
        fresh = Catalog(tmp_path / "fresh", [source]).register_dataset(source, DATASET)
        assert json_bytes(entry.sensors) == json_bytes(fresh.sensors)

    def test_crawl_reads_each_sensor_file_once(self, app, data_dir, monkeypatch):
        reads = collections.Counter()
        read = timeseries_store.read_sensor_file

        def counting(path):
            reads[Path(path).name] += 1
            return read(path)

        monkeypatch.setattr(timeseries_store, "read_sensor_file", counting)
        path = data_dir / "DWE.csv"
        path.write_text(path.read_text() + "25610,120.000,1.000\n")
        assert [e.kind for e in app.catalog.crawl()] == ["modified"]
        assert reads == {"DWE.csv": 1, "HPE.csv": 1, "WOE.csv": 1}
        reads.clear()
        assert app.catalog.crawl() == []
        assert reads == {"DWE.csv": 1, "HPE.csv": 1, "WOE.csv": 1}

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

    @pytest.mark.parametrize("change", ["removed", "added"])
    def test_concurrent_crawls_apply_each_change_once(
        self, app, tmp_path, data_dir, change
    ):
        if change == "removed":
            shutil.rmtree(data_dir)
        else:
            write_fixture(tmp_path / "data", dataset="AMPds-extra")
        # Each crawl's first directory scan waits for the other crawl to
        # reach its own, so unserialised crawls both see the same change.
        # Serialised crawls break the barrier by timeout and go on.
        barrier = threading.Barrier(2, timeout=1.5)
        waited = set()
        csv_files = app.catalog._csv_files

        def racing_csv_files(path):
            if threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass
            return csv_files(path)

        app.catalog._csv_files = racing_csv_files
        events, errors = [], []

        def crawl():
            try:
                events.extend(app.catalog.crawl())
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=crawl) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert errors == []
        assert [e.kind for e in events] == [change]
        logged = app.catalog.events_log.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in logged] == [change]


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
        failed_url = f"{base}/AMPds-remote/DWE.csv"
        assert failed_url in events[0].error
        logged = json.loads(cat.events_log.read_text().splitlines()[-1])
        assert failed_url in logged["error"]
        assert cat.lookup("AMPds-remote") == entry
        assert cat.dataset("AMPds-remote").sensor("DWE").row_count > 0
        assert cat._entry_path("AMPds-remote").read_bytes() == before
        # Back up: the entry was never lost, so nothing changed.
        (root / "unavailable").unlink()
        assert cat.crawl() == []

    def test_bad_remote_file_never_reaches_the_cache(self, tmp_path, file_server):
        root, base = file_server
        source = DataSource(id="remote", root=base, kind="remote_http")
        cat = Catalog(tmp_path / "state5", [source])
        cat.register_dataset(
            source, "AMPds-remote", sensor_files=["HPE.csv", "DWE.csv", "WOE.csv"])
        good = tmp_path / "good"
        shutil.copytree(root / "AMPds-remote", good)
        # HPE gains a good row, then DWE a ragged one: neither is cached.
        for name, row in (("HPE", "25612,1.0,2.0\n"), ("DWE", "25612,1.0\n")):
            path = root / "AMPds-remote" / f"{name}.csv"
            path.write_text(path.read_text() + row)
        events = cat.crawl()
        assert [e.kind for e in events] == ["source_error"]
        assert f"{base}/AMPds-remote/DWE.csv" in events[0].error
        restarted = Catalog(tmp_path / "state5", [source])
        assert restarted.crawl()[0].kind == "source_error"
        for sensor in ("HPE", "DWE"):
            pid = f"ark:/57460/AMPds-remote.{sensor}.V@*"
            q = parse_pid(pid)
            got = render_csv(select(restarted.dataset("AMPds-remote"), q))
            assert got == oracle.resolve_csv(good, pid).encode("utf-8")

    def test_needs_sensor_list(self, tmp_path, file_server):
        _, base = file_server
        source = DataSource(id="remote", root=base, kind="remote_http")
        cat = Catalog(tmp_path / "state3", [source])
        with pytest.raises(LoadError):
            cat.register_dataset(source, "AMPds-remote")


def test_content_hash_order_and_stability():
    a, b = b"ts,V\n1,2\n", b"ts,V\n3,4\n"
    h1 = content_hash({"a.csv": a, "b.csv": b})
    assert h1 == hashlib.sha256(a + b).hexdigest()
    # Lexicographic file-name order, not call order.
    assert content_hash({"b.csv": b, "a.csv": a}) == h1
    assert content_hash({"a.csv": a, "b.csv": b"ts,V\n3,5\n"}) != h1


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


# --- the bytes a dataset is hashed from are the bytes it was loaded from ---

def one_sensor_catalog(tmp_path, datasets):
    """A catalog over ``{dataset: sensor file text}``, each registered."""
    root = tmp_path / "data"
    for name, text in datasets.items():
        (root / name).mkdir(parents=True)
        (root / name / "X.csv").write_bytes(text)
    sources = [DataSource("local", str(root))]
    cat = Catalog(tmp_path / "state", sources)
    for name in datasets:
        cat.register_dataset(cat.sources["local"], name)
    return cat, root, sources


def slice_of(cat, dataset, selector="*"):
    q = parse_pid(f"ark:/57460/{dataset}.X.V@{selector}")
    return render_csv(select(cat.dataset(dataset), q))


def test_register_hashes_the_bytes_it_loaded(tmp_path, monkeypatch):
    """A write that lands just after the load read the file is not in the
    stored hash, so the next crawl still sees it and reloads."""
    cat, root, _ = one_sensor_catalog(tmp_path, {"D": b"ts,V\n1,a\n2,b\n"})
    path = root / "D" / "X.csv"
    path.write_bytes(b"ts,V\n1,a\n2,B\n")
    read = timeseries_store.read_sensor_file

    def read_then_append(*args, **kwargs):
        data = read(*args, **kwargs)
        with open(path, "ab") as fh:
            fh.write(b"3,c\n")
        return data

    monkeypatch.setattr(timeseries_store, "read_sensor_file", read_then_append)
    assert [e.kind for e in cat.crawl()] == ["modified"]
    monkeypatch.setattr(timeseries_store, "read_sensor_file", read)
    assert [e.kind for e in cat.crawl()] == ["modified"]
    assert slice_of(cat, "D", "3") == b"timestamp,V\n3,c\n"
    assert cat.lookup("D").content_hash == content_hash({"X.csv": path.read_bytes()})


def test_crlf_file_is_hashed_over_its_raw_bytes(tmp_path):
    raw = b"ts,V\r\n2,a\r\n1,b"  # CRLF, out of key order, no final newline
    cat, _, _ = one_sensor_catalog(tmp_path, {"D": raw})
    entry = cat.lookup("D")
    assert entry.file_hashes == {"X.csv": hashlib.sha256(raw).hexdigest()}
    assert entry.content_hash == hashlib.sha256(raw).hexdigest()
    assert slice_of(cat, "D") == b"timestamp,V\n1,b\n2,a\n"
    assert cat.crawl() == []


NOT_UTF8 = b"ts,V\n1,a\n2,\xff\n"  # the bad byte is at offset 11


def test_crawl_records_a_file_that_is_not_utf8_and_goes_on(tmp_path):
    cat, root, _ = one_sensor_catalog(
        tmp_path, {"A": b"ts,V\n1,a\n", "B": b"ts,V\n1,a\n"})
    (root / "A" / "X.csv").write_bytes(NOT_UTF8)
    (root / "B" / "X.csv").write_bytes(b"ts,V\n1,a\n2,b\n")
    events = {e.dataset: e for e in cat.crawl()}
    assert {name: e.kind for name, e in events.items()} == {
        "A": "source_error", "B": "modified"}
    assert "X.csv" in events["A"].error and "byte 11" in events["A"].error
    assert slice_of(cat, "A") == b"timestamp,V\n1,a\n"  # the last good bytes
    assert slice_of(cat, "B") == b"timestamp,V\n1,a\n2,b\n"


def test_restart_serves_a_dataset_that_is_not_utf8_as_not_found(tmp_path):
    cat, root, sources = one_sensor_catalog(
        tmp_path, {"A": b"ts,V\n1,a\n", "B": b"ts,V\n1,a\n"})
    (root / "A" / "X.csv").write_bytes(NOT_UTF8)
    restarted = Catalog(tmp_path / "state", sources)
    with pytest.raises(NotFound) as err:
        restarted.dataset("A")
    assert err.value.http_status == 404
    assert restarted.lookup("A").dataset == "A"
    assert slice_of(restarted, "B") == b"timestamp,V\n1,a\n"


def test_crawl_records_a_file_that_vanishes_and_goes_on(tmp_path):
    """A file renamed away between the listing and its read is a
    ``source_error`` naming it; the crawl still logs every other change."""
    cat, root, _ = one_sensor_catalog(
        tmp_path, {"A": b"ts,V\n1,a\n", "B": b"ts,V\n1,a\n"})
    (root / "A" / "X.csv").write_bytes(b"ts,V\n1,a\n2,b\n")
    csv_files = cat._csv_files

    def list_then_rename(data_dir):
        files = csv_files(data_dir)
        if data_dir.name == "B":
            (data_dir / "X.csv").rename(data_dir / "X.csv.gone")
        return files

    cat._csv_files = list_then_rename
    events = {e.dataset: e for e in cat.crawl()}
    assert {name: e.kind for name, e in events.items()} == {
        "A": "modified", "B": "source_error"}
    assert str(root / "B" / "X.csv") in events["B"].error
    logged = [json.loads(line) for line in cat.events_log.read_text().splitlines()]
    assert [(r["dataset"], r["kind"]) for r in logged] == [
        ("A", "modified"), ("B", "source_error")]
    assert slice_of(cat, "A") == b"timestamp,V\n1,a\n2,b\n"
    assert slice_of(cat, "B") == b"timestamp,V\n1,a\n"  # the last good bytes


def test_crawl_reloads_a_dataset_missing_at_restart(tmp_path):
    cat, root, sources = one_sensor_catalog(tmp_path, {"A": b"ts,V\n1,a\n"})
    (root / "A").rename(root / "A-away")
    restarted = Catalog(tmp_path / "state", sources)
    with pytest.raises(NotFound):
        restarted.dataset("A")
    (root / "A-away").rename(root / "A")
    assert restarted.crawl() == []  # the bytes did not change: no event
    assert slice_of(restarted, "A") == b"timestamp,V\n1,a\n"
    assert not restarted.events_log.exists()


# --- names, absent roots and new directories ---

@pytest.mark.parametrize("name", ["../evil", "a/b", "A\n", ""])
def test_a_dataset_name_that_is_not_a_name_is_refused(tmp_path, name):
    root = tmp_path / "data" / "root"
    write_fixture(tmp_path / "data", dataset="evil")
    source = DataSource("local", str(root))
    cat = Catalog(tmp_path / "state", [source])
    with pytest.raises(LoadError, match="not a valid name") as err:
        cat.register_dataset(source, name)
    assert err.value.exit_code == 1
    assert sorted(p.name for p in (tmp_path / "state").rglob("*")) == ["catalog"]
    assert Catalog(tmp_path / "state", [source]).search("") == []


def test_a_root_that_is_gone_keeps_its_datasets(app, tmp_path):
    root = tmp_path / "data"
    before = app.catalog.lookup(DATASET)
    document = app.catalog._entry_path(DATASET).read_bytes()
    root.rename(tmp_path / "data-away")
    events = app.catalog.crawl()
    assert [(e.kind, e.dataset) for e in events] == [("source_error", DATASET)]
    assert str(root) in events[0].error
    assert app.catalog.lookup(DATASET) == before
    assert app.catalog._entry_path(DATASET).read_bytes() == document
    (tmp_path / "data-away").rename(root)
    assert app.catalog.crawl() == []
    after = app.catalog.lookup(DATASET)
    assert (after.metadata, after.registered_at, after.content_hash) == (
        FIXTURE_METADATA, before.registered_at, before.content_hash)


@pytest.mark.parametrize("data_dir", ["data/A", "data/../data/A", "absolute"])
def test_a_root_that_is_gone_is_matched_by_absolute_path(tmp_path, monkeypatch, data_dir):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data" / "A").mkdir(parents=True)
    (tmp_path / "data" / "A" / "X.csv").write_bytes(b"ts,V\n1,a\n")
    source = DataSource("local", "data")
    cat = Catalog("state", [source])
    if data_dir == "absolute":
        data_dir = tmp_path / "data" / "A"
    cat.register_dataset(source, "A", DatasetMetadata(core="kept"), data_dir=data_dir)
    (tmp_path / "data").rename(tmp_path / "away")
    assert [(e.kind, e.error) for e in cat.crawl()] == [
        ("source_error", f"source root {tmp_path / 'data'} is not a directory")]
    (tmp_path / "away").rename(tmp_path / "data")
    assert cat.crawl() == []
    assert cat.lookup("A").metadata.core == "kept"


def test_a_ragged_new_directory_is_a_source_error_naming_the_file(app, tmp_path):
    new = tmp_path / "data" / "Ragged-ds"
    new.mkdir()
    (new / "X.csv").write_bytes(b"ts,V\n1,2\n2,3,4\n")
    events = app.catalog.crawl()
    assert [(e.kind, e.dataset) for e in events] == [("source_error", "Ragged-ds")]
    assert str(new / "X.csv") in events[0].error
    assert not app.catalog._entry_path("Ragged-ds").exists()


def test_a_new_directory_without_sensor_files_is_not_a_dataset(app, tmp_path):
    (tmp_path / "data" / "Dirs-ds" / "x.csv").mkdir(parents=True)
    assert app.catalog.crawl() == []
    assert not app.catalog._entry_path("Dirs-ds").exists()
    assert not app.catalog.events_log.exists()


def test_a_new_dataset_is_read_once(app, tmp_path, monkeypatch):
    reads = collections.Counter()
    read = timeseries_store.read_sensor_file

    def counting(path):
        reads[str(Path(path).relative_to(tmp_path / "data"))] += 1
        return read(path)

    write_fixture(tmp_path / "data", dataset="AMPds-extra")
    monkeypatch.setattr(timeseries_store, "read_sensor_file", counting)
    assert [e.kind for e in app.catalog.crawl()] == ["added"]
    assert reads == {f"{name}/{sensor}.csv": 1 for name in (DATASET, "AMPds-extra")
                     for sensor in ("DWE", "HPE", "WOE")}
