"""Stateful test of the catalog against a dict of file bytes.

Rules change dataset directories under one local source, crawl, restart
(a new ``App`` on the same state directory), describe a dataset, move
the source root away and back, and mint. After every crawl the catalog
must hold exactly the model's datasets, resolve each one as the oracle
does over the model's bytes, and store the hash every event reported,
each file's hash, and the schema a fresh register of the model's bytes
gives, whether it typed the file or kept its stored schema; a dataset
keeps its metadata and ``registered_at`` while it is live, even across a
crawl that found the root gone; no NOID is ever issued twice.
"""

import hashlib
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import oracle
from arkslice.catalog import DataSource, DatasetMetadata, _sensor_schema, json_bytes
from arkslice.http_service import App, ServiceConfig
from arkslice.timeseries_store import SensorTable, render_csv
from conftest import NAAN

DATASETS = ("Alpha-ds", "Beta-ds", "Gamma-ds")
SENSORS = ("HPE", "DWE", "WOE")
values = st.integers(min_value=-999, max_value=999)


class CatalogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="arkslice-stateful-"))
        self.root = self.tmp / "data"
        self.root.mkdir()
        # dataset -> sensor file name -> bytes; mirrors the source root.
        self.model: dict[str, dict[str, bytes]] = {}
        self.next_key = 1000
        self.noids: set[str] = set()
        # dataset -> the metadata and registered_at its entry must keep.
        self.metadata: dict[str, DatasetMetadata] = {}
        self.registered_at: dict[str, str] = {}
        self.app = self._start()

    def _start(self) -> App:
        return App(ServiceConfig(
            naans=[NAAN],
            sources=[DataSource(id="local", root=str(self.root))],
            state_dir=str(self.tmp / "state"),
        ))

    def _row(self, value: int) -> bytes:
        self.next_key += 1
        return f"{self.next_key},{value / 10}\n".encode()

    def _write(self, dataset: str, sensor_file: str, data: bytes) -> None:
        self.model.setdefault(dataset, {})[sensor_file] = data
        (self.root / dataset).mkdir(exist_ok=True)
        (self.root / dataset / sensor_file).write_bytes(data)

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    # --- file changes ---

    @initialize(data=st.data(), first=values)
    def seed_dataset(self, data, first):
        self.add_dataset(data, first)
        self.add_sensor(data, first)

    @precondition(lambda self: len(self.model) < len(DATASETS))
    @rule(data=st.data(), first=values)
    def add_dataset(self, data, first):
        name = data.draw(st.sampled_from(
            [d for d in DATASETS if d not in self.model]))
        sensor = data.draw(st.sampled_from(SENSORS))
        self._write(name, f"{sensor}.csv", b"timestamp,V\n" + self._row(first))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), value=values)
    def append_row(self, data, value):
        name = data.draw(st.sampled_from(sorted(self.model)))
        files = self.model[name]
        if files:
            f = data.draw(st.sampled_from(sorted(files)))
            self._write(name, f, files[f] + self._row(value))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), value=values)
    def add_sensor(self, data, value):
        name = data.draw(st.sampled_from(sorted(self.model)))
        missing = [s for s in SENSORS if f"{s}.csv" not in self.model[name]]
        if missing:
            sensor = data.draw(st.sampled_from(missing))
            self._write(name, f"{sensor}.csv", b"timestamp,V\n" + self._row(value))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def drop_sensor(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        files = self.model[name]
        if files:
            f = data.draw(st.sampled_from(sorted(files)))
            del files[f]
            (self.root / name / f).unlink()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_dataset(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        del self.model[name]
        shutil.rmtree(self.root / name)

    # --- catalog operations ---

    @rule()
    def crawl(self):
        events = self.app.catalog.crawl()
        catalog = self.app.catalog
        live = {name: files for name, files in self.model.items() if files}
        assert [h["dataset"] for h in catalog.search("")] == sorted(live)
        for event in events:
            if event.kind in ("added", "modified"):
                assert catalog.lookup(event.dataset).content_hash == event.new_hash
            else:
                assert event.kind == "removed"
        for kept in (self.metadata, self.registered_at):
            for name in set(kept) - set(live):
                del kept[name]
        for name, files in live.items():
            h = hashlib.sha256()
            for f in sorted(files):
                h.update(files[f])
            entry = catalog.lookup(name)
            assert entry.content_hash == h.hexdigest()
            assert entry.metadata == self.metadata.get(name, DatasetMetadata())
            assert entry.registered_at == self.registered_at.setdefault(
                name, entry.registered_at)
            assert entry.file_hashes == {
                f: hashlib.sha256(data).hexdigest() for f, data in files.items()}
            fresh = [_sensor_schema(SensorTable.from_bytes(Path(f).stem, files[f]), f)
                     for f in sorted(files)]
            assert json_bytes(entry.sensors) == json_bytes(fresh)
            for f in files:
                pid = f"ark:/{NAAN}/{name}.{Path(f).stem}.V@*"
                got = render_csv(self.app.resolver.resolve(
                    NAAN, pid.split("/", 2)[2]).slice)
                assert got == oracle.resolve_csv(self.root / name, pid).encode("utf-8")

    @precondition(lambda self: any(self.model.values()))
    @rule(data=st.data(), core=st.sampled_from(["meters", "weather"]))
    def describe(self, data, core):
        name = data.draw(st.sampled_from(
            sorted(n for n, files in self.model.items() if files)))
        self.metadata[name] = DatasetMetadata(core=core)
        self.app.catalog.register_dataset(
            self.app.source("local"), name, self.metadata[name])

    @rule()
    def root_away_and_back(self):
        """A crawl while the root is gone changes nothing; the next one,
        with the root back, sees every change made before it."""
        catalog = self.app.catalog
        before = {h["dataset"]: catalog.lookup(h["dataset"]) for h in catalog.search("")}
        documents = {p.name: p.read_bytes() for p in catalog.entries_dir.iterdir()}
        away = self.tmp / "data-away"
        self.root.rename(away)
        try:
            events = catalog.crawl()
        finally:
            away.rename(self.root)
        assert [(e.kind, e.dataset) for e in events] == [
            ("source_error", name) for name in sorted(before)]
        assert all(str(self.root) in e.error for e in events)
        assert {name: catalog.lookup(name) for name in before} == before
        assert {p.name: p.read_bytes() for p in catalog.entries_dir.iterdir()} == documents
        self.crawl()

    @rule()
    def restart(self):
        self.app = self._start()

    @rule()
    def mint_then_restart(self):
        noid = self.app.minter.mint("https://example.org/x").noid
        self.app = self._start()
        assert noid not in self.noids
        self.noids.add(noid)

    @invariant()
    def files_match_model(self):
        on_disk = {
            d.name: {p.name: p.read_bytes() for p in d.iterdir()}
            for d in self.root.iterdir()
        }
        assert on_disk == self.model


CatalogMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None)
TestCatalogMachine = CatalogMachine.TestCase
