"""Federated catalog registry: one searchable access point over many sources.

Datasets live in independent sources (local directories, or HTTP roots
following the ``<root>/<dataset>/<sensor>.csv`` convention) but are looked
up, searched and resolved through this single catalog. State persists as
one JSON document per dataset under ``<state_dir>/catalog/`` plus an
append-only change-event log at ``<state_dir>/events.log``. Column types
and statistics are computed once, when a dataset is registered, and stored
in that document; a restart or crawl reads them back and only parses CSV.
"""

from __future__ import annotations

import hashlib
import json
import os
import urllib.request
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import timeseries_store, type_registry
from .errors import (
    ArksliceError,
    DuplicateDataset,
    IoError,
    LoadError,
    NotFound,
)
from .pid_grammar import NAME_RE
from .timeseries_store import Dataset, SensorTable


# Seconds a remote fetch may block on connect or read.
FETCH_TIMEOUT_S = 30


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class DataSource:
    id: str
    root: str
    kind: str = "local_directory"  # or "remote_http"


@dataclass
class DatasetMetadata:
    """Descriptive catalog fields; all optional."""

    core: str = ""
    domain_environmental: str = ""
    domain_object_class: str = ""
    domain_object_format: str = ""
    relation: Optional[str] = None
    model: str = ""
    dictionary: list[tuple[str, str]] = field(default_factory=list)
    schema_name: str = ""


@dataclass
class CatalogEntry:
    dataset: str
    source_id: str
    data_dir: str
    sensors: list[dict]  # per-sensor schema: name, file, columns
    metadata: DatasetMetadata
    content_hash: str
    registered_at: str
    updated_at: str

    def summary(self) -> dict:
        return {
            "dataset": self.dataset,
            "source_id": self.source_id,
            "sensors": [s["name"] for s in self.sensors],
            "core": self.metadata.core,
            "content_hash": self.content_hash,
        }

    def document(self) -> dict:
        return {
            "dataset": self.dataset,
            "source_id": self.source_id,
            "data_dir": self.data_dir,
            "sensors": self.sensors,
            "core": self.metadata.core,
            "domain": {
                "environmental": self.metadata.domain_environmental,
                "object_class": self.metadata.domain_object_class,
                "object_format": self.metadata.domain_object_format,
            },
            "relation": self.metadata.relation,
            "model": self.metadata.model,
            "dictionary": [list(p) for p in self.metadata.dictionary],
            "schema_name": self.metadata.schema_name,
            "content_hash": self.content_hash,
            "registered_at": self.registered_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "CatalogEntry":
        """The entry whose ``document()`` is ``doc``."""
        return cls(
            dataset=doc["dataset"],
            source_id=doc["source_id"],
            data_dir=doc["data_dir"],
            sensors=doc["sensors"],
            metadata=DatasetMetadata(
                core=doc["core"],
                domain_environmental=doc["domain"]["environmental"],
                domain_object_class=doc["domain"]["object_class"],
                domain_object_format=doc["domain"]["object_format"],
                relation=doc["relation"],
                model=doc["model"],
                dictionary=[tuple(p) for p in doc["dictionary"]],
                schema_name=doc["schema_name"],
            ),
            content_hash=doc["content_hash"],
            registered_at=doc["registered_at"],
            updated_at=doc["updated_at"],
        )


@dataclass(frozen=True)
class ChangeEvent:
    kind: str  # added | removed | modified | source_error
    dataset: str
    source_id: str
    observed_at: str
    old_hash: Optional[str] = None
    new_hash: Optional[str] = None


def content_hash(csv_paths: list[Path]) -> str:
    """SHA-256 over file bytes, lexicographic filename order."""
    h = hashlib.sha256()
    for p in sorted(csv_paths, key=lambda p: p.name):
        h.update(p.read_bytes())
    return h.hexdigest()


def _key_schema(name: str, key: tuple[int, ...]) -> dict:
    """What ``infer_column_type(..., is_key=True)`` gives for the key's
    text, read off the sorted int keys; keys get no statistics."""
    if not key:
        basic, derived = "text", "varchar"
    elif key[0] >= type_registry.EPOCH_THRESHOLD:
        basic, derived = "date/time", "timestamp"
    else:
        basic, derived = "number", "integer"
    return {"name": name, "basic": basic, "derived": derived, "properties": None}


def _column_schema(name: str, cells) -> dict:
    desc = type_registry.infer_column_type(cells)
    numeric = type_registry.numeric_values(cells)
    properties = (
        type_registry.compute_properties(numeric).as_dict() if numeric else None
    )
    return {"name": name, "basic": desc.basic, "derived": desc.derived,
            "properties": properties}


def _sensor_schema(table: SensorTable, file_name: str) -> dict:
    columns = [_key_schema(table.key_column_name, table.key)]
    columns += [_column_schema(name, cells) for name, cells, _ in table.columns]
    return {"name": table.sensor_name, "file": file_name, "columns": columns}


class Catalog:
    """Single-writer, multi-reader registry over all configured sources."""

    def __init__(self, state_dir, sources: list[DataSource]):
        self.state_dir = Path(state_dir)
        self.entries_dir = self.state_dir / "catalog"
        self.events_log = self.state_dir / "events.log"
        self.cache_dir = self.state_dir / "cache"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.sources: dict[str, DataSource] = {s.id: s for s in sources}
        self.entries: dict[str, CatalogEntry] = {}
        self.datasets: dict[str, Dataset] = {}
        self._restore()

    # --- persistence ---

    def _entry_path(self, dataset: str) -> Path:
        return self.entries_dir / f"{dataset}.json"

    def _write_entry(self, entry: CatalogEntry) -> None:
        path = self._entry_path(entry.dataset)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(entry.document(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)

    def _restore(self) -> None:
        for path in sorted(self.entries_dir.glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            entry = CatalogEntry.from_document(doc)
            self.entries[entry.dataset] = entry
            try:
                self.datasets[entry.dataset] = self._load_tables(entry)
            except ArksliceError:
                # Files gone since last run; next crawl emits `removed`.
                pass

    def _log_event(self, event: ChangeEvent) -> None:
        self.state_dir.mkdir(parents=True, exist_ok=True)
        with open(self.events_log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(event), sort_keys=True) + "\n")

    # --- loading ---

    def _csv_files(self, data_dir: Path) -> list[Path]:
        if not data_dir.is_dir():
            raise LoadError(f"{data_dir} is not a directory")
        files = sorted(p for p in data_dir.glob("*.csv") if p.is_file())
        if not files:
            raise LoadError(f"{data_dir} contains no sensor CSV files")
        return files

    def _load_tables(self, entry: CatalogEntry) -> Dataset:
        data_dir = Path(entry.data_dir)
        sensors = {}
        for s in entry.sensors:
            sensors[s["name"]] = timeseries_store.load_sensor_csv(
                data_dir / s["file"], s["name"]
            )
        return Dataset(name=entry.dataset, sensors=sensors)

    def _fetch_remote(
        self, source: DataSource, dataset: str, sensor_files: list[str]
    ) -> Path:
        fetched = {}
        for fname in sensor_files:
            url = f"{source.root.rstrip('/')}/{dataset}/{fname}"
            try:
                with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
                    fetched[fname] = resp.read()
            except OSError as exc:
                raise IoError(f"fetch failed for {url}: {exc}") from exc
        # Write only once every file arrived, so a failed fetch leaves the
        # cached copy as it was.
        dest = self.cache_dir / source.id / dataset
        dest.mkdir(parents=True, exist_ok=True)
        for fname, data in fetched.items():
            (dest / fname).write_bytes(data)
        return dest

    # --- operations ---

    def register_dataset(
        self,
        source: DataSource,
        dataset_name: str,
        metadata: Optional[DatasetMetadata] = None,
        sensor_files: Optional[list[str]] = None,
        data_dir=None,
    ) -> CatalogEntry:
        """Load, type, hash and index one dataset from a source.

        Local sources discover ``*.csv`` files in ``<root>/<dataset>/``;
        remote sources need an explicit ``sensor_files`` list (there is no
        directory listing over HTTP). Re-registering the same dataset from
        the same source refreshes it; a second source is a conflict.
        """
        existing = self.entries.get(dataset_name)
        if existing is not None and existing.source_id != source.id:
            raise DuplicateDataset(
                f"{dataset_name!r} already registered from source "
                f"{existing.source_id!r}"
            )
        metadata = metadata or DatasetMetadata()
        if source.kind == "remote_http":
            if not sensor_files:
                raise LoadError("remote sources need an explicit sensor file list")
            data_dir = self._fetch_remote(source, dataset_name, sensor_files)
        elif data_dir is not None:
            data_dir = Path(data_dir)
        else:
            data_dir = Path(source.root) / dataset_name
        files = self._csv_files(data_dir)

        tables = {}
        sensors = []
        for path in files:
            name = path.stem
            if not NAME_RE.match(name):
                raise LoadError(f"sensor file name {path.name!r} is not a valid name")
            table = timeseries_store.load_sensor_csv(path, name)
            tables[name] = table
            sensors.append(_sensor_schema(table, path.name))

        now = _now()
        entry = CatalogEntry(
            dataset=dataset_name,
            source_id=source.id,
            data_dir=str(data_dir),
            sensors=sensors,
            metadata=metadata,
            content_hash=content_hash(files),
            registered_at=existing.registered_at if existing else now,
            updated_at=now,
        )
        self.entries[dataset_name] = entry
        self.datasets[dataset_name] = Dataset(name=dataset_name, sensors=tables)
        self._write_entry(entry)
        return entry

    def lookup(self, dataset_name: str) -> CatalogEntry:
        entry = self.entries.get(dataset_name)
        if entry is None:
            raise NotFound(f"dataset {dataset_name!r} is not registered")
        return entry

    def dataset(self, dataset_name: str) -> Dataset:
        ds = self.datasets.get(dataset_name)
        if ds is None:
            raise NotFound(f"dataset {dataset_name!r} is not registered")
        return ds

    def search(self, query: str) -> list[dict]:
        """Case-insensitive substring search; returns summaries by name."""
        q = query.lower()
        hits = []
        for name in sorted(self.entries):
            entry = self.entries[name]
            meta = entry.metadata
            haystacks = [
                name,
                meta.core,
                meta.domain_environmental,
                meta.domain_object_class,
                meta.domain_object_format,
                *(s["name"] for s in entry.sensors),
                *(term for term, _ in meta.dictionary),
            ]
            if any(q in h.lower() for h in haystacks):
                hits.append(entry.summary())
        return hits

    def crawl(self) -> list[ChangeEvent]:
        """Re-scan every source: detect added, modified and removed datasets.

        Modified datasets are reloaded (tables, types, properties); removed
        ones become unresolvable; new dataset directories under a local
        source root are auto-registered with empty descriptive metadata.
        Every event is appended to the persistent event log. Per-source
        failures, a remote source that cannot be reached among them, become
        ``source_error`` events instead of aborting; the entry is kept.
        """
        events: list[ChangeEvent] = []

        for name in sorted(self.entries):
            entry = self.entries[name]
            source = self.sources.get(entry.source_id)
            try:
                if source is not None and source.kind == "remote_http":
                    self._fetch_remote(
                        source, name, [s["file"] for s in entry.sensors]
                    )
                try:
                    files = self._csv_files(Path(entry.data_dir))
                except LoadError:
                    self._remove(entry, events)
                    continue
                new_hash = content_hash(files)
                if new_hash != entry.content_hash:
                    old_hash = entry.content_hash
                    remote = source is not None and source.kind == "remote_http"
                    self.register_dataset(
                        source
                        or DataSource(entry.source_id, str(Path(entry.data_dir).parent)),
                        name,
                        entry.metadata,
                        sensor_files=(
                            [s["file"] for s in entry.sensors] if remote else None
                        ),
                    )
                    events.append(
                        ChangeEvent(
                            "modified", name, entry.source_id, _now(),
                            old_hash=old_hash, new_hash=new_hash,
                        )
                    )
            except ArksliceError:
                events.append(
                    ChangeEvent(
                        "source_error", name, entry.source_id, _now(),
                        new_hash=None, old_hash=None,
                    )
                )

        for source in self.sources.values():
            if source.kind != "local_directory":
                continue
            root = Path(source.root)
            if not root.is_dir():
                continue
            for child in sorted(root.iterdir()):
                if not child.is_dir() or not NAME_RE.match(child.name):
                    continue
                if child.name in self.entries:
                    continue
                if not any(child.glob("*.csv")):
                    continue
                try:
                    entry = self.register_dataset(source, child.name)
                except ArksliceError:
                    events.append(
                        ChangeEvent("source_error", child.name, source.id, _now())
                    )
                    continue
                events.append(
                    ChangeEvent(
                        "added", child.name, source.id, _now(),
                        new_hash=entry.content_hash,
                    )
                )

        for event in events:
            self._log_event(event)
        return events

    def _remove(self, entry: CatalogEntry, events: list[ChangeEvent]) -> None:
        del self.entries[entry.dataset]
        self.datasets.pop(entry.dataset, None)
        path = self._entry_path(entry.dataset)
        if path.exists():
            path.unlink()
        events.append(
            ChangeEvent(
                "removed", entry.dataset, entry.source_id, _now(),
                old_hash=entry.content_hash,
            )
        )
