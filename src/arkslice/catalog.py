"""Federated catalog registry: one searchable access point over many sources.

Datasets live in independent sources (local directories, or HTTP roots
following the ``<root>/<dataset>/<sensor>.csv`` convention) but are looked
up, searched and resolved through this single catalog. State persists as
one JSON document per dataset under ``<state_dir>/catalog/`` plus an
append-only change-event log at ``<state_dir>/events.log``.

A register or a crawl reads (or fetches) each sensor file once and takes
its table and hashes from those bytes; ``content_hash`` is the one rule for
a dataset's hash. Column types and statistics are computed at register and
stored in the document beside each file's SHA-256, so a restart only parses
CSV. A re-register keeps the stored schema of each file whose hash is
unchanged and the loaded table of each file whose bytes equal its ``data``,
so a crawl parses and types only the files that changed. A column whose
statistics are not all finite gets none (``null``), as JSON has no NaN or
Infinity; restore applies the same rule to documents written before it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import urllib.request
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import timeseries_store, type_registry
from .errors import (
    ArksliceError,
    ConfigError,
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


def json_bytes(obj) -> bytes:
    """Sorted-key JSON indented by 2, UTF-8, newline-ended: documents, replies.
    A NaN or Infinity, which is not JSON, raises ``ValueError``."""
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` whole: to ``<name>.tmp``, then renamed
    over ``path``, so a reader sees the old bytes or the new ones."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def append_line(path: Path, record: dict) -> None:
    """Append ``record`` to ``path`` as one sorted-key JSON line, making
    the parent directory if needed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


SOURCE_KINDS = ("local_directory", "remote_http")


@dataclass(frozen=True)
class DataSource:
    id: str
    root: str
    kind: str = "local_directory"

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ConfigError(f"source {self.id!r}: unknown kind {self.kind!r}, "
                              f"expected one of {SOURCE_KINDS}")


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

    def __post_init__(self):  # a pair read back from a JSON document is a list
        self.dictionary = [tuple(pair) for pair in self.dictionary]


@dataclass(frozen=True)
class CatalogEntry:
    dataset: str
    source_id: str
    data_dir: str
    sensors: list[dict]  # per-sensor schema: name, file, columns
    metadata: DatasetMetadata
    content_hash: str
    registered_at: str
    updated_at: str
    # SHA-256 of each sensor file's bytes, by file name; {} in a document
    # written before it was recorded, which then reuses nothing.
    file_hashes: dict[str, str] = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "dataset": self.dataset,
            "source_id": self.source_id,
            "sensors": [s["name"] for s in self.sensors],
            "core": self.metadata.core,
            "content_hash": self.content_hash,
        }

    def document(self) -> dict:
        """The stored JSON document: the entry's fields and, beside them,
        its metadata's, with the ``domain_*`` ones nested under ``domain``."""
        doc = {name: getattr(self, name) for name in _ENTRY_FIELDS}
        doc.update((name, getattr(self.metadata, name)) for name in _METADATA_FIELDS)
        doc["domain"] = {name[len(_DOMAIN):]: doc.pop(name) for name in _DOMAIN_FIELDS}
        doc["dictionary"] = [list(pair) for pair in doc["dictionary"]]
        return doc

    @classmethod
    def from_document(cls, doc: dict) -> "CatalogEntry":
        """The entry whose ``document()`` is ``doc``; a field the document
        lacks takes its default."""
        flat = {**doc, **{_DOMAIN + key: value for key, value in doc["domain"].items()}}
        metadata = DatasetMetadata(**{name: flat[name] for name in _METADATA_FIELDS})
        return cls(metadata=metadata,
                   **{name: flat[name] for name in _ENTRY_FIELDS if name in flat})


# The document's keys, read off the two dataclasses.
_DOMAIN = "domain_"
_ENTRY_FIELDS = tuple(f.name for f in fields(CatalogEntry) if f.name != "metadata")
_METADATA_FIELDS = tuple(f.name for f in fields(DatasetMetadata))
_DOMAIN_FIELDS = tuple(name for name in _METADATA_FIELDS if name.startswith(_DOMAIN))


@dataclass(frozen=True)
class ChangeEvent:
    kind: str  # added | removed | modified | source_error
    dataset: str
    source_id: str
    observed_at: str
    old_hash: Optional[str] = None
    new_hash: Optional[str] = None
    error: Optional[str] = None  # the failure behind a source_error


class CatalogRecord(NamedTuple):  # a dataset's entry and tables, from one state
    entry: CatalogEntry
    tables: Optional[Dataset]  # None when the files were gone at restore


def content_hash(files: dict[str, bytes]) -> str:
    """A dataset's hash: SHA-256 over its files' bytes, in file-name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(files[name])
    return h.hexdigest()


def _url(source: DataSource, dataset: str, file_name: str) -> str:
    return f"{source.root.rstrip('/')}/{dataset}/{file_name}"


def _fetch(url: str) -> bytes:
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
            return resp.read()
    except OSError as exc:
        raise IoError(f"fetch failed for {url}: {exc}") from exc


def _key_schema(name: str, index) -> dict:
    """What ``infer_column_type(..., is_key=True)`` gives for the key's
    text, read off the sorted int keys; keys get no statistics."""
    if not len(index):
        basic, derived = "text", "varchar"
    elif index[0] >= type_registry.EPOCH_THRESHOLD:
        basic, derived = "date/time", "timestamp"
    else:
        basic, derived = "number", "integer"
    return {"name": name, "basic": basic, "derived": derived, "properties": None}


def _column_schema(table: SensorTable, name: str) -> dict:
    """A measurement's type and statistics: from its field bytes when every
    nonempty field is a plain number, else from its decoded cells."""
    typed = type_registry.plain_numbers(table.data, *table.field_spans(name))
    if typed is None:
        cells = table.column(name)
        desc = type_registry.infer_column_type(cells)
        values = type_registry.numeric_values(cells)
    else:
        values, desc = typed
    return {"name": name, "basic": desc.basic, "derived": desc.derived,
            "properties": _properties(values)}


def _properties(values) -> Optional[dict]:
    """The statistics of a column's numeric values; None when it has none."""
    if not len(values):
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # handled by _finite
        return _finite(type_registry.compute_properties(values).as_dict())


def _finite(stats: Optional[dict]) -> Optional[dict]:
    """``stats``, or None when one of them is not finite, as JSON has no
    NaN or Infinity: a value too large for a double (``1e400``), or
    moments that overflow one (``1e200``), makes them so."""
    floats = [v for v in (stats or {}).values() if isinstance(v, float)]
    return stats if np.isfinite(floats).all() else None


def _sensor_schema(table: SensorTable, file_name: str) -> dict:
    columns = [_key_schema(table.key_column_name, table.index)]
    columns += [_column_schema(table, name) for name in table.names]
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
        self._records: dict[str, CatalogRecord] = {}  # replaced, never mutated
        self._write_lock = threading.RLock()  # crawl re-enters register_dataset
        self._restore()

    # --- persistence ---

    def _entry_path(self, dataset: str) -> Path:
        return self.entries_dir / f"{dataset}.json"

    def _write_entry(self, entry: CatalogEntry) -> None:
        replace_file(self._entry_path(entry.dataset), json_bytes(entry.document()))

    def _restore(self) -> None:
        records = {}
        for path in sorted(self.entries_dir.glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            for column in (c for s in doc["sensors"] for c in s["columns"]):
                column["properties"] = _finite(column["properties"])
            entry = CatalogEntry.from_document(doc)
            try:
                tables = self._load_tables(entry)
            except ArksliceError:
                # Files gone or unreadable; the next crawl reloads or removes them.
                tables = None
            records[entry.dataset] = CatalogRecord(entry, tables)
        self._records = records

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

    def _read_source(self, source: DataSource, dataset: str, data_dir,
                     sensor_files: Optional[list[str]],
                     tables: dict[str, SensorTable]) -> tuple[Path, dict[str, bytes]]:
        """Where a dataset's files live, and each one's bytes by file name:
        a remote source's ``sensor_files`` fetched (they live in the cache),
        a local source's ``*.csv`` files read from ``data_dir``. A file equal
        to its loaded table in ``tables`` is held as that table's ``data``."""
        if source.kind == "remote_http":
            if not sensor_files:
                raise LoadError("remote sources need an explicit sensor file list")
            data_dir = self.cache_dir / source.id / dataset
            read = ((f, _fetch(_url(source, dataset, f))) for f in sensor_files)
        else:
            data_dir = Path(source.root, dataset) if data_dir is None else data_dir
            read = ((p.name, timeseries_store.read_sensor_file(p))
                    for p in self._csv_files(Path(data_dir)))
        files = {}
        for fname, data in read:
            kept = tables.get(Path(fname).stem)
            files[fname] = kept.data if kept and kept.data == data else data
            del data  # so an unchanged file's copy is gone before the next read
        return Path(data_dir), files

    # --- operations ---

    def register_dataset(
        self,
        source: DataSource,
        dataset_name: str,
        metadata: Optional[DatasetMetadata] = None,
        sensor_files: Optional[list[str]] = None,
        data_dir=None,
        files: Optional[dict[str, bytes]] = None,
    ) -> CatalogEntry:
        """Parse, type, hash and index one dataset from a source, all from
        one read or fetch of each file. A file whose hash is the one stored
        keeps its stored schema, and one whose bytes equal the loaded table's
        keeps that table. Local sources read the ``*.csv`` files in
        ``data_dir`` (default ``<root>/<dataset>/``). Remote sources take no
        ``data_dir``: they fetch ``sensor_files`` (no listing over HTTP) and
        cache them once every file parsed. A crawl passes the bytes it read
        as ``files``. Re-registering from the same source refreshes it;
        another conflicts.
        """
        with self._write_lock:
            existing = self._records.get(dataset_name)
            if existing is not None and existing.entry.source_id != source.id:
                raise DuplicateDataset(
                    f"{dataset_name!r} already registered from source "
                    f"{existing.entry.source_id!r}"
                )
            metadata = metadata or DatasetMetadata()
            remote = source.kind == "remote_http"
            # What a file whose bytes did not change keeps: its stored schema,
            # found by file name and hash, and its loaded table.
            kept_schemas, kept_tables = {}, {}
            if existing is not None:
                old = existing.entry
                kept_schemas = {(s["file"], old.file_hashes.get(s["file"])): s
                                for s in old.sensors}
                kept_tables = existing.tables.sensors if existing.tables else {}
            if files is None:
                if remote and data_dir is not None:
                    raise LoadError(
                        f"remote sources are fetched, not read from {data_dir}")
                data_dir, files = self._read_source(
                    source, dataset_name, data_dir, sensor_files, kept_tables)
            tables = {}
            sensors = []
            file_hashes = {}
            for fname, data in sorted(files.items()):
                name = Path(fname).stem
                if not NAME_RE.fullmatch(name):
                    raise LoadError(f"sensor file name {fname!r} is not a valid name")
                table = kept_tables.get(name)
                if table is None or table.data != data:
                    origin = _url(source, dataset_name, fname) if remote \
                        else data_dir / fname
                    table = SensorTable.from_bytes(name, data, origin)
                tables[name] = table
                file_hashes[fname] = hashlib.sha256(data).hexdigest()
                sensors.append(kept_schemas.get((fname, file_hashes[fname]))
                               or _sensor_schema(table, fname))
            if remote:  # every file parsed, so a bad one never reaches the cache
                data_dir.mkdir(parents=True, exist_ok=True)
                for fname, data in files.items():
                    replace_file(data_dir / fname, data)

            now = _now()
            entry = CatalogEntry(
                dataset=dataset_name,
                source_id=source.id,
                data_dir=str(data_dir),
                sensors=sensors,
                metadata=metadata,
                content_hash=content_hash(files),
                registered_at=existing.entry.registered_at if existing else now,
                updated_at=now,
                file_hashes=file_hashes,
            )
            self._write_entry(entry)
            record = CatalogRecord(entry, Dataset(name=dataset_name, sensors=tables))
            self._records = {**self._records, dataset_name: record}
            return entry

    def lookup(self, dataset_name: str) -> CatalogEntry:
        record = self._records.get(dataset_name)
        if record is None:
            raise NotFound(f"dataset {dataset_name!r} is not registered")
        return record.entry

    def record(self, dataset_name: str) -> CatalogRecord:
        record = self._records.get(dataset_name)
        if record is None or record.tables is None:
            raise NotFound(f"dataset {dataset_name!r} is not registered")
        return record

    def dataset(self, dataset_name: str) -> Dataset:
        return self.record(dataset_name).tables

    def search(self, query: str) -> list[dict]:
        """Case-insensitive substring search; returns summaries by name."""
        q = query.lower()
        hits = []
        for name, (entry, _) in sorted(self._records.items()):
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

        Each file is read or fetched once. A modified dataset, or one whose
        files did not load at restart, is registered again from those bytes;
        removed ones become unresolvable; new dataset directories under a
        local source root are auto-registered with empty descriptive metadata.
        Every event is appended to the persistent event log. Per-source
        failures, a remote source that cannot be reached among them, become
        ``source_error`` events instead of aborting; the entry is kept.
        """
        with self._write_lock:
            events: list[ChangeEvent] = []

            for name, (entry, tables) in sorted(self._records.items()):
                # A source gone from the config still owns its datasets.
                source = self.sources.get(entry.source_id) or DataSource(
                    entry.source_id, entry.data_dir)
                try:
                    try:
                        data_dir, files = self._read_source(
                            source, name, entry.data_dir,
                            [s["file"] for s in entry.sensors],
                            tables.sensors if tables else {})
                    except LoadError:
                        self._remove(entry, events)
                        continue
                    if tables is not None and content_hash(files) == entry.content_hash:
                        continue
                    new = self.register_dataset(
                        source, name, entry.metadata, data_dir=data_dir, files=files)
                    if new.content_hash != entry.content_hash:
                        events.append(
                            ChangeEvent(
                                "modified", name, entry.source_id, _now(),
                                old_hash=entry.content_hash, new_hash=new.content_hash,
                            )
                        )
                except ArksliceError as exc:
                    events.append(
                        ChangeEvent("source_error", name, entry.source_id, _now(),
                                    error=str(exc))
                    )

            for source in self.sources.values():
                if source.kind != "local_directory":
                    continue
                root = Path(source.root)
                if not root.is_dir():
                    continue
                for child in sorted(root.iterdir()):
                    if not child.is_dir() or not NAME_RE.fullmatch(child.name):
                        continue
                    if child.name in self._records:
                        continue
                    if not any(child.glob("*.csv")):
                        continue
                    try:
                        entry = self.register_dataset(source, child.name)
                    except ArksliceError as exc:
                        events.append(
                            ChangeEvent("source_error", child.name, source.id, _now(),
                                        error=str(exc))
                        )
                        continue
                    events.append(
                        ChangeEvent(
                            "added", child.name, source.id, _now(),
                            new_hash=entry.content_hash,
                        )
                    )

            for event in events:
                append_line(self.events_log, asdict(event))
            return events

    def _remove(self, entry: CatalogEntry, events: list[ChangeEvent]) -> None:
        self._records = {n: r for n, r in self._records.items() if n != entry.dataset}
        path = self._entry_path(entry.dataset)
        if path.exists():
            path.unlink()
        events.append(
            ChangeEvent(
                "removed", entry.dataset, entry.source_id, _now(),
                old_hash=entry.content_hash,
            )
        )
