"""NOID minting, identifier resolution, and cross-validation fold PIDs.

NOIDs are a monotone counter rendered in the betanumeric alphabet (no
vowels, so no accidental words), left-padded to width 4, and never reused:
one lock covers counter, log append and bindings, and the mint log is
replayed at startup to restore the counter and bindings.
Minted NOIDs contain no '.', semantic PID bodies always do, so the two
namespaces cannot collide.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from . import timeseries_store
from .catalog import Catalog, append_line, replace_file
from .errors import (
    InvalidTarget,
    NotFound,
    PersistenceError,
    TooFewRows,
    UnknownNaan,
)
from .pid_grammar import (
    PidQuery,
    RangeSelector,
    RangeTerm,
    parse_pid,
    parse_pid_body,
    serialize_pid,
)
from .timeseries_store import ResultSlice

BETANUMERIC = "0123456789bcdfghjkmnpqrstvwxz"
NOID_MIN_WIDTH = 4
_NOID_RE = re.compile(f"[{BETANUMERIC}]+")
_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+")


def encode_noid(counter: int) -> str:
    digits = []
    n = counter
    while True:
        n, rem = divmod(n, len(BETANUMERIC))
        digits.append(BETANUMERIC[rem])
        if n == 0:
            break
    return "".join(reversed(digits)).rjust(NOID_MIN_WIDTH, BETANUMERIC[0])


def decode_noid(noid: str) -> int:
    value = 0
    for ch in noid:
        value = value * len(BETANUMERIC) + BETANUMERIC.index(ch)
    return value


@dataclass(frozen=True)
class MintBinding:
    noid: str
    target: str
    created_at: str


@dataclass(frozen=True)
class Redirect:
    location: str
    status: int = 302


@dataclass(frozen=True)
class Data:
    slice: ResultSlice


@dataclass(frozen=True)
class Info:
    document: dict


Resolution = Union[Redirect, Data, Info]


class Minter:
    """Issues unique NOIDs backed by an append-only JSONL log."""

    def __init__(self, log_path):
        self.log_path = Path(log_path)
        self.bindings: dict[str, MintBinding] = {}
        self._counter = 0
        self._lock = threading.Lock()
        if self.log_path.exists():
            self._replay(self.log_path.read_bytes())

    def _replay(self, raw: bytes) -> None:
        """Restore counter and bindings from the log's bytes.

        A last record that does not decode was torn by a crash mid-append,
        so its NOID was never handed out: it is cut from the log. The log is
        left ending in a newline, so the next append starts a fresh line. A
        corrupt record anywhere else raises ``PersistenceError``.
        """
        records = [line for line in raw.split(b"\n") if line.strip()]
        for i, line in enumerate(records):
            try:
                rec = json.loads(line)
                binding = MintBinding(rec["noid"], rec["target"], rec["created_at"])
                counter = decode_noid(binding.noid) + 1
            except (ValueError, KeyError, TypeError) as exc:
                if i < len(records) - 1:
                    raise PersistenceError(
                        f"{self.log_path}: corrupt record {i + 1}: {exc}"
                    ) from exc
                self._rewrite(raw[:raw.rindex(line)])
                return
            self.bindings[binding.noid] = binding  # latest entry wins
            self._counter = max(self._counter, counter)
        if raw and not raw.endswith(b"\n"):
            self._rewrite(raw + b"\n")

    def _rewrite(self, raw: bytes) -> None:
        try:
            replace_file(self.log_path, raw)
        except OSError as exc:
            raise PersistenceError(f"cannot repair mint log: {exc}") from exc

    def _validate_target(self, target: str) -> None:
        if not target or not isinstance(target, str):
            raise InvalidTarget("target must be a nonempty string")
        if target.startswith("ark:"):
            parse_pid(target)  # raises on malformed semantic PIDs
        elif not _URL_RE.fullmatch(target):
            raise InvalidTarget(f"target {target!r} is neither a URL nor a PID")

    def _append(self, noid: str, target: str) -> MintBinding:
        """Log a binding, then apply it; the caller holds the lock."""
        binding = MintBinding(noid, target, datetime.now(timezone.utc).isoformat())
        try:
            append_line(self.log_path, asdict(binding))
        except OSError as exc:
            raise PersistenceError(f"cannot append to mint log: {exc}") from exc
        self.bindings[noid] = binding
        return binding

    def mint(self, target: str) -> MintBinding:
        """Bind a fresh NOID to a target URL or semantic PID."""
        self._validate_target(target)
        with self._lock:
            binding = self._append(encode_noid(self._counter), target)
            self._counter += 1
        return binding

    def rebind(self, noid: str, target: str) -> MintBinding:
        """Point an existing NOID at a new location; latest entry wins."""
        if noid not in self.bindings:
            raise NotFound(f"NOID {noid!r} was never minted")
        self._validate_target(target)
        with self._lock:
            return self._append(noid, target)

    def binding(self, noid: str) -> Optional[MintBinding]:
        return self.bindings.get(noid)


class Resolver:
    """Maps incoming identifiers to data slices, redirects, or metadata."""

    def __init__(self, catalog: Catalog, minter: Minter, naans: list[str],
                 base_url: str = "http://localhost:8057"):
        self.catalog = catalog
        self.minter = minter
        self.naans = set(naans)
        self.base_url = base_url.rstrip("/")

    @property
    def primary_naan(self) -> str:
        return sorted(self.naans)[0]

    def url(self, ark: str) -> str:
        """Where this resolver serves ``ark``."""
        return f"{self.base_url}/{ark}"

    def mint(self, target: str) -> dict:
        """Bind a fresh NOID to ``target``; give it, its ARK and that URL."""
        noid = self.minter.mint(target).noid
        ark = f"ark:/{self.primary_naan}/{noid}"
        return {"noid": noid, "ark": ark, "url": self.url(ark)}

    def resolve(self, naan: str, path_remainder: str, info: bool = False) -> Resolution:
        """Resolve the part after ``ark:/NAAN/`` for the HTTP service and CLI.

        A remainder whose head (before any '/') is a minted NOID becomes a
        redirect, with everything after the head appended to the target
        verbatim (suffix pass-through). Anything containing '.' is parsed
        as a semantic PID body and executed against the catalog.
        """
        if naan not in self.naans:
            raise UnknownNaan(f"this resolver does not serve NAAN {naan!r}")
        head, slash, suffix = path_remainder.partition("/")
        if _NOID_RE.fullmatch(head):
            binding = self.minter.binding(head)
            if binding is None:
                raise NotFound(f"no binding for NOID {head!r}")
            target = binding.target
            if target.startswith("ark:"):
                target = self.url(target)
            return Redirect(location=target + slash + suffix)

        q = parse_pid_body(naan, path_remainder)
        if info:
            return Info(self._info_document(q))
        dataset = self.catalog.dataset(q.dataset)
        return Data(timeseries_store.select(dataset, q))

    def _info_document(self, q: PidQuery) -> dict:
        entry, dataset = self.catalog.record(q.dataset)
        doc = entry.document()
        sensors = []
        for name in q.sensors:
            table = dataset.sensor(name)
            for m in q.measurements:
                table.field_index(m)  # UnknownMeasurement beats partial output
            schema = next(s for s in doc["sensors"] if s["name"] == name)
            wanted = {"timestamp", table.key_column_name, *q.measurements}
            sensors.append(
                {
                    "name": name,
                    "file": schema["file"],
                    "columns": [
                        c for c in schema["columns"] if c["name"] in wanted
                    ],
                }
            )
        doc["sensors"] = sensors
        doc["pid"] = serialize_pid(q)
        return doc

    def crossfold_pids(
        self,
        dataset_name: str,
        sensors: list[str],
        measurements: list[str],
        k: int,
    ) -> list[tuple[str, str]]:
        """Train/test PID pairs for k-fold cross-validation.

        The sorted union of the selected sensors' timestamps is split into
        k contiguous blocks whose sizes differ by at most one (earlier
        folds absorb the remainder). Fold i's test PID selects its block
        inclusively; its train PID excludes the same block.
        """
        if k < 2:
            raise TooFewRows("k must be at least 2")
        dataset = self.catalog.dataset(dataset_name)
        tables = [dataset.sensor(s) for s in sensors]
        for table in tables:
            for m in measurements:
                table.field_index(m)
        domain = timeseries_store.sorted_union([t.index for t in tables])
        n = len(domain)
        if n < k:
            raise TooFewRows(f"{n} timestamps cannot make {k} folds")

        base, extra = divmod(n, k)
        fold = PidQuery(self.primary_naan, dataset_name, tuple(sensors),
                        tuple(measurements))
        pairs = []
        pos = 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            first, last = int(domain[pos]), int(domain[pos + size - 1])
            pos += size
            pairs.append(tuple(  # (train, test): the block excluded, then kept
                serialize_pid(replace(fold, selector=RangeSelector.of(
                    RangeTerm(first, last, exclude))))
                for exclude in (True, False)))
        return pairs
