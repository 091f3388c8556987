"""In-memory sensor tables and PID-driven row/column selection.

Cells are kept as the original lexical strings from the source CSV so that
output bytes can match input bytes exactly; no numeric reformatting ever
happens. Tables are immutable after load. Loading only parses and
transposes: it never types a column (the catalog does that once, at
register time, and persists the result).

Each table also holds its keys as a sorted ``numpy.int64`` array, the key
index, built once when the table is constructed. A select never walks a
table: the selector becomes index ranges by binary search over the key
index, several sensors are joined by ``searchsorted`` on the selected
timestamps, and cells are gathered by tuple slices or ``itemgetter``. So a
request costs O(log N + k) per sensor for N stored and k returned rows.
The result is columnar (timestamps plus one cell tuple per output column)
and is rendered column by column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptyFile,
    IoError,
    NonIntegerTimestamp,
    RaggedRow,
    UnknownMeasurement,
    UnknownSensor,
)
from .pid_grammar import PidQuery, effective_key_set
from .type_registry import TypeDescriptor

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# Shortest mean run of contiguous rows for which a select copies slices
# rather than picking row by row: below it, finding the runs costs more
# than itemgetter saves.
RUN_ROWS = 256


@dataclass(frozen=True)
class SensorTable:
    """One sensor's time series, keyed by a strictly increasing timestamp."""

    sensor_name: str
    key: tuple[int, ...]
    # (measurement name, lexical cells, type) per column; the type slot is
    # None from load_sensor_csv, which never types.
    columns: tuple[tuple[str, tuple[str, ...], Optional[TypeDescriptor]], ...]
    key_column_name: str = "timestamp"
    # The keys as a sorted int64 array: what selects search.
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", np.array(self.key, dtype=np.int64))

    @property
    def row_count(self) -> int:
        return len(self.key)

    @property
    def measurement_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.columns)

    def column(self, measurement: str) -> tuple[str, ...]:
        for name, cells, _ in self.columns:
            if name == measurement:
                return cells
        raise UnknownMeasurement(
            f"sensor {self.sensor_name!r} has no measurement {measurement!r}"
        )


@dataclass(frozen=True)
class Dataset:
    name: str
    sensors: dict[str, SensorTable] = field(default_factory=dict)

    def sensor(self, name: str) -> SensorTable:
        try:
            return self.sensors[name]
        except KeyError:
            raise UnknownSensor(
                f"dataset {self.name!r} has no sensor {name!r}"
            ) from None


@dataclass(frozen=True)
class ResultSlice:
    """A selected slice, by column: header labels, the ascending
    timestamps, and one cell tuple per column after the timestamp (a cell
    is None where its sensor has no row at that timestamp)."""

    header: tuple[str, ...]
    timestamps: tuple[int, ...]
    columns: tuple[tuple[Optional[str], ...], ...]

    @cached_property
    def rows(self) -> tuple[tuple[int, tuple[Optional[str], ...]], ...]:
        """The slice row by row, as ``(timestamp, cells)`` pairs."""
        return tuple(zip(self.timestamps, zip(*self.columns)))


def load_sensor_csv(path, sensor_name: str) -> SensorTable:
    """Load one comma-separated sensor file into a SensorTable.

    The first line is the header; the first column is the integer
    timestamp key regardless of its header name. Rows are re-sorted
    ascending by timestamp. Cell text is preserved verbatim (the format is
    plain comma-separated, so fields are split on ',' with no quoting).
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    lines = raw.replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptyFile(f"{path}: no header line")

    header = lines[0].split(",")
    width = len(header)
    if width < 1 or header[0] == "":
        raise EmptyFile(f"{path}: empty header")

    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != width:
            raise RaggedRow(
                f"{path}:{lineno}: {len(fields)} fields, expected {width}"
            )
        try:
            ts = int(fields[0])
        except ValueError:
            raise NonIntegerTimestamp(
                f"{path}:{lineno}: bad timestamp {fields[0]!r}"
            ) from None
        rows.append((ts, fields[1:]))

    rows.sort(key=lambda r: r[0])
    for ts in (rows[0][0], rows[-1][0]) if rows else ():
        if not INT64_MIN <= ts <= INT64_MAX:
            raise NonIntegerTimestamp(
                f"{path}: timestamp {ts} does not fit in int64"
            )
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise DuplicateTimestamp(f"{path}: timestamp {a} appears twice")

    key = tuple(ts for ts, _ in rows)
    # One transposing pass over the rows.
    cells = list(zip(*(fields for _, fields in rows))) or [()] * (width - 1)
    return SensorTable(
        sensor_name=sensor_name,
        key=key,
        columns=tuple(
            (name, column, None) for name, column in zip(header[1:], cells)
        ),
        key_column_name=header[0],
    )


def sorted_union(arrays: list[np.ndarray]) -> np.ndarray:
    """The sorted union of strictly increasing int64 arrays.

    A stable sort merges the concatenated sorted runs in linear time,
    unlike ``np.union1d``, which hashes.
    """
    if len(arrays) == 1:
        return arrays[0]
    if not arrays:
        return np.empty(0, dtype=np.int64)
    merged = np.sort(np.concatenate(arrays), kind="stable")
    if not len(merged):
        return merged
    return merged[np.concatenate(([True], merged[1:] != merged[:-1]))]


def _getter(positions: list[int]) -> Callable[[tuple], tuple]:
    """The cells at ``positions`` of a column, as a tuple."""
    if len(positions) == 1:
        (i,) = positions
        return lambda cells: (cells[i],)
    if not positions:
        return lambda cells: ()
    return itemgetter(*positions)


def _gather(pos: np.ndarray) -> Callable[[tuple], tuple]:
    """A function giving a column's cells at the ascending positions
    ``pos``: tuple slices where the positions form long contiguous runs
    (a range selector over one sensor), ``itemgetter`` where they are
    scattered."""
    breaks = np.flatnonzero(np.diff(pos) != 1) + 1 if len(pos) >= RUN_ROWS else ()
    if len(pos) < RUN_ROWS * (len(breaks) + 1):
        return _getter(pos.tolist())
    firsts = np.concatenate((pos[:1], pos[breaks]))
    ends = np.concatenate((pos[breaks - 1], pos[-1:])) + 1
    runs = [slice(a, b) for a, b in zip(firsts.tolist(), ends.tolist())]
    if len(runs) == 1:
        (run,) = runs
        return lambda cells: cells[run]

    def gather(cells):
        out = []
        for run in runs:
            out += cells[run]
        return tuple(out)

    return gather


def _picker(index: np.ndarray, ts: np.ndarray) -> Callable[[tuple], tuple]:
    """A function giving a column's cells at the timestamps ``ts``: the
    cell of the row keyed by each timestamp, None where there is none.

    One ``searchsorted`` and an equality mask find the rows, so the work
    grows with ``len(ts)``, not with the table.
    """
    pos = index.searchsorted(ts)
    if len(index):
        hit = index.take(pos, mode="clip") == ts
    else:
        hit = np.zeros(len(ts), dtype=bool)
    if hit.all():
        return _gather(pos)
    pick = _gather(pos[hit])
    # Position 0 of (None,) + picked cells stands for every absent row.
    fill = _getter((np.cumsum(hit) * hit).tolist())
    return lambda cells: fill((None,) + pick(cells))


def select(dataset: Dataset, q: PidQuery) -> ResultSlice:
    """Execute a parsed PID against a dataset.

    Output timestamps are the union over the requested sensors of each
    sensor's selected key set. Columns follow PID order, sensor-major;
    with a single sensor the labels are the bare measurement names. A cell
    is None where a sensor has no row at that timestamp.
    """
    tables = [dataset.sensor(s) for s in q.sensors]
    # Validate measurements up front so errors beat empty results.
    for table in tables:
        for m in q.measurements:
            table.column(m)

    ts = sorted_union(
        [effective_key_set(q.selector, table.index) for table in tables]
    )
    single = len(tables) == 1
    header = ["timestamp"]
    columns = []
    for table in tables:
        # One sensor's selected keys are all its own: no misses to look for.
        pick = (_gather(table.index.searchsorted(ts)) if single
                else _picker(table.index, ts))
        for m in q.measurements:
            header.append(m if single else f"{table.sensor_name}.{m}")
            columns.append(pick(table.column(m)))
    return ResultSlice(header=tuple(header), timestamps=tuple(ts.tolist()),
                       columns=tuple(columns))


def render_csv(result: ResultSlice) -> str:
    """Render a ResultSlice as CSV text, one '\\n' after every line."""
    columns = [[c or "" for c in cells] if None in cells else cells
               for cells in result.columns]
    lines = map(",".join, zip(map(str, result.timestamps), *columns))
    return "\n".join(chain((",".join(result.header),), lines)) + "\n"
