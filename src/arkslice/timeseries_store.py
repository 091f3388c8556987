"""In-memory sensor tables and PID-driven row/column selection.

Cells are kept as the original lexical strings from the source CSV so that
output bytes can match input bytes exactly; no numeric reformatting ever
happens. Tables are immutable after load. Loading only parses and
transposes: it never types a column (the catalog does that once, at
register time, and persists the result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


@dataclass(frozen=True)
class SensorTable:
    """One sensor's time series, keyed by a strictly increasing timestamp."""

    sensor_name: str
    key: tuple[int, ...]
    # (measurement name, lexical cells, type) per column; the type slot is
    # None from load_sensor_csv, which never types.
    columns: tuple[tuple[str, tuple[str, ...], Optional[TypeDescriptor]], ...]
    key_column_name: str = "timestamp"

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
    """A selected slice: header labels plus timestamp-sorted rows."""

    header: tuple[str, ...]
    rows: tuple[tuple[int, tuple[Optional[str], ...]], ...]


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

    selected: set[int] = set()
    for table in tables:
        selected.update(effective_key_set(q.selector, list(table.key)))
    timestamps = sorted(selected)

    single = len(tables) == 1
    header = ["timestamp"]
    col_data: list[tuple[dict[int, int], tuple[str, ...]]] = []
    for table in tables:
        index = {ts: i for i, ts in enumerate(table.key)}
        for m in q.measurements:
            label = m if single else f"{table.sensor_name}.{m}"
            header.append(label)
            col_data.append((index, table.column(m)))

    rows = []
    for ts in timestamps:
        cells = []
        for index, values in col_data:
            i = index.get(ts)
            cells.append(values[i] if i is not None else None)
        rows.append((ts, tuple(cells)))
    return ResultSlice(header=tuple(header), rows=tuple(rows))


def render_csv(result: ResultSlice) -> str:
    """Render a ResultSlice as CSV text, one '\\n' after every line."""
    lines = [",".join(result.header)]
    for ts, cells in result.rows:
        lines.append(
            ",".join([str(ts)] + [c if c is not None else "" for c in cells])
        )
    return "".join(line + "\n" for line in lines)
