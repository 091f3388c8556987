"""In-memory sensor tables and PID-driven row/column selection.

A table is its file's bytes. Loading reads the file once, checks that it
is UTF-8 and normalises it: LF line ends, a final newline, rows in key
order and canonical key text (``str(int(key))``), so output bytes are
always copies of input bytes and no numeric reformatting ever happens.
Beside the bytes a table keeps the start offset of every field (row by
row, plus one past the end; ``int32`` below 2 GiB), so a field is the
range from its start to the byte before the next field's start, and its
keys as a sorted ``numpy.int64`` array, the key index. No cell is ever a
Python object. Loading is one vectorised pass: ``flatnonzero`` finds every
``,`` and ``\\n``, and the field counts, key parsing, the int64 range
check, the sort check and the duplicate check are array steps. Rows are
only rewritten when the file is unsorted or has non-canonical key text.
Loading never types a column (the catalog does that once, at register).

A select never walks a table: the selector becomes index ranges by binary
search over the key index, and several sensors are joined by
``searchsorted`` on the selected timestamps. The result is each sensor's
row positions. Rendering copies byte ranges: the requested fields of a
row that are adjacent in the file, with the separators between them, are
one range, and a one-sensor slice of whole rows in file order is one slice
of the bytes per contiguous run of rows. Slices of at most ``RUN_ROWS``
rows are joined from Python byte slices; larger ones are copied by a numpy
ragged gather (``repeat`` plus ``arange`` offsets) per block of about
``BLOCK_BYTES`` of output, where its fixed cost per call is paid back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptyFile,
    IoError,
    LoadError,
    NonIntegerTimestamp,
    RaggedRow,
    UnknownMeasurement,
    UnknownSensor,
)
from .pid_grammar import PidQuery, effective_key_set

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# Most rows a slice may have to be rendered by Python byte slices; larger
# slices take the numpy gather, whose fixed cost per call only pays for
# itself over many rows. Measured, the gather wins above about 150 rows
# when one sensor's fields form two runs and above about 500 when they
# form one; three sensors need more still.
RUN_ROWS = 256
# Output bytes per numpy gather block, which bounds its index arrays.
BLOCK_BYTES = 256 * 1024
_COMMA, _NL, _MINUS, _ZERO = b",\n-0"
# Keys of at most this many digits are parsed by array arithmetic; longer
# ones, which may not fit in int64, and non-canonical ones go through int().
_FAST_DIGITS = 18


class SensorTable:
    """One sensor's time series, keyed by a strictly increasing timestamp.

    ``SensorTable(sensor_name, key, columns)`` builds a table from cells,
    ``columns`` being ``(measurement, cells, _)`` triples, by writing them
    as CSV and loading that: it holds what a file of those cells gives.
    """

    def __init__(self, sensor_name: str, key, columns,
                 key_column_name: str = "timestamp"):
        names = [name for name, _, _ in columns]
        lines = map(",".join, zip(map(str, key), *(cells for _, cells, _ in columns)))
        text = "\n".join([",".join([key_column_name, *names]), *lines]) + "\n"
        self._bind(sensor_name, *_parse(text.encode("utf-8"), "<cells>"))

    @classmethod
    def from_bytes(cls, sensor_name: str, data: bytes, origin="<bytes>") -> "SensorTable":
        """The table of a sensor file's bytes; ``origin`` names it in errors."""
        table = cls.__new__(cls)
        table._bind(sensor_name, *_parse(data, origin))
        return table

    def _bind(self, sensor_name, data, header, starts, index):
        self.sensor_name = sensor_name
        self.key_column_name = header[0]
        self.names = tuple(header[1:])  # measurements, in file order
        self.width = len(header)
        self.data = data  # normalised file bytes, header line first
        self.starts = starts  # every field's start offset, then len(data)
        self.index = index  # the keys, sorted int64: what selects search
        self._fields = {}
        for i, name in enumerate(self.names, start=1):
            self._fields.setdefault(name, i)

    @property
    def row_count(self) -> int:
        return len(self.index)

    @cached_property
    def key(self) -> tuple[int, ...]:
        """The keys as Python ints; the serving path reads ``index``."""
        return tuple(self.index.tolist())

    def field_index(self, measurement: str) -> int:
        """The field number of a measurement (the key is field 0)."""
        try:
            return self._fields[measurement]
        except KeyError:
            raise UnknownMeasurement(
                f"sensor {self.sensor_name!r} has no measurement {measurement!r}"
            ) from None

    def field_spans(self, measurement: str) -> tuple[np.ndarray, np.ndarray]:
        """A measurement's fields in key order: each one's start offset in
        ``data`` and its length in bytes, the separator after it excluded."""
        j = self.field_index(measurement)
        end = self.row_count * self.width
        first = self.starts[j:end:self.width]
        return first, self.starts[j + 1:end + 1:self.width] - first - 1

    def column(self, measurement: str) -> tuple[str, ...]:
        """A measurement's cells, decoded, in key order."""
        j = self.field_index(measurement)
        n, w = self.row_count, self.width
        rows_per_block = max(1, BLOCK_BYTES * n // len(self.data))
        cells: list[str] = []
        for lo in range(0, n, rows_per_block):
            cells += self.cells(np.arange(lo * w + j, min(n, lo + rows_per_block) * w, w))
        return tuple(cells)

    def cells(self, fields: np.ndarray) -> list[str]:
        """The decoded text of the fields numbered ``fields`` in ``starts``."""
        first = self.starts[fields]
        lengths = self.starts[fields + 1] - first
        # Each cell with the separator after it, which becomes the split point.
        out = _gather(self.data_array, first, lengths)
        out[np.cumsum(lengths) - 1] = _NL
        return out.tobytes().decode("utf-8").split("\n")[:-1]

    @cached_property
    def columns(self) -> tuple[tuple[str, tuple[str, ...], None], ...]:
        """``(measurement, cells, None)`` per column: the cell form a table
        is built from. The serving path never decodes whole columns."""
        return tuple((name, self.column(name), None) for name in self.names)

    @cached_property
    def data_array(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype=np.uint8)


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


class Source(NamedTuple):
    """One sensor's part of a slice: its row at each output timestamp
    (-1 where it has none, unless ``complete``), and the requested fields
    as runs ``(a, b)`` of adjacent field numbers, ``a`` through ``b``."""

    table: SensorTable
    positions: np.ndarray
    runs: tuple[tuple[int, int], ...]
    complete: bool


@dataclass(eq=False)
class ResultSlice:
    """A selected slice: header labels, the ascending timestamps, and per
    sensor the rows and fields to copy. With one sensor the key is field 0
    of its first run; with several it is a field of its own."""

    header: tuple[str, ...]
    timestamps: np.ndarray
    sources: tuple[Source, ...]

    @cached_property
    def rows(self) -> tuple[tuple[int, tuple[Optional[str], ...]], ...]:
        """The slice row by row, as ``(timestamp, cells)`` pairs; a cell is
        None where its sensor has no row at that timestamp."""
        columns = []
        for s in self.sources:
            hit = s.positions >= 0
            at = s.positions[hit] * s.table.width
            for a, b in s.runs:
                for j in range(max(a, 1), b + 1):  # field 0 is the key
                    cells = s.table.cells(at + j)
                    if not s.complete:
                        found = iter(cells)
                        cells = [next(found) if h else None for h in hit.tolist()]
                    columns.append(cells)
        return tuple(zip(self.timestamps.tolist(), zip(*columns)))


def load_sensor_csv(path, sensor_name: str, hasher=None,
                    previous: Optional[SensorTable] = None) -> SensorTable:
    """Load one comma-separated sensor file into a SensorTable.

    The first line is the header; the first column is the integer
    timestamp key regardless of its header name. Cell text is preserved
    verbatim (fields are split on ',' with no quoting). The file is read
    once; ``hasher.update``, if given, gets exactly the bytes loaded.
    ``previous``, an earlier table of this sensor, is returned as it is,
    unparsed, when the bytes read equal its ``data``: they parse to it.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if hasher is not None:
        hasher.update(data)
    if previous is not None and previous.data == data:
        return previous
    return SensorTable.from_bytes(sensor_name, data, path)


def _parse(data: bytes, origin):
    """``(data, header, starts, index)`` for a sensor file's bytes, with
    ``data`` normalised; raises the first problem found."""
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LoadError(f"{origin}: not UTF-8 at byte {exc.start}") from None
    if b"\r\n" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data:
        raise EmptyFile(f"{origin}: no header line")
    if not data.endswith(b"\n"):
        data += b"\n"
    head_end = data.index(b"\n")
    header = data[:head_end].decode("utf-8").split(",")
    if header[0] == "":
        raise EmptyFile(f"{origin}: empty header")
    width = len(header)

    buf = np.frombuffer(data, dtype=np.uint8)
    is_sep = buf == _COMMA
    is_sep |= buf == _NL
    ends = np.flatnonzero(is_sep)[width:]  # where every body field ends
    del is_sep
    is_nl = buf[ends] == _NL
    n = len(ends) // width
    if len(ends) != n * width or np.count_nonzero(is_nl) != n \
            or not is_nl[width - 1::width].all():
        line_ends = np.flatnonzero(is_nl)
        counts = np.diff(line_ends, prepend=-1)
        bad = int(np.flatnonzero(counts != width)[0])
        raise RaggedRow(
            f"{origin}:{bad + 2}: {counts[bad]} fields, expected {width}")
    del is_nl
    starts = np.empty(len(ends) + 1,
                      dtype=np.int32 if len(data) < 2**31 else np.int64)
    starts[0] = head_end + 1
    starts[1:] = ends + 1
    del ends

    key_starts = starts[:-1:width]
    key_ends = starts[1::width] - 1
    index, fast = _parse_keys(buf, key_starts, key_ends - key_starts)
    canonical = True
    slow = np.flatnonzero(~fast).tolist()
    if slow:
        values = []
        for i in slow:
            text = data[key_starts[i]:key_ends[i]].decode("utf-8")
            try:
                values.append(int(text))
            except ValueError:
                raise NonIntegerTimestamp(
                    f"{origin}:{i + 2}: bad timestamp {text!r}") from None
            canonical = canonical and str(values[-1]) == text
        for ts in (min(values), max(values)):
            if not INT64_MIN <= ts <= INT64_MAX:
                raise NonIntegerTimestamp(
                    f"{origin}: timestamp {ts} does not fit in int64")
        index[slow] = values

    order = None
    if n > 1 and not (index[1:] > index[:-1]).all():
        order = np.argsort(index, kind="stable")
        ranked = index[order]
        dup = np.flatnonzero(ranked[1:] == ranked[:-1])
        if len(dup):
            raise DuplicateTimestamp(
                f"{origin}: timestamp {ranked[dup[0]]} appears twice")
    if order is None and canonical:
        return data, header, starts, index

    # Rewrite the body once, sorted and with canonical keys, and load that.
    row_ends = starts[width::width]
    if order is None:
        order = np.arange(n)
    if canonical:  # row copies, gathered a block at a time
        parts = np.array_split(order, max(1, len(data) // BLOCK_BYTES))
        body = b"".join(_gather(buf, key_starts[part], (row_ends - key_starts)[part])
                        .tobytes() for part in parts)
    else:
        keys = index.tolist()
        rests = zip(key_ends[order].tolist(), row_ends[order].tolist())
        body = b"".join(b"%d%s" % (keys[i], data[a:b])
                        for i, (a, b) in zip(order.tolist(), rests))
    return _parse(data[:head_end + 1] + body, origin)


def _parse_keys(buf: np.ndarray, first: np.ndarray, lengths: np.ndarray):
    """Each key field's value, read digit by digit across all rows at once,
    and whether the field is canonical decimal text of at most
    ``_FAST_DIGITS`` digits (where it is not, the value is a placeholder)."""
    n = len(first)
    neg = buf[first] == _MINUS
    digits = lengths - neg
    ok = (digits >= 1) & (digits <= _FAST_DIGITS)
    # No leading zero, except "0" itself.
    ok &= (buf[np.minimum(first + neg, len(buf) - 1)] != _ZERO) | (digits == 1)
    value = np.zeros(n, dtype=np.int64)
    last = len(buf) - 1
    width = int(lengths.max(initial=0))
    for c in range(min(width, _FAST_DIGITS + 1)):
        inside = (c >= neg) & (c < lengths)
        d = buf[np.minimum(first + c, last)].astype(np.int64) - _ZERO
        ok &= ~inside | ((d >= 0) & (d <= 9))
        value = np.where(inside & ok, value * 10 + d, value)
    ok &= ~(neg & (value == 0))  # "-0"
    return np.where(neg, -value, value), ok


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
    first = np.empty(len(merged), dtype=bool)
    first[0] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    return merged[first]


def _runs(fields) -> tuple[tuple[int, int], ...]:
    """Group field numbers into runs of consecutive ascending ones."""
    runs = []
    for f in fields:
        if runs and runs[-1][1] == f - 1:
            runs[-1][1] = f
        else:
            runs.append([f, f])
    return tuple((a, b) for a, b in runs)


def select(dataset: Dataset, q: PidQuery) -> ResultSlice:
    """Execute a parsed PID against a dataset.

    Output timestamps are the union over the requested sensors of each
    sensor's selected key set. Columns follow PID order, sensor-major;
    with a single sensor the labels are the bare measurement names. A
    sensor has no row at some timestamps of a multi-sensor slice; its
    cells there are empty.
    """
    tables = [dataset.sensor(s) for s in q.sensors]
    # Validate measurements up front so errors beat empty results.
    fields = [tuple([t.field_index(m) for m in q.measurements]) for t in tables]
    keys = [effective_key_set(q.selector, t.index) for t in tables]
    ts = sorted_union(keys)
    if len(tables) == 1:
        # A sensor's selected keys are all its own: it has every row.
        source = Source(tables[0], tables[0].index.searchsorted(ts),
                        _runs((0, *fields[0])), True)
        return ResultSlice(("timestamp", *q.measurements), ts, (source,))
    header = ["timestamp"]
    sources, runs_of = [], {}
    for table, wanted, own in zip(tables, fields, keys):
        header += [f"{table.sensor_name}.{m}" for m in q.measurements]
        pos = table.index.searchsorted(ts)
        complete = len(own) == len(ts)  # its selected keys are all of them
        if not complete:
            found = table.index.take(pos, mode="clip") if len(table.index) else ts + 1
            pos[found != ts] = -1
        if wanted not in runs_of:  # sensors with one column order share runs
            runs_of[wanted] = _runs(wanted)
        sources.append(Source(table, pos, runs_of[wanted], complete))
    return ResultSlice(tuple(header), ts, tuple(sources))


def render_csv(result: ResultSlice) -> bytes:
    """Render a ResultSlice as UTF-8 CSV bytes, one '\\n' after every line."""
    head = (",".join(result.header) + "\n").encode("utf-8")
    n = len(result.timestamps)
    body = _whole_rows(result) if n else []
    if body is None:
        body = _join_rows(result) if n <= RUN_ROWS else _gather_rows(result)
    return b"".join([head, *body])


def _whole_rows(result: ResultSlice) -> Optional[list[bytes]]:
    """One slice of the file per contiguous run of rows, where the slice is
    one sensor's whole rows in file order; else None."""
    if len(result.sources) != 1:
        return None
    (s,) = result.sources
    t = s.table
    if s.runs != ((0, t.width - 1),):
        return None
    pos, w, starts, data = s.positions, t.width, t.starts, t.data
    lo, hi = int(pos[0]), int(pos[-1]) + 1
    if hi - lo == len(pos):
        return [data[starts[lo * w]:starts[hi * w]]]
    breaks = np.flatnonzero(np.diff(pos) != 1) + 1
    firsts = starts[np.concatenate((pos[:1], pos[breaks])) * w].tolist()
    lasts = starts[(np.concatenate((pos[breaks - 1], pos[-1:])) + 1) * w].tolist()
    return [data[a:b] for a, b in zip(firsts, lasts)]


def _join_rows(result: ResultSlice) -> list[bytes]:
    """The body of a small slice, joined from Python slices of the files.
    The first sensor's pieces start with the key."""
    first, *others = result.sources
    columns = [_pieces(first, result.timestamps), *map(_pieces, others)]
    rows = columns[0] if len(columns) == 1 else map(b",".join, zip(*columns))
    return [b"\n".join(rows), b"\n"]


def _pieces(s: Source, keys: Optional[np.ndarray] = None) -> list[bytes]:
    """Each row's requested fields of one sensor, as one byte string per
    row: a slice of the file per run, or only commas where it has no row.
    Given ``keys``, each piece starts with the row's key."""
    t, pos, runs = s.table, s.positions, s.runs
    if keys is not None and runs[0][0] != 0:
        runs = ((0, runs[0][1]),) + runs[1:] if runs[0][0] == 1 else ((0, 0),) + runs
    absent = not s.complete
    if absent and not (pos >= 0).any():
        return [b"%d%s" % (k, b"," * (len(s.runs) + sum(b - a for a, b in s.runs)))
                for k in keys.tolist()] if keys is not None else \
            [b"," * (len(s.runs) - 1 + sum(b - a for a, b in s.runs))] * len(pos)
    w, lo, hi = t.width, int(pos[0]), int(pos[-1]) + 1
    if absent or hi - lo != len(pos):
        at = pos * w  # negative, and masked below, where there is no row
    else:
        at = None  # contiguous rows: their starts are strided slices
    data, cells = t.data, []
    for a, b in runs:
        if at is None:
            firsts = t.starts[lo * w + a:hi * w + a:w]
            ends = t.starts[lo * w + b + 1:hi * w + b + 1:w] - 1
        else:
            firsts, ends = t.starts[at + a], t.starts[at + b + 1] - 1
        if not absent:
            cells.append([data[x:y] for x, y in zip(firsts.tolist(), ends.tolist())])
            continue
        gap = b"," * (b - a)
        if a == 0 and keys is not None:  # the key, then the run's commas
            cells.append([data[x:y] if p >= 0 else b"%d%s" % (k, gap) for p, x, y, k
                          in zip(pos.tolist(), firsts.tolist(), ends.tolist(),
                                 keys.tolist())])
        else:
            cells.append([data[x:y] if p >= 0 else gap for p, x, y
                          in zip(pos.tolist(), firsts.tolist(), ends.tolist())])
    return cells[0] if len(cells) == 1 else list(map(b",".join, zip(*cells)))


def _gather_rows(result: ResultSlice) -> list[bytes]:
    """The body of a large slice, copied by numpy ragged gathers.

    Every output row is a list of segments: the key (when several sensors
    share the row, taken from the first that has it) and each sensor's
    runs. A segment is its bytes plus one separator; a sensor without the
    row contributes only separators. Rows are copied in blocks of about
    ``BLOCK_BYTES``, each by one gather, after which every segment's last
    byte is set to ',' and every row's to '\\n'.
    """
    sources = result.sources
    single = len(sources) == 1
    n = len(result.timestamps)
    hits = [s.positions >= 0 for s in sources]
    # Per segment, its first byte in its sensor's file and its bytes out.
    segs = [] if single else [(-1, 0, 0)]
    segs += [(k, a, b) for k, s in enumerate(sources) for a, b in s.runs]
    first = np.zeros((n, len(segs)), dtype=np.int64)
    length = np.zeros((n, len(segs)), dtype=np.int64)
    # Each row's offset into each sensor's starts, 0 where it has none.
    ats = [np.where(hit, s.positions, 0) * s.table.width
           for s, hit in zip(sources, hits)]
    owner = np.zeros(n, dtype=np.int64)  # the sensor a key comes from
    if not single:
        for k in reversed(range(len(sources))):
            head = sources[k].table.starts.take(ats[k], mode="clip")
            size = sources[k].table.starts.take(ats[k] + 1, mode="clip") - head
            first[:, 0] = np.where(hits[k], head, first[:, 0])
            length[:, 0] = np.where(hits[k], size, length[:, 0])
            owner[hits[k]] = k
    for c, (k, a, b) in enumerate(segs):
        if k < 0:
            continue
        starts = sources[k].table.starts
        first[:, c] = starts.take(ats[k] + a, mode="clip")
        size = starts.take(ats[k] + b + 1, mode="clip") - first[:, c]
        length[:, c] = np.where(hits[k], size, b - a + 1)
    row_ends = np.cumsum(length.sum(axis=1))
    cuts = np.searchsorted(row_ends, np.arange(BLOCK_BYTES, row_ends[-1], BLOCK_BYTES))
    bounds = [0, *cuts.tolist(), n]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        if single:
            buf, src = sources[0].table.data_array, first[lo:hi]
        else:
            buf, src = _window(sources, segs, [h[lo:hi] for h in hits],
                               owner[lo:hi], first[lo:hi], lo, hi)
        block = _gather(buf, src.ravel(), length[lo:hi].ravel())
        ends = np.cumsum(length[lo:hi].ravel()).reshape(hi - lo, len(segs))
        block[ends.ravel() - 1] = _COMMA
        block[ends[:, -1] - 1] = _NL
        out.append(block.tobytes())
    return out


def _window(sources, segs, hits, owner, first, lo, hi):
    """The rows ``lo`` to ``hi`` of a multi-sensor slice need bytes from
    several files; gather from one buffer holding each sensor's selected
    rows there (a few contiguous runs, as the selector's terms leave them)
    and some commas for absent rows, and ``first`` rebased into it. The
    buffer grows with the rows returned, not with the files."""
    pieces, shifts, base = [], [], 0
    for s, hit in zip(sources, hits):
        pos = s.positions[lo:hi][hit]
        shift = np.zeros(hi - lo, dtype=np.int64)
        if len(pos):
            breaks = np.flatnonzero(np.diff(pos) != 1) + 1
            heads = np.concatenate((pos[:1], pos[breaks]))
            tails = np.concatenate((pos[breaks - 1], pos[-1:])) + 1
            w = s.table.width
            x = s.table.starts[heads * w].astype(np.int64)
            y = s.table.starts[tails * w].astype(np.int64)
            shift[hit] = np.repeat(base + np.cumsum(y - x) - y, tails - heads)
            pieces += [s.table.data_array[a:b] for a, b in zip(x.tolist(), y.tolist())]
            base += int((y - x).sum())
        shifts.append(shift)
    pieces.append(np.full(max(s.table.width for s in sources), _COMMA, dtype=np.uint8))
    src = np.empty_like(first)
    src[:, 0] = first[:, 0] + np.array(shifts)[owner, np.arange(hi - lo)]
    for c, (k, _, _) in enumerate(segs[1:], start=1):
        src[:, c] = np.where(hits[k], first[:, c] + shifts[k], base)
    return np.concatenate(pieces), src


def _offsets(first: np.ndarray, lengths: np.ndarray, limit: int) -> np.ndarray:
    """Every offset in the ranges ``[first[k], first[k] + lengths[k])``, in
    order: one ``repeat`` plus an ``arange``, in int32 when every offset
    is below ``limit`` < 2**31, which halves the bytes both write."""
    dtype = np.int32 if limit < 2**31 else np.int64
    lengths = lengths.astype(dtype, copy=False)
    shift = np.cumsum(lengths, dtype=dtype) - lengths
    total = int(shift[-1] + lengths[-1]) if len(lengths) else 0
    offsets = np.repeat((first - shift).astype(dtype, copy=False), lengths)
    offsets += np.arange(total, dtype=dtype)
    return offsets


def _gather(buf: np.ndarray, first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``buf[first[k]:first[k] + lengths[k]]``, concatenated."""
    return buf.take(_offsets(first, lengths, len(buf)))
