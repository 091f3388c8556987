"""Types Metadata Registry: column type inference and basic statistics.

Type inference maps a column of lexical cells to a (basic, derived) type
pair; the derived-to-basic mapping is fixed in ``BASIC_OF_DERIVED``.
It works over the column's distinct values: each is matched once against
one number pattern whose groups tell integer, real and scientific apart,
and the other types are tried only when some value is not a plain number.
The catalog types each column once, when a dataset is registered; loading
a table never types it.

A column whose every nonempty field is a plain number is typed from its
field bytes by ``plain_numbers``, with no cell ever a Python object: the
fields are copied a block at a time into a zero-padded byte matrix, a
``bincount`` checks that each field byte is a digit, sign, point or
exponent letter, and a cast of the matrix viewed as fixed-width byte
strings parses the block (the cast and ``float()`` accept the same
strings over that alphabet and give the same doubles). Any other column,
or one with a field longer than ``MAX_NUMBER_BYTES``, gives None, and the
caller types its decoded cells with ``infer_column_type`` and
``numeric_values``, which the kernel agrees with on every column it
accepts.
Statistics are pinned to one definition each so that catalog metadata is
byte-stable: sample stddev (n-1), quantiles by linear interpolation at
``p*(n-1)``, skewness as the population-moment estimator ``m3 / m2^1.5``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyColumn
from .timeseries_store import BLOCK_BYTES

# Derived type -> parent basic type.
BASIC_OF_DERIVED = {
    "character": "text",
    "varchar": "text",
    "integer": "number",
    "long": "number",
    "real": "number",
    "float": "number",
    "double": "number",
    "percentage": "number",
    "scientific": "number",
    "USD": "currency",
    "RMB": "currency",
    "$": "currency",
    "Euro": "currency",
    "Yen": "currency",
    "check box": "boolean",
    "yes/no": "boolean",
    "true/false": "boolean",
    "on/off": "boolean",
    "timestamp": "date/time",
    "short date": "date/time",
    "medium date": "date/time",
    "long date": "date/time",
    "time am/pm": "date/time",
    "medium time": "date/time",
    "time 24 hour": "date/time",
    "rich text": "blob",
    "attachment": "blob",
    "memo": "blob",
    "lambda function": "calculated",
    "imaginary number": "calculated",
    "hyperlink": "pointer",
    "lookup": "pointer",
}

_REAL_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)")
# A plain number; the group that matched (``lastindex``) names its kind.
_NUMBER_RE = re.compile(
    r"[+-]?(?:([0-9]+)"
    r"|([0-9]+\.[0-9]*|\.[0-9]+)"
    r"|((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][+-]?[0-9]+))"
)
_INT, _REAL, _SCI = 1, 2, 3
_PCT_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?%")
# Byte value -> whether no plain number holds it. NUL pads the matrix
# ``plain_numbers`` casts, and is counted apart.
_NOT_NUMBER_BYTE = np.ones(256, dtype=bool)
_NOT_NUMBER_BYTE[np.frombuffer(b"\x000123456789+-.eE", dtype=np.uint8)] = False
_EXPONENT_BYTES = np.frombuffer(b"eE", dtype=np.uint8)
_POINT = ord(".")
# The longest field ``plain_numbers`` reads: every row of its matrix is as
# wide as the column's longest field, so a column holding a longer one (a
# long text cell, or a rare very long number) is typed from its cells.
MAX_NUMBER_BYTES = 64
_CURRENCY_SYMBOLS = {"$": "$", "€": "Euro", "¥": "Yen"}

# Integer keys at or above this look like Unix epoch timestamps.
EPOCH_THRESHOLD = 10**9


@dataclass(frozen=True)
class TypeDescriptor:
    basic: str
    derived: str


@dataclass(frozen=True)
class BasicProperties:
    mean: float
    median: float
    stddev: float
    iqr: float
    skewness: float
    outlier_count: int
    shape_class: str

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "median": self.median,
            "stddev": self.stddev,
            "iqr": self.iqr,
            "skewness": self.skewness,
            "outlier_count": self.outlier_count,
            "shape_class": self.shape_class,
        }


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    # None marks an undefined entry (a zero-variance column involved).
    values: tuple[tuple[Optional[float], ...], ...]


def _boolean_derived(cells: set[str]) -> Optional[str]:
    lowered = {c.lower() for c in cells}
    for pair, name in (
        ({"yes", "no"}, "yes/no"),
        ({"true", "false"}, "true/false"),
        ({"on", "off"}, "on/off"),
    ):
        if lowered <= pair:
            return name
    return None


def _currency_derived(cells: set[str]) -> Optional[str]:
    names = set()
    for c in cells:
        if len(c) < 2 or c[0] not in _CURRENCY_SYMBOLS:
            return None
        if not _REAL_RE.fullmatch(c[1:]):
            return None
        names.add(_CURRENCY_SYMBOLS[c[0]])
    return names.pop() if len(names) == 1 else "$"


def _number_kinds(values: set[str]) -> Optional[set[int]]:
    """The kinds (``_INT``/``_REAL``/``_SCI``) among ``values``, or None
    when some value is not a plain number."""
    matches = list(map(_NUMBER_RE.fullmatch, values))
    if None in matches:
        return None
    return {m.lastindex for m in matches}


def infer_column_type(cells: Sequence[str]) -> TypeDescriptor:
    """Infer the most specific derived type shared by every nonempty cell.

    Precedence: boolean, integer, scientific, real, percentage, currency,
    hyperlink, then text/varchar as the fallback. Order-insensitive: only
    the set of cell contents matters. ``catalog._key_schema`` types keys.
    """
    values = set(cells)
    values.discard("")
    if not values:
        return TypeDescriptor("text", "varchar")

    # No boolean word is a number, so testing numbers first keeps the
    # precedence.
    kinds = _number_kinds(values)
    if kinds is not None:
        if kinds == {_INT}:
            return TypeDescriptor("number", "integer")
        if _SCI in kinds:
            return TypeDescriptor("number", "scientific")
        return TypeDescriptor("number", "real")

    derived = _boolean_derived(values)
    if derived is not None:
        return TypeDescriptor("boolean", derived)
    if all(_PCT_RE.fullmatch(c) for c in values):
        return TypeDescriptor("number", "percentage")
    derived = _currency_derived(values)
    if derived is not None:
        return TypeDescriptor("currency", derived)
    if all(c.startswith(("http://", "https://")) for c in values):
        return TypeDescriptor("pointer", "hyperlink")
    return TypeDescriptor("text", "varchar")


def _shape_class(values: np.ndarray, m2: float, g1: float) -> str:
    if m2 == 0.0:
        return "constant"
    if len(np.unique(values)) <= 2:
        return "boolean_like"
    a = abs(g1)
    if a < 0.5:
        return "approx_symmetric"
    if a < 1.0:
        return "moderately_skewed"
    return "highly_skewed"


def compute_properties(values: Sequence[float]) -> BasicProperties:
    """Summary statistics over a nonempty numeric column."""
    if len(values) == 0:
        raise EmptyColumn("no numeric values")
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if float(arr.min()) == float(arr.max()):
        # Exact zeros for constant columns; the mean of equal values can
        # otherwise pick up rounding noise and leak into the moments.
        v = float(arr[0])
        return BasicProperties(
            mean=v, median=v, stddev=0.0, iqr=0.0, skewness=0.0,
            outlier_count=0, shape_class="constant",
        )
    mean = float(arr.mean())
    median = float(np.median(arr))
    stddev = float(arr.std(ddof=1)) if n > 1 else 0.0
    q1, q3 = (float(v) for v in np.quantile(arr, [0.25, 0.75]))
    iqr = q3 - q1
    centered = arr - mean
    m2 = float((centered**2).mean())
    m3 = float((centered**3).mean())
    denom = m2**1.5  # can underflow to 0 even when m2 > 0
    g1 = m3 / denom if denom > 0.0 else 0.0
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    outliers = int(((arr < lo) | (arr > hi)).sum())
    return BasicProperties(
        mean=mean,
        median=median,
        stddev=stddev,
        iqr=iqr,
        skewness=g1,
        outlier_count=outliers,
        shape_class=_shape_class(arr, m2, g1),
    )


def numeric_values(cells: Sequence[str]) -> list[float]:
    """Cells that parse as plain decimal/scientific numbers, as floats.

    Each distinct value is matched and parsed once; the floats come back
    in cell order.
    """
    parsed = {c: float(c) for c in set(cells) if _NUMBER_RE.fullmatch(c)}
    return [v for v in map(parsed.get, cells) if v is not None]


def plain_numbers(data, first: np.ndarray, lengths: np.ndarray
                  ) -> Optional[tuple[np.ndarray, TypeDescriptor]]:
    """Type a measurement column from its field bytes, when every nonempty
    field is a plain number.

    ``data`` is a bytes-like buffer and the fields are the ranges
    ``data[first[k]:first[k] + lengths[k]]``. Gives the nonempty fields'
    values in order, as ``numeric_values`` gives them, and the type
    ``infer_column_type`` gives; or None when no field is nonempty or some
    nonempty field is not a plain number or is longer than
    ``MAX_NUMBER_BYTES``.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    nonempty = lengths > 0
    if not nonempty.all():
        first, lengths = first[nonempty], lengths[nonempty]
    n = len(first)
    if not n:
        return None
    width = int(lengths.max())
    if width > MAX_NUMBER_BYTES:
        return None
    columns = np.arange(width, dtype=first.dtype)
    values = np.empty(n, dtype=np.float64)
    seen = np.zeros(256, dtype=np.int64)
    rows_per_block = max(1, BLOCK_BYTES // width)
    for lo in range(0, n, rows_per_block):
        block_first = first[lo:lo + rows_per_block]
        block_lengths = lengths[lo:lo + rows_per_block]
        matrix = buf.take(block_first[:, None] + columns, mode="clip")
        matrix *= columns < block_lengths[:, None]  # NUL past each field
        counts = np.bincount(matrix.ravel(), minlength=256)
        # A NUL beyond the padding is a field's own, which the fixed-width
        # view below would drop from the field's end.
        if counts[0] != matrix.size - int(block_lengths.sum()) \
                or counts[_NOT_NUMBER_BYTE].any():
            return None
        seen += counts
        try:
            with np.errstate(over="ignore"):
                values[lo:lo + rows_per_block] = \
                    matrix.view(f"S{width}").ravel().astype(np.float64)
        except ValueError:  # bytes of the alphabet that are not a number
            return None
    if seen[_EXPONENT_BYTES].any():
        derived = "scientific"
    elif seen[_POINT]:
        derived = "real"
    else:
        derived = "integer"
    return values, TypeDescriptor("number", derived)


def compute_correlation(table) -> CorrelationMatrix:
    """Pearson correlation matrix over a SensorTable's numeric columns.

    Each pair uses only the rows where both cells are numeric. Pairs
    involving a zero-variance column are left undefined (None) instead of
    propagating NaN; the diagonal is exactly 1 for nonconstant columns.
    """
    cols: list[tuple[str, list[Optional[float]]]] = []
    for name, cells, _desc in table.columns:
        parsed = [
            float(c) if _NUMBER_RE.fullmatch(c) else None
            for c in cells
        ]
        if any(v is not None for v in parsed):
            cols.append((name, parsed))
    labels = tuple(name for name, _ in cols)
    k = len(cols)
    values: list[list[Optional[float]]] = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            xs, ys = [], []
            for a, b in zip(cols[i][1], cols[j][1]):
                if a is not None and b is not None:
                    xs.append(a)
                    ys.append(b)
            r = _pearson(xs, ys)
            values[i][j] = r
            values[j][i] = r
    return CorrelationMatrix(labels, tuple(tuple(row) for row in values))


def _pearson(xs: list[float], ys: list[float]) -> Optional[float]:
    if len(xs) < 2:
        return None
    x = np.asarray(xs)
    y = np.asarray(ys)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float((dx**2).sum())
    sy = float((dy**2).sum())
    if sx == 0.0 or sy == 0.0:
        return None
    if xs is ys or sx == sy and float((dx * dy).sum()) == sx:
        return 1.0
    r = float((dx * dy).sum()) / (sx**0.5 * sy**0.5)
    return max(-1.0, min(1.0, r))
