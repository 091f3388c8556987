import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arkslice.catalog import _key_schema
from arkslice.errors import EmptyColumn
from arkslice.timeseries_store import SensorTable
from arkslice.type_registry import (
    _NUMBER_RE,
    BASIC_OF_DERIVED,
    MAX_NUMBER_BYTES,
    TypeDescriptor,
    compute_correlation,
    compute_properties,
    infer_column_type,
    numeric_values,
    plain_numbers,
)


class TestInference:
    @pytest.mark.parametrize("cells,expected", [
        (["1", "42", "-7"], ("number", "integer")),
        (["118.1", "119.0"], ("number", "real")),
        (["1.2e5", "3E-2"], ("number", "scientific")),
        (["1.5", "3e4"], ("number", "scientific")),
        (["12%", "5%"], ("number", "percentage")),
        (["yes", "no", "yes"], ("boolean", "yes/no")),
        (["TRUE", "false"], ("boolean", "true/false")),
        (["on", "off"], ("boolean", "on/off")),
        (["$3.50", "$12"], ("currency", "$")),
        (["http://a.example/x", "https://b.example/y"], ("pointer", "hyperlink")),
        (["hello", "world"], ("text", "varchar")),
        (["1", "2.5", "x"], ("text", "varchar")),
        ([], ("text", "varchar")),
        (["", ""], ("text", "varchar")),
    ])
    def test_cases(self, cells, expected):
        desc = infer_column_type(cells)
        assert (desc.basic, desc.derived) == expected

    def test_mixed_int_real_is_real(self):
        assert infer_column_type(["1", "2.5"]).derived == "real"

    def test_empty_cells_skipped(self):
        assert infer_column_type(["1", "", "2"]).derived == "integer"

    def test_epoch_key_column(self):
        doc = _key_schema("ts", (1325376660, 1325376720))
        assert (doc["basic"], doc["derived"]) == ("date/time", "timestamp")
        # Same cells in a measurement column stay plain integers.
        assert infer_column_type(["1325376660", "1325376720"]).derived == "integer"

    def test_small_key_is_integer(self):
        assert _key_schema("ts", (13332, 13400))["derived"] == "integer"

    def test_derived_types_closed_under_mapping(self):
        # Every type the inferrer can emit must have a basic parent.
        emitted = [
            infer_column_type(c) for c in (
                ["1"], ["1.5"], ["1e3"], ["5%"], ["yes"], ["true"], ["on"],
                ["$1"], ["€5"], ["¥5"], ["http://x.example/"], ["word"],
            )
        ]
        for keys in ((1325376660,), (13332,), ()):  # and every key type
            doc = _key_schema("ts", keys)
            emitted.append(TypeDescriptor(doc["basic"], doc["derived"]))
        for desc in emitted:
            assert BASIC_OF_DERIVED[desc.derived] == desc.basic

    @given(st.lists(st.sampled_from(["1", "2.5", "yes", "x", "", "5%"]),
                    min_size=1, max_size=20), st.randoms())
    def test_order_insensitive(self, cells, rnd):
        shuffled = list(cells)
        rnd.shuffle(shuffled)
        assert infer_column_type(cells) == infer_column_type(shuffled)


# Reference: the per-cell algorithm the registry used before it typed
# distinct values in one pass. Kept verbatim as the oracle for the
# property below.
_REF_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_REF_REAL_RE = re.compile(r"^[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)$")
_REF_SCI_RE = re.compile(r"^[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)[eE][+-]?[0-9]+$")
_REF_PCT_RE = re.compile(r"^[+-]?[0-9]+(\.[0-9]+)?%$")
_REF_CURRENCY = {"$": "$", "€": "Euro", "¥": "Yen"}


def _ref_boolean(cells):
    lowered = {c.lower() for c in cells}
    for pair, name in (
        ({"yes", "no"}, "yes/no"),
        ({"true", "false"}, "true/false"),
        ({"on", "off"}, "on/off"),
    ):
        if lowered <= pair:
            return name
    return None


def _ref_currency(cells):
    names = set()
    for c in cells:
        if len(c) < 2 or c[0] not in _REF_CURRENCY:
            return None
        if not _REF_REAL_RE.match(c[1:]):
            return None
        names.add(_REF_CURRENCY[c[0]])
    return names.pop() if len(names) == 1 else "$"


def ref_infer(cells, is_key=False):
    nonempty = [c for c in cells if c != ""]
    if not nonempty:
        return TypeDescriptor("text", "varchar")
    derived = _ref_boolean(nonempty)
    if derived is not None:
        return TypeDescriptor("boolean", derived)
    if all(_REF_INT_RE.match(c) for c in nonempty):
        if is_key and all(int(c) >= 10**9 for c in nonempty):
            return TypeDescriptor("date/time", "timestamp")
        return TypeDescriptor("number", "integer")
    if all(_REF_SCI_RE.match(c) or _REF_REAL_RE.match(c) for c in nonempty) and any(
        _REF_SCI_RE.match(c) for c in nonempty
    ):
        return TypeDescriptor("number", "scientific")
    if all(_REF_REAL_RE.match(c) for c in nonempty):
        return TypeDescriptor("number", "real")
    if all(_REF_PCT_RE.match(c) for c in nonempty):
        return TypeDescriptor("number", "percentage")
    derived = _ref_currency(nonempty)
    if derived is not None:
        return TypeDescriptor("currency", derived)
    if all(c.startswith(("http://", "https://")) for c in nonempty):
        return TypeDescriptor("pointer", "hyperlink")
    return TypeDescriptor("text", "varchar")


def ref_numeric_values(cells):
    return [float(c) for c in cells
            if c and (_REF_REAL_RE.match(c) or _REF_SCI_RE.match(c))]


_sign = st.sampled_from(["", "+", "-"])
_digits = st.text("0123456789", min_size=1, max_size=4)
_ints = st.builds(str.__add__, _sign, _digits)
_epochs = st.integers(10**9 - 5, 2 * 10**9).map(str)
_mantissas = st.one_of(
    _digits,
    st.builds("{}.{}".format, _digits, st.text("0123456789", max_size=3)),
    st.builds(".{}".format, _digits),
)
_reals = st.builds(str.__add__, _sign, _mantissas)
_scis = st.builds("{}{}{}{}{}".format, _sign, _mantissas,
                  st.sampled_from("eE"), _sign, _digits)
_pcts = st.builds("{}{}{}%".format, _sign, _digits,
                  st.sampled_from(["", ".5", ".25", "."]))
_currencies = st.builds(str.__add__, st.sampled_from(["$", "€", "¥", "£"]),
                        st.one_of(_reals, st.just("")))
_booleans = st.builds(
    lambda word, caps: "".join(c.upper() if u else c for c, u in zip(word, caps)),
    st.sampled_from(["yes", "no", "true", "false", "on", "off"]),
    st.lists(st.booleans(), min_size=5, max_size=5),
)
_links = st.sampled_from(["http://a.example/x", "https://b.example", "http:/c",
                          "ftp://d.example", "HTTP://e.example"])
_odd = st.sampled_from(["", "", "x", ".", "+", "-", "e5", "1e", "1.2.3",
                        "nan", "inf", "0x1f", "1_000", "%", "yes no"])
_KINDS = [_ints, _epochs, _reals, _scis, _pcts, _currencies, _booleans,
          _links, _odd]


@st.composite
def _cells(draw):
    """A column mixing one to three kinds of cell, in a quarter of the
    columns with stray spaces."""
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))
    cell = st.one_of(kinds)
    if draw(st.integers(0, 3)) == 0:
        cell = st.one_of(cell, cell.map(" {}".format), cell.map("{} ".format))
    return draw(st.lists(cell, max_size=25))


class TestAgainstPerCellReference:
    @given(_cells())
    @settings(max_examples=400)
    def test_matches_reference(self, cells):
        assert infer_column_type(cells) == ref_infer(cells)
        assert numeric_values(cells) == ref_numeric_values(cells)

    @given(st.lists(st.integers(-10**3, 3 * 10**9), unique=True, max_size=20))
    def test_key_schema_matches_reference(self, keys):
        key = tuple(sorted(keys))
        doc = _key_schema("ts", key)
        expected = ref_infer([str(k) for k in key], is_key=True)
        assert (doc["basic"], doc["derived"]) == (expected.basic, expected.derived)
        assert doc["properties"] is None


def typed_from_bytes(cells):
    """``plain_numbers`` over ``cells`` laid out as fields. The bytes
    between fields are digits, so a kernel that read past a field's end
    would parse a different number."""
    encoded = [c.encode("utf-8") for c in cells]
    lengths = np.array([len(b) for b in encoded], dtype=np.int64)
    first = np.cumsum(lengths + 1) - lengths - 1
    return plain_numbers(b"9".join(encoded) + b"9", first, lengths)


def _with_nul(cell):
    """A strategy inserting one NUL anywhere in ``cell``'s text, the end
    included."""
    return cell.flatmap(lambda c: st.integers(0, len(c)).map(
        lambda at: c[:at] + "\x00" + c[at:]))


_long_digits = st.text("0123456789", min_size=1, max_size=40)
_long_numbers = st.one_of(
    st.builds(str.__add__, _sign, _long_digits),
    st.builds("{}{}.{}".format, _sign, _long_digits, _long_digits),
    st.builds("{}{}e{}".format, _sign, _mantissas,
              st.integers(-400, 400).map(str)),
    st.builds("{}{}E+{}".format, _sign, _long_digits,
              st.integers(0, 400).map(str)),
    st.sampled_from(["-0", "+0", "-0.0", "0e0", "-.0e-0"]),
    # Longer than the kernel reads: typed from cells.
    st.text("0123456789", min_size=MAX_NUMBER_BYTES - 2,
            max_size=MAX_NUMBER_BYTES + 2),
)


@st.composite
def _number_columns(draw):
    """Columns that are mostly numbers, some with a NUL or another
    stray cell among them."""
    kinds = [_ints, _reals, _scis, _long_numbers, st.just("")]
    cell = st.one_of(draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)))
    column = draw(st.lists(cell, max_size=25))
    strays = st.one_of(_with_nul(st.one_of(_ints, _reals, _long_numbers)),
                       st.one_of(*_KINDS))
    for _ in range(draw(st.integers(0, 2))):
        column.insert(draw(st.integers(0, len(column))), draw(strays))
    return column


class TestPlainNumbers:
    @given(st.one_of(_cells(), _number_columns()))
    @settings(max_examples=600)
    def test_agrees_with_the_cell_path(self, cells):
        typed = typed_from_bytes(cells)
        nonempty = [c for c in cells if c]
        numbers = all(_NUMBER_RE.fullmatch(c) for c in nonempty)
        short = all(len(c.encode("utf-8")) <= MAX_NUMBER_BYTES for c in nonempty)
        assert (typed is None) == (not nonempty or not numbers or not short)
        if typed is not None:
            values, desc = typed
            assert desc == infer_column_type(cells)
            expected = np.array(numeric_values(cells), dtype=np.float64)
            assert values.dtype == np.float64
            # Bit for bit: -0.0 differs from 0.0, inf from the largest float.
            assert values.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_every_short_string_of_number_bytes(self):
        for size in range(1, 6):
            for chars in itertools.product("01.+-eE\x00", repeat=size):
                cell = "".join(chars)
                typed = typed_from_bytes([cell])
                assert (typed is not None) == bool(_NUMBER_RE.fullmatch(cell)), cell
                if typed is not None:
                    assert typed[0].tolist() == [float(cell)], cell

    @pytest.mark.parametrize("cells,derived", [
        (["1", "", "-7"], "integer"),
        (["1", "2.5"], "real"),
        (["1", "2.5", "3E2"], "scientific"),
        (["1e400", "-1e400", "1e-400"], "scientific"),
    ])
    def test_type_from_the_bytes_present(self, cells, derived):
        assert typed_from_bytes(cells)[1] == TypeDescriptor("number", derived)

    @pytest.mark.parametrize("cells", [
        [], ["", ""], ["12\x00"], ["1", "x"], ["1", "5%"], ["1", " 2"],
        ["1", "1" * (MAX_NUMBER_BYTES + 1)],
    ])
    def test_none(self, cells):
        assert typed_from_bytes(cells) is None


class TestProperties:
    def test_symmetric_sequence(self):
        p = compute_properties([1, 2, 3, 4, 5])
        assert p.mean == 3
        assert p.median == 3
        assert p.skewness == 0
        assert p.outlier_count == 0
        assert p.shape_class == "approx_symmetric"
        assert math.isclose(p.stddev, math.sqrt(2.5))
        assert p.iqr == 2

    def test_constant(self):
        p = compute_properties([5, 5, 5, 5])
        assert p.stddev == 0
        assert p.iqr == 0
        assert p.skewness == 0
        assert p.shape_class == "constant"

    def test_single_value(self):
        p = compute_properties([7])
        assert p.stddev == 0
        assert p.shape_class == "constant"

    def test_outlier(self):
        # Hand derivation with quartiles at p*(n-1): n=5, Q1 at index 1 -> 2,
        # Q3 at index 3 -> 4, IQR 2, fences [-1, 7]; only 100 falls outside.
        p = compute_properties([1, 2, 3, 4, 100])
        assert p.iqr == 2
        assert p.outlier_count == 1

    def test_boolean_like(self):
        p = compute_properties([0, 1, 0, 1, 1])
        assert p.shape_class == "boolean_like"

    def test_highly_skewed(self):
        values = [1] * 20 + [2] * 5 + [50]
        p = compute_properties(values)
        assert abs(p.skewness) >= 1
        assert p.shape_class == "highly_skewed"

    def test_two_distinct_values_is_boolean_like_even_if_skewed(self):
        p = compute_properties([1] * 30 + [50])
        assert p.shape_class == "boolean_like"

    def test_empty(self):
        with pytest.raises(EmptyColumn):
            compute_properties([])

    @given(
        st.lists(st.floats(-100, 100).map(lambda v: round(v, 3)),
                 min_size=3, max_size=50),
        st.floats(0.1, 50),
        st.floats(-100, 100),
    )
    @settings(max_examples=200)
    def test_affine_invariance(self, values, a, b):
        base = compute_properties(values)
        scaled = compute_properties([a * v + b for v in values])
        assert math.isclose(scaled.stddev, a * base.stddev,
                            rel_tol=1e-6, abs_tol=1e-6)
        assert math.isclose(scaled.iqr, a * base.iqr,
                            rel_tol=1e-6, abs_tol=1e-6)
        assert math.isclose(scaled.skewness, base.skewness,
                            rel_tol=1e-4, abs_tol=1e-6)
        assert scaled.shape_class == base.shape_class


def make_table(cols):
    n = len(next(iter(cols.values())))
    return SensorTable(
        sensor_name="S",
        key=tuple(range(n)),
        columns=tuple(
            (name, tuple(str(v) for v in vals), None)
            for name, vals in cols.items()
        ),
    )


class TestCorrelation:
    def test_perfect_positive(self):
        m = compute_correlation(make_table({"X": [1, 2, 3], "Y": [2, 4, 6]}))
        i, j = m.labels.index("X"), m.labels.index("Y")
        assert math.isclose(m.values[i][j], 1.0, abs_tol=1e-12)

    def test_perfect_negative(self):
        m = compute_correlation(make_table({"X": [1, 2, 3], "Y": [3, 2, 1]}))
        assert math.isclose(m.values[0][1], -1.0, abs_tol=1e-12)

    def test_hand_computed(self):
        # Pearson by hand: covariance sum 4, both sums of squares 5 -> 0.8.
        m = compute_correlation(make_table({"X": [1, 2, 3, 4], "Y": [1, 3, 2, 4]}))
        assert math.isclose(m.values[0][1], 0.8, abs_tol=1e-12)

    def test_symmetry_and_diagonal(self):
        m = compute_correlation(
            make_table({"X": [1, 2, 3, 9], "Y": [4, 1, 2, 2], "Z": [0, 5, 1, 3]})
        )
        k = len(m.labels)
        for i in range(k):
            assert m.values[i][i] == 1.0
            for j in range(k):
                assert m.values[i][j] == m.values[j][i]
                if m.values[i][j] is not None:
                    assert -1.0 <= m.values[i][j] <= 1.0

    def test_zero_variance_undefined(self):
        m = compute_correlation(make_table({"X": [1, 2, 3], "C": [5, 5, 5]}))
        i, j = m.labels.index("X"), m.labels.index("C")
        assert m.values[i][j] is None
        assert m.values[j][j] is None

    def test_non_numeric_rows_skipped(self):
        table = make_table({"X": [1, 2, 3, 4], "Y": [2, 4, "x", 8]})
        m = compute_correlation(table)
        # Rows 0,1,3 remain: X=[1,2,4], Y=[2,4,8] -> exactly linear.
        assert m.values[0][1] == 1.0
