import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arkslice.errors import (
    DuplicateTimestamp,
    EmptyFile,
    IoError,
    NonIntegerTimestamp,
    RaggedRow,
    UnknownMeasurement,
    UnknownSensor,
)
from arkslice.pid_grammar import PidQuery, RangeSelector, RangeTerm, parse_pid
from arkslice.timeseries_store import (
    Dataset,
    SensorTable,
    load_sensor_csv,
    render_csv,
    select,
)

NAAN = "57460"


def write_csv(tmp_path, text, name="DWE.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_basic(self, tmp_path):
        path = write_csv(tmp_path, "ts,V\n1,118.1\n2,119.0\n")
        table = load_sensor_csv(path, "DWE")
        assert table.key == (1, 2)
        assert table.column("V") == ("118.1", "119.0")
        assert table.row_count == 2
        assert table.key_column_name == "ts"
        # Loading never types: the catalog does that once, at register.
        assert [desc for _, _, desc in table.columns] == [None]

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = write_csv(tmp_path, "ts,V\n2,a\n1,b\n")
        table = load_sensor_csv(path, "DWE")
        assert table.key == (1, 2)
        assert table.column("V") == ("b", "a")

    def test_crlf_and_no_trailing_newline(self, tmp_path):
        path = write_csv(tmp_path, "ts,V\r\n1,x\r\n2,y")
        table = load_sensor_csv(path, "DWE")
        assert table.key == (1, 2)

    def test_duplicate_timestamp(self, tmp_path):
        path = write_csv(tmp_path, "ts,V\n1,x\n1,y\n")
        with pytest.raises(DuplicateTimestamp):
            load_sensor_csv(path, "DWE")

    def test_non_integer_timestamp(self, tmp_path):
        path = write_csv(tmp_path, "ts,V\nfoo,x\n")
        with pytest.raises(NonIntegerTimestamp):
            load_sensor_csv(path, "DWE")

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "ts,V\n1,x,extra\n")
        with pytest.raises(RaggedRow):
            load_sensor_csv(path, "DWE")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(EmptyFile):
            load_sensor_csv(path, "DWE")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_sensor_csv(tmp_path / "nope.csv", "DWE")

    def test_empty_cells_preserved(self, tmp_path):
        path = write_csv(tmp_path, "ts,V,I\n1,,3.0\n2,4.5,\n")
        table = load_sensor_csv(path, "DWE")
        assert table.column("V") == ("", "4.5")
        assert table.column("I") == ("3.0", "")


def table_of(sensor, rows):
    """rows: list of (ts, {measurement: cell})."""
    rows = sorted(rows)
    key = tuple(ts for ts, _ in rows)
    measurements = list(rows[0][1]) if rows else ["V"]
    columns = tuple(
        (m, tuple(cells[m] for _, cells in rows), None) for m in measurements
    )
    return SensorTable(sensor_name=sensor, key=key, columns=columns)


def fixture_dataset():
    rng = random.Random(7)
    dwe = table_of("DWE", [(t, {"V": f"{rng.random():.4f}", "I": str(t)})
                           for t in range(13300, 13501)])
    hpe = table_of("HPE", [(t, {"V": f"h{t}", "I": f"i{t}"})
                           for t in range(13300, 13501, 2)])
    return Dataset(name="AMPds", sensors={"DWE": dwe, "HPE": hpe})


class TestSelect:
    def test_range_count(self):
        ds = fixture_dataset()
        q = parse_pid("ark:/57460/AMPds.DWE.V@13332~13400")
        result = select(ds, q)
        assert result.header == ("timestamp", "V")
        assert len(result.rows) == 69

    def test_multi_measurement_wildcard(self):
        ds = fixture_dataset()
        q = parse_pid("ark:/57460/AMPds.DWE.V+I@*")
        result = select(ds, q)
        assert result.header == ("timestamp", "V", "I")
        assert len(result.rows) == 201

    def test_multi_sensor_headers_and_join(self):
        ds = fixture_dataset()
        q = parse_pid("ark:/57460/AMPds.HPE+DWE.V+I@*")
        result = select(ds, q)
        assert result.header == ("timestamp", "HPE.V", "HPE.I", "DWE.V", "DWE.I")
        # Odd timestamps exist only in DWE, so HPE cells there are absent.
        odd = next(r for r in result.rows if r[0] % 2 == 1)
        assert odd[1][0] is None and odd[1][2] is not None

    def test_exclude_everything(self):
        ds = fixture_dataset()
        q = parse_pid("ark:/57460/AMPds.DWE.V@_13300~13500")
        result = select(ds, q)
        assert result.rows == ()
        assert result.header == ("timestamp", "V")

    def test_unknown_sensor(self):
        with pytest.raises(UnknownSensor):
            select(fixture_dataset(), parse_pid("ark:/57460/AMPds.XXX.V@*"))

    def test_unknown_measurement(self):
        with pytest.raises(UnknownMeasurement):
            select(fixture_dataset(), parse_pid("ark:/57460/AMPds.DWE.W@*"))

    def test_determinism(self):
        ds = fixture_dataset()
        q = parse_pid("ark:/57460/AMPds.HPE+DWE.V+I@13332~13400")
        assert render_csv(select(ds, q)) == render_csv(select(ds, q))


def test_render_csv_newlines():
    ds = fixture_dataset()
    q = parse_pid("ark:/57460/AMPds.DWE.V@13300~13302")
    text = render_csv(select(ds, q))
    lines = text.split("\n")
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert lines[0] == "timestamp,V"
    assert len(lines) == 5  # header + 3 rows + empty tail from final \n


# --- randomized oracle equivalence ---

cells = st.text(alphabet="0123456789.ab", max_size=5)


@st.composite
def small_tables(draw):
    keys = sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=60)))
    return table_of(
        "S1", [(t, {"V": draw(cells), "I": draw(cells)}) for t in keys]
    )


@st.composite
def rand_selectors(draw):
    if draw(st.booleans()):
        return RangeSelector.all_rows()
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = sorted([draw(st.integers(0, 300)), draw(st.integers(0, 300))])
        terms.append(RangeTerm(a, b, draw(st.booleans())))
    return RangeSelector(terms=tuple(terms))


def brute_force_rows(table, sel):
    """Row-by-row reimplementation of selector semantics."""
    out = []
    for i, t in enumerate(table.key):
        if sel.wildcard:
            keep = True
        else:
            incl = [x for x in sel.terms if not x.exclude]
            keep = any(x.start <= t <= x.end for x in incl) if incl else True
            if any(x.start <= t <= x.end for x in sel.terms if x.exclude):
                keep = False
        if keep:
            out.append((t, tuple(cells[i] for _, cells, _ in table.columns)))
    return out


@given(small_tables(), rand_selectors())
@settings(max_examples=200)
def test_select_matches_brute_force(table, sel):
    ds = Dataset(name="D", sensors={"S1": table})
    q = PidQuery(naan=NAAN, dataset="D", sensors=("S1",),
                 measurements=("V", "I"), selector=sel)
    result = select(ds, q)
    assert [(t, c) for t, c in result.rows] == brute_force_rows(table, sel)
