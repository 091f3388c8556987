import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arkslice.errors import (
    DuplicateTimestamp,
    EmptyFile,
    IoError,
    LoadError,
    NonIntegerTimestamp,
    RaggedRow,
    UnknownMeasurement,
    UnknownSensor,
)
from arkslice.pid_grammar import (
    PidQuery,
    RangeSelector,
    RangeTerm,
    effective_key_set,
    parse_pid,
)
from arkslice.timeseries_store import (
    RUN_ROWS,
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

    @pytest.mark.parametrize("ts", [2**63, -(2**63) - 1, 10**30])
    def test_timestamp_beyond_int64(self, tmp_path, ts):
        path = write_csv(tmp_path, f"ts,V\n1,x\n{ts},y\n")
        with pytest.raises(NonIntegerTimestamp):
            load_sensor_csv(path, "DWE")

    def test_int64_extremes_load(self, tmp_path):
        lo, hi = -(2**63), 2**63 - 1
        path = write_csv(tmp_path, f"ts,V\n{hi},y\n{lo},x\n")
        table = load_sensor_csv(path, "DWE")
        assert table.key == (lo, hi)
        q = parse_pid(f"ark:/57460/D.DWE.V@{hi}")
        assert select(Dataset("D", {"DWE": table}), q).rows == ((hi, ("y",)),)

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
    lines = text.split(b"\n")
    assert text.endswith(b"\n") and not text.endswith(b"\n\n")
    assert lines[0] == b"timestamp,V"
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


def test_select_copies_long_runs():
    """Exclusions that leave a few long runs of rows, gathered by slices."""
    n = 4 * RUN_ROWS
    table = table_of("S1", [(t, {"V": f"v{t}", "I": str(t)}) for t in range(n)])
    sel = RangeSelector.of(RangeTerm(RUN_ROWS, RUN_ROWS + 9, exclude=True),
                           RangeTerm(2 * RUN_ROWS, 2 * RUN_ROWS, exclude=True))
    ds = Dataset(name="D", sensors={"S1": table})
    q = PidQuery(naan=NAAN, dataset="D", sensors=("S1",),
                 measurements=("V", "I"), selector=sel)
    assert list(select(ds, q).rows) == brute_force_rows(table, sel)


# --- multi-sensor joins against a brute-force CSV ---

MEASUREMENTS = ("V", "I")


@st.composite
def join_cases(draw):
    """2-3 tables with partly overlapping keys, a measurement subset, and a
    selector whose terms may touch, overlap or leave a one-key gap.

    Keys and bounds are drawn over blocks of ``width`` consecutive
    timestamps: 31 blocks of width 1 put every edge case on single keys,
    6 of width ``RUN_ROWS`` give runs long enough for selects to copy
    slices.
    """
    width, blocks_per_table = draw(st.sampled_from([(1, 31), (RUN_ROWS, 6)]))
    names = draw(st.permutations(["S1", "S2", "S3"]))[:draw(st.integers(2, 3))]
    tables = {}
    for name in names:
        # About three blocks in four, so terms' edges and gaps usually
        # fall on keys.
        mask = draw(st.lists(st.integers(0, 3), min_size=blocks_per_table,
                             max_size=blocks_per_table))
        keys = [b * width + i for b, m in enumerate(mask) if m for i in range(width)]
        tables[name] = SensorTable(
            sensor_name=name,
            key=tuple(keys),
            columns=tuple(
                (m, tuple(f"{name}{m}{t}" for t in keys), None)
                for m in MEASUREMENTS
            ),
        )
    measurements = draw(
        st.lists(st.sampled_from(MEASUREMENTS), min_size=1, max_size=2, unique=True)
    )
    if draw(st.booleans()):
        sel = RangeSelector.all_rows()
    else:
        blocks = []  # (start, end) of each term, in blocks
        terms = []
        for _ in range(draw(st.sampled_from([1, 2, 3, 4]))):
            start = draw(st.integers(0, blocks_per_table + 1))
            if blocks:
                prev_start, prev_end = blocks[-1]
                start = draw(st.sampled_from([
                    start, prev_end + 1, prev_end + 2,
                    (prev_start + prev_end) // 2,
                ]))
            end = start + draw(st.integers(0, blocks_per_table // 3))
            blocks.append((start, end))
            terms.append(RangeTerm(start * width, end * width + width - 1,
                                   draw(st.booleans())))
        sel = RangeSelector(terms=tuple(terms))
    return tables, tuple(names), tuple(measurements), sel


def keeps(sel, t):
    if sel.wildcard:
        return True
    incl = [x for x in sel.terms if not x.exclude]
    if incl and not any(x.start <= t <= x.end for x in incl):
        return False
    return not any(x.start <= t <= x.end for x in sel.terms if x.exclude)


def brute_force_csv(tables, sensors, measurements, sel):
    """Row-by-row join: every kept timestamp of any sensor, one cell per
    sensor and measurement, empty where that sensor has no row."""
    rows = {
        s: {
            t: {name: cells[i] for name, cells, _ in tables[s].columns}
            for i, t in enumerate(tables[s].key)
        }
        for s in sensors
    }
    stamps = sorted({t for s in sensors for t in rows[s] if keeps(sel, t)})
    single = len(sensors) == 1
    lines = [["timestamp"] + [m if single else f"{s}.{m}"
                              for s in sensors for m in measurements]]
    for t in stamps:
        lines.append([str(t)] + [rows[s][t][m] if t in rows[s] else ""
                                 for s in sensors for m in measurements])
    return "".join(",".join(line) + "\n" for line in lines)


@given(join_cases())
@settings(max_examples=300)
def test_join_matches_brute_force(case):
    tables, sensors, measurements, sel = case
    q = PidQuery(naan=NAAN, dataset="D", sensors=sensors,
                 measurements=measurements, selector=sel)
    got = render_csv(select(Dataset(name="D", sensors=tables), q))
    want = brute_force_csv(tables, sensors, measurements, sel).encode("utf-8")
    # Compared as lists of lines: pytest explains a list mismatch by its
    # first differing line, where a diff of two long strings takes minutes.
    assert got.splitlines(True) == want.splitlines(True)
    for table in tables.values():
        domain = list(table.key)
        as_array = effective_key_set(sel, np.array(domain, dtype=np.int64))
        assert as_array.tolist() == effective_key_set(sel, domain)


def test_point_select_memory_follows_rows_returned():
    """A 1-row select out of 1M rows allocates for the row, not the table."""
    n = 1_000_000
    table = SensorTable(sensor_name="S1", key=tuple(range(n)),
                        columns=(("V", ("1.5",) * n, None),))
    ds = Dataset(name="D", sensors={"S1": table})
    q = parse_pid("ark:/57460/D.S1.V@500000")
    select(ds, q)  # warm-up
    tracemalloc.start()
    try:
        result = select(ds, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.rows == ((500000, ("1.5",)),)
    assert peak < 1_000_000


# --- byte-backed tables ---

def test_loaded_table_stays_within_twice_its_csv_bytes(tmp_path):
    """A table is its file's bytes, an int32 offset per field and an int64
    key per row: with rows shaped like the benchmark's (epoch key and four
    measurements), at most twice the file."""
    rng = random.Random(1)
    lines = ["timestamp,V,I,P,Q"]
    for i in range(100_000):
        q = "" if i % 50 == 49 else f"{rng.uniform(-900, 900):.3e}"
        lines.append(f"{1333238400 + 60 * i},{rng.uniform(110, 125):.3f},"
                     f"{rng.uniform(0, 40):.2f},{rng.randrange(5000)},{q}")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        table = load_sensor_csv(path, "DWE")
        resident, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.row_count == 100_000
    assert resident <= 2 * path.stat().st_size


class TestByteLoad:
    def test_non_canonical_keys_render_canonically(self, tmp_path):
        # int() reads all of these; the output names each key as str(int()).
        path = write_csv(tmp_path, "ts,V\n+5,a\n007,b\n 9 ,c\n1_0,d\n-0,e\n١١,f\n")
        table = load_sensor_csv(path, "DWE")
        assert table.key == (0, 5, 7, 9, 10, 11)
        q = parse_pid("ark:/57460/D.DWE.V@*")
        assert render_csv(select(Dataset("D", {"DWE": table}), q)) == (
            b"timestamp,V\n0,e\n5,a\n7,b\n9,c\n10,d\n11,f\n")

    def test_not_utf8_names_file_and_offset(self, tmp_path):
        path = tmp_path / "DWE.csv"
        path.write_bytes(b"ts,V\n1,a\n2,\xff\n")
        with pytest.raises(LoadError, match=r"DWE\.csv: not UTF-8 at byte 11"):
            load_sensor_csv(path, "DWE")

    def test_ragged_row_names_first_bad_line(self, tmp_path):
        path = write_csv(tmp_path, "ts,V\n1,a\n2\n3,c,d\n")
        with pytest.raises(RaggedRow, match=r":3: 1 fields, expected 2"):
            load_sensor_csv(path, "DWE")

    def test_lone_cr_stays_in_the_cell(self, tmp_path):
        path = write_csv(tmp_path, "ts,V\r\n2,a\rb\r\n1,c\r\n")
        table = load_sensor_csv(path, "DWE")
        assert table.column("V") == ("c", "a\rb")
