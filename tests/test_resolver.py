import sys
import threading

import pytest

from arkslice.errors import (
    InvalidTarget,
    MalformedPid,
    NotFound,
    PersistenceError,
    TooFewRows,
    UnknownNaan,
)
from arkslice.pid_grammar import parse_pid
from arkslice.resolver import (
    BETANUMERIC,
    Data,
    Info,
    Minter,
    Redirect,
    decode_noid,
    encode_noid,
)
from arkslice.timeseries_store import render_csv

from conftest import DATASET, NAAN


class TestNoidEncoding:
    def test_first_mint_is_0000(self):
        assert encode_noid(0) == "0000"

    def test_counter_sequence(self):
        assert encode_noid(1) == "0001"
        assert encode_noid(28) == "000z"
        assert encode_noid(29) == "0010"

    def test_round_trip(self):
        for n in (0, 1, 28, 29, 12345, 29**4, 29**5 + 7):
            assert decode_noid(encode_noid(n)) == n

    def test_alphabet_has_no_pid_separators(self):
        assert not set(BETANUMERIC) & set(".@/~+")


class TestMinter:
    def test_mint_and_uniqueness(self, tmp_path):
        minter = Minter(tmp_path / "mints.log")
        b1 = minter.mint(f"ark:/{NAAN}/{DATASET}.DWE.V@*")
        b2 = minter.mint(f"ark:/{NAAN}/{DATASET}.DWE.V@*")
        assert b1.noid == "0000"
        assert b2.noid == "0001"
        assert b1.target == b2.target

    def test_invalid_targets(self, tmp_path):
        minter = Minter(tmp_path / "mints.log")
        with pytest.raises(InvalidTarget):
            minter.mint("")
        with pytest.raises(InvalidTarget):
            minter.mint("not a url")
        with pytest.raises(MalformedPid):
            minter.mint("ark:/57460/garbage")

    def test_external_url_target(self, tmp_path):
        minter = Minter(tmp_path / "mints.log")
        b = minter.mint("https://example.org/moved/here")
        assert minter.binding(b.noid).target == "https://example.org/moved/here"

    def test_replay_restores_counter(self, tmp_path):
        log = tmp_path / "mints.log"
        first = Minter(log)
        noids = [first.mint("https://example.org/a").noid for _ in range(5)]
        second = Minter(log)
        more = [second.mint("https://example.org/b").noid for _ in range(5)]
        assert len(set(noids + more)) == 10
        assert second.binding(noids[0]).target == "https://example.org/a"

    def test_rebind_latest_wins(self, tmp_path):
        log = tmp_path / "mints.log"
        minter = Minter(log)
        b = minter.mint("https://example.org/old")
        minter.rebind(b.noid, "https://example.org/new")
        assert minter.binding(b.noid).target == "https://example.org/new"
        # Rebind survives a restart and does not disturb the counter.
        again = Minter(log)
        assert again.binding(b.noid).target == "https://example.org/new"
        assert again.mint("https://example.org/x").noid == "0001"

    def test_rebind_unknown(self, tmp_path):
        with pytest.raises(NotFound):
            Minter(tmp_path / "mints.log").rebind("0000", "https://example.org/")

    def test_threaded_mints_never_reuse(self, tmp_path):
        log = tmp_path / "mints.log"
        minter = Minter(log)
        start = threading.Barrier(4)
        noids = []

        def mint_many():
            start.wait()
            noids.extend(minter.mint("https://example.org/x").noid
                         for _ in range(300))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=mint_many) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(set(noids)) == len(noids) == 1200
        assert len(Minter(log).bindings) == 1200

    @pytest.mark.parametrize("torn", [
        b'{"created_at": "2026-01-01T00:00:00+00:00", "no',  # cut mid-record
        b'{"noid": "00\n',  # undecodable, newline-terminated
    ])
    def test_torn_last_line_is_dropped(self, tmp_path, torn):
        log = tmp_path / "mints.log"
        first = Minter(log)
        noids = [first.mint("https://example.org/a").noid for _ in range(3)]
        whole = log.read_bytes()
        log.write_bytes(whole + torn)
        second = Minter(log)
        assert sorted(second.bindings) == noids
        assert log.read_bytes() == whole
        fresh = second.mint("https://example.org/b")
        assert fresh.noid not in noids
        third = Minter(log)
        assert third.binding(fresh.noid).target == "https://example.org/b"
        assert len(third.bindings) == 4

    def test_unterminated_last_record_is_kept(self, tmp_path):
        log = tmp_path / "mints.log"
        first = Minter(log)
        b = first.mint("https://example.org/a")
        log.write_bytes(log.read_bytes().rstrip(b"\n"))
        second = Minter(log)
        assert second.binding(b.noid).target == "https://example.org/a"
        fresh = second.mint("https://example.org/b")
        assert Minter(log).binding(fresh.noid).target == "https://example.org/b"

    def test_corrupt_line_before_the_last_raises(self, tmp_path):
        log = tmp_path / "mints.log"
        minter = Minter(log)
        minter.mint("https://example.org/a")
        minter.mint("https://example.org/b")
        first, second = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(first[:10] + b"\n" + second)
        with pytest.raises(PersistenceError):
            Minter(log)


class TestResolve:
    def test_semantic_pid_data(self, app):
        result = app.resolver.resolve(NAAN, f"{DATASET}.DWE.V@13332~13400")
        assert isinstance(result, Data)
        assert len(result.slice.rows) == 69
        assert result.slice.header == ("timestamp", "V")

    def test_unknown_naan(self, app):
        with pytest.raises(UnknownNaan):
            app.resolver.resolve("99999", f"{DATASET}.DWE.V@*")

    def test_unknown_dataset(self, app):
        with pytest.raises(NotFound):
            app.resolver.resolve(NAAN, "nope.DWE.V@*")

    def test_minted_redirect(self, app):
        target = f"ark:/{NAAN}/{DATASET}.DWE.V@*"
        binding = app.minter.mint(target)
        result = app.resolver.resolve(NAAN, binding.noid)
        assert isinstance(result, Redirect)
        assert result.status == 302
        assert result.location == f"{app.resolver.base_url}/{target}"

    def test_suffix_passthrough(self, app):
        binding = app.minter.mint("https://example.org/data")
        result = app.resolver.resolve(NAAN, f"{binding.noid}/extra/bits")
        assert result.location == "https://example.org/data/extra/bits"

    def test_unknown_noid(self, app):
        with pytest.raises(NotFound):
            app.resolver.resolve(NAAN, "zzzz")

    def test_redirect_transparency(self, app):
        target = f"ark:/{NAAN}/{DATASET}.DWE.V+I@13332~13400"
        binding = app.minter.mint(target)
        redirect = app.resolver.resolve(NAAN, binding.noid)
        assert redirect.location.endswith(target)
        followed = app.resolver.resolve_pid(parse_pid(target))
        direct = app.resolver.resolve(NAAN, f"{DATASET}.DWE.V+I@13332~13400")
        assert render_csv(followed.slice) == render_csv(direct.slice)

    def test_info(self, app):
        result = app.resolver.resolve(NAAN, f"{DATASET}.DWE.V@*", info=True)
        assert isinstance(result, Info)
        doc = result.document
        assert doc["dataset"] == DATASET
        assert doc["pid"] == f"ark:/{NAAN}/{DATASET}.DWE.V@*"
        (sensor,) = doc["sensors"]
        names = [c["name"] for c in sensor["columns"]]
        assert names == ["timestamp", "V"]
        v = sensor["columns"][1]
        assert (v["basic"], v["derived"]) == ("number", "real")
        assert v["properties"]["outlier_count"] >= 0


class TestCrossfold:
    def test_two_folds_on_1_to_10(self, app, tmp_path):
        ds_dir = tmp_path / "data" / "Tiny-ds"
        ds_dir.mkdir(parents=True)
        lines = ["ts,V"] + [f"{t},{t}.5" for t in range(1, 11)]
        (ds_dir / "S.csv").write_text("\n".join(lines) + "\n")
        app.catalog.register_dataset(app.source("local"), "Tiny-ds")
        pairs = app.resolver.crossfold_pids("Tiny-ds", ["S"], ["V"], 2)
        assert pairs == [
            (f"ark:/{NAAN}/Tiny-ds.S.V@_1~5", f"ark:/{NAAN}/Tiny-ds.S.V@1~5"),
            (f"ark:/{NAAN}/Tiny-ds.S.V@_6~10", f"ark:/{NAAN}/Tiny-ds.S.V@6~10"),
        ]

    def test_remainder_to_earliest(self, app, tmp_path):
        ds_dir = tmp_path / "data" / "Tiny2-ds"
        ds_dir.mkdir(parents=True)
        lines = ["ts,V"] + [f"{t},{t}.5" for t in range(1, 11)]
        (ds_dir / "S.csv").write_text("\n".join(lines) + "\n")
        app.catalog.register_dataset(app.source("local"), "Tiny2-ds")
        pairs = app.resolver.crossfold_pids("Tiny2-ds", ["S"], ["V"], 3)
        tests = [p[1] for p in pairs]
        assert tests == [
            f"ark:/{NAAN}/Tiny2-ds.S.V@1~4",
            f"ark:/{NAAN}/Tiny2-ds.S.V@5~7",
            f"ark:/{NAAN}/Tiny2-ds.S.V@8~10",
        ]

    def test_ten_folds(self, app):
        pairs = app.resolver.crossfold_pids(DATASET, ["DWE"], ["V"], 10)
        assert len(pairs) == 10

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_partition_through_resolve(self, app, k):
        pairs = app.resolver.crossfold_pids(DATASET, ["HPE", "DWE"], ["V"], k)
        wildcard = app.resolver.resolve(NAAN, f"{DATASET}.HPE+DWE.V@*")
        all_ts = [t for t, _ in wildcard.slice.rows]

        seen_test: list[int] = []
        sizes = []
        for train_pid, test_pid in pairs:
            train = app.resolver.resolve_pid(parse_pid(train_pid))
            test = app.resolver.resolve_pid(parse_pid(test_pid))
            train_ts = {t for t, _ in train.slice.rows}
            test_ts = {t for t, _ in test.slice.rows}
            assert not train_ts & test_ts
            assert sorted(train_ts | test_ts) == all_ts
            assert not set(seen_test) & test_ts
            seen_test.extend(test_ts)
            sizes.append(len(test_ts))
        assert sorted(seen_test) == all_ts
        assert max(sizes) - min(sizes) <= 1

    def test_too_few_rows(self, app, tmp_path):
        ds_dir = tmp_path / "data" / "Two-ds"
        ds_dir.mkdir(parents=True)
        (ds_dir / "S.csv").write_text("ts,V\n1,a\n2,b\n")
        app.catalog.register_dataset(app.source("local"), "Two-ds")
        with pytest.raises(TooFewRows):
            app.resolver.crossfold_pids("Two-ds", ["S"], ["V"], 3)

    def test_unknown_dataset(self, app):
        with pytest.raises(NotFound):
            app.resolver.crossfold_pids("nope", ["S"], ["V"], 2)
