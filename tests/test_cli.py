import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

import arkslice
from arkslice import errors
from arkslice.catalog import Catalog, DataSource
from arkslice.cli import main, strip_scheme_host
from arkslice.http_service import App, ServiceConfig, start_background

import oracle
from conftest import DATASET, NAAN, write_fixture


@pytest.fixture
def config_path(tmp_path):
    data_root = tmp_path / "data"
    write_fixture(data_root)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "host": "127.0.0.1",
        "port": 0,
        "naans": [NAAN],
        "state_dir": str(tmp_path / "state"),
        "base_url": "http://resolver.example",
        "sources": [{"id": "local", "root": str(data_root)}],
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ingest(capsys, config_path):
    return run(capsys, "--config", config_path,
               "ingest", "--source", "local", "--dataset", DATASET)


class TestStripSchemeHost:
    def test_bare_ark(self):
        assert strip_scheme_host("ark:/57460/D.S.M@*") == "ark:/57460/D.S.M@*"

    def test_full_url(self):
        full = "https://n2t.net/ark:/57460/D.S.M@*"
        assert strip_scheme_host(full) == "ark:/57460/D.S.M@*"


class TestCommands:
    def test_ingest_then_resolve(self, capsys, config_path, tmp_path):
        code, out, _ = ingest(capsys, config_path)
        assert code == 0
        assert DATASET in out

        pid = f"ark:/{NAAN}/{DATASET}.DWE.V@13332~13400"
        code, out, _ = run(capsys, "--config", config_path, "resolve", pid)
        assert code == 0
        assert out == oracle.resolve_csv(tmp_path / "data" / DATASET, pid)

    def test_resolve_full_url(self, capsys, config_path):
        ingest(capsys, config_path)
        url = f"https://n2t.net/ark:/{NAAN}/{DATASET}.DWE.V@*"
        code, out, _ = run(capsys, "--config", config_path, "resolve", url)
        assert code == 0
        assert out.splitlines()[0] == "timestamp,V"

    def test_resolve_missing_dataset_exit_1(self, capsys, config_path):
        code, _, err = run(capsys, "--config", config_path, "resolve",
                           f"ark:/{NAAN}/nope.DWE.V@*")
        assert code == 1
        assert "not registered" in err

    def test_resolve_bad_pid_exit_1(self, capsys, config_path):
        code, _, err = run(capsys, "--config", config_path, "resolve", "junk")
        assert code == 1
        assert err.startswith("error:")

    def test_usage_error_exit_1(self, capsys, config_path):
        code, _, _ = run(capsys, "--config", config_path, "frobnicate")
        assert code == 1

    def test_mint(self, capsys, config_path):
        ingest(capsys, config_path)
        code, out, _ = run(capsys, "--config", config_path, "mint",
                           "--target", f"ark:/{NAAN}/{DATASET}.DWE.V@*")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0000"
        assert lines[1] == f"http://resolver.example/ark:/{NAAN}/0000"

    def test_resolve_minted_noid_prints_location(self, capsys, config_path):
        ingest(capsys, config_path)
        target = f"ark:/{NAAN}/{DATASET}.DWE.V@*"
        run(capsys, "--config", config_path, "mint", "--target", target)
        code, out, _ = run(capsys, "--config", config_path, "resolve",
                           f"ark:/{NAAN}/0000")
        assert code == 0
        assert out == f"http://resolver.example/{target}\n"

    def test_mint_bad_target_exit_1(self, capsys, config_path):
        code, _, _ = run(capsys, "--config", config_path, "mint", "--target", "")
        assert code == 1

    def test_mint_under_an_unserved_naan_exit_1(self, capsys, config_path, tmp_path):
        ingest(capsys, config_path)
        code, out, err = run(capsys, "--config", config_path, "mint",
                             "--target", f"ark:/99999/{DATASET}.DWE.V@*")
        assert code == 1
        assert out == ""
        assert "99999" in err
        assert not (tmp_path / "state" / "mints.log").exists()

    def test_crossfold(self, capsys, config_path):
        ingest(capsys, config_path)
        code, out, _ = run(capsys, "--config", config_path, "crossfold",
                           "--dataset", DATASET, "--sensors", "DWE",
                           "--measurements", "V", "-k", "10")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20
        assert sum("train" in line for line in lines) == 10
        assert sum("test" in line for line in lines) == 10

    def test_crawl_and_search(self, capsys, config_path, tmp_path):
        ingest(capsys, config_path)
        write_fixture(tmp_path / "data", dataset="AMPds-extra")
        code, out, _ = run(capsys, "--config", config_path, "crawl")
        assert code == 0
        assert "added AMPds-extra" in out

        code, out, _ = run(capsys, "--config", config_path, "search", "extra")
        assert code == 0
        assert [d["dataset"] for d in json.loads(out)] == ["AMPds-extra"]

    def test_info(self, capsys, config_path):
        ingest(capsys, config_path)
        code, out, _ = run(capsys, "--config", config_path, "info",
                           f"ark:/{NAAN}/{DATASET}.DWE.V@*")
        assert code == 0
        doc = json.loads(out)
        assert doc["dataset"] == DATASET


def test_cli_http_equivalence(capsys, config_path, live_server, data_dir):
    """Same PID, same bytes, through either surface."""
    app, base = live_server
    ingest(capsys, config_path)
    for body in (
        f"{DATASET}.DWE.V@13332~13400",
        f"{DATASET}.HPE+DWE+WOE.V+I@*",
        f"{DATASET}.DWE.V@_24300~25500",
    ):
        pid = f"ark:/{NAAN}/{body}"
        code, out, _ = run(capsys, "--config", config_path, "resolve", pid)
        assert code == 0
        assert out.encode() == requests.get(f"{base}/{pid}").content


def test_cli_http_info_equivalence(capsys, config_path, live_server):
    """``info`` of a full URL prints the bytes ``GET ...?info`` sends."""
    _, base = live_server
    pid = f"ark:/{NAAN}/{DATASET}.DWE.V@*"
    code, out, _ = run(capsys, "--config", config_path, "info",
                       f"https://n2t.net/{pid}")
    assert code == 0
    assert out.encode() == requests.get(f"{base}/{pid}?info").content


# (HTTP status, CLI exit code) of every error class.
ERROR_TABLE = {
    errors.ArksliceError: (500, 1),
    errors.ConfigError: (500, 1),
    errors.MalformedPid: (400, 1),
    errors.InvalidRange: (400, 1),
    errors.DuplicateName: (400, 1),
    errors.BadNaan: (400, 1),
    errors.InvariantViolation: (500, 1),
    errors.IoError: (500, 1),
    errors.DuplicateTimestamp: (500, 1),
    errors.NonIntegerTimestamp: (500, 1),
    errors.RaggedRow: (500, 1),
    errors.EmptyFile: (500, 1),
    errors.UnknownSensor: (404, 1),
    errors.UnknownMeasurement: (404, 1),
    errors.EmptyColumn: (500, 1),
    errors.DuplicateDataset: (500, 1),
    errors.LoadError: (500, 1),
    errors.NotFound: (404, 1),
    errors.UnknownNaan: (404, 1),
    errors.InvalidTarget: (400, 1),
    errors.PersistenceError: (500, 2),
    errors.TooFewRows: (500, 1),
}


def test_error_table_names_every_error():
    found, todo = set(), [errors.ArksliceError]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo.extend(cls.__subclasses__())
    assert found == set(ERROR_TABLE)


@pytest.mark.parametrize("exc_class", ERROR_TABLE, ids=lambda c: c.__name__)
def test_error_table(exc_class, capsys, config_path, live_server, monkeypatch):
    """The same error gives the same answer through either surface."""
    status, exit_code = ERROR_TABLE[exc_class]

    def fail(self, query):
        raise exc_class("stubbed failure")

    monkeypatch.setattr(Catalog, "search", fail)
    _, base = live_server
    r = requests.get(f"{base}/catalog")
    assert (r.status_code, r.text) == (status, "stubbed failure\n")
    code, out, err = run(capsys, "--config", config_path, "search")
    kind = "internal error" if exit_code == 2 else "error"
    assert (code, out, err) == (exit_code, "", f"{kind}: stubbed failure\n")


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_resolve_writes_the_files_utf8_bytes_whatever_the_locale(
        capsys, tmp_path, encoding):
    data_dir = tmp_path / "data" / "D"
    data_dir.mkdir(parents=True)
    (data_dir / "X.csv").write_bytes("ts,V\n1,été\n2,b\n".encode("utf-8"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "naans": [NAAN], "state_dir": str(tmp_path / "state"),
        "sources": [{"id": "local", "root": str(tmp_path / "data")}],
    }))
    assert run(capsys, "--config", str(config), "ingest",
               "--source", "local", "--dataset", "D")[0] == 0
    pid = f"ark:/{NAAN}/D.X.V@*"
    src = Path(arkslice.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING=encoding)
    done = subprocess.run(
        [sys.executable, "-m", "arkslice.cli", "--config", str(config), "resolve", pid],
        capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == oracle.resolve_csv(data_dir, pid).encode("utf-8")


GOOD_SOURCE = {"id": "local", "root": "data"}


@pytest.mark.parametrize("change, key", [
    pytest.param({"naans": "57460"}, "naans", id="naans-a-string"),
    pytest.param({"naans": []}, "naans", id="naans-empty"),
    pytest.param({"naans": ["57x60"]}, "naans", id="naan-not-digits"),
    pytest.param({"naans": [57460]}, "naans", id="naan-a-number"),
    pytest.param({"sources": [{**GOOD_SOURCE, "kind": "remote-http"}]},
                 "kind", id="unknown-kind"),
    pytest.param({"sources": [{"root": "data"}]}, "'id'", id="source-without-id"),
    pytest.param({"sources": [{"id": "local"}]}, "'root'", id="source-without-root"),
    pytest.param({"sources": [GOOD_SOURCE, {**GOOD_SOURCE, "root": "other"}]},
                 "'local'", id="duplicate-source-id"),
    pytest.param({"nans": ["57460"]}, "'nans'", id="unknown-key"),
    pytest.param({"sources": [{**GOOD_SOURCE, "type": "local_directory"}]},
                 "'type'", id="unknown-source-key"),
])
def test_config_that_cannot_be_honoured_is_refused(capsys, tmp_path, change, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"naans": [NAAN], "state_dir": str(tmp_path / "state"), **change}))
    for command in (["search"], ["mint", "--target", "https://example.org/x"]):
        code, out, err = run(capsys, "--config", str(config), *command)
        assert (code, out) == (errors.ConfigError.exit_code, "")
        assert err.startswith("error: ") and key in err, err
    assert not (tmp_path / "state").exists()


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing"),
    pytest.param("not json", id="not-json"),
])
def test_config_that_cannot_be_read_is_refused(capsys, tmp_path, content):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    for command in (["search"], ["mint", "--target", "https://example.org/x"]):
        code, out, err = run(capsys, "--config", str(config), *command)
        assert (code, out) == (errors.ConfigError.exit_code, "")
        assert err.startswith("error: ") and str(config) in err, err


def test_base_url_with_trailing_slash_gives_one_url_prefix(capsys, tmp_path):
    """CLI mint, HTTP mint and a redirect to an ARK target all put the ARK
    right after the base URL, with one '/' between."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "port": 0, "naans": [NAAN], "state_dir": str(tmp_path / "state"),
        "base_url": "http://example.org/"}))
    target = f"ark:/{NAAN}/{DATASET}.DWE.V@*"
    code, out, _ = run(capsys, "--config", str(config), "mint", "--target", target)
    assert code == 0
    noid, cli_url = out.splitlines()
    server, _ = start_background(App(ServiceConfig.from_file(config)))
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        minted = requests.post(f"{base}/mint", json={"target": target}).json()
        redirect = requests.get(f"{base}/ark:/{NAAN}/{noid}", allow_redirects=False)
    finally:
        server.shutdown()
        server.server_close()
    assert cli_url == f"http://example.org/ark:/{NAAN}/{noid}"
    assert minted["url"] == f"http://example.org/{minted['ark']}"
    assert redirect.headers["Location"] == f"http://example.org/{target}"


def test_config_fields_left_out_keep_their_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sources": [GOOD_SOURCE]}))
    got = ServiceConfig.from_file(config)
    assert got == ServiceConfig(sources=[DataSource("local", "data")])
    assert (got.naans, got.base_url) == (["57460"], "http://127.0.0.1:8057")
