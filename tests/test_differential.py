"""Differential byte gate: every way of resolving a PID gives the oracle's bytes.

Seeded generators write sensor files with the awkward shapes real exports
have (CRLF line ends, unsorted rows, no final newline, empty cells,
negative and epoch keys, key text that ``int()`` accepts but that is not
canonical, non-ASCII cells, sensors whose keys only partly overlap and
whose columns come in different orders) and draw PIDs over the whole
grammar (wildcards, include and exclude terms that touch or overlap,
several sensors, measurement subsets, NOID redirects), with slices on both
sides of ``RUN_ROWS``. Every path must equal ``oracle.resolve_csv`` byte
for byte: ``select`` plus ``render_csv`` in process, the CLI's stdout,
HTTP/1.1 over one keep-alive connection and HTTP/1.0. A PID that fails
gives the same error class, HTTP status and exit code on every path.

Lines end at ``\\n`` or ``\\r\\n`` only, in the oracle as in arkslice.
Generated cells also hold the other characters ``str.splitlines()``
breaks on: ``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``, U+2028,
U+2029, and a ``\\r`` inside a cell (never at its end, where a CRLF file
could not tell it from the line end). Each must come out inside its cell.
"""

import http.client
import json
import random
import socket

import pytest

from arkslice import errors
from arkslice.cli import main
from arkslice.http_service import App, ServiceConfig, start_background
from arkslice.pid_grammar import parse_pid
from arkslice.resolver import Redirect
from arkslice.timeseries_store import RUN_ROWS, render_csv, select

import oracle

NAAN = "57460"
SENSORS = ("HPE", "DWE", "WOE")
MEASUREMENTS = ("V", "I", "P", "Q")
# Each sensor lists its columns in its own order; WOE has one never asked for.
COLUMNS = {
    "HPE": ("V", "I", "P", "Q"),
    "DWE": ("Q", "V", "I", "P"),
    "WOE": ("I", "X", "V", "Q", "P"),
}
# How each sensor's file is written: (line end, rows shuffled, final newline).
SHAPES = {
    "HPE": ("\n", False, True),
    "DWE": ("\r\n", True, True),
    "WOE": ("\n", True, False),
}
NON_ASCII = ("été", "温度", "Ω", "😀", "naïve café", "ß")
# Characters str.splitlines() breaks on that are not a line end in a file.
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                 "\u2028", "\u2029", "\r")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
# name -> (first key, step); "neg" crosses zero, "epoch" is minute data.
DATASETS = {"neg": (-RUN_ROWS, 1), "epoch": (1333238400, 60)}
UNIVERSE_ROWS = 3 * RUN_ROWS + 40


def key_text(rng, key):
    """``key`` as text that ``int()`` reads back, not always canonical."""
    if rng.random() > 0.06:
        return str(key)
    digits = str(abs(key))
    form = rng.choice(("zeros", "plus", "space", "underscore", "fullwidth"))
    if form == "zeros":
        digits = "00" + digits
    elif form == "underscore" and len(digits) > 1:
        digits = digits[0] + "_" + digits[1:]
    elif form == "fullwidth":
        digits = digits.translate(FULLWIDTH)
    sign = "-" if key < 0 else ("+" if form == "plus" else "")
    text = sign + digits
    return f" {text} " if form == "space" else text


def cell(rng):
    r = rng.random()
    if r < 0.1:
        return ""
    if r < 0.2:
        return rng.choice(NON_ASCII)
    if r < 0.3:  # text on both sides, so a "\r" never ends the cell
        return f"a{rng.choice(NOT_LINE_ENDS)}{rng.choice(NON_ASCII)}"
    return f"{rng.uniform(-500.0, 500.0):.{rng.randint(0, 4)}f}"


def write_dataset(root, name, seed):
    first, step = DATASETS[name]
    rng = random.Random(f"{seed}/{name}")
    universe = [first + step * i for i in range(UNIVERSE_ROWS)]
    out = root / name
    out.mkdir(parents=True)
    for sensor in SENSORS:
        columns = COLUMNS[sensor]
        eol, shuffled, final = SHAPES[sensor]
        # Partly shared keys: each sensor drops its own fifth of them.
        keys = [k for k in universe if rng.random() < 0.8]
        lines = [",".join(("timestamp",) + columns)]
        rows = [",".join([key_text(rng, k)] + [cell(rng) for _ in columns])
                for k in keys]
        if shuffled:
            rng.shuffle(rows)
        lines += rows
        text = eol.join(lines) + (eol if final else "")
        (out / f"{sensor}.csv").write_bytes(text.encode("utf-8"))
    return universe


def random_selector(rng, universe, step):
    """A selector over ``universe``: the wildcard, or 1-4 terms that may
    touch, overlap or leave a gap, each spanning 0 to over ``RUN_ROWS``
    keys. Bounds are non-negative, as the grammar requires."""
    if rng.random() < 0.08:
        return "*"
    lo = max(0, universe[0])
    hi = universe[-1]
    terms = []
    prev = None
    for _ in range(rng.randint(1, 4)):
        start = rng.randint(lo, hi)
        if prev is not None and rng.random() < 0.6:
            start = rng.choice((prev[1] + 1, prev[1], (prev[0] + prev[1]) // 2,
                                prev[1] + step))
        rows = rng.choice((0, 1, 5, RUN_ROWS - 1, RUN_ROWS, RUN_ROWS + 1,
                           2 * RUN_ROWS, rng.randint(0, 3 * RUN_ROWS)))
        end = start + rows * step + rng.choice((0, 0, step - 1))
        prev = (start, end)
        body = str(start) if start == end and rng.random() < 0.5 else f"{start}~{end}"
        terms.append(("_" if rng.random() < 0.35 else "") + body)
    return "+".join(terms)


def random_pids(seed, universes, count):
    rng = random.Random(f"{seed}/pids")
    pids = []
    for _ in range(count):
        name = rng.choice(sorted(universes))
        sensors = rng.sample(SENSORS, rng.randint(1, 3))
        measurements = rng.sample(MEASUREMENTS, rng.randint(1, 4))
        selector = random_selector(rng, universes[name], DATASETS[name][1])
        pids.append(f"ark:/{NAAN}/{name}.{'+'.join(sensors)}."
                    f"{'+'.join(measurements)}@{selector}")
    return pids


def fixed_pids(universes):
    """Slices of exactly RUN_ROWS - 1, RUN_ROWS and RUN_ROWS + 1 keys, full
    width and in file order, plus wildcards over every sensor."""
    pids = []
    for name, universe in sorted(universes.items()):
        step = DATASETS[name][1]
        start = max(0, universe[0])
        for rows in (RUN_ROWS - 1, RUN_ROWS, RUN_ROWS + 1):
            end = start + (rows - 1) * step
            pids.append(f"ark:/{NAAN}/{name}.HPE.V+I+P+Q@{start}~{end}")
            pids.append(f"ark:/{NAAN}/{name}.DWE.Q+V+I+P@_{start}~{end}")
        pids.append(f"ark:/{NAAN}/{name}.{'+'.join(SENSORS)}.V+I+P+Q@*")
        for sensor in SENSORS:
            pids.append(f"ark:/{NAAN}/{name}.{sensor}."
                        f"{'+'.join(COLUMNS[sensor][::-1]).replace('X+', '')}@*")
    return pids


SEED = 20220921


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The generated datasets, registered, with their PIDs and oracle bytes."""
    tmp = tmp_path_factory.mktemp("differential")
    root = tmp / "data"
    universes = {name: write_dataset(root, name, SEED) for name in DATASETS}
    config = {
        "host": "127.0.0.1", "port": 0, "naans": [NAAN],
        "state_dir": str(tmp / "state"), "base_url": "http://resolver.example",
        "sources": [{"id": "local", "root": str(root)}],
    }
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(config))
    app = App(ServiceConfig.from_file(config_path))
    for name in universes:
        app.catalog.register_dataset(app.source("local"), name)
    pids = fixed_pids(universes) + random_pids(SEED, universes, 160)
    want = {pid: oracle.resolve_csv(root / oracle.split_pid(pid)["dataset"], pid)
            .encode("utf-8") for pid in pids}
    return app, config_path, pids, want


def test_generated_slices_cross_run_rows(world):
    """The gate means something only if slices fall on both sides of
    RUN_ROWS and include joins with absent cells."""
    _, _, pids, want = world
    rows = [body.count(b"\n") - 1 for body in want.values()]
    assert any(0 < n <= RUN_ROWS for n in rows)
    assert any(n > RUN_ROWS for n in rows)
    assert any(n == 0 for n in rows)
    assert any(b",," in body or b",\n" in body for body in want.values())
    assert any("é".encode() in body for body in want.values())
    for ch in NOT_LINE_ENDS:
        assert any(f"a{ch}".encode() in body for body in want.values()), ch


def test_in_process_bytes_match_oracle(world):
    app, _, pids, want = world
    for pid in pids:
        q = parse_pid(pid)
        got = render_csv(select(app.catalog.dataset(q.dataset), q))
        assert got == want[pid], pid


def test_noid_redirect_bytes_match_oracle(world):
    app, _, pids, want = world
    for pid in pids[::20]:
        noid = app.minter.mint(pid).noid
        result = app.resolver.resolve(NAAN, noid)
        assert isinstance(result, Redirect)
        target = result.location.split("/ark:/", 1)[1]
        naan, body = target.split("/", 1)
        got = render_csv(app.resolver.resolve(naan, body).slice)
        assert got == want[pid], pid


def test_cli_stdout_bytes_match_oracle(world, capsysbinary):
    _, config_path, pids, want = world
    for pid in pids[::8]:
        assert main(["--config", str(config_path), "resolve", pid]) == 0
        assert capsysbinary.readouterr().out == want[pid], pid


# PIDs that fail, and the error each path must report.
FAILING = [
    (f"ark:/{NAAN}/neg.XXX.V@*", errors.UnknownSensor),
    (f"ark:/{NAAN}/neg.HPE+WOE.X@*", errors.UnknownMeasurement),
    (f"ark:/{NAAN}/nope.HPE.V@*", errors.NotFound),
    (f"ark:/{NAAN}/neg.HPE.V@5~2", errors.InvalidRange),
    (f"ark:/{NAAN}/neg.HPE.V+V@*", errors.DuplicateName),
    (f"ark:/{NAAN}/neg.HPE.V", errors.MalformedPid),
    # A token ending in a newline is not the token (HTTP sends %0A).
    (f"ark:/{NAAN}/neg.HPE.V@5\n", errors.InvalidRange),
    (f"ark:/{NAAN}/neg.HPE\n.V@*", errors.MalformedPid),
]


def http10(port, path):
    """Status and body of one HTTP/1.0 GET; the server closes after it."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 ")
    return int(head.split()[1]), body


def test_failing_pids_fail_alike_on_every_path(world, capsys):
    app, config_path, _, _ = world
    server, _ = start_background(app)
    port = server.server_address[1]
    try:
        for pid, error in FAILING:
            with pytest.raises(error):
                q = parse_pid(pid)
                select(app.catalog.dataset(q.dataset), q)
            path = "/" + pid.replace("\n", "%0A")
            assert http10(port, path)[0] == error.http_status, pid
            assert main(["--config", str(config_path), "resolve", pid]) == error.exit_code
            assert capsys.readouterr().out == ""
    finally:
        server.shutdown()
        server.server_close()


def test_http_keep_alive_bytes_match_oracle(world):
    app, _, pids, want = world
    server, _ = start_background(app)
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1],
                                      timeout=10)
    try:
        for pid in pids:
            conn.request("GET", "/" + pid)
            resp = conn.getresponse()
            assert (resp.status, resp.read()) == (200, want[pid]), pid
            assert not resp.will_close
        # A NOID on the same connection redirects to the PID it names.
        pid = pids[-1]
        conn.request("POST", "/mint", json.dumps({"target": pid}),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        noid = json.loads(resp.read())["noid"]
        conn.request("GET", f"/ark:/{NAAN}/{noid}")
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 302
        location = resp.getheader("Location")
        conn.request("GET", location[location.index("/ark:/"):])
        resp = conn.getresponse()
        assert (resp.status, resp.read()) == (200, want[pid])
        # HTTP/1.0, one connection per request.
        for pid in pids[::10]:
            assert http10(server.server_address[1], "/" + pid) == (200, want[pid])
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
