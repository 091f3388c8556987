"""arkslice benchmark: one command, three workloads, every output checked.

Run from the repository root::

    python3 bench/run.py --workload narrow-mix --seed 1 --seconds 10 --trace 0

It generates the seeded ``AMPds-bench`` dataset in a fresh directory under
``.bench_work/``, drives the real program (the CLI as fresh processes and
the server started the way ``arkslice serve`` starts it), checks every
output against ``reference.py`` and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
program's processes run with every layer wrapped (``tracer.py``) and the
metrics are the per-layer ones (``layers.py``). See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import client
import datagen
from datagen import DATASET, NAAN, SENSORS
from layers import layer_metrics
from reference import Reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("narrow-mix", "crossfold-bulk", "ingest-crawl")
SETUP_REPEATS = 3
ROUNDS = 4
MINT_POOL = 20
PROCESS_TIMEOUT = 150.0
FOLD_SENSORS = ("HPE", "DWE", "WOE")
FOLD_MEASUREMENTS = ("V", "I")
FOLDS = 10
WILDCARD = f"ark:/{NAAN}/{DATASET}.DWE.V+I+P+Q@*"
MB = 1e6


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def pctl(values, p: float) -> float:
    """Percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def request_rate(window: client.Window) -> float:
    return len(window.exchanges) / window.elapsed


def command_rate(times: dict[str, list[float]]) -> float:
    """CLI commands per second of command time."""
    commands = [t for ts in times.values() for t in ts]
    return len(commands) / sum(commands)


class Server:
    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.setup_s = 0.0  # launch to the first correct resolve

    def vm_hwm_kb(self) -> int:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        line = next(ln for ln in status.splitlines() if ln.startswith("VmHWM:"))
        return int(line.split()[1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Bench:
    """One run: a work directory, the generated inputs and the checks."""

    def __init__(self, args):
        self.args = args
        self.rows = args.rows
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
        self.data_root = self.work / "data"
        self.state = self.work / "state"
        self.trace_dir = self.work / "trace"
        self.trace_dir.mkdir()
        self.port = free_port()
        self.base_url = f"http://127.0.0.1:{self.port}"
        # The server's state, and a second state that operator steps
        # ingest into and crawl while the server keeps running.
        self.config = self.write_config("config.json", self.state)
        self.scratch = self.work / "scratch-state"
        self.scratch_config = self.write_config("scratch.json", self.scratch)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.servers: list[Server] = []
        self.running: subprocess.Popen | None = None  # the CLI command in flight
        self.rng = random.Random(f"{args.seed}/operator")
        self.tables = {}
        self.ref: Reference | None = None
        self.checker: client.Checker | None = None
        self.cli_rss_kb = 0

    def write_config(self, name: str, state: Path) -> Path:
        path = self.work / name
        path.write_text(json.dumps({
            "host": "127.0.0.1",
            "port": self.port,
            "naans": [NAAN],
            "state_dir": str(state),
            "sources": [{"id": "local", "root": str(self.data_root),
                         "kind": "local_directory"}],
        }))
        return path

    # --- inputs ---

    def prepare(self) -> float:
        """Fresh inputs and empty state; returns the seconds it took."""
        start = time.perf_counter()
        shutil.rmtree(self.data_root, ignore_errors=True)
        shutil.rmtree(self.state, ignore_errors=True)
        self.tables = datagen.generate(self.args.seed, self.rows, self.data_root)
        elapsed = time.perf_counter() - start
        self.ref = Reference(self.tables)
        self.checker = client.Checker(self.ref, self.base_url)
        self.dwe = self.data_root / DATASET / "DWE.csv"
        self.dwe_bytes = self.dwe.read_bytes()
        self.files = {p.name: p.read_bytes() for p in (self.data_root / DATASET).glob("*.csv")}
        self.csv_bytes = sum(len(b) for b in self.files.values())
        t = client.point_ts(self.rng, self.rows)
        self.narrow_pid = f"ark:/{NAAN}/{DATASET}.DWE.V+I@{t}~{t + client.HOUR}"
        self.ready_pid = f"{DATASET}.DWE.V@{datagen.T0}"
        return elapsed

    # --- processes ---

    def cli(self, name: str, args: list[str], traced: bool,
            config: Path | None = None) -> tuple[float, str]:
        """Run one CLI command as a fresh process; returns (seconds, stdout)."""
        cmd = ["--config", str(config or self.config), *args]
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"),
                    str(self.trace_dir / f"{name}.jsonl"), "--", *cmd]
        else:
            argv = [sys.executable, "-m", "arkslice.cli", *cmd]
        out_path, err_path = self.work / "cli.out", self.work / "cli.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            self.running = proc
            deadline = start + PROCESS_TIMEOUT
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise BenchError(f"arkslice {args[0]} did not finish")
                time.sleep(0.002)
            seconds = time.perf_counter() - start
        self.running = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cli_rss_kb = max(self.cli_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise BenchError(f"arkslice {args[0]} exited {proc.returncode}: "
                             f"{err_path.read_text()[-2000:]}")
        return seconds, out_path.read_text()

    def launch(self, traced: bool) -> Server:
        """Start ``serve`` and wait for the first correct resolve."""
        cmd = ["--config", str(self.config), "serve"]
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"),
                    str(self.trace_dir / "server.jsonl"), "--", *cmd]
        else:
            argv = [sys.executable, "-m", "arkslice.cli", *cmd]
        err = open(self.work / "server.err", "wb")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=self.env, cwd=self.work)
        err.close()
        server = Server(proc)
        self.servers.append(server)
        want = self.ref.body(f"ark:/{NAAN}/{self.ready_pid}")
        probe = client.Client(self.port)
        while True:
            if proc.poll() is not None:
                raise BenchError("server exited before it was ready: "
                                 + (self.work / "server.err").read_text()[-2000:])
            if time.perf_counter() - start > PROCESS_TIMEOUT:
                raise BenchError("server was not ready in time")
            ex = probe.get("ready", self.ready_pid)
            if not ex.error:
                break
            time.sleep(0.005)
        server.setup_s = time.perf_counter() - start
        probe.close()
        if ex.status != 200 or ex.body != want:
            raise BenchError(f"first resolve returned {ex.status} {ex.body[:200]!r}")
        return server

    def stop_all(self):
        """Stop every process this run started and wait for each to end."""
        if self.running is not None:
            self.running.kill()
            self.running.wait()
        for server in self.servers:
            server.stop()

    # --- checked operator steps ---

    def expect(self, ok: bool, what: str):
        self.checker.attempted += 1
        if not ok:
            self.checker.fail(what)

    def ingest(self, traced=False, config=None) -> float:
        seconds, out = self.cli("ingest", ["ingest", "--source", "local",
                                           "--dataset", DATASET], traced, config)
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(self.files[name])
        want = f"registered {DATASET} ({len(SENSORS)} sensors) hash {h.hexdigest()[:12]}\n"
        self.expect(out == want, f"ingest printed {out!r}, want {want!r}")
        return seconds

    def restart(self, traced=False) -> float:
        seconds, out = self.cli("resolve", ["resolve", self.narrow_pid], traced)
        self.expect(out.encode() == self.ref.body(self.narrow_pid),
                    "CLI resolve differs from reference")
        return seconds

    def crossfold(self, traced=False) -> list[str]:
        _, out = self.cli("crossfold", [
            "crossfold", "--dataset", DATASET, "--sensors", ",".join(FOLD_SENSORS),
            "--measurements", ",".join(FOLD_MEASUREMENTS), "-k", str(FOLDS)], traced)
        lines = out.splitlines()
        want = self.ref.crossfold_lines(FOLD_SENSORS, FOLD_MEASUREMENTS, FOLDS)
        self.expect(lines == want, "crossfold blocks differ from the reference split")
        return [ln.split()[-1] for ln in lines]

    def crawl(self, traced=False, config=None) -> float:
        """Append one day to DWE.csv, crawl, then restore the file."""
        extra = datagen.appended_day(self.args.seed, self.tables["DWE"])
        with open(self.dwe, "a", encoding="utf-8") as fh:
            fh.write(extra)
        try:
            seconds, out = self.cli("crawl", ["crawl"], traced, config)
        finally:
            self.dwe.write_bytes(self.dwe_bytes)
        want = f"modified {DATASET} source=local\n"
        self.expect(out == want, f"crawl printed {out!r}, want {want!r}")
        return seconds

    def startup_s(self) -> float:
        """Interpreter start plus ``import arkslice.cli``, median of three."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import arkslice.cli"],
                           env=self.env, cwd=self.work, check=True,
                           timeout=PROCESS_TIMEOUT)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def probes(self) -> client.Window:
        """One request of every class, so each layer has a traced sample."""
        c = client.Client(self.port)
        rng = random.Random(f"{self.args.seed}/probe")
        window = client.Window()
        for kind in ("point", "narrow", "multi"):
            window.exchanges.append(c.get(kind, client.random_pid(rng, kind, self.rows)))
        window.exchanges.append(
            c.get("info", client.random_pid(rng, "info", self.rows), "?info"))
        for ex in window.exchanges:
            self.checker.check(ex)
        mint = c.mint(client.mint_target(rng, self.rows))
        window.exchanges.append(mint)
        if self.checker.check(mint):
            redirect = c.get("redirect", client.minted_noid(mint))
            self.checker.check(redirect)
            window.exchanges.append(redirect)
        for pid in self.sweep[0][0], self.sweep[-1][0]:
            ex = c.get("bulk", pid)
            self.checker.check(ex, self.bulk_sha[pid])
            window.exchanges.append(ex)
        window.connects = c.connects
        c.close()
        return window

    # --- workloads ---

    def window(self, seconds: float) -> client.Window:
        if self.args.workload == "narrow-mix":
            return client.narrow_mix(self.port, self.checker, self.args.seed,
                                     self.rows, seconds)
        return client.crossfold_bulk(self.port, self.checker, self.sweep,
                                     self.bulk_sha, seconds)

    def expect_bulk(self, fold_pids: list[str]):
        """The crossfold sweep and, computed before any timing, the SHA-256
        and size of every body it fetches."""
        strip = len(f"ark:/{NAAN}/")
        self.sweep = [(train[strip:], test[strip:])
                      for train, test in zip(fold_pids[::2], fold_pids[1::2])]
        self.sweep.append((WILDCARD[strip:],))
        self.bulk_sha, self.bulk_bytes = {}, {}
        for unit in self.sweep:
            for pid in unit:
                body = self.ref.body(f"ark:/{NAAN}/{pid}")
                self.bulk_sha[pid] = hashlib.sha256(body).hexdigest()
                self.bulk_bytes[client.PREFIX + pid] = len(body)

    def mint_pool(self):
        """narrow-mix redirects need minted NOIDs from the start."""
        if self.args.workload == "narrow-mix":
            pool = client.Client(self.port)
            client.mint_pool(pool, self.checker, self.rng, self.rows, MINT_POOL)
            pool.close()

    def serve_phase(self) -> dict:
        """Launch several times for setup_s; on the last server, run the
        window in rounds, each followed by the operator steps, so every
        metric is sampled across the whole run."""
        setups = []
        for i in range(SETUP_REPEATS):
            server = self.launch(traced=False)
            setups.append(server.setup_s)
            if i < SETUP_REPEATS - 1:
                server.stop()
        self.mint_pool()
        slices = []
        times = {"ingest": [], "restart": [], "crawl": []}
        for _ in range(ROUNDS):
            slices.append(self.window(self.args.seconds / ROUNDS))
            times["restart"].append(self.restart())
            shutil.rmtree(self.scratch, ignore_errors=True)
            times["ingest"].append(self.ingest(config=self.scratch_config))
            times["crawl"].append(self.crawl(config=self.scratch_config))
        hwm = server.vm_hwm_kb()
        server.stop()
        return {"setups": setups, "window": client.Window.merge(slices),
                "hwm": hwm, "times": times}

    def http_metrics(self, window: client.Window) -> dict:
        csv = sum(len(ex.body) for ex in window.exchanges
                  if ex.kind in ("point", "narrow", "multi") and ex.status == 200)
        if self.args.workload == "crossfold-bulk":
            csv = sum(self.bulk_bytes[ex.path] for ex in window.exchanges)
        return {
            "req_per_s": (request_rate(window), "1/s"),
            "p50_ms": (statistics.median(window.units) * 1e3, "ms"),
            "p99_ms": (pctl(window.units, 0.99) * 1e3, "ms"),
            "csv_mb_per_s": (csv / window.elapsed / MB, "MB/s"),
        }

    def run_http(self) -> dict:
        self.prepare()
        self.ingest()
        if self.args.workload == "crossfold-bulk":
            self.expect_bulk(self.crossfold())
        phase = self.serve_phase()
        window, times = phase["window"], phase["times"]
        self.samples = {"requests": len(window.exchanges),
                        "latency_samples": len(window.units),
                        "connects": window.connects, "rounds": ROUNDS}
        return {
            "setup_s": (statistics.median(phase["setups"]), "s"),
            **self.http_metrics(window),
            "peak_rss_mb": (phase["hwm"] / 1024, "MB"),
            **self.operator_metrics(times),
        }

    @staticmethod
    def operator_metrics(times: dict[str, list[float]]) -> dict:
        return {f"{step}_s": (statistics.median(ts), "s") for step, ts in times.items()}

    def cycles(self, seconds: float, least: int) -> dict[str, list[float]]:
        """Operator cycles on fresh state until ``seconds`` have passed and
        at least ``least`` cycles ran."""
        times = {"ingest": [], "restart": [], "crawl": []}
        start = time.perf_counter()
        while len(times["ingest"]) < least or time.perf_counter() - start < seconds:
            shutil.rmtree(self.state, ignore_errors=True)
            times["ingest"].append(self.ingest())
            times["restart"].append(self.restart())
            times["crawl"].append(self.crawl())
        return times

    def run_ingest_crawl(self) -> dict:
        setups = [self.prepare() for _ in range(SETUP_REPEATS)]
        times = self.cycles(self.args.seconds, ROUNDS)
        cycles = [sum(step) for step in zip(*times.values())]
        self.samples = {"commands": 3 * len(cycles), "cycles": len(cycles)}
        return {
            "setup_s": (statistics.median(setups), "s"),
            "req_per_s": (command_rate(times), "1/s"),
            "p50_ms": (statistics.median(cycles) * 1e3, "ms"),
            "p99_ms": (pctl(cycles, 0.99) * 1e3, "ms"),
            "csv_mb_per_s": (self.csv_bytes / statistics.median(times["ingest"]) / MB, "MB/s"),
            "peak_rss_mb": (self.cli_rss_kb / 1024, "MB"),
            **self.operator_metrics(times),
        }

    def run_traced(self) -> dict:
        """Every CLI step and a server traced once, then the layer metrics.

        Half of the window runs on an untraced server and half on the
        traced one (ingest-crawl: untraced cycles, then the traced
        commands); their rates give the tracing overhead. Probes add one
        request of every class so each layer metric has a sample.
        """
        half = self.args.seconds / 2
        http = self.args.workload != "ingest-crawl"
        self.prepare()
        if not http:
            untraced_rate = command_rate(self.cycles(half, 1))
            shutil.rmtree(self.state, ignore_errors=True)
        times = {"ingest": [self.ingest(traced=True)],
                 "restart": [self.restart(traced=True)]}
        self.expect_bulk(self.crossfold(traced=True))
        if http:
            server = self.launch(traced=False)
            self.mint_pool()
            plain = self.window(half)
            server.stop()
        server = self.launch(traced=True)
        windows = [self.window(half)] if http else []
        windows.append(self.probes())
        hwm = server.vm_hwm_kb()
        server.stop()
        times["crawl"] = [self.crawl(traced=True)]
        if http:
            overhead = request_rate(plain) / request_rate(windows[0])
        else:
            overhead = untraced_rate / command_rate(times)
        traced = client.Window.merge(windows)
        self.samples = {"traced_requests": len(traced.exchanges)}
        return layer_metrics(
            self.trace_dir,
            client_rtts={ex.rid: ex.seconds for ex in traced.exchanges},
            connects=traced.connects,
            requests=len(traced.exchanges),
            server_hwm_kb=hwm,
            csv_bytes=self.csv_bytes,
            startup_s=self.startup_s(),
            overhead_ratio=overhead,
        )

    def run(self) -> dict:
        if self.args.trace:
            return self.run_traced()
        if self.args.workload == "ingest-crawl":
            return self.run_ingest_crawl()
        return self.run_http()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=datagen.ROWS,
                    help="rows per sensor (tiny sizes are for the smoke test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A termination request unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "arkslice" / "cli.py").is_file():
        print(f"error: no arkslice sources at {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        metrics = bench.run()
        record = datagen.manifest(args.seed, args.rows, bench.data_root, ROOT)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.stop_all()
        shutil.rmtree(bench.work, ignore_errors=True)
    checker = bench.checker
    record.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  samples=bench.samples, problems=checker.problems)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
