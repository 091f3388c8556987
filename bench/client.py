"""HTTP load for the benchmark, written with ``http.client``.

Each client owns one connection and reuses it whenever the server keeps it
open; with an HTTP/1.0 server every request reconnects. The connection
counts its connects, so a server-side keep-alive change shows up without
editing the benchmark. Every request carries an ``X-Bench-Request`` id that
the traced server records, to pair client round trips with handler spans.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field

from datagen import DATASET, MEASUREMENTS, NAAN, STEP, T0
from reference import Reference, redirect_location

PREFIX = f"/ark:/{NAAN}/"
CLIENTS = 2  # narrow-mix client threads: nproc of the 2-vCPU target machine
HOUR = 59 * STEP  # an inclusive one-hour range spans 60 minute keys


class CountingConnection(http.client.HTTPConnection):
    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


@dataclass
class Exchange:
    """One request and its response, kept for checking after the window."""

    kind: str
    method: str
    path: str
    rid: str
    start: float
    end: float
    status: int = 0
    location: str = ""
    body: bytes = b""
    error: str = ""
    target: str = ""  # for mints: what was bound

    @property
    def seconds(self) -> float:
        return self.end - self.start


_rids = itertools.count(1)


class Client:
    def __init__(self, port: int):
        self.conn = CountingConnection("127.0.0.1", port, timeout=120)

    @property
    def connects(self) -> int:
        return self.conn.connects

    def send(self, kind, method, path, payload=None) -> Exchange:
        rid = str(next(_rids))
        headers = {"X-Bench-Request": rid}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        ex = Exchange(kind, method, path, rid, time.perf_counter(), 0.0)
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            ex.body = resp.read()
            ex.status = resp.status
            ex.location = resp.getheader("Location", "")
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            ex.error = f"{type(exc).__name__}: {exc}"
        ex.end = time.perf_counter()
        return ex

    def get(self, kind, pid_body, query="") -> Exchange:
        return self.send(kind, "GET", PREFIX + pid_body + query)

    def mint(self, target) -> Exchange:
        ex = self.send("mint", "POST", "/mint", {"target": target})
        ex.target = target
        return ex

    def close(self):
        self.conn.close()


class Checker:
    """Checks exchanges against the reference; every mismatch is a failure.

    Minted NOIDs must be distinct across the whole run, so a NOID issued
    twice is caught even when both mints raced on the server.
    """

    def __init__(self, ref: Reference, base_url: str):
        self.ref = ref
        self.base_url = base_url
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.noids: dict[str, str] = {}  # noid -> target

    def fail(self, what: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ex: Exchange, expected_sha: str = "") -> bool:
        self.attempted += 1
        problem = self._problem(ex, expected_sha)
        if problem:
            self.fail(f"{ex.method} {ex.path}: {problem}")
        return not problem

    def _problem(self, ex: Exchange, expected_sha: str) -> str:
        if ex.error:
            return ex.error
        if ex.kind == "mint":
            return self._mint_problem(ex)
        if ex.kind == "redirect":
            target = self.noids.get(ex.path[len(PREFIX):])
            if target is None:
                return "redirect to a NOID no mint returned"
            want = redirect_location(self.base_url, target)
            if ex.status != 302 or ex.location != want:
                return f"redirect {ex.status} {ex.location!r}, want {want!r}"
            return ""
        if ex.status != 200:
            return f"status {ex.status}: {ex.body[:200]!r}"
        pid = ex.path[1:].partition("?")[0]
        if ex.kind == "info":
            return "; ".join(self.ref.info_problems(pid, ex.body))
        if expected_sha:
            ok = hashlib.sha256(ex.body).hexdigest() == expected_sha
        else:
            ok = ex.body == self.ref.body(pid)
        return "" if ok else f"body differs from reference ({len(ex.body)} bytes)"

    def _mint_problem(self, ex: Exchange) -> str:
        if ex.status != 201:
            return f"mint status {ex.status}: {ex.body[:200]!r}"
        try:
            doc = json.loads(ex.body)
            noid = doc["noid"]
        except (ValueError, KeyError, TypeError):
            return "mint reply is not a NOID document"
        ark = f"ark:/{NAAN}/{noid}"
        if doc.get("ark") != ark or doc.get("url") != f"{self.base_url}/{ark}":
            return f"mint reply names {doc.get('ark')!r} {doc.get('url')!r}"
        if noid in self.noids:
            return f"NOID {noid} issued twice"
        self.noids[noid] = ex.target
        return ""


def minted_noid(ex: Exchange) -> str | None:
    """The NOID a successful mint reply names, or None."""
    if ex.error or ex.status != 201:
        return None
    try:
        noid = json.loads(ex.body)["noid"]
    except (ValueError, KeyError, TypeError):
        return None
    return noid if isinstance(noid, str) else None


def point_ts(rng, rows):
    return T0 + STEP * rng.randrange(rows)


def random_pid(rng: random.Random, kind: str, rows: int) -> str:
    """A PID body of one narrow-mix request class; timestamps are uniform
    over the stored minutes, so PIDs almost never repeat."""
    t = point_ts(rng, rows)
    if kind == "point":
        sensor = rng.choice(("HPE", "DWE", "WOE"))
        return f"{DATASET}.{sensor}.{'+'.join(MEASUREMENTS)}@{t}"
    if kind == "narrow":
        return f"{DATASET}.DWE.V+I@{t}~{t + HOUR}"
    if kind == "multi":
        return f"{DATASET}.HPE+DWE+WOE.V+I@{t}~{t + HOUR}"
    if kind == "info":
        return f"{DATASET}.HPE+WOE.P+Q@{t}~{t + HOUR}"
    raise ValueError(kind)


def mint_target(rng: random.Random, rows: int) -> str:
    if rng.random() < 0.5:
        t = point_ts(rng, rows)
        return f"ark:/{NAAN}/{DATASET}.DWE.V+I@{t}~{t + HOUR}"
    return f"https://example.org/ampds/{rng.randrange(10**9)}"


# Narrow-mix request classes and their shares of requests.
NARROW_MIX = (
    ("point", 0.40),
    ("narrow", 0.25),
    ("multi", 0.15),
    ("redirect", 0.10),
    ("info", 0.05),
    ("mint", 0.05),
)
MINTING_CLIENT = 0  # the one narrow-mix client that mints; see narrow_mix


@dataclass
class Window:
    """What one closed-loop window did."""

    exchanges: list[Exchange] = field(default_factory=list)
    connects: int = 0
    elapsed: float = 0.0
    units: list[float] = field(default_factory=list)  # latency per unit of work

    @classmethod
    def merge(cls, windows: list["Window"]) -> "Window":
        return cls(
            exchanges=[ex for w in windows for ex in w.exchanges],
            connects=sum(w.connects for w in windows),
            elapsed=sum(w.elapsed for w in windows),
            units=[u for w in windows for u in w.units],
        )


def mint_pool(client: Client, checker: Checker, rng, rows: int, n: int):
    """Mint and follow ``n`` NOIDs so redirects have targets from the start."""
    for _ in range(n):
        ex = client.mint(mint_target(rng, rows))
        if checker.check(ex):
            checker.check(client.get("redirect", minted_noid(ex)))


def narrow_mix(port: int, checker: Checker, seed: int, rows: int,
               seconds: float) -> Window:
    """Closed loop: ``CLIENTS`` threads, each waiting for its reply before
    sending the next request.

    Client 0 issues every mint, at ``CLIENTS`` times the mix's share, so
    mints stay 5% of requests and run beside the other clients' reads and
    redirects, but never two at once: arkslice 0.1.0 can return one NOID
    to two concurrent mints (ROADMAP item 4), and a benchmark run must not
    fail. ``bench/tests/test_smoke.py`` keeps that race in view.
    """
    window = Window()
    noids = list(checker.noids)
    lock = threading.Lock()
    kinds = [k for k, _ in NARROW_MIX]
    per_thread: list[list[Exchange]] = [[] for _ in range(CLIENTS)]
    conns: list[Client] = []
    start = time.perf_counter()
    deadline = start + seconds

    def loop(i: int):
        rng = random.Random(f"{seed}/client{i}")
        mint_scale = CLIENTS if i == MINTING_CLIENT else 0
        weights = [w * mint_scale if k == "mint" else w for k, w in NARROW_MIX]
        client = Client(port)
        conns.append(client)
        out = per_thread[i]
        while time.perf_counter() < deadline:
            kind = rng.choices(kinds, weights)[0]
            if kind == "redirect":
                with lock:
                    noid = rng.choice(noids)
                ex = client.get(kind, noid)
            elif kind == "mint":
                ex = client.mint(mint_target(rng, rows))
                noid = minted_noid(ex)
                if noid is not None:
                    with lock:
                        noids.append(noid)
            elif kind == "info":
                ex = client.get(kind, random_pid(rng, kind, rows), "?info")
            else:
                ex = client.get(kind, random_pid(rng, kind, rows))
            out.append(ex)
        client.close()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for out in per_thread:
        window.exchanges.extend(out)
    window.exchanges.sort(key=lambda ex: ex.start)
    window.connects = sum(c.connects for c in conns)
    window.elapsed = max(ex.end for ex in window.exchanges) - start
    window.units = [ex.seconds for ex in window.exchanges]
    # Mints first, so redirects to NOIDs minted in the window can be checked.
    for ex in sorted(window.exchanges, key=lambda ex: ex.kind != "mint"):
        checker.check(ex)
    return window


def crossfold_bulk(port: int, checker: Checker, sweep: list[tuple[str, ...]],
                   shas: dict[str, str], seconds: float) -> Window:
    """One sequential client fetching the sweep's units in a fixed order.

    A unit is one fold (its train and test PIDs) or the wildcard PID; its
    latency is the time to fetch all of it, which is what a training
    script waits for before it can use the fold.
    """
    window = Window()
    client = Client(port)
    start = time.perf_counter()
    deadline = start + seconds
    for unit in itertools.cycle(sweep):
        if time.perf_counter() >= deadline:
            break
        fetched = [client.get("bulk", pid_body) for pid_body in unit]
        window.units.append(sum(ex.seconds for ex in fetched))
        for pid_body, ex in zip(unit, fetched):
            checker.check(ex, shas[pid_body])
            ex.body = b""  # the hash above is all a bulk body is kept for
        window.exchanges.extend(fetched)
    window.elapsed = time.perf_counter() - start
    window.connects = client.connects
    client.close()
    return window
