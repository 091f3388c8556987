"""Smoke test of the benchmark harness at a tiny size.

Run from the repository root with ``python3 -m pytest bench/tests``. It
checks that the harness runs and reports every metric by name and unit,
that outputs pass the checker, and that the checker catches a corrupted
byte. It sets no wall-clock bounds.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import client  # noqa: E402
import datagen  # noqa: E402
from reference import Reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--rows", "300"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_outputs_correct(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    assert result["attempted"] >= 1
    fail_ratio = result["failed"] / result["attempted"]
    assert fail_ratio == 0, record["problems"]
    assert result["correct"] is True
    assert record["seed"] == 7 and record["csv_bytes"] > 0


def test_checker_flags_one_corrupted_expected_byte(tmp_path):
    tables = datagen.generate(3, 200, tmp_path)
    ref = Reference(tables)
    pid_body = f"{datagen.DATASET}.HPE+WOE.V+Q@{datagen.T0}~{datagen.T0 + 3000}"
    body = ref.body(f"ark:/{datagen.NAAN}/{pid_body}")
    ex = client.Exchange("multi", "GET", client.PREFIX + pid_body, "1", 0.0, 0.0,
                         status=200, body=body)
    checker = client.Checker(ref, "http://127.0.0.1:1")
    assert checker.check(ex)

    corrupted = bytearray(body)
    corrupted[len(corrupted) // 2] ^= 0x01
    ref.body = lambda pid: bytes(corrupted)
    assert not checker.check(ex)
    assert not checker.check(ex, expected_sha=hashlib.sha256(corrupted).hexdigest())
    assert (checker.attempted, checker.failed) == (3, 2)


@pytest.mark.xfail(reason="Minter.mint is not locked, so concurrent mints can "
                   "share a NOID (ROADMAP item 4)", strict=False)
def test_concurrent_mints_get_distinct_noids(tmp_path):
    """narrow-mix mints from one client only, because of this race; the
    test passes once the race is fixed, and then narrow-mix may mint from
    every client again."""
    sys.path.insert(0, str(ROOT / "src"))
    from arkslice.resolver import Minter

    minter = Minter(tmp_path / "mints.log")
    start = threading.Barrier(4)
    noids = []

    def mint_many():
        start.wait()
        noids.extend(minter.mint("https://example.org/x").noid for _ in range(300))

    threads = [threading.Thread(target=mint_many) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(noids)) == len(noids) == 1200


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
