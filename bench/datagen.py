"""Seeded synthetic AMPds-style dataset for the benchmark.

The generator is the benchmark's source of truth: it returns every row it
writes, so the reference checker can build expected bytes without reading
the files back through arkslice. The same seed always gives the same bytes.
"""

from __future__ import annotations

import os
import platform
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

DATASET = "AMPds-bench"
SENSORS = ("HPE", "DWE", "WOE")
MEASUREMENTS = ("V", "I", "P", "Q")
NAAN = "57460"
# 2012-04-01T00:00Z, the first minute of the real AMPds recording; keys at
# or above 10**9 are typed as epoch timestamps by the program.
T0 = 1333238400
STEP = 60
ROWS = 25_000  # per sensor
DAY_ROWS = 1440


@dataclass
class SensorRows:
    """One sensor's rows as written: sorted keys plus lexical cells."""

    name: str
    keys: list[int]
    cells: dict[int, tuple[str, ...]]  # key -> (V, I, P, Q)


def _row(rng: random.Random, i: int) -> tuple[str, ...]:
    v = f"{rng.uniform(110.0, 125.0):.3f}"
    a = f"{rng.uniform(0.0, 40.0):.2f}"
    p = str(rng.randrange(0, 5000))
    q = "" if i % 50 == 49 else f"{rng.uniform(-900.0, 900.0):.3e}"
    return (v, a, p, q)


def sensor_rows(seed: int, sensor: str, rows: int) -> SensorRows:
    """Minute-spaced rows; WOE skips every 7th row so multi-sensor joins
    have empty cells, and Q is empty every 50th row."""
    rng = random.Random(f"{seed}/{sensor}")
    keys, cells = [], {}
    for i in range(rows):
        if sensor == "WOE" and i % 7 == 6:
            continue
        ts = T0 + STEP * i
        keys.append(ts)
        cells[ts] = _row(rng, i)
    return SensorRows(sensor, keys, cells)


def csv_text(keys, cells) -> str:
    return "".join(f"{ts}," + ",".join(cells[ts]) + "\n" for ts in keys)


def generate(seed: int, rows: int, data_root: Path) -> dict[str, SensorRows]:
    """Write ``data_root/AMPds-bench/<sensor>.csv`` and return the rows."""
    out = data_root / DATASET
    out.mkdir(parents=True, exist_ok=True)
    tables = {}
    for sensor in SENSORS:
        table = sensor_rows(seed, sensor, rows)
        text = "timestamp," + ",".join(MEASUREMENTS) + "\n" + csv_text(table.keys, table.cells)
        (out / f"{sensor}.csv").write_text(text, encoding="utf-8")
        tables[sensor] = table
    return tables


def appended_day(seed: int, table: SensorRows) -> str:
    """CSV lines for one more day of minutes after the table's last key."""
    rng = random.Random(f"{seed}/{table.name}/append")
    start = table.keys[-1] + STEP
    cells = {start + STEP * j: _row(rng, j) for j in range(DAY_ROWS)}
    return csv_text(sorted(cells), cells)


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(seed: int, rows: int, data_root: Path, repo_root: Path) -> dict:
    """What a reader needs to reproduce the inputs of one run."""
    import numpy

    files = sorted((data_root / DATASET).glob("*.csv"))
    return {
        "dataset": DATASET,
        "seed": seed,
        "rows_per_sensor": rows,
        "csv_bytes": sum(p.stat().st_size for p in files),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(repo_root),
    }
