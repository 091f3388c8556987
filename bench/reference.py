"""Independent checker: expected outputs built from the generator's rows.

Like ``tests/oracle.py`` it imports nothing from arkslice. It has its own
PID splitter for the selector forms the benchmark sends (``*``, ``t``,
``a~b`` and ``_a~b``), its own join and its own CSV assembly, so a defect
in the program cannot hide in the reference.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right

from datagen import DATASET, MEASUREMENTS, NAAN, SensorRows

# Derived types the program must report for the generated columns.
EXPECTED_TYPES = {
    "timestamp": "timestamp",
    "V": "real",
    "I": "real",
    "P": "integer",
    "Q": "scientific",
}


def split_pid(pid: str):
    """``ark:/NAAN/DATASET.S1+S2.M1+M2@SEL`` -> (sensors, measurements, sel)."""
    prefix = f"ark:/{NAAN}/"
    if not pid.startswith(prefix):
        raise ValueError(f"unexpected PID {pid!r}")
    names, sel = pid[len(prefix):].split("@")
    dataset, sensors, measurements = names.split(".")
    if dataset != DATASET:
        raise ValueError(f"unexpected dataset in {pid!r}")
    return tuple(sensors.split("+")), tuple(measurements.split("+")), sel


class Reference:
    """Expected bytes for any PID the benchmark sends."""

    def __init__(self, tables: dict[str, SensorRows]):
        self.tables = tables
        self._keys: dict[tuple, list[int]] = {}
        self._lines: dict[tuple, list[str]] = {}

    def keys(self, sensors) -> list[int]:
        """Sorted union of the sensors' timestamps."""
        sensors = tuple(sensors)
        if sensors not in self._keys:
            union = set()
            for s in sensors:
                union.update(self.tables[s].keys)
            self._keys[sensors] = sorted(union)
        return self._keys[sensors]

    def _line(self, sensors, cols, ts) -> str:
        cells = [str(ts)]
        for s in sensors:
            row = self.tables[s].cells.get(ts)
            cells.extend(row[c] if row is not None else "" for c in cols)
        return ",".join(cells) + "\n"

    def _all_lines(self, sensors, measurements) -> list[str]:
        key = (sensors, measurements)
        if key not in self._lines:
            cols = [MEASUREMENTS.index(m) for m in measurements]
            self._lines[key] = [
                self._line(sensors, cols, ts) for ts in self.keys(sensors)
            ]
        return self._lines[key]

    def body(self, pid: str) -> bytes:
        sensors, measurements, sel = split_pid(pid)
        keys = self.keys(sensors)
        if sel == "*":
            spans = [(0, len(keys))]
        else:
            exclude = sel.startswith("_")
            lo, _, hi = sel.lstrip("_").partition("~")
            lo, hi = int(lo), int(hi or lo)
            a, b = bisect_left(keys, lo), bisect_right(keys, hi)
            spans = [(0, a), (b, len(keys))] if exclude else [(a, b)]
        single = len(sensors) == 1
        labels = ["timestamp"] + [
            m if single else f"{s}.{m}" for s in sensors for m in measurements
        ]
        parts = [",".join(labels) + "\n"]
        if sum(b - a for a, b in spans) > 1000:
            lines = self._all_lines(sensors, measurements)
            for a, b in spans:
                parts.extend(lines[a:b])
        else:
            cols = [MEASUREMENTS.index(m) for m in measurements]
            for a, b in spans:
                parts.extend(self._line(sensors, cols, ts) for ts in keys[a:b])
        return "".join(parts).encode("utf-8")

    def crossfold_lines(self, sensors, measurements, k: int) -> list[str]:
        """Expected ``arkslice crossfold`` output: k contiguous blocks over
        the sorted key union, earlier blocks one larger when k does not
        divide the row count."""
        keys = self.keys(sensors)
        base, extra = divmod(len(keys), k)
        head = f"ark:/{NAAN}/{DATASET}.{'+'.join(sensors)}.{'+'.join(measurements)}"
        out, pos = [], 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            first, last = keys[pos], keys[pos + size - 1]
            pos += size
            out.append(f"fold {i + 1} train {head}@_{first}~{last}")
            out.append(f"fold {i + 1} test  {head}@{first}~{last}")
        return out

    def info_problems(self, pid: str, body: bytes) -> list[str]:
        """Check a ``?info`` document against what the PID asks for. The
        benchmark sends only ranges, which are already canonical."""
        try:
            doc = json.loads(body)
        except ValueError:
            return ["info body is not JSON"]
        sensors, measurements, _ = split_pid(pid)
        problems = []
        if doc.get("pid") != pid:
            problems.append(f"info pid {doc.get('pid')!r} != {pid!r}")
        if doc.get("dataset") != DATASET:
            problems.append("info dataset mismatch")
        got = [s.get("name") for s in doc.get("sensors", [])]
        if got != list(sensors):
            problems.append(f"info sensors {got} != {list(sensors)}")
        wanted = ["timestamp"] + [m for m in MEASUREMENTS if m in measurements]
        for s in doc.get("sensors", []):
            cols = [(c.get("name"), c.get("derived")) for c in s.get("columns", [])]
            if cols != [(n, EXPECTED_TYPES[n]) for n in wanted]:
                problems.append(f"info columns of {s.get('name')}: {cols}")
        return problems


def redirect_location(base_url: str, target: str) -> str:
    """Where a minted NOID must redirect: semantic PIDs resolve on this
    server, URLs are returned as they are."""
    return f"{base_url}/{target}" if target.startswith("ark:") else target
