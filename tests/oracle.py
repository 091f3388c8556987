"""Independent brute-force oracle for PID resolution over fixture CSVs.

Deliberately avoids every arkslice module: its own string-level PID
splitter, its own row-by-row filtering, its own CSV assembly. Used to
cross-check the real resolve path byte-for-byte.
"""

from pathlib import Path


def read_table(path):
    # Lines end at "\n" (or "\r\n") only; every other character that
    # str.splitlines() would break on stays inside its cell.
    text = Path(path).read_bytes().decode("utf-8").replace("\r\n", "\n")
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows[int(fields[0])] = dict(zip(header[1:], fields[1:]))
    return rows


def split_pid(pid):
    assert pid.startswith("ark:/")
    naan, rest = pid[len("ark:/"):].split("/", 1)
    names, selector = rest.split("@")
    dataset, sensors, measurements = names.split(".")
    return {
        "naan": naan,
        "dataset": dataset,
        "sensors": sensors.split("+"),
        "measurements": measurements.split("+"),
        "selector": selector,
    }


def keep_timestamp(selector, t):
    if selector == "*":
        return True
    included = None
    excluded = False
    for term in selector.split("+"):
        exclude = term.startswith("_")
        body = term.lstrip("_")
        if "~" in body:
            lo, hi = (int(x) for x in body.split("~"))
        else:
            lo = hi = int(body)
        inside = lo <= t <= hi
        if exclude:
            excluded = excluded or inside
        else:
            included = bool(included) or inside
    if included is None:
        included = True
    return included and not excluded


def resolve_csv(data_dir, pid):
    """Resolve a semantic PID against raw CSV files, returning CSV text."""
    q = split_pid(pid)
    tables = {s: read_table(Path(data_dir) / f"{s}.csv") for s in q["sensors"]}

    timestamps = set()
    for table in tables.values():
        for t in table:
            if keep_timestamp(q["selector"], t):
                timestamps.add(t)

    single = len(q["sensors"]) == 1
    header = ["timestamp"]
    for s in q["sensors"]:
        for m in q["measurements"]:
            header.append(m if single else f"{s}.{m}")

    out = [",".join(header)]
    for t in sorted(timestamps):
        cells = [str(t)]
        for s in q["sensors"]:
            row = tables[s].get(t)
            for m in q["measurements"]:
                cells.append(row[m] if row is not None else "")
        out.append(",".join(cells))
    return "".join(line + "\n" for line in out)
