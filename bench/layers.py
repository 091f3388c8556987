"""Per-layer metrics from the span files of one traced run.

Every traced process writes one JSON-lines file (see ``tracer.py``). A
span's self time is its duration minus the time its direct children cover;
spans nest on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def matching(spans, name: str, **extra) -> list[dict]:
    """Spans called ``name`` whose extra fields equal ``extra``."""
    return [
        s for s in spans
        if s["name"] == name and all(s["extra"].get(k) == v for k, v in extra.items())
    ]


def load(path: Path) -> list[dict]:
    """The spans of one process, each with its duration and self time."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    child_time = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        child_time[s["parent"]] += s["dur"]
    for s in spans:
        s["self"] = s["dur"] - child_time[s["id"]]
    return spans


def median(values, scale: float = 1.0) -> float:
    if not values:
        raise ValueError("no samples for a per-layer metric")
    return statistics.median(values) * scale


def layer_metrics(trace_dir: Path, client_rtts: dict[str, float],
                  connects: int, requests: int, server_hwm_kb: int,
                  csv_bytes: int, startup_s: float,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    ``trace_dir`` holds ``ingest``, ``resolve``, ``crossfold``, ``crawl``
    and ``server`` span files; ``client_rtts`` maps request id to the
    client's round trip for the traced server's requests.
    """
    p = {f.stem: load(f) for f in trace_dir.glob("*.jsonl")}
    server, ingest, crawl = p["server"], p["ingest"], p["crawl"]
    every = [s for spans in p.values() for s in spans]

    def durs(spans, name, field="dur", **extra):
        return [s[field] for s in matching(spans, name, **extra)]

    selects = matching(every, "timeseries_store.select")
    bulk = [s for s in selects if s["extra"]["kind"] == "bulk"]
    bulk_rids = {s["rid"] for s in matching(server, "timeseries_store.select", kind="bulk")}
    renders = matching(every, "timeseries_store.render_csv")
    loads = matching(every, "timeseries_store.load_sensor_csv")
    handlers = (matching(server, "http_service.do_GET")
                + matching(server, "http_service.do_POST"))
    handler_dur = {s["rid"]: s["dur"] for s in handlers}
    first_request = min(s["start"] for s in handlers)
    loading = {s["parent"] for s in loads}
    restores = [s for s in matching(every, "catalog.restore") if s["id"] in loading]
    registers = defaultdict(float)
    for s in matching(crawl, "catalog.register_dataset"):
        registers[s["parent"]] += s["dur"]

    m = {
        "pid_grammar.parse_us": (
            median(durs(server, "pid_grammar.parse_pid_body"), 1e6), "us"),
        "pid_grammar.effective_key_set_ms": (
            median(durs(every, "pid_grammar.effective_key_set"), 1e3), "ms"),
        "timeseries_store.select_us_per_row": (
            median([s["dur"] / s["extra"]["rows"] for s in bulk], 1e6), "us"),
        "timeseries_store.render_ms": (
            median([s["dur"] for s in renders if s["rid"] in bulk_rids], 1e3), "ms"),
        "timeseries_store.render_ns_per_byte": (
            sum(s["dur"] for s in renders) / sum(s["extra"]["bytes"] for s in renders) * 1e9,
            "ns"),
        "timeseries_store.load_csv_s": (median([s["dur"] for s in loads]), "s"),
        "timeseries_store.load_mb_per_s": (
            sum(s["extra"]["bytes"] for s in loads) / sum(s["dur"] for s in loads) / 1e6,
            "MB/s"),
        "timeseries_store.rss_bytes_per_csv_byte": (
            server_hwm_kb * 1024 / csv_bytes, "ratio"),
        "type_registry.infer_s": (
            sum(durs(ingest, "type_registry.infer_column_type")), "s"),
        "type_registry.infer_calls": (
            len(matching(ingest, "type_registry.infer_column_type")), "count"),
        "type_registry.numeric_values_s": (
            sum(durs(ingest, "type_registry.numeric_values")), "s"),
        "type_registry.properties_s": (
            sum(durs(ingest, "type_registry.compute_properties")), "s"),
        "catalog.register_s": (
            median(durs(every, "catalog.register_dataset")), "s"),
        "catalog.content_hash_s": (
            median(durs(every, "catalog.content_hash")), "s"),
        "catalog.restore_s": (median([s["dur"] for s in restores]), "s"),
        "catalog.crawl_self_s": (
            median([s["dur"] - registers[s["id"]]
                    for s in matching(crawl, "catalog.crawl")]), "s"),
        "catalog.load_calls_per_start": (
            sum(1 for s in matching(server, "timeseries_store.load_sensor_csv")
                if s["start"] < first_request), "count"),
        "resolver.resolve_self_us": (
            median(durs(server, "resolver.resolve", "self", kind="Data"), 1e6), "us"),
        "resolver.redirect_us": (
            median(durs(server, "resolver.resolve", kind="Redirect"), 1e6), "us"),
        "resolver.mint_us": (median(durs(server, "resolver.mint"), 1e6), "us"),
        "resolver.crossfold_ms": (
            median(durs(every, "resolver.crossfold_pids"), 1e3), "ms"),
        "http_service.handler_self_ms": (
            median([s["self"] for s in handlers], 1e3), "ms"),
        "http_service.outside_handler_ms": (
            median([rtt - handler_dur[rid] for rid, rtt in client_rtts.items()
                    if rid in handler_dur], 1e3), "ms"),
        "http_service.connects_per_request": (connects / requests, "ratio"),
        "cli.startup_s": (startup_s, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for kind in ("point", "narrow", "multi", "bulk"):
        m[f"timeseries_store.select_ms.{kind}"] = (
            median([s["dur"] for s in selects if s["extra"]["kind"] == kind], 1e3), "ms")
    return m
