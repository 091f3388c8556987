"""Traced launcher: run an arkslice CLI command with spans around each layer.

Usage::

    python bench/tracer.py SPANS.jsonl -- [arkslice CLI arguments]

Before the command starts, the public functions of each layer are wrapped
where their callers look them up: module attributes, the ``Resolver``,
``Minter`` and ``Catalog`` methods, and ``ResolverHandler.do_GET`` and
``do_POST``. Each call records its name, start, end, parent span and the
request id (``X-Bench-Request``) on a thread-local stack. Spans stay in
memory and are written as JSON lines when the command exits; ``serve``
exits on SIGINT.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

BULK_ROWS = 1000  # selects returning more rows than this count as bulk


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr, name, note=None, request_id=None):
        """Replace ``owner.attr`` by a function that records a span.

        ``note(args, result)`` returns extra fields for the span;
        ``request_id(args)`` names the request a handler span serves.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, rid = stack[-1] if stack else (0, None)
            if request_id is not None:
                rid = request_id(args)
            sid = next(tracer._ids)
            stack.append((sid, rid))
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = note(args, result) if note and result is not None else {}
                tracer.spans.append((sid, parent, rid, name, start, end, extra))

        setattr(owner, attr, traced)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path):
        keys = ("id", "parent", "rid", "name", "start", "end", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in list(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def select_kind(q, rows: int) -> str:
    sel = q.selector
    if sel.wildcard or any(t.exclude for t in sel.terms) or rows > BULK_ROWS:
        return "bulk"
    if len(q.sensors) > 1:
        return "multi"
    terms = sel.terms
    if len(terms) == 1 and terms[0].start == terms[0].end:
        return "point"
    return "narrow"


def install(tracer: Tracer) -> None:
    from arkslice import catalog, cli, http_service, resolver
    from arkslice import timeseries_store as store
    from arkslice import type_registry as types

    w = tracer.wrap
    w(resolver, "parse_pid_body", "pid_grammar.parse_pid_body")
    w(store, "effective_key_set", "pid_grammar.effective_key_set")
    w(store, "select", "timeseries_store.select",
      note=lambda a, r: {"kind": select_kind(a[1], len(r.rows)),
                         "rows": len(r.rows)})
    render_note = lambda a, r: {"bytes": len(r), "rows": len(a[0].rows)}  # noqa: E731
    w(http_service, "render_csv", "timeseries_store.render_csv", note=render_note)
    w(cli, "render_csv", "timeseries_store.render_csv", note=render_note)
    w(store, "load_sensor_csv", "timeseries_store.load_sensor_csv",
      note=lambda a, r: {"bytes": os.path.getsize(a[0])})
    w(types, "infer_column_type", "type_registry.infer_column_type")
    w(types, "numeric_values", "type_registry.numeric_values")
    w(types, "compute_properties", "type_registry.compute_properties")
    w(catalog, "content_hash", "catalog.content_hash")
    w(catalog.Catalog, "__init__", "catalog.restore")
    w(catalog.Catalog, "register_dataset", "catalog.register_dataset")
    w(catalog.Catalog, "crawl", "catalog.crawl")
    w(resolver.Resolver, "resolve", "resolver.resolve",
      note=lambda a, r: {"kind": type(r).__name__})
    w(resolver.Resolver, "crossfold_pids", "resolver.crossfold_pids")
    w(resolver.Minter, "mint", "resolver.mint")
    rid = lambda a: a[0].headers.get("X-Bench-Request")  # noqa: E731
    handler = http_service.ResolverHandler
    w(handler, "do_GET", "http_service.do_GET", request_id=rid)
    w(handler, "do_POST", "http_service.do_POST", request_id=rid)


def main(argv: list[str]) -> int:
    out, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.jsonl -- [arkslice args]")
    tracer = Tracer()
    install(tracer)
    from arkslice.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
