"""Each sensor file is read in one place.

A dataset's hash, its file hashes and its tables all come from one read
of each file. So in ``catalog.py`` and ``timeseries_store.py`` only
``read_sensor_file`` reads a file, and only ``append_line`` opens one (to
append). This finds, with the stdlib alone, any other ``open(`` or
``.read_bytes(`` call in those modules.
"""

import ast
import inspect
from pathlib import Path

import pytest

from arkslice import catalog, timeseries_store

SRC = Path(__file__).resolve().parents[1] / "src" / "arkslice"
MODULES = ("catalog.py", "timeseries_store.py")
ALLOWED = {"read_sensor_file", "append_line"}
READS = {"open", "read_bytes"}


def file_reads(source: str) -> list[str]:
    """Each ``open`` or ``read_bytes`` call outside the allowed functions,
    as ``line <n>: <call> in <enclosing function>``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in READS and function not in ALLOWED:
                    found.append((child.lineno, f"{name} in {function}"))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("name", MODULES)
def test_sensor_files_are_read_in_one_place(name):
    assert file_reads((SRC / name).read_text(encoding="utf-8")) == []


def test_a_planted_read_is_found():
    source = (
        'def read_sensor_file(path):\n'
        '    with open(path, "rb") as fh:\n'
        '        return fh.read()\n'
        'def content_hash(paths):\n'
        '    return [p.read_bytes() for p in paths]\n'
        'class Catalog:\n'
        '    def _restore(self, path):\n'
        '        return path.open("rb")\n'
        'DATA = open("x").read()\n'
    )
    assert file_reads(source) == [
        "line 5: read_bytes in content_hash",
        "line 8: open in _restore",
        "line 9: open in <module>",
    ]


def test_loading_takes_no_hasher_and_no_previous_table():
    assert list(inspect.signature(timeseries_store.load_sensor_csv).parameters) == [
        "path", "sensor_name"]
    assert not hasattr(catalog, "_Hashers")
