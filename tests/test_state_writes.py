"""State files are written in two places.

Every document, cache file, NOID record and event line is written by
``replace_file`` (whole, through a temporary name and one rename) or
``append_line`` (one line appended). So in ``src/arkslice`` only those two
call ``write_bytes``, ``write_text``, ``os.replace``, or ``open`` in a
write or append mode. This finds, with the stdlib alone, any such call
elsewhere; a mode that is not a literal counts as a write.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "arkslice"
ALLOWED = {"replace_file", "append_line"}
WRITES = {"write_bytes", "write_text"}
WRITE_MODES = set("wax+")


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` is ``open(path, mode)`` or ``path.open(mode)``
    with a mode that writes."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        args = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        args = call.args[:1]
    else:
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                args[0] if args else ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(WRITE_MODES & set(mode.value))


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return f"os.{func.attr}"
        return func.attr
    return getattr(func, "id", "")


def state_writes(source: str) -> list[str]:
    """Each write call outside the allowed functions, as
    ``line <n>: <call> in <enclosing function>``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and function not in ALLOWED:
                name = _call_name(child)
                if name in WRITES or name == "os.replace" or _opens_for_writing(child):
                    found.append((child.lineno, f"{name} in {function}"))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_state_is_written_in_two_places(path):
    assert state_writes(path.read_text(encoding="utf-8")) == []


def test_the_two_writers_are_where_they_are_allowed():
    source = (SRC / "catalog.py").read_text(encoding="utf-8")
    writers = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)} & ALLOWED
    assert writers == ALLOWED


def test_a_planted_write_is_found():
    source = (
        'import os\n'
        'def replace_file(path, data):\n'
        '    path.with_name("t").write_bytes(data)\n'
        '    os.replace(path.with_name("t"), path)\n'
        'def append_line(path, line):\n'
        '    with open(path, "a") as fh:\n'
        '        fh.write(line)\n'
        'def mint(path, mode):\n'
        '    path.write_text("x")\n'
        '    with open(path, "rb") as fh:\n'
        '        fh.read()\n'
        '    with open(path, mode=mode):\n'
        '        pass\n'
        '    with path.open("w"):\n'
        '        pass\n'
        '    data = b"a".replace(b"a", b"b")\n'
        '    os.replace("a", "b")\n'
        'LOG = open("log", "a+")\n'
    )
    assert state_writes(source) == [
        "line 9: write_text in mint",
        "line 12: open in mint",
        "line 14: open in mint",
        "line 17: os.replace in mint",
        "line 18: open in <module>",
    ]
