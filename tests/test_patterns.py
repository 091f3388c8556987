"""Every token pattern in ``src/arkslice`` matches whole strings.

A pattern anchored with ``^…$`` and used with ``.match`` accepts a final
newline, because ``$`` also matches just before one. So a pattern is
compiled unanchored and called with ``fullmatch``; this finds, with the
stdlib alone, a ``re.compile`` literal that starts with ``^`` or ends with
``$``, and any ``.match`` on a name ending in ``_RE``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "arkslice"


def _literal(node) -> str | None:
    """The text of a string literal or f-string, its holes left out."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value for v in node.values if isinstance(v, ast.Constant))
    return None


def anchored_patterns(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile" and node.args
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"):
            text = _literal(node.args[0])
            if text is not None and (text.startswith("^") or text.endswith("$")):
                found.append((node.lineno, f"re.compile({text!r})"))
        if (isinstance(node, ast.Attribute) and node.attr == "match"
                and isinstance(node.value, ast.Name)
                and node.value.id.endswith("_RE")):
            found.append((node.lineno, f"{node.value.id}.match"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_anchored_pattern(path):
    assert anchored_patterns(path.read_text(encoding="utf-8")) == []


def test_an_anchored_pattern_is_found():
    source = (
        'import re\n'
        'A_RE = re.compile(r"^[0-9]+")\n'
        'B_RE = re.compile(\n    r"[a-z]+$")\n'
        'C_RE = re.compile(f"[{x}]+")\n'
        'A_RE.match(s)\n'
        'map(B_RE.match, cells)\n'
        'C_RE.fullmatch(s)\n'
        'm.match(s)\n'
    )
    assert anchored_patterns(source) == [
        "line 2: re.compile('^[0-9]+')",
        "line 3: re.compile('[a-z]+$')",
        "line 6: A_RE.match",
        "line 7: B_RE.match",
    ]
