"""Every definition under ``src/repro`` is named somewhere besides itself.

A function or class whose name appears once across the source, the
tests, the benchmarks, the examples and the CI workflows is its own
definition and nothing else: no caller, no test, no bench, no CI step.
Such code is deleted rather than kept "just in case". The count is by
identifier, so a name shared with another definition, a keyword
argument or an attribute elsewhere also passes: the check is a floor,
not a call graph.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _searched_files():
    for top in SEARCHED:
        yield from (ROOT / top).rglob("*.py")
    yield from (path for path in (ROOT / ".github").rglob("*") if path.is_file())


def _definitions():
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.relative_to(ROOT), node.lineno, node.name


def test_every_src_definition_is_named_elsewhere():
    names = Counter()
    for path in _searched_files():
        names.update(IDENTIFIER.findall(path.read_text(errors="replace")))
    lonely = [
        f"{path}:{line} {name}"
        for path, line, name in _definitions()
        if names[name] < 2
    ]
    assert not lonely, "defined but named nowhere else:\n" + "\n".join(lonely)
