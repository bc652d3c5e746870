"""Every private helper in src/tbk has a use in src/tbk.

A function, method or class whose name starts with one underscore is
internal to the package, so nothing outside it keeps it alive: once the
last caller goes, so should it.  Tests and perfbench/tracing.py may use
such names too, but only a use in the package counts.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tbk"


def names_read(tree):
    """Counter of the names and attribute names that tree reads."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def private_definitions_and_uses():
    """({name: "file:line"}, uses): the private functions, methods and
    classes of src/tbk, and the reads of each name outside the bodies of
    the definitions so named, so recursion alone keeps nothing alive."""
    defined = {}
    used = Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used += names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, f"{path.relative_to(SRC)}:{node.lineno}")
                    used[name] -= names_read(node)[name]
    return defined, used


def test_every_private_function_method_and_class_is_used():
    defined, used = private_definitions_and_uses()
    assert len(defined) > 40
    unused = sorted(f"{name} ({where})" for name, where in defined.items() if used[name] <= 0)
    assert not unused, unused
