"""Guards on the layout of the source tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ttlam"


def _names_read(node: ast.AST) -> set[str]:
    """Every name read below `node`, as a bare name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes of the given modules
    (name -> source) that nothing in them reads outside their own
    definition, as "module.name", sorted.  An import alone is no read."""
    defined = []
    read = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _names_read(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append((module, stmt.name))
            read |= names
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_private_definition_has_a_reader():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_the_guard_sees_a_helper_left_without_a_caller():
    # a helper read only by itself, or only imported, counts as unused
    sources = {
        "a": "def _left(n):\n    return _left(n - 1) if n else 0\n\ndef _kept():\n    return 1\n",
        "b": "from .a import _kept, _left\n\ndef run():\n    return _kept()\n",
    }
    assert unused_private_definitions(sources) == ["a._left"]
