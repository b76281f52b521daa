"""Every public top-level function and class in ``src/`` is used there.

A definition counts as used when a name or attribute of that name occurs
in some other top-level statement of some module. Import lines and
``__all__`` strings are no use, so a re-export from an ``__init__`` does
not count, and neither does a definition that only refers to itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _public_definitions_and_uses():
    definitions, uses = [], {}
    for path in sorted(SRC.rglob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in module.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if not statement.name.startswith("_"):
                    definitions.append((path, statement))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add(statement)
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add(statement)
    return definitions, uses


def test_every_public_definition_is_used_in_src():
    definitions, uses = _public_definitions_and_uses()
    assert definitions
    unused = [
        f"{path.relative_to(SRC)}:{d.lineno} {d.name}"
        for path, d in definitions
        if not uses.get(d.name, set()) - {d}
    ]
    assert unused == []
