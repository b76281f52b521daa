"""Every public top-level function and class in ``src/`` is used there, and
so is every public method of a public class and every name a module other
than an ``__init__`` imports.

A definition counts as used when a name or attribute of that name occurs
in some other statement of some module: another top-level statement, or,
for a method, anything outside the method itself. Import lines and
``__all__`` strings are no use, so a re-export from an ``__init__`` does
not count, and neither does a definition that only refers to itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = {
    path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(SRC.rglob("*.py"))
}


def _public_definitions_and_uses():
    """Public top-level definitions, public methods of public classes, and per
    name the statements that name it; a method counts as its own statement."""
    definitions, uses = [], {}
    for path, module in MODULES.items():
        statements = []
        for statement in module.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if not statement.name.startswith("_"):
                    definitions.append((path, statement))
            if isinstance(statement, ast.ClassDef):
                methods = [node for node in statement.body if isinstance(node, ast.FunctionDef)]
                if not statement.name.startswith("_"):
                    definitions += [(path, m) for m in methods if not m.name.startswith("_")]
                statements += [(m, m) for m in methods]
                rest = [node for node in statement.body if node not in methods]
                statements += [(statement, node) for node in [*statement.decorator_list,
                                                              *statement.bases, *rest]]
            else:
                statements.append((statement, statement))
        for owner, statement in statements:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add(owner)
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


def test_no_module_copies_or_reads_an_instance_dict():
    """``copy.copy`` and every read of ``__dict__`` or ``vars()`` materialise an
    object's attribute dict, which takes CPython 3.11+ off its inline-attribute
    fast path for that object for good."""
    found = []
    for path, module in MODULES.items():
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                bad = any(alias.name == "copy" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = node.module == "copy"
            elif isinstance(node, ast.Attribute):
                bad = node.attr == "__dict__"
            elif isinstance(node, ast.Call):
                bad = isinstance(node.func, ast.Name) and node.func.id == "vars"
            else:
                continue
            if bad:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    """An ``__init__`` re-exports what it imports; any other module uses every
    name its imports bind, so a deletion leaves no import behind."""
    unused = []
    for path, module in MODULES.items():
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(SRC)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


# Per guarded attribute, the (class, method) pairs that may read or write it:
# an environment's episode is its reset/step state, and FuzzyEnv's noise stream
# is keyed by reset and drawn from by _reward. Path scoring and training read
# none of them.
EPISODE_OWNERS = {
    **{attr: {("Environment", m) for m in ("__init__", "reset", "step", "reward_table")}
       for attr in ("_instance", "_t", "_done", "_history")},
    **{attr: {("FuzzyEnv", "reset"), ("FuzzyEnv", "_reward")} for attr in ("_seed", "_rng")},
}


def test_only_the_episode_methods_touch_the_episode():
    found = []
    for path, module in MODULES.items():
        scopes = []  # (class name or None, method name or None, node)
        for statement in module.body:
            if isinstance(statement, ast.ClassDef):
                scopes += [(statement.name, node.name if isinstance(node, ast.FunctionDef)
                            else None, node) for node in statement.body]
            else:
                scopes.append((None, None, statement))
        for cls, method, scope in scopes:
            for node in ast.walk(scope):
                if (isinstance(node, ast.Attribute) and node.attr in EPISODE_OWNERS
                        and (cls, method) not in EPISODE_OWNERS[node.attr]):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno} {cls}.{method} "
                                 f"{node.attr}")
    assert found == []
