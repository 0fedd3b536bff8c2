"""Every module-level function and class of the library is reached from outside itself.

A definition counts as reached when its name is referenced somewhere else: as
a name, an attribute or an import alias in a library module other than
``__init__.py`` (and outside the definition's own body), as an identifier in
the acceptance suite, or as a word in the CI workflow or ``pyproject.toml``.
A helper that only its own unit tests call is not reached, and fails here.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beltramilab"


def identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def unreached() -> list[str]:
    uses = Counter()
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        uses.update(identifiers(tree))
        definitions += [
            (path.stem, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    acceptance = set(identifiers(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
    text = "\n".join((ROOT / name).read_text() for name in (".github/workflows/tier1.yml", "pyproject.toml"))
    missing = []
    for module, node in definitions:
        own = sum(1 for name in identifiers(node) if name == node.name)
        if uses[node.name] > own or node.name in acceptance or re.search(rf"\b{node.name}\b", text):
            continue
        missing.append(f"{module}.{node.name}")
    return missing


def test_every_library_definition_is_reached():
    assert unreached() == []
