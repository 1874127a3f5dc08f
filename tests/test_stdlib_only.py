"""The core package imports nothing outside the standard library.

The one exception is the lazy ``cryptography`` import on the Ed25519 path of
``keys.py``, which only runs when a scenario selects that scheme.
"""

import ast
import sys
from pathlib import Path

import govsim

PACKAGE = Path(govsim.__file__).resolve().parent
# (file, package) pairs that may be imported, and only below module level.
ALLOWED = {("keys.py", "cryptography")}


def _third_party_imports(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    module_level = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            lazy = id(node) not in module_level
            if top not in sys.stdlib_module_names and not (
                    lazy and (path.name, top) in ALLOWED):
                found.append((name, node.lineno))
    return found


def test_core_package_is_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    offenders = {path.name: imports for path in sources
                 if (imports := _third_party_imports(path))}
    assert offenders == {}
