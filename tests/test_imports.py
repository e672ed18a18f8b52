"""Import hygiene of the package, read from its source with `ast`.

Every module but `__init__` (which re-exports) reads every name it imports,
so a simplification leaves no import behind; no module imports another
module's private name but the listed ones; and the package imports only the
standard library and its declared runtime dependencies.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sofreg"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(tree: ast.Module):
    """(node, bound name, imported top-level module or None if relative) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0], alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = node.module.split(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield node, alias.asname or alias.name, top


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def runtime_dependencies() -> set[str]:
    """Import names of the `[project] dependencies` in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[\w.-]+", req).group().replace("-", "_").lower() for req in declared}


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 1


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = parse(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted(name for _, name, _ in imports(tree) if name not in read)
    assert unread == [], f"{path.name} imports names it never reads: {unread}"


#: (importing module, imported module, name) of each private name one module
#: imports from another. Both go once the replicates of `simulation` run on a
#: per-sample plan in place of the sample memo (ROADMAP.md).
PRIVATE_IMPORTS = {
    ("simulation.py", "estimators", "_first_stage_basis"),
    ("simulation.py", "estimators", "_sample_observance"),
}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_another_modules_private_name_but_the_listed_ones():
    private = {(path.name, node.module, alias.name)
               for path in MODULES for node in ast.walk(parse(path))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if is_private(alias.name)}
    assert private == PRIVATE_IMPORTS


def test_only_the_standard_library_and_declared_dependencies_are_imported():
    allowed = set(sys.stdlib_module_names) | runtime_dependencies()
    assert runtime_dependencies() == {"numpy"}
    foreign = sorted({f"{path.name}:{node.lineno}: {top}"
                      for path in MODULES for node, _, top in imports(parse(path))
                      if top is not None and top not in allowed})
    assert foreign == []
