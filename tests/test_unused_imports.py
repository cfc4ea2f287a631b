"""Every import in a package module, a test module, a script or a
benchmark module is used by that module; and the command line imports no
private name of the package.

An import whose line says `# noqa: F401` is kept on purpose and skipped.
The package's __init__.py re-exports what it imports, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([
    *(path for path in (ROOT / "src" / "coref_semscore").glob("*.py")
      if path.name != "__init__.py"),
    *(ROOT / "tests").glob("*.py"),
    *(ROOT / "scripts").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
])


def unused_imports(source: str) -> list[str]:
    """`line: name` for each name a module imports but never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom typing import (\n"
              "    IO,\n    Union,  # noqa: F401\n)\nfrom a.b import c as d\nx: IO = d\n")
    assert unused_imports(source) == ["1: os"]


def test_cli_imports_no_private_name_of_the_package():
    # The command line uses each module through its public names only.
    tree = ast.parse((ROOT / "src" / "coref_semscore" / "cli.py").read_text(encoding="utf-8"))
    private = [f"{node.lineno}: {alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or node.module.partition(".")[0] == "coref_semscore")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
