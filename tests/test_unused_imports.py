"""Every import in a package module, a test module or a script is used by
that module; and checks on what the package's modules may read.

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


def attribute_reads(source: str, name: str) -> list[int]:
    """The line of each read of an attribute `name` in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == name]


def test_no_module_but_the_model_reads_mentions():
    # Every stage reads and writes a cluster's columns; Cluster.mentions
    # builds Mention values for the public API and the tests only.
    reads = {path.name: attribute_reads(path.read_text(encoding="utf-8"), "mentions")
             for path in (ROOT / "src" / "coref_semscore").glob("*.py") if path.name != "model.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}
    assert attribute_reads("x = c.mentions\nc.spans\nmentions = 1\n", "mentions") == [1]


def test_no_module_but_the_model_reads_semantic_spans():
    # Every stage reads a document's cner triples; Document.semantic_spans
    # builds SemanticSpan values for the public API and the tests only.
    reads = {path.name: attribute_reads(path.read_text(encoding="utf-8"), "semantic_spans")
             for path in (ROOT / "src" / "coref_semscore").glob("*.py") if path.name != "model.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}
