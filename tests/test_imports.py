"""Import hygiene of the package sources."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccmine

SOURCES = sorted(
    path for path in Path(ccmine.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports at top level and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom typing import Callable, List\nx: List = np\n"
    assert unused_imports(source) == ["os", "Callable"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_init_binds_only_the_version():
    # submodules are imported by name, so the package re-exports nothing
    tree = ast.parse(Path(ccmine.__file__).read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    docstring, *rest = tree.body
    assert isinstance(docstring, ast.Expr)
    assert all(isinstance(node, ast.Assign) for node in rest)
    assert [target.id for node in rest for target in node.targets] == ["__version__"]


# input digests are taken only by ``ioutil``; ``cooc`` hashes its trailer
# and ``llm`` its cache keys
HASHERS = {"ioutil.py", "cooc.py", "llm.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_hashers_import_hashlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert ("hashlib" in modules) == (path.name in HASHERS)


def test_scoring_leaves_the_cc_machinery_unloaded():
    # segment and score need no dictionary build, LLM client or process pool
    code = (
        "import sys, ccmine.metrics, ccmine.segment\n"
        "names = ['ccmine.ccgen', 'ccmine.cooc', 'ccmine.filters', 'ccmine.llm',\n"
        "         'concurrent.futures.process']\n"
        "print(sorted(name for name in names if name in sys.modules))"
    )
    src = str(Path(ccmine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
