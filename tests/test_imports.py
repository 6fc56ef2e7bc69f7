"""Import hygiene of the package sources."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccmine
from ccmine.ccgen import CCDictionary

from conftest import EXPECTED_DICT_G001, write_scene_dataset

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


def loaded_after(imports: str, names: list[str], then: str = "") -> list[str]:
    """Which of ``names`` a fresh interpreter has loaded after ``imports``
    and the statement ``then``, sorted."""
    code = (
        f"import sys, {imports}\n{then}\n"
        f"print(sorted(name for name in {names!r} if name in sys.modules))"
    )
    src = str(Path(ccmine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_scoring_leaves_the_cc_machinery_unloaded():
    # segment and score need no dictionary build, LLM client or process pool
    names = [
        "ccmine.ccgen", "ccmine.cooc", "ccmine.filters", "ccmine.llm", "concurrent.futures.process"
    ]
    assert loaded_after("ccmine.metrics, ccmine.segment", names) == []


def test_cc_generation_leaves_the_counting_and_filtering_unloaded():
    # a dictionary is built from candidate arrays and looked up without
    # the pair counter or its process pool; the filter stage and the LLM
    # client load only when a build or an LLM generation runs
    names = ["ccmine.cooc", "ccmine.filters", "ccmine.llm", "concurrent.futures.process"]
    assert loaded_after("ccmine.ccgen", names) == []


# what only mining and dictionary builds run
BUILD_ONLY = ["ccmine.cooc", "ccmine.filters", "concurrent.futures.process", "multiprocessing"]


def test_cli_import_leaves_the_build_stack_unloaded():
    assert loaded_after("ccmine.cli", BUILD_ONLY) == []


@pytest.mark.parametrize(
    "job",
    ["eval", "eval-classic", "sweep-sigmoid", "sweep-beta", "segment", "gen-cc-dict"],
)
def test_scoring_jobs_leave_the_build_stack_unloaded(tmp_path, toy_embeddings_path, job):
    features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
    dict_path = tmp_path / "cc.json"
    CCDictionary({k: list(v) for k, v in EXPECTED_DICT_G001.items()}).save(dict_path)
    cc = ["--cc-mode", "dict", "--cc-dict", dict_path]
    data = [
        "--features-dir", features_dir, "--gt-dir", gt_dir,
        "--embeddings", toy_embeddings_path, "--out-json", tmp_path / "report.json",
    ]
    argv = {
        "eval": ["eval", *data, *cc],
        "eval-classic": ["eval", *data, "--metric", "miou-classic", *cc],
        "sweep-sigmoid": ["sweep", *data, "--param", "sigmoid", "--steps", "4"],
        "sweep-beta": ["sweep", *data, "--param", "beta", "--values", "0.5,0.99", *cc],
        "segment": [
            "segment", "--features", features_dir / "img0.feat", "--embeddings",
            toy_embeddings_path, "--query", "boat", "--out", tmp_path / "out.seg", *cc,
        ],
        "gen-cc-dict": [
            "gen-cc", "--mode", "dict", "--cc-dict", dict_path, "--query", "boat",
            "--embeddings", toy_embeddings_path, "--out", tmp_path / "cc.out.json",
        ],
    }[job]
    run = f"assert ccmine.cli.main({[str(a) for a in argv]!r}) == 0"
    assert loaded_after("ccmine.cli", BUILD_ONLY, then=run) == []


def test_one_mining_worker_leaves_the_process_pool_unloaded(
    tmp_path, toy_corpus_path, toy_lexicon_path
):
    argv = [
        "mine", "--corpus", toy_corpus_path, "--lexicon", toy_lexicon_path, "--workers", "1",
        "--out-matrix", tmp_path / "pairs.cooc", "--out-counts", tmp_path / "occ.counts",
    ]
    run = f"assert ccmine.cli.main({[str(a) for a in argv]!r}) == 0"
    names = ["concurrent.futures.process", "multiprocessing"]
    assert loaded_after("ccmine.cli", names, then=run) == []


def inner_imports(source: str, module: str) -> list[str]:
    """``module.function: import`` for each import that is not at module
    level, in source order.  A module-level block, ``if TYPE_CHECKING:``
    among them, runs at load time and counts as module level."""
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and scope:
                found.append(f"{module}.{scope}: {ast.unparse(child)}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_checker_finds_the_imports_inside_functions():
    source = (
        "import os\n"
        "if TYPE_CHECKING:\n    import numpy\n"
        "def f():\n    if os:\n        from .a import b\n"
        "class C:\n    def g(self):\n        import json\n"
    )
    assert inner_imports(source, "m") == ["m.f: from .a import b", "m.C.g: import json"]


# every import that runs only when its function does, there because only
# the jobs that call the function need what it loads: a new one is added
# here on purpose
INNER_IMPORTS = [
    "ccgen.build_dictionary: from .filters import filter_rows",
    "ccgen.cc_llm: from .llm import ask_cc",
    "cli._build: from .cooc import CoocMatrix, load_counts, normalize",
    "cli._build: from .filters import VisibilityTable, accept_unknown, reject_unknown",
    "cli.cmd_mine: from .cooc import mine_corpus, save_counts",
    "cooc.mine_corpus: from concurrent.futures import ProcessPoolExecutor",
    "llm._http_transport: import http.client",
    "llm._http_transport: import urllib.error",
    "llm._http_transport: import urllib.request",
]


def test_imports_inside_functions_are_pinned():
    found = [
        line
        for path in SOURCES
        for line in inner_imports(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert sorted(found) == INNER_IMPORTS
