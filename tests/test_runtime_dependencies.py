"""The package imports nothing beyond the standard library, numpy and scipy;
only ``node_similarity`` imports numpy or scipy, and loads them only when
node-sim runs; and no module imports a leading-underscore name from another
module of the package.

The imports are checked statically, from each module's syntax tree, so no
module is imported. What is loaded is checked in fresh interpreters: importing
``augdist`` or ``augdist.cli`` loads neither numpy nor scipy, and neither does
an ``evaluate`` of the bundled corpus with any algorithm but node-sim.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "augdist"
CORPUS = Path(__file__).resolve().parent / "data" / "corpus"
NUMERIC = {"numpy", "scipy"}
ALLOWED = sys.stdlib_module_names | NUMERIC


def _imports(source: str) -> list[ast.Import | ast.ImportFrom]:
    """The import statements anywhere in a module's source."""
    return [
        node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _absolute_imports(source: str) -> set[str]:
    """Top-level module names of the absolute imports in a module's source."""
    names: set[str] = set()
    for node in _imports(source):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _private_sibling_imports(source: str) -> set[str]:
    """Leading-underscore names a module imports from within its package."""
    return {
        alias.name
        for node in _imports(source)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or node.module.partition(".")[0] == PACKAGE.name)
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_reads_absolute_imports_only():
    source = (
        "import os.path, numpy as np\n"
        "from scipy.optimize import linear_sum_assignment\n"
        "from . import ged\n"
        "from .graphs import AUG\n"
    )
    assert _absolute_imports(source) == {"os", "numpy", "scipy"}


def test_reads_private_sibling_imports_only():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from . import _private_module, ged\n"
        "from .ged import CostModel, _assign as assign\n"
        "from augdist.graphs import _DELETED\n"
        "def f():\n"
        "    from .exas import _cosine\n"
    )
    assert _private_sibling_imports(source) == {
        "_private_module", "_assign", "_DELETED", "_cosine"
    }


def test_no_module_imports_a_private_name_of_a_sibling():
    imported = {
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_sibling_imports(path.read_text(encoding="utf-8"))
    }
    assert not imported, sorted(imported)


def test_package_imports_only_stdlib_numpy_and_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path.read_text(encoding="utf-8"))
        if name not in ALLOWED
    }
    assert not outside, sorted(outside)


def test_only_node_similarity_imports_numpy_or_scipy():
    importers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _absolute_imports(path.read_text(encoding="utf-8")) & NUMERIC
    }
    assert importers == {"node_similarity.py"}


def _numeric_modules_loaded_after(code: str) -> list[str]:
    """Which of numpy and scipy a fresh interpreter has loaded after ``code``."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    report = f"print(sorted(sys.modules.keys() & {NUMERIC!r}), file=sys.stderr)"
    probe = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return ast.literal_eval(probe.stderr.strip().splitlines()[-1])


def test_cli_import_leaves_scipy_unloaded():
    for module in ("augdist", "augdist.cli"):
        assert _numeric_modules_loaded_after(f"import {module}") == [], module


def test_evaluate_without_node_sim_leaves_numpy_unloaded(tmp_path):
    from augdist.cli import ALGORITHMS

    algorithms = [algorithm for algorithm in ALGORITHMS if algorithm != "node-sim"]
    assert len(algorithms) == 7
    runs = [
        ["evaluate", str(CORPUS / "rules"), str(CORPUS), "-a", algorithm, "-o", str(tmp_path / algorithm)]
        for algorithm in algorithms
    ]
    code = f"from augdist.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0, argv"
    assert _numeric_modules_loaded_after(code) == []
    assert all((tmp_path / algorithm / "applicability.csv").is_file() for algorithm in algorithms)
