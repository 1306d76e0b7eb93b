"""Every third-party import is declared in ``pyproject.toml``.

The package code under ``src/repro`` may import only what
``[project] dependencies`` declares; ``tests/`` and ``benchmarks/`` may
also import the ``test`` extra.  Modules in ``sys.stdlib_module_names``,
first-party modules, relative imports and imports guarded by
``try: ... except ImportError`` (optional features) are exempt.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _toml_string_array(table, key):
    """The string array ``key = [...]`` of ``[table]`` in pyproject.toml.

    A regex reader, because ``tomllib`` is not in Python 3.10's stdlib.
    """
    text = PYPROJECT.read_text(encoding="utf-8")
    section = re.search(
        rf"^\[{re.escape(table)}\]\n(.*?)(?=^\[|\Z)", text, re.DOTALL | re.MULTILINE
    )
    assert section, f"no [{table}] table in pyproject.toml"
    match = re.search(rf"^{key}\s*=\s*(\[.*?\])", section.group(1), re.DOTALL | re.MULTILINE)
    assert match, f"no {key} = [...] in [{table}]"
    return ast.literal_eval(match.group(1))


def _names(requirements):
    """Distribution names of requirement strings (``numpy>=1.24`` -> ``numpy``)."""
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_") for req in requirements}


def _is_import_guard(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in ("ImportError", "ModuleNotFoundError") for n in names)


def _required_imports(tree):
    """Top-level module names of the absolute, unguarded imports in ``tree``."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(_is_import_guard(h) for h in node.handlers):
            for statement in node.body:
                guarded.update(id(inner) for inner in ast.walk(statement))
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def undeclared_imports(directory, declared):
    """``{module: [files]}`` of third-party imports under ``directory`` not in ``declared``."""
    directory = Path(directory)
    # First-party: the package itself and the modules and packages at the
    # top of ``directory`` (conftest helpers, test utilities).
    local = {"repro"} | {
        path.stem for path in directory.iterdir() if path.suffix == ".py" or path.is_dir()
    }
    missing = {}
    for path in sorted(directory.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module in _required_imports(tree):
            if module in sys.stdlib_module_names or module in local:
                continue
            if module.lower() not in declared:
                missing.setdefault(module, []).append(str(path.relative_to(directory)))
    return missing


def test_package_imports_are_runtime_dependencies():
    declared = _names(_toml_string_array("project", "dependencies"))
    assert undeclared_imports(ROOT / "src" / "repro", declared) == {}


def test_test_imports_are_runtime_or_test_dependencies():
    declared = _names(_toml_string_array("project", "dependencies")) | _names(
        _toml_string_array("project.optional-dependencies", "test")
    )
    for directory in ("tests", "benchmarks"):
        assert undeclared_imports(ROOT / directory, declared) == {}, directory


def test_scan_sees_the_package_third_party_imports():
    # The scan must see the package's real third-party imports, or the
    # checks above would pass vacuously.
    assert {"numpy", "scipy"} <= set(undeclared_imports(ROOT / "src" / "repro", set()))


def test_scan_flags_undeclared_and_skips_exempt_imports(tmp_path):
    (tmp_path / "helper.py").write_text("VALUE = 1\n")
    (tmp_path / "module.py").write_text(
        "import json\n"
        "import numpy.linalg\n"
        "from yaml import safe_load\n"
        "from . import sibling\n"
        "import helper\n"
        "try:\n"
        "    import tomllib\n"
        "except ImportError:\n"
        "    tomllib = None\n"
        "def late():\n"
        "    import requests\n"
    )
    missing = undeclared_imports(tmp_path, {"numpy"})
    assert set(missing) == {"yaml", "requests"}


def test_requirement_names_drop_specifiers():
    assert _names(["numpy>=1.24", "scipy", "pytest-cov ; python_version>'3'", "x[extra]==1"]) == {
        "numpy",
        "scipy",
        "pytest_cov",
        "x",
    }
