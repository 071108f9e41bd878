"""The library's imports against the dependencies pyproject.toml declares."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import srldpc

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(srldpc.__file__).resolve().parent


def _toml_reader():
    try:
        import tomllib
    except ImportError:  # Python 3.10
        try:
            import tomli as tomllib
        except ImportError:
            pytest.skip("no TOML reader (tomllib or tomli)")
    return tomllib


def _imported_packages():
    """Top-level names of the non-stdlib packages src/srldpc imports."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"srldpc"}


def test_declared_dependencies_match_imports():
    with (ROOT / "pyproject.toml").open("rb") as fh:
        project = _toml_reader().load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                .replace("-", "_") for req in project["dependencies"]}
    assert _imported_packages() == declared


def test_library_does_not_import_scipy():
    code = ("import sys\n"
            "import srldpc, srldpc.cli, srldpc.harness, "
            "srldpc.state_evolution\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=SRC.parent).stdout
    assert out.strip() == "False"
