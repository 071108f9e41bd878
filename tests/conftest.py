"""Make the console scripts declared in ``pyproject.toml`` runnable.

The suite may run from a source checkout (``PYTHONPATH=src``) where the
package was never installed, so ``[project.scripts]`` entries such as
``srldpc`` are not on PATH.  For each declared script that PATH lacks,
a session fixture writes a launcher equivalent to the wrapper pip
generates and prepends its directory to PATH for the session.  Scripts
already on PATH (installed environments) are used unchanged.

The cpus fixture sets the CPU count of the affinity mask that harness
reads, and with it the number of workers that decode a point's batches.
The getters fixture runs every OpenBLAS on two threads for a test.
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ImportError:  # Python 3.10
    try:
        import tomli as tomllib
    except ImportError:
        tomllib = None

import srldpc
from helpers import openblas_thread_getters
from srldpc import blas

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

LAUNCHER = """#!{python}
import sys
sys.path.insert(0, {src!r})
from {module} import {func}
sys.exit({func}())
"""


def _declared_scripts():
    if tomllib is None or not PYPROJECT.is_file():
        return {}
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh).get("project", {}).get("scripts", {})


@pytest.fixture(scope="session", autouse=True)
def console_scripts_on_path(tmp_path_factory):
    missing = {name: target for name, target in _declared_scripts().items()
               if shutil.which(name) is None}
    if not missing:
        yield
        return
    bin_dir = tmp_path_factory.mktemp("bin")
    src = str(Path(srldpc.__file__).resolve().parent.parent)
    for name, target in missing.items():
        module, _, func = target.partition(":")
        script = bin_dir / name
        script.write_text(LAUNCHER.format(
            python=sys.executable, src=src, module=module.strip(),
            func=func.strip()))
        script.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", str(bin_dir) + os.pathsep + os.environ.get("PATH", ""))
        yield


@pytest.fixture()
def cpus(monkeypatch):
    """cpus(k) makes os.sched_getaffinity report k CPUs for the test."""
    def force(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return force


@pytest.fixture()
def getters():
    """The OpenBLAS thread-count getters, with every OpenBLAS on two
    threads for the test and on its own count again after it."""
    getters = openblas_thread_getters()
    if not getters:
        pytest.skip("no OpenBLAS with a known thread-count getter loaded")
    original = [get() for get in getters]
    blas.set_threads(2)
    assert [get() for get in getters] == [2] * len(getters)
    yield getters
    for (_, put), count in zip(blas._libraries(), original):
        put(count)
