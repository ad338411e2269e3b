"""The runtime dependency stays numpy alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

IMPORT_EVERY_MODULE = """
import pkgutil
import romga
for info in pkgutil.walk_packages(romga.__path__, "romga."):
    __import__(info.name)
"""

PRINT_MODULES = """
import sys
print(" ".join(sorted(sys.modules)))
"""


def _loaded_modules(code: str) -> set[str]:
    """Names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code + PRINT_MODULES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_importing_every_romga_module_loads_numpy_alone():
    # a bare interpreter may already load site hooks of the environment
    # (setuptools' _distutils_hack, certifi); only what romga adds counts
    bare = {name.split(".")[0] for name in _loaded_modules("")}
    loaded = _loaded_modules(IMPORT_EVERY_MODULE)
    modules = {f"romga.{path.stem}" for path in (ROOT / "src" / "romga").glob("[!_]*.py")}
    assert modules and modules <= loaded
    # sysconfig's platform data module is stdlib, under a per-platform name
    top_level = {
        name.split(".")[0] for name in loaded if not name.startswith("_sysconfigdata_")
    }
    added = top_level - bare - set(sys.stdlib_module_names) - {"numpy", "romga"}
    assert added == set(), f"romga imports non-stdlib modules {sorted(added)}"
