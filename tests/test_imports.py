import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rsgmfg"
# the dependencies pyproject.toml declares, and the package itself
ALLOWED = sys.stdlib_module_names | {"numpy", "rsgmfg"}


def imported_roots(source):
    """Top-level names of the absolute imports in ``source``; relative
    imports are the package's own."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    # any import elsewhere, e.g. scipy, is an undeclared dependency, even
    # where it happens to be installed
    assert set(imported_roots("import scipy.linalg\n"
                              "from numpy import linalg\n"
                              "from . import core\n")) == {"scipy", "numpy"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    stray = {p.name: sorted(set(imported_roots(p.read_text())) - ALLOWED)
             for p in paths}
    assert not {name: bad for name, bad in stray.items() if bad}
