"""No module imports another module's private helper.

Each `from .module import _name` inside the package must be listed in
ALLOWED with the reason it stays private.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "frobetti"

# perfbench/tracer.py wraps these by module attribute name; renaming them
# public would silently drop their per-layer metrics
ALLOWED = {
    ("hk", "linkage", "_fmul_rows"),  # traced as linkage.fmul_rows
    ("resolution", "linkage", "_fmul_rows"),  # traced as linkage.fmul_rows
    ("resolution", "ffla", "_mulmod"),  # traced as ffla.products
}


def _private_imports():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield path.stem, node.module or "", alias.name


def test_no_private_name_crosses_modules():
    found = set(_private_imports())
    assert found - ALLOWED == set()


def test_allowlist_has_no_stale_entries():
    assert ALLOWED <= set(_private_imports())
