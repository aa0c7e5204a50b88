"""``requirements.txt`` must declare every third-party module ``src/`` imports.

CI installs exactly that file, so an undeclared import fails there at
collection time; this test fails first, naming the missing module.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST_PARTY = {"repro"}


def imported_top_level_modules(package_dir: Path) -> set[str]:
    """Top-level names of every absolute import under ``package_dir``."""
    modules = set()
    for path in package_dir.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def declared_modules(requirements: Path) -> set[str]:
    """Import names of the distributions listed in ``requirements``."""
    declared = set()
    for line in requirements.read_text(encoding="utf-8").splitlines():
        name = re.split(r"[\s#;<>=!~\[]", line.strip(), maxsplit=1)[0]
        if name:
            declared.add(name.lower().replace("-", "_"))
    return declared


def test_every_third_party_import_is_declared():
    third_party = {
        module
        for module in imported_top_level_modules(ROOT / "src")
        if module not in sys.stdlib_module_names and module not in FIRST_PARTY
    }
    missing = third_party - declared_modules(ROOT / "requirements.txt")
    assert not missing, f"imported by src/ but not in requirements.txt: {sorted(missing)}"
