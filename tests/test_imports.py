"""The package runs in the process that calls it: no module under
`src/skewper` imports a process pool, a subprocess or a thread library."""

import ast
from pathlib import Path

import pytest

import skewper

FORBIDDEN = ("concurrent", "multiprocessing", "subprocess", "threading")
MODULES = sorted(Path(skewper.__file__).parent.glob("*.py"))


def imported_modules(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"__init__", "classify", "cli", "isomorphism"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_process_or_thread_imports(path):
    found = [m for m in imported_modules(path) if m.split(".")[0] in FORBIDDEN]
    assert found == [], f"{path.name} imports {found}"
