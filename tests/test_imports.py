"""The package runs in the process that calls it: no module under
`src/skewper` imports a process pool, a subprocess or a thread library.
It keeps no unbounded memo table: `functools.cache` and `lru_cache` sit
only on the functions listed here, each of whose key sets is bounded."""

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


CACHES = ("cache", "lru_cache")
# (module, function) -> why its keys are bounded
BOUNDED_CACHES = {
    ("classify", "build_instance"): "the 240 keys `InstanceKey` admits",
    ("classify", "_catalog_skew"): "the 8 keys of PHI_CATALOG",
    ("classify", "_catalog_axis"): "s in (5, 6) and the 15 keys of MU_CATALOG",
    ("cli", "_parser"): "no arguments",
}


def cache_uses(path: Path) -> tuple[list[str], int]:
    """The functions of a module decorated by `cache` or `lru_cache` (bare,
    called, or through `functools.`), and how many times the module names
    either outside an import."""
    decorated, names = [], 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id in CACHES:
            names += 1
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            names += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in CACHES:
                    decorated.append(node.name)
    return decorated, names


def test_memo_tables_are_bounded():
    found = set()
    for path in MODULES:
        decorated, names = cache_uses(path)
        # a name used anywhere else (a call, an assignment) is a memo too
        assert names == len(decorated), f"{path.name} uses a cache outside a decorator"
        found |= {(path.stem, name) for name in decorated}
    assert found == set(BOUNDED_CACHES)
