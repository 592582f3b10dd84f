"""The package runs in the process that calls it: no module under
`src/skewper` imports a process pool, a subprocess or a thread library.
It keeps no unbounded memo table: `functools.cache` and `lru_cache` sit
only on the functions listed here, each of whose key sets is bounded.
No module of the package reaches for `__new__` or `__setattr__` on
`object`, `Config`, `Perm` or `Skew`, so every `Config`, `Perm` and
`Skew` is built through its validating constructor.  No module of the
package or of the tests imports a name it never reads."""

import ast
from pathlib import Path

import pytest

import skewper

FORBIDDEN = ("concurrent", "multiprocessing", "subprocess", "threading")
MODULES = sorted(Path(skewper.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


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


VALIDATED = ("object", "Config", "Perm", "Skew")


def bypassing_calls(path: Path) -> list[str]:
    """Each `__new__` or `__setattr__` on `object` or a validated class
    that a module names, called or not, with its line."""
    return [
        f"line {node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("__new__", "__setattr__")
        and isinstance(node.value, ast.Name)
        and node.value.id in VALIDATED
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_construction_bypasses_validation(path):
    assert bypassing_calls(path) == [], f"{path.name} builds around a constructor"


def test_bypass_scan_finds_each_form(tmp_path):
    path = tmp_path / "bypass.py"
    path.write_text("c = Config.__new__(Config)\nobject.__setattr__(c, 'lines', ())\nnew = Perm.__new__\n")
    assert sorted(bypassing_calls(path)) == [
        "line 1: Config.__new__",
        "line 2: object.__setattr__",
        "line 3: Perm.__new__",
    ]


CACHES = ("cache", "lru_cache")
# (module, function) -> why its keys are bounded
BOUNDED_CACHES = {
    ("classify", "_catalog"): "no arguments",
    ("cli", "_parser"): "no arguments",
    ("constructions", "_role_labels"): "maxsize=4, so the last four n",
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


def unused_imports(path: Path) -> list[str]:
    """The names bound by the module-level imports of a module that nothing
    in it reads.  A string in `__all__` counts as a read, and an import
    whose lines carry ``# noqa: F401`` is exempt."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    assert len(TEST_MODULES) > 10
    found = {p.name: unused_imports(p) for p in MODULES + TEST_MODULES}
    assert {name: names for name, names in found.items() if names} == {}
