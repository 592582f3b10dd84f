"""The package's export list: every name in `skewper.__all__` resolves,
and `__all__` lists exactly the names `__init__` imports.  Every top-level
definition of the package is reached from a program path: the CLI, a name
the benchmark calls or the README quick start."""

import ast
import re
from pathlib import Path

import skewper

PACKAGE = Path(skewper.__file__).parent
ROOT = Path(__file__).parent.parent


def imported_names() -> list[str]:
    tree = ast.parse(Path(skewper.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_exported_name_resolves():
    for name in skewper.__all__:
        assert hasattr(skewper, name), name


def test_all_lists_exactly_the_imported_names():
    assert len(set(skewper.__all__)) == len(skewper.__all__)
    assert sorted(skewper.__all__) == sorted(imported_names())


DEFINITIONS = (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def defined_names(node) -> list[str]:
    """The names a top-level statement defines; module metadata such as
    `__all__` and `__version__` is not a definition."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return [node.name]
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def loaded_names(node) -> set[str]:
    return {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def package_scan():
    """Per module: its top-level definitions (name -> node), where each name
    it imports from the package comes from (name -> (module, name)), and
    the names its other top-level statements load when it is imported."""
    definitions, imports, import_time = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        definitions[module], imports[module], import_time[module] = {}, {}, set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, DEFINITIONS) and defined_names(node):
                for name in defined_names(node):
                    definitions[module][name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                import_time[module] |= loaded_names(node)
    return definitions, imports, import_time


def resolve(definitions, imports, module, name):
    """The (module, name) of the definition `name` denotes in `module`, or
    None for a name from outside the package."""
    while name not in definitions.get(module, {}):
        if name not in imports.get(module, {}):
            return None
        module, name = imports[module][name]
    return module, name


def bench_roots() -> set[tuple[str, str]]:
    """The package names the benchmark calls: its `sk.<module>.<name>` and
    `skewper.<module>.<name>` references, and the functions its tracing
    table wraps."""
    roots = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= set(re.findall(r"\b(?:sk|skewper)\.(\w+)\.(\w+)", path.read_text()))
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    for _, module, name in ast.literal_eval(table).values():
        roots.add((module.removeprefix("skewper."), name))
    return roots


def quick_start_roots() -> set[tuple[str, str]]:
    """The names the README quick start imports from `skewper`."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return {
        ("__init__", alias.name)
        for node in ast.parse(code).body
        if isinstance(node, ast.ImportFrom) and node.module == "skewper"
        for alias in node.names
    }


def unreached_definitions() -> list[str]:
    definitions, imports, import_time = package_scan()
    roots = {("cli", name) for name in definitions["cli"]}
    roots |= bench_roots() | quick_start_roots()
    start = set()
    for module, name in roots:
        target = resolve(definitions, imports, module, name)
        assert target is not None, f"{module}.{name} names no package definition"
        start.add(target)
    for module, names in import_time.items():
        start |= {resolve(definitions, imports, module, n) for n in names} - {None}
    reached, frontier = set(start), list(start)
    while frontier:
        module, name = frontier.pop()
        for loaded in loaded_names(definitions[module][name]):
            target = resolve(definitions, imports, module, loaded)
            if target is not None and target not in reached:
                reached.add(target)
                frontier.append(target)
    return sorted(
        f"{module}.{name}"
        for module, names in definitions.items()
        for name in names
        if (module, name) not in reached
    )


def test_every_definition_is_reached():
    """No top-level definition in the package is there for tests alone.
    Methods are out of scope: those of `Perm` and `Skew` are the types'
    algebra."""
    assert unreached_definitions() == []
