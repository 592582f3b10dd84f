"""The package's export list: `skewper.__all__` names exactly the
package's modules other than `__init__` and `cli`, each bound as a
module, and `__all__` lists exactly the names `__init__` imports, so the
package re-exports no name.  Every top-level
definition of the package is reached from a program path: the CLI, a name
the benchmark calls or the README quick start.  Every field of a class the
package defines is read on a program path: `src/` outside that class,
`bench/*.py` or the README quick start.  Every default of a top-level
package function is both taken and overridden on a program path."""

import ast
import re
import types
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


def test_package_binds_exactly_its_library_modules():
    """`__init__` imports every module but `cli`, so a bare `import skewper`
    binds `skewper.classify` and the rest (the benchmark reads them after
    one), and `__all__` lists nothing else, once each: each name is
    imported from its own module."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"}
    assert len(set(skewper.__all__)) == len(skewper.__all__)
    assert sorted(skewper.__all__) == sorted(imported_names()) == sorted(modules)
    for name in modules:
        assert isinstance(getattr(skewper, name), types.ModuleType), name


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


def quick_start_code() -> str:
    """The code block of the README's library quick start."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def quick_start_roots() -> set[tuple[str, str]]:
    """The (module, name) pairs the README quick start imports, as in
    `from skewper.<module> import <name>`."""
    return {
        (node.module.removeprefix("skewper."), alias.name)
        for node in ast.parse(quick_start_code()).body
        if isinstance(node, ast.ImportFrom) and node.module.startswith("skewper.")
        for alias in node.names
    }


def test_quick_start_prints_its_comments(capsys):
    # each print line ends with a comment that opens with the output; a
    # note after it starts with " (", as in "None (not isomorphic)"
    code = quick_start_code()
    expected = [
        line.split("#", 1)[1].strip().split(" (")[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["3", "1", "None", "(0, 1, 2, 3, 5, 4)"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


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


# fields kept with no reader yet, each with the reason it stays
UNREAD_FIELDS = {
    # phase timings serve the observability aim in ROADMAP; the planned
    # `classify --json` output will print them
    ("classify", "ClassificationReport", "timings"),
}


def loaded_attributes(source: str) -> set[str]:
    """The attribute names the code loads, as in `x.name`, except those
    loaded on the name `args`: the CLI's argparse namespace has options,
    not fields, so `args.axis` reads no `axis` field."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    }


def program_sources() -> list[str]:
    """The code of the program paths: `src/`, `bench/*.py` and the README
    quick start."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return [path.read_text() for path in paths] + [quick_start_code()]


def unread_fields() -> list[str]:
    read = set().union(*map(loaded_attributes, program_sources()))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    field = (path.stem, cls.name, node.target.id)
                    if field[2] not in read and field not in UNREAD_FIELDS:
                        unread.append(".".join(field))
    return unread


def test_every_field_is_read():
    """No field of a class in the package is there for tests alone: a
    program path (the package, `bench/*.py` or the README quick start)
    loads it as an attribute.  A field declaration is not a load; a method
    of the field's own class is a program path, so `Perm.images`, read by
    `Perm`'s algebra, counts as read.  The match is by name alone, so two
    fields of one name are read together: the test is lenient there,
    never flaky.  A load on `args` is not a read (`loaded_attributes`)."""
    assert unread_fields() == []


def defaulted_parameters():
    """(module, function, parameter, position) for every parameter with a
    default of a top-level package function; keyword-only ones have no
    position."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for position, arg in enumerate(positional[first:], start=first):
                yield path.stem, node.name, arg.arg, position
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.stem, node.name, arg.arg, None


def called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unvaried_defaults() -> list[str]:
    """The defaulted parameters that no program call both passes and omits.
    Calls match by function name, as `unread_fields` matches fields; a call
    with ``*`` or ``**`` arguments counts both ways."""
    calls = [
        node
        for source in program_sources()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    ]
    unvaried = []
    for module, function, parameter, position in defaulted_parameters():
        given, omitted = False, False
        for call in calls:
            if called_name(call) != function:
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                given = omitted = True
            elif (position is not None and len(call.args) > position) or any(
                k.arg == parameter for k in call.keywords
            ):
                given = True
            else:
                omitted = True
        if not (given and omitted):
            unvaried.append(f"{module}.{function}({parameter})")
    return unvaried


def test_every_default_is_varied():
    """A default that every program call takes, or that every program call
    overrides, is an option nothing varies: drop the parameter or its
    default."""
    assert unvaried_defaults() == []
