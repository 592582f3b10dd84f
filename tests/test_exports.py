"""The package's export list: every name in `skewper.__all__` resolves,
and `__all__` lists exactly the names `__init__` imports."""

import ast
from pathlib import Path

import skewper


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
