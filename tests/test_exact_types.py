"""`Perm` and `Skew` take a tuple of int and nothing else: a float or bool
entry equal to a valid one, or a list, is rejected with one exact message
rather than built (a float-holding `Perm` used to print as ``()``, and a
list-holding one could not be hashed).  `InstanceKey`, `VeblenLabel` and
`enumerate_free_cliques` take an exact int where they take a number: a
bool key used to print as ``(True,5,1)``, a float switch used to build,
and a float clique size used to index the point table from its end.
`is_isomorphism` and `relabel` take a point map as a tuple of int only:
a complete dict used to pass both, a bool entry passed `is_isomorphism`,
and a float entry raised TypeError from inside it."""

import re

import pytest

from skewper.analysis import enumerate_free_cliques
from skewper.classify import InstanceKey, build_instance
from skewper.constructions import grassmannian, perspective, veblen, veblen_label
from skewper.incidence import is_isomorphism, make_config, relabel
from skewper.perms import Perm, parse_cycles
from skewper.skews import Skew, zeta


def host():
    return perspective(4, zeta(4), grassmannian(4)).config


LINE = make_config(3, [(0, 1, 2)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Perm((1.0, 2)), "image list (1.0, 2) holds 1.0, which is not an int"),
        (lambda: Perm((True, 2)), "image list (True, 2) holds True, which is not an int"),
        (lambda: Perm((2, 1, None)), "image list (2, 1, None) holds None, which is not an int"),
        (lambda: Perm([2, 1]), "image list has type list, not tuple"),
        (lambda: Perm("21"), "image list has type str, not tuple"),
        (
            lambda: Skew(4, (0, 1, 2, 3, 4, 5.0)),
            "point map (0, 1, 2, 3, 4, 5.0) holds 5.0, which is not an int",
        ),
        (lambda: Skew(3, (False, 1, 2)), "point map (False, 1, 2) holds False, which is not an int"),
        (lambda: Skew(4, [0, 1, 2, 3, 4, 5]), "point map has type list, not tuple"),
        (lambda: Skew(4.0, (0, 1, 2, 3, 4, 5)), "ground set size 4.0 is not an int"),
        (lambda: Skew(True, ()), "ground set size True is not an int"),
        (lambda: str(InstanceKey(True, 5, 1)), "f must be in 1..8, got True"),
        (lambda: build_instance(InstanceKey(1, 5.0, 1)), "s must be 5 or 6, got 5.0"),
        (lambda: InstanceKey(1, 5, 1.0), "i must be in 1..15, got 1.0"),
        (
            lambda: veblen(veblen_label(5.0, parse_cycles("(1,2)", 4))),
            "s must be 5 or 6, got 5.0",
        ),
        (lambda: enumerate_free_cliques(host(), 4.5), "clique size 4.5 is not an int"),
        (lambda: enumerate_free_cliques(host(), True), "clique size True is not an int"),
        pytest.param(
            lambda: is_isomorphism(LINE, LINE, {0: 0, 1: 1, 2: 2}),
            "point map has type dict, not tuple",
            id="is_isomorphism-dict",
        ),
        pytest.param(
            lambda: is_isomorphism(LINE, LINE, [0, 1, 2]),
            "point map has type list, not tuple",
            id="is_isomorphism-list",
        ),
        pytest.param(
            lambda: is_isomorphism(LINE, LINE, (0, True, 2)),
            "point map (0, True, 2) holds True, which is not an int",
            id="is_isomorphism-bool",
        ),
        pytest.param(
            lambda: is_isomorphism(LINE, LINE, (0, 1, 2.0)),
            "point map (0, 1, 2.0) holds 2.0, which is not an int",
            id="is_isomorphism-float",
        ),
        pytest.param(
            lambda: relabel(LINE, {0: 2, 1: 0, 2: 1}),
            "point map has type dict, not tuple",
            id="relabel-dict",
        ),
        pytest.param(
            lambda: relabel(LINE, [2, 0, 1]),
            "point map has type list, not tuple",
            id="relabel-list",
        ),
        pytest.param(
            lambda: relabel(LINE, (2, 0, True)),
            "point map (2, 0, True) holds True, which is not an int",
            id="relabel-bool",
        ),
        pytest.param(
            lambda: relabel(LINE, (2.0, 0, 1)),
            "point map (2.0, 0, 1) holds 2.0, which is not an int",
            id="relabel-float",
        ),
    ],
)
def test_wrong_types_rejected(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()


def test_int_tuples_still_build():
    assert str(Perm((2, 1))) == "(1,2)"
    assert Perm(()).n == 0
    assert Skew(3, (1, 0, 2)).images == ((1, 3), (1, 2), (2, 3))
