"""`Perm` and `Skew` take a tuple of int and nothing else: a float or bool
entry equal to a valid one, or a list, is rejected with one exact message
rather than built (a float-holding `Perm` used to print as ``()``, and a
list-holding one could not be hashed)."""

import re

import pytest

from skewper.perms import Perm
from skewper.skews import Skew


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
    ],
)
def test_wrong_types_rejected(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()


def test_int_tuples_still_build():
    assert str(Perm((2, 1))) == "(1,2)"
    assert Perm(()).n == 0
    assert Skew(3, (1, 0, 2)).images == ((1, 3), (1, 2), (2, 3))
