"""Tests for permutations of {1..n}: cycle notation, composition, conjugation.

Expected values are either definitional or recomputed here by brute force,
never copied from the implementation.
"""

import itertools
import random
import re

import pytest

from skewper.perms import (
    Perm,
    format_cycles,
    parse_cycles,
    symmetric_group,
)

from paper_claims import conjugator


def brute_compose(p: Perm, q: Perm) -> dict:
    """Composition computed point by point: (p * q)(i) = p(q(i))."""
    return {i: p(q(i)) for i in range(1, p.n + 1)}


class TestConstruction:
    def test_identity(self):
        e = Perm.identity(4)
        assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]
        assert e.is_identity()

    def test_from_one_line(self):
        p = Perm.from_one_line([2, 3, 1, 4])
        assert p(1) == 2 and p(2) == 3 and p(3) == 1 and p(4) == 4

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm.from_one_line([1, 1, 3])

    def test_transposition(self):
        t = Perm.transposition(1, 2, 4)
        assert t(1) == 2 and t(2) == 1 and t(3) == 3 and t(4) == 4


class TestCycleNotation:
    def test_parse_simple(self):
        p = parse_cycles("(1,2,3)", 4)
        assert p(1) == 2 and p(2) == 3 and p(3) == 1 and p(4) == 4

    def test_parse_fixed_points_optional(self):
        assert parse_cycles("(1,2)(3)(4)", 4) == parse_cycles("(1,2)", 4)

    def test_parse_identity_forms(self):
        assert parse_cycles("id", 4).is_identity()
        assert parse_cycles("()", 4).is_identity()
        assert parse_cycles("(1)(2)(3)(4)", 4).is_identity()
        assert parse_cycles("()( )", 4).is_identity()
        assert parse_cycles("", 4).is_identity()

    def test_parse_rejects_repeats(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 4)

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,5)", 4)

    @pytest.mark.parametrize("text", ["(1 2,3)", "(1,2 3)", "(1,,2)", "(,)", "(1,2)(3 4)"])
    def test_parse_rejects_malformed_cycle(self, text):
        # a space never joins two digits, and every element is a number
        with pytest.raises(ValueError, match="^malformed cycle .* in " + re.escape(repr(text))):
            parse_cycles(text, 4)

    @pytest.mark.parametrize(
        "text, char",
        [("(１,２)", "１"), ("(1,²)", "²"), ("(1,٣)", "٣"), ("(1,2)(3,4⁰)", "⁰"), ("１", "１")],
    )
    def test_parse_accepts_only_ascii_digits(self, text, char):
        message = f"unexpected character {char!r} in {text!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            parse_cycles(text, 4)

    @pytest.mark.parametrize("text", ["", "()", "id", "()()", " ( ) ( ) ", "()()()"])
    def test_identity_without_degree_cannot_be_inferred(self, text):
        # nothing names the degree of an identity, so it is always given
        for n in (1, 4):
            assert parse_cycles(text, n) == Perm.identity(n)

    @pytest.mark.parametrize(
        "text, images",
        [
            ("( 1 , 2 )", (2, 1)),
            ("(1,2,)", (2, 1)),
            ("( )(2,3)", (1, 3, 2)),
            ("(1,2) (3)", (2, 1, 3)),
            ("(1,2),(3,4)", (2, 1, 4, 3)),
        ],
    )
    def test_parse_spacing_and_separators(self, text, images):
        assert parse_cycles(text, len(images)).images == images

    def test_format_roundtrip_all_s4(self):
        for p in symmetric_group(4):
            assert parse_cycles(format_cycles(p), 4) == p

    def test_format_identity(self):
        assert format_cycles(Perm.identity(3)) == "()"

    def test_format_with_fixed_points(self):
        t = Perm.transposition(1, 2, 4)
        assert format_cycles(t) == "(1,2)"


class TestGroupOps:
    def test_compose_matches_pointwise(self):
        rng = random.Random(7)
        perms = list(symmetric_group(4))
        for _ in range(50):
            p, q = rng.choice(perms), rng.choice(perms)
            r = p * q
            assert {i: r(i) for i in range(1, 5)} == brute_compose(p, q)

    def test_inverse(self):
        for p in symmetric_group(4):
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()

    def test_order_brute(self):
        for p in symmetric_group(4):
            k, q = 1, p
            while not q.is_identity():
                q, k = q * p, k + 1
            assert p.order() == k

    def test_conjugate(self):
        a = parse_cycles("(1,2)", 4)
        p = parse_cycles("(1,3,4)", 4)
        # a p a^-1 maps a(1) -> a(3) -> a(4): the cycle (2,3,4)
        assert p.conjugate(a) == parse_cycles("(2,3,4)", 4)

    def test_cycle_type(self):
        assert parse_cycles("(1,2)(3,4)", 4).cycle_type() == (2, 2)
        assert parse_cycles("(1,2,3)", 4).cycle_type() == (1, 3)
        assert Perm.identity(4).cycle_type() == (1, 1, 1, 1)

    def test_fixed_points(self):
        assert parse_cycles("(1,2)", 4).fixed_points() == (3, 4)
        assert Perm.identity(3).fixed_points() == (1, 2, 3)

    def test_symmetric_group_size(self):
        assert len(list(symmetric_group(1))) == 1
        assert len(list(symmetric_group(3))) == 6
        assert len(set(symmetric_group(4))) == 24


class TestConjugator:
    def test_conjugator_same_type(self):
        perms = list(symmetric_group(4))
        for p, q in itertools.product(perms, perms):
            if p.cycle_type() != q.cycle_type():
                with pytest.raises(ValueError):
                    conjugator(p, q)
            else:
                g = conjugator(p, q)
                assert p.conjugate(g) == q

    def test_conjugator_identity_pair(self):
        g = conjugator(Perm.identity(3), Perm.identity(3))
        assert g.n == 3
