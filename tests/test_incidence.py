"""Tests for partial Steiner triple systems: validation, the binomial
witness, join,
the derived incidence views and the isomorphism check.

Oracles: pairwise line intersection is recomputed here by brute force and
compared with the check a `Config` makes when it is built; join results and the incidence views are
recovered by scanning the raw line list, and `Config.binomial_n` by trying
every n against point ranks counted there.
"""

import dataclasses
import itertools
import random
from math import comb

import pytest

from skewper.classify import ALL_KEYS, MU_CATALOG, build_instance
from skewper.constructions import (
    grassmannian,
    veblen,
    veblen_label,
    veronesian,
    veronesian_axis,
)
from skewper.incidence import (
    Config,
    is_isomorphism,
    make_config,
    moved_lines,
    join,
    relabel,
)

from oracles import brute_binomial_n, brute_isos, random_partial_linear


def brute_is_partial_linear(lines) -> bool:
    """Every line has 3 distinct points and two lines share at most 1 point."""
    lines = [tuple(L) for L in lines]
    if any(len(set(L)) != 3 for L in lines):
        return False
    for L, M in itertools.combinations(lines, 2):
        if len(set(L) & set(M)) >= 2:
            return False
    return True


def brute_join(config: Config, x: int, y: int):
    if x == y:
        return x
    for L in config.lines:
        if x in L and y in L:
            (z,) = set(L) - {x, y}
            return z
    return None


def builds(num_points, lines, labels=None) -> bool:
    try:
        Config(num_points=num_points, lines=lines, labels=labels)
    except ValueError:
        return False
    return True


class TestValidate:
    """A `Config` checks itself: building one that breaks an axiom or the
    line order raises ValueError naming every violation."""

    def test_two_lines_sharing_two_points(self):
        # the lines {0,1,2} and {0,1,3} once made a Config on which
        # are_isomorphic(d, d) was None and canonical_certificate raised
        with pytest.raises(ValueError) as exc:
            make_config(4, [(0, 1, 2), (0, 1, 3)])
        assert str(exc.value) == (
            "invalid configuration: lines (0, 1, 2) and (0, 1, 3) share 2 points (0, 1)"
        )

    def test_make_config_point_out_of_range(self):
        with pytest.raises(ValueError) as exc:
            make_config(3, [(0, 1, 5)])
        assert str(exc.value) == "invalid configuration: line (0, 1, 5) uses point 5 outside 0..2"

    def test_short_line(self):
        assert not builds(3, ((0, 1, 1),))

    def test_point_out_of_range(self):
        assert not builds(3, ((0, 1, 7),))

    def test_empty_line_set_is_valid(self):
        assert make_config(5, []).lines == ()

    def test_label_non_bijection(self):
        with pytest.raises(ValueError, match="label"):
            Config(num_points=3, lines=(), labels=("x", "x", "y"))

    @pytest.mark.parametrize(
        "num_points, lines, labels, violations",
        [
            (4, ((0, 1, 2), (0, 1, 2)), None, ["line list repeats line (0, 1, 2)"]),
            (
                4,
                ((0, 1, 2), (2, 1, 0)),
                None,
                [
                    "line list repeats line (2, 1, 0)",
                    "line (2, 1, 0) is not an increasing triple",
                    "lines (0, 1, 2) and (2, 1, 0) share 2 points (0, 1)",
                    "lines (0, 1, 2) and (2, 1, 0) share 2 points (0, 2)",
                    "lines (0, 1, 2) and (2, 1, 0) share 2 points (1, 2)",
                ],
            ),
            (3, ((0, 1, 1),), None, ["line (0, 1, 1) does not consist of 3 distinct points"]),
            (3, ((0, 1),), None, ["line (0, 1) does not consist of 3 distinct points"]),
            (3, ((0, 1, 7),), None, ["line (0, 1, 7) uses point 7 outside 0..2"]),
            (3, ((-1, 0, 1),), None, ["line (-1, 0, 1) uses point -1 outside 0..2"]),
            (
                4,
                ((0, 1, 2), (0, 1, 3)),
                None,
                ["lines (0, 1, 2) and (0, 1, 3) share 2 points (0, 1)"],
            ),
            (3, (), ("x", "y"), ["label count 2 differs from point count 3"]),
            (3, (), ("x", "x", "y"), ["labels are not pairwise distinct"]),
            (
                4,
                ((0, 0, 9), (0, 1, 2), (0, 1, 2), (0, 1, 3), (1, 2, 3)),
                ("a", "a"),
                [
                    "line list repeats line (0, 1, 2)",
                    "line (0, 0, 9) does not consist of 3 distinct points",
                    "line (0, 0, 9) uses point 9 outside 0..3",
                    "lines (0, 1, 2) and (0, 1, 3) share 2 points (0, 1)",
                    "lines (0, 1, 2) and (1, 2, 3) share 2 points (1, 2)",
                    "lines (0, 1, 3) and (1, 2, 3) share 2 points (1, 3)",
                    "label count 2 differs from point count 4",
                    "labels are not pairwise distinct",
                ],
            ),
            (3, ((2, 1, 0),), None, ["line (2, 1, 0) is not an increasing triple"]),
            (6, ((3, 4, 5), (0, 1, 2)), None, ["lines (3, 4, 5) and (0, 1, 2) are out of order"]),
            (3, ((0, 1, 2.5),), None, ["line (0, 1, 2.5) holds 2.5, which is not an int"]),
            (3, ((0, 1, True),), None, ["line (0, 1, True) holds True, which is not an int"]),
            (
                3,
                [[0, 1, 2]],
                None,
                ["line list has type list, not tuple", "line [0, 1, 2] has type list, not tuple"],
            ),
            (
                5,
                ((0, 1, 2), [2, 3, 4], (0, 3, 2.0)),
                None,
                [
                    "line [2, 3, 4] has type list, not tuple",
                    "line (0, 3, 2.0) holds 2.0, which is not an int",
                ],
            ),
            (3, (), ["x", "y", "z"], ["labels have type list, not tuple"]),
            (3, (), ("x", 1, "z"), ["label 1 is not a str"]),
            (
                2,
                (),
                ("x", ["y"], ["y"]),
                [
                    "label ['y'] is not a str",
                    "label ['y'] is not a str",
                    "label count 3 differs from point count 2",
                ],
            ),
            (2.5, (), None, ["point count 2.5 is not an int"]),
            (True, (), None, ["point count True is not an int"]),
            (-1, (), None, ["point count -1 is negative"]),
            (1.5, ((0, 1, 2),), None, ["point count 1.5 is not an int"]),
        ],
        ids=[
            "repeated",
            "repeated-reordered",
            "not-distinct",
            "short",
            "out-of-range",
            "negative",
            "shared-pair",
            "label-count",
            "repeated-labels",
            "several-kinds",
            "unsorted",
            "out-of-order",
            "float-point",
            "bool-point",
            "list-lines",
            "list-and-float-line",
            "list-labels",
            "int-label",
            "unhashable-labels",
            "float-count",
            "bool-count",
            "negative-count",
            "float-count-with-lines",
        ],
    )
    def test_exact_violations(self, num_points, lines, labels, violations):
        with pytest.raises(ValueError) as exc:
            Config(num_points=num_points, lines=lines, labels=labels)
        assert str(exc.value) == "invalid configuration: " + "; ".join(violations)

    def test_check(self):
        assert make_config(7, [(0, 1, 2), (3, 4, 5), (0, 3, 6)]).lines == (
            (0, 1, 2),
            (0, 3, 6),
            (3, 4, 5),
        )
        message = (
            "invalid configuration: line (1, 2, 5) uses point 5 outside 0..3;"
            " lines (0, 1, 2) and (0, 1, 3) share 2 points (0, 1);"
            " lines (0, 1, 2) and (1, 2, 5) share 2 points (1, 2)"
        )
        with pytest.raises(ValueError) as exc:
            Config(num_points=4, lines=((0, 1, 2), (0, 1, 3), (1, 2, 5)), labels=None)
        assert str(exc.value) == message

    def test_random_structures_against_brute_force(self):
        rng = random.Random(20240817)
        for _ in range(200):
            nu = rng.randint(3, 9)
            lines = []
            for _ in range(rng.randint(0, 8)):
                pts = rng.sample(range(nu), 3) if nu >= 3 else []
                if rng.random() < 0.15 and pts:
                    pts[1] = pts[0]  # inject a degenerate line sometimes
                lines.append(tuple(pts))
            lines = tuple(tuple(sorted(L)) for L in sorted(set(lines)))
            in_order = list(lines) == sorted(lines)
            assert builds(nu, lines) == (brute_is_partial_linear(lines) and in_order)


class TestParameters:
    def test_rejects_invalid(self):
        # the configuration is refused before binomial_n can see it
        with pytest.raises(ValueError) as exc:
            make_config(4, [(0, 1, 2), (0, 1, 3)]).binomial_n
        assert str(exc.value) == (
            "invalid configuration: lines (0, 1, 2) and (0, 1, 3) share 2 points (0, 1)"
        )

    def test_triangle(self):
        c = make_config(3, [(0, 1, 2)])
        assert (c.num_points, len(c.lines)) == (3, 1)
        assert sorted(map(len, c.pairs_by_point)) == [1, 1, 1]
        assert c.binomial_n == 3  # C(3,2)=3 points, C(3,3)=1 line, ranks 1

    def test_rank_sum_equals_three_b(self):
        c = make_config(7, [(0, 1, 2), (3, 4, 5), (0, 3, 6)])
        assert sum(map(len, c.pairs_by_point)) == 3 * len(c.lines)

    def test_non_binomial(self):
        assert make_config(5, [(0, 1, 2)]).binomial_n is None

    def test_binomial_n_matches_brute_force(self):
        configs = [grassmannian(n) for n in range(3, 9)]
        configs += [veronesian_axis(n) for n in range(3, 9)]
        configs += [veblen(veblen_label(s, mu)) for s in (5, 6) for mu in MU_CATALOG.values()]
        configs += [veronesian(2), Config(0, ()), Config(1, ()), Config(6, ())]
        configs += [make_config(5, [(0, 1, 2)])]
        witnesses = [c.binomial_n for c in configs]
        assert witnesses == [brute_binomial_n(c.num_points, c.lines) for c in configs]
        assert witnesses == [*range(3, 9), *range(3, 9), *[4] * 30, 4, None, None, None, None]
        rng = random.Random(26)
        for _ in range(60):
            c = random_partial_linear(rng, rng.randint(3, 15), rng.randint(0, 40))
            assert c.binomial_n == brute_binomial_n(c.num_points, c.lines)


class TestJoin:
    def test_join_self(self):
        c = make_config(3, [(0, 1, 2)])
        assert join(c, 1, 1) == 1

    def test_join_matches_brute(self):
        rng = random.Random(5)
        lines = []
        pool = list(range(9))
        while len(lines) < 7:
            cand = tuple(sorted(rng.sample(pool, 3)))
            if brute_is_partial_linear(lines + [cand]):
                lines.append(cand)
        c = make_config(9, lines)
        for x, y in itertools.product(range(9), repeat=2):
            assert join(c, x, y) == brute_join(c, x, y)

    def test_views_match_brute(self):
        rng = random.Random(11)
        for _ in range(40):
            nu = rng.randint(3, 12)
            c = random_partial_linear(rng, nu, rng.randint(0, 12))
            # each line through p, in line order, with p removed
            assert c.pairs_by_point == tuple(
                tuple(tuple(x for x in L if x != p) for L in c.lines if p in L)
                for p in range(nu)
            )
            assert sorted(map(len, c.pairs_by_point)) == sorted(
                sum(p in L for L in c.lines) for p in range(nu)
            )
            # exactly the collinear pairs, in both orders
            assert [dict(row) for row in c.third] == [
                {
                    y: brute_join(c, x, y)
                    for y in range(nu)
                    if y != x and brute_join(c, x, y) is not None
                }
                for x in range(nu)
            ]
            # bit y of neighbours[x] exactly when x and y are collinear
            assert c.neighbours == tuple(
                sum(1 << y for y in range(nu) if y != x and brute_join(c, x, y) is not None)
                for x in range(nu)
            )

    def test_views_are_not_fields(self):
        c = make_config(5, [(0, 1, 2), (0, 3, 4)])
        before = repr(c)
        assert c.pairs_by_point and c.third and c.neighbours
        assert {f.name for f in dataclasses.fields(c)} == {"num_points", "lines", "labels"}
        assert repr(c) == before
        assert c == make_config(5, [(0, 3, 4), (0, 1, 2)])
        assert hash(c) == hash(make_config(5, [(0, 1, 2), (0, 3, 4)]))

    def test_join_symmetric(self):
        c = make_config(5, [(0, 1, 2), (0, 3, 4)])
        for x, y in itertools.combinations(range(5), 2):
            assert join(c, x, y) == join(c, y, x)


class TestIsIsomorphism:
    # the points are the nonzero vectors of GF(2)^3, shifted down by one;
    # a line is three vectors summing to zero
    FANO = make_config(
        7,
        [
            (a - 1, b - 1, c - 1)
            for a, b, c in itertools.combinations(range(1, 8), 3)
            if a ^ b ^ c == 0
        ],
    )

    def test_accepts_relabeling(self):
        c = random_partial_linear(random.Random(3), 10, 12)
        images = list(range(10))
        random.Random(4).shuffle(images)
        f = tuple(images)
        assert is_isomorphism(c, relabel(c, f), f)

    def test_accepts_automorphism(self):
        # swapping the two low coordinates is linear, so it keeps the lines
        def swap(v):
            return (v & 4) | ((v & 1) << 1) | ((v >> 1) & 1)

        f = tuple(swap(p + 1) - 1 for p in range(7))
        assert f != tuple(range(7))
        assert is_isomorphism(self.FANO, self.FANO, f)

    def test_rejects_non_bijection(self):
        c = make_config(4, [(0, 1, 2)])
        assert not is_isomorphism(c, c, (0, 1, 2, 2))
        assert not is_isomorphism(c, c, (0, 1, 2))
        assert not is_isomorphism(c, c, (0, 1, 2, 3, 4))
        assert not is_isomorphism(c, c, (0, 1, 2, 4))

    def test_rejects_map_moving_one_line_off(self):
        # swapping 4 and 5 keeps (0, 1, 2) and sends (1, 3, 5) to (1, 3, 4)
        c = make_config(7, [(0, 1, 2), (1, 3, 5)])
        assert not is_isomorphism(c, c, (0, 1, 2, 3, 5, 4, 6))

    def test_matches_brute_over_all_maps(self):
        rng = random.Random(17)
        for _ in range(30):
            nu = rng.randint(3, 6)
            c = random_partial_linear(rng, nu, rng.randint(0, 6))
            isos = set(brute_isos(c, c))
            for f in itertools.permutations(range(nu)):
                assert is_isomorphism(c, c, f) == (f in isos)

    def test_rejects_different_counts(self):
        c = make_config(5, [(0, 1, 2)])
        assert not is_isomorphism(c, make_config(6, [(0, 1, 2)]), (0, 1, 2, 3, 4))
        assert not is_isomorphism(c, make_config(5, [(0, 1, 2), (0, 3, 4)]), (0, 1, 2, 3, 4))
        assert not is_isomorphism(c, make_config(5, []), (0, 1, 2, 3, 4))


class TestRelabel:
    def test_identity(self):
        c = make_config(4, [(0, 1, 2)], labels=("w", "x", "y", "z"))
        assert relabel(c, tuple(range(4))) == c

    def test_inverse_law(self):
        c = make_config(5, [(0, 1, 2), (2, 3, 4)], labels=tuple("abcde"))
        f = (3, 0, 4, 1, 2)
        finv = tuple(f.index(p) for p in range(5))
        assert relabel(relabel(c, f), finv) == c

    def test_lines_mapped_setwise(self):
        c = make_config(4, [(0, 1, 2)])
        d = relabel(c, (3, 1, 0, 2))
        assert d.lines == ((0, 1, 3),)

    def test_labels_transported(self):
        c = make_config(3, [(0, 1, 2)], labels=("p", "q", "r"))
        d = relabel(c, (2, 0, 1))
        # the point formerly 0 (label p) is now point 2
        assert d.labels == ("q", "r", "p")

    def test_rejects_non_bijection(self):
        c = make_config(3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="bijection"):
            relabel(c, (0, 0, 2))

    def test_parameters_invariant(self):
        c = make_config(5, [(0, 1, 2), (2, 3, 4)])
        f = (4, 3, 2, 1, 0)
        d = relabel(c, f)
        assert (d.num_points, len(d.lines), d.binomial_n) == (5, 2, None)
        assert sorted(map(len, d.pairs_by_point)) == sorted(map(len, c.pairs_by_point))


class TestMovedLines:
    def test_catalog_under_seeded_relabellings(self):
        # the reference: each line's images sorted, then the list sorted
        for key in ALL_KEYS:
            config = build_instance(key).config
            rng = random.Random(repr(key))
            for _ in range(2):
                images = list(range(config.num_points))
                rng.shuffle(images)
                expected = tuple(
                    sorted(tuple(sorted(images[x] for x in L)) for L in config.lines)
                )
                assert moved_lines(config.lines, images) == expected
                assert moved_lines(config.lines, tuple(images)) == expected
                assert relabel(config, tuple(images)).lines == expected

    def test_config_line_order(self):
        lines = [(0, 1, 2), (2, 3, 4), (0, 3, 5)]
        images = (5, 4, 3, 2, 1, 0)
        moved = [[images[x] for x in L] for L in lines]
        assert moved_lines(lines, images) == make_config(6, moved).lines


class TestMakeConfig:
    def test_lines_normalized_sorted(self):
        c = make_config(5, [(4, 2, 0), (3, 1, 0)])
        assert c.lines == ((0, 1, 3), (0, 2, 4))

    def test_repeated_line_rejected(self):
        with pytest.raises(ValueError) as exc:
            make_config(4, [(0, 1, 2), (2, 1, 0)])
        assert str(exc.value) == "invalid configuration: line list repeats line (0, 1, 2)"

    def test_binomial_detection_examples(self):
        # C(n,2) points, C(n,3) lines, all ranks n-2: the smallest cases
        for n, nu, b in ((4, 6, 4), (5, 10, 10)):
            assert comb(n, 2) == nu and comb(n, 3) == b
