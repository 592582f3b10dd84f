"""Tests for free cliques, star indices, the crossing predicate,
re-perspectives, and the 3x3 line diagrams.

Oracles used here:
- free-clique enumeration and free-containment are cross-checked against
  the three-condition definition applied to the raw line list, over all
  vertex subsets of small and seeded random configurations;
- star indices from the level-fixing formula are cross-checked against
  direct free-containment of the candidate vertex sets;
- the crossing predicate's formula route is compared with a literal
  line-intersection scan;
- every diagram concurrence is re-verified with join() inside the tests;
- every diagram, or its error text, equals that of `reference_stp_diagram`,
  which orders the rows through the skew, on the catalog, on every skew
  over G(2,4) and on seeded non-binomial axes.
"""

import itertools
import random

import pytest

from skewper.incidence import join
from skewper.perms import Perm, parse_cycles
from skewper.skews import Skew, all_pairs, make_pair, phi_sequence, skew_from_phi, zeta
from skewper.classify import ALL_KEYS, build_instance
from skewper.constructions import (
    axis_config,
    grassmannian,
    pair_label,
    perspective,
    veblen,
    veblen_label,
    veronesian,
)
from skewper.analysis import (
    StpDiagram,
    enumerate_free_cliques,
    freely_contains,
    stp_diagram,
)

from oracles import (
    brute_free_cliques,
    is_free_by_definition,
    point_named,
    random_partial_linear,
    reference_stp_diagram,
    triple_of_label,
)
from paper_claims import (
    cross_fixed_level_criterion,
    cross_predicate,
    free_star_indices,
    identity_skew,
    reperspective,
    star_clique_indices,
    stp_equivalent,
)


def planted_system(rng, k):
    """A seeded random partial Steiner triple system that holds the lines of
    a free k-clique on random points, and that clique's vertices."""
    nu = k + k * (k - 1) // 2 + rng.randint(3, 6)
    points = rng.sample(range(nu), nu)
    thirds = iter(points[k:])
    planted = [(x, y, next(thirds)) for x, y in itertools.combinations(points[:k], 2)]
    return random_partial_linear(rng, nu, rng.randint(0, 30), planted), points[:k]


def star_ids(persp, i0):
    return {persp.labeling.c[u] for u in all_pairs(persp.n) if i0 in u}


ZETA4_PHI = phi_sequence(4, {4: parse_cycles("(1,3)", 3), 3: parse_cycles("(1,2)", 2)})
ZETA5_PHI = phi_sequence(
    5, {5: parse_cycles("(1,4)(2,3)", 4), 4: parse_cycles("(1,3)", 3), 3: parse_cycles("(1,2)", 2)}
)


class TestFreelyContains:
    def test_row_clique_present(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        lab = persp.labeling
        vertices = {lab.center, *lab.a}
        clique = freely_contains(persp.config, vertices)
        assert clique is not None and clique.vertices == vertices
        # the 10 edges lie on 10 distinct lines
        edge_lines = {
            tuple(sorted((u, v, join(persp.config, u, v))))
            for u, v in itertools.combinations(vertices, 2)
        }
        assert len(edge_lines) == 10 and edge_lines <= set(persp.config.lines)

    def test_collinear_triple_absent(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        line = persp.config.lines[0]
        assert freely_contains(persp.config, set(line)) is None

    def test_noncollinear_pair_absent(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        lab = persp.labeling
        # two a-row points and a b-point of a different index are not pairwise collinear
        assert freely_contains(persp.config, {lab.a[0], lab.b[1]}) is None

    def test_star_clique_present(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        lab = persp.labeling
        vertices = {lab.a[3], lab.b[3]} | star_ids(persp, 4)
        assert freely_contains(persp.config, vertices) is not None

    def test_disjoint_edge_condition(self):
        """Four pairwise collinear vertices with injective edge lines still
        fail when the lines of two disjoint edges meet."""
        from skewper.incidence import make_config

        lines = [(0, 1, 4), (2, 3, 4), (0, 2, 5), (1, 3, 5), (0, 3, 6), (1, 2, 6)]
        bad = make_config(7, lines)
        assert freely_contains(bad, {0, 1, 2, 3}) is None
        # moving one crossing point apart makes the same vertex set free
        lines[1] = (2, 3, 7)
        lines[3] = (1, 3, 8)
        lines[5] = (1, 2, 9)
        good = make_config(10, lines)
        assert freely_contains(good, {0, 1, 2, 3}) is not None

    def test_matches_definition_on_random_vertex_sets(self):
        rng = random.Random(20260502)
        for _ in range(300):
            c, clique = planted_system(rng, rng.randint(0, 5))
            vs = rng.sample(clique, rng.randint(0, len(clique)))
            vs += rng.sample(range(c.num_points), rng.randint(0, 2))
            found = freely_contains(c, vs)
            assert (found is not None) == is_free_by_definition(c.lines, set(vs))
            if found is not None:
                assert found.vertices == frozenset(vs)


class TestEnumerateFreeCliques:
    def test_pair_structure_of_5_set(self):
        found = enumerate_free_cliques(grassmannian(5), 4)
        assert len(found) == 5

    def test_matches_brute_force_small(self):
        g = grassmannian(4)
        got = [tuple(sorted(c.vertices)) for c in enumerate_free_cliques(g, 3)]
        assert got == brute_free_cliques(g.num_points, g.lines, 3)

    def test_matches_brute_force_perspective(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        got = [tuple(sorted(c.vertices)) for c in enumerate_free_cliques(persp.config, 5)]
        assert got == brute_free_cliques(persp.config.num_points, persp.config.lines, 5)

    def test_matches_brute_force_random_systems(self):
        rng = random.Random(20260501)
        for k in range(6):
            for _ in range(4):
                c, _ = planted_system(rng, k)
                for m in range(6):
                    found = enumerate_free_cliques(c, m)
                    got = [tuple(sorted(fc.vertices)) for fc in found]
                    assert got == brute_free_cliques(c.num_points, c.lines, m)
                    for fc in found:
                        assert freely_contains(c, fc.vertices) == fc

    def test_perspective_has_exactly_three(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        lab = persp.labeling
        found = {tuple(sorted(c.vertices)) for c in enumerate_free_cliques(persp.config, 5)}
        expected = {
            tuple(sorted({lab.center, *lab.a})),
            tuple(sorted({lab.center, *lab.b})),
            tuple(sorted({lab.a[3], lab.b[3]} | star_ids(persp, 4))),
        }
        assert found == expected

    def test_weight5_multiset_structure(self):
        v = veronesian(5)
        found = enumerate_free_cliques(v, 6)
        assert len(found) == 3
        supports = set()
        for c in found:
            zero = {0, 1, 2}
            for x in c.vertices:
                triple = triple_of_label(v.labels[x])
                zero &= {i for i in range(3) if triple[i] == 0}
            assert len(zero) == 1
            supports |= zero
        assert supports == {0, 1, 2}

    def test_deterministic_order(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        once = [tuple(sorted(c.vertices)) for c in enumerate_free_cliques(persp.config, 5)]
        assert once == sorted(once)


class TestStarCliqueIndices:
    def test_symmetry_skew_only_top_index(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        assert star_clique_indices(persp, ZETA4_PHI) == {4}

    def test_identity_skew_all_indices(self):
        for n in (4, 5):
            persp = perspective(n, identity_skew(n), grassmannian(n))
            assert star_clique_indices(persp, phi_sequence(n, {})) == set(range(1, n + 1))

    def test_no_star_triangle_axis(self):
        phi = phi_sequence(4, {3: parse_cycles("(1,2)", 2)})
        persp = perspective(4, skew_from_phi(phi), veblen(veblen_label(6, Perm.identity(4))))
        assert star_clique_indices(persp, phi) == set()

    def test_mismatched_phi_rejected(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        with pytest.raises(ValueError, match="skew"):
            star_clique_indices(persp, phi_sequence(4, {}))

    def test_formula_matches_brute_force(self):
        cases = [
            (ZETA4_PHI, veblen(veblen_label(5, parse_cycles("(1,2)", 4)))),
            (ZETA4_PHI, veblen(veblen_label(5, parse_cycles("(1,2,3)", 4)))),
            (phi_sequence(4, {}), veblen(veblen_label(5, Perm.identity(4)))),
            (phi_sequence(4, {4: parse_cycles("(2,3)", 3)}), veblen(veblen_label(5, parse_cycles("(3,4)", 4)))),
            (phi_sequence(4, {3: parse_cycles("(1,2)", 2)}), veblen(veblen_label(6, parse_cycles("(1,2)", 4)))),
        ]
        for phi, axis in cases:
            persp = perspective(4, skew_from_phi(phi), axis)
            assert star_clique_indices(persp, phi) == free_star_indices(persp)


class TestCrossPredicate:
    def test_small_k_rejected(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        with pytest.raises(ValueError, match="k > 3"):
            cross_predicate(persp, 3)

    def test_out_of_range_k(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        with pytest.raises(ValueError):
            cross_predicate(persp, 5)

    def test_top_index_always_true(self):
        persp = perspective(5, zeta(5), grassmannian(5))
        assert cross_predicate(persp, 5)

    def test_symmetry_skew_inner_index_false(self):
        persp = perspective(5, zeta(5), grassmannian(5))
        assert not cross_predicate(persp, 4)

    def test_identity_skew_inner_index_true(self):
        persp = perspective(5, identity_skew(5), grassmannian(5))
        assert cross_predicate(persp, 4)

    def test_scan_matches_level_criterion(self):
        rng = random.Random(2024)
        for _ in range(12):
            levels = {}
            for j in range(3, 6):
                perm = list(range(1, j))
                rng.shuffle(perm)
                levels[j] = Perm.from_one_line(perm)
            phi = phi_sequence(5, levels)
            persp = perspective(5, skew_from_phi(phi), grassmannian(5))
            for k in (4, 5):
                assert cross_predicate(persp, k) == cross_fixed_level_criterion(phi, k)


class TestReperspective:
    def test_requires_symmetry_skew(self):
        persp = perspective(4, identity_skew(4), grassmannian(4))
        with pytest.raises(ValueError, match="symmetry"):
            reperspective(persp)

    def test_requires_free_top_star(self):
        persp = perspective(4, zeta(4), veblen(veblen_label(6, Perm.identity(4))))
        with pytest.raises(ValueError, match="free"):
            reperspective(persp)

    def test_grassmannian_axis_gives_identity_inner_part(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        rep = reperspective(persp)
        assert rep.rho0.is_identity()

    def test_rho_top_block(self):
        persp = perspective(5, zeta(5), grassmannian(5))
        rep = reperspective(persp)
        for i in range(1, 5):
            assert rep.rho.inverse()((i, 5)) == make_pair(5 - i, 5)

    def test_axis_is_binomial(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        rep = reperspective(persp)
        assert rep.axis.binomial_n == 4

    def test_witness_is_verified_bijection(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        rep = reperspective(persp)
        assert sorted(rep.witness.keys()) == list(range(persp.config.num_points))
        assert sorted(rep.witness.values()) == list(range(persp.config.num_points))
        mapped = {
            tuple(sorted(rep.witness[x] for x in L)) for L in persp.config.lines
        }
        assert mapped == set(rep.rebuilt.config.lines)

    def test_extracted_axis_join_pattern(self):
        """Spot checks of the extracted axis for the 5-set host: the joins
        follow the two characterizing rules (edge joins through the top index
        drop to the difference pair; inner joins follow the 3-subset rule)."""
        persp = perspective(5, zeta(5), grassmannian(5))
        rep = reperspective(persp)
        ax = rep.axis

        def pid(u):
            return point_named(ax, pair_label(u))

        assert join(ax, pid((1, 5)), pid((2, 5))) == pid((1, 2))
        assert join(ax, pid((1, 5)), pid((3, 5))) == pid((2, 3))
        assert join(ax, pid((2, 5)), pid((3, 5))) == pid((1, 3))
        assert join(ax, pid((1, 2)), pid((1, 3))) == pid((2, 3))
        assert join(ax, pid((1, 2)), pid((3, 4))) is None

    def test_five_set_round(self):
        persp = perspective(5, zeta(5), grassmannian(5))
        rep = reperspective(persp)
        c1, c2 = rep.rebuilt.config, persp.config
        assert (c1.num_points, len(c1.lines), c1.binomial_n) == (
            c2.num_points,
            len(c2.lines),
            c2.binomial_n,
        )
        assert sorted(map(len, c1.pairs_by_point)) == sorted(map(len, c2.pairs_by_point))


class TestStpDiagram:
    def test_identity_instance(self):
        persp = perspective(4, identity_skew(4), grassmannian(4))
        d = stp_diagram(persp)
        lab = persp.labeling
        assert d.rows == (
            (lab.a[0], lab.a[1], lab.a[2]),
            (lab.b[0], lab.b[1], lab.b[2]),
            (lab.c[(1, 4)], lab.c[(2, 4)], lab.c[(3, 4)]),
        )
        for (r1, k1), (r2, k2), _ in d.matching:
            assert k1 == k2  # all three cross-row matchings are diagonal

    def test_fig_style_instance(self):
        persp = perspective(4, zeta(4), veblen(veblen_label(5, parse_cycles("(1,2)", 4))))
        d = stp_diagram(persp)
        lab = persp.labeling
        assert d.rows == (
            (lab.a[0], lab.a[1], lab.a[2]),
            (lab.b[1], lab.b[0], lab.b[2]),
            (lab.c[(2, 4)], lab.c[(1, 4)], lab.c[(3, 4)]),
        )
        got = {((r1, k1), (r2, k2)) for (r1, k1), (r2, k2), _ in d.matching}
        assert got == {
            ((0, 1), (1, 0)),
            ((0, 0), (1, 1)),
            ((0, 2), (1, 2)),
            ((0, 1), (2, 0)),
            ((0, 0), (2, 1)),
            ((0, 2), (2, 2)),
            ((1, 0), (2, 0)),
            ((1, 2), (2, 1)),
            ((1, 1), (2, 2)),
        }

    def test_concurrences_verified_independently(self):
        persp = perspective(4, zeta(4), veblen(veblen_label(5, parse_cycles("(1,2)", 4))))
        lab = persp.labeling
        d = stp_diagram(persp)
        apex_by_rows = {(0, 1): lab.center, (0, 2): lab.a[3], (1, 2): lab.b[3]}
        seen = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
        for (r1, k1), (r2, k2), apex in d.matching:
            assert join(persp.config, d.rows[r1][k1], d.rows[r2][k2]) == apex
            assert apex == apex_by_rows[(r1, r2)]
            seen[(r1, r2)] += 1
        assert all(v == 3 for v in seen.values())

    def test_column_pairs_concur_in_top_line(self):
        persp = perspective(4, zeta(4), veblen(veblen_label(5, parse_cycles("(1,2)", 4))))
        lab = persp.labeling
        d = stp_diagram(persp)
        for r, s in itertools.combinations(range(3), 2):
            apexes = {
                join(persp.config, d.rows[row][r], d.rows[row][s]) for row in range(3)
            }
            assert apexes == {lab.c[(r + 1, s + 1)]}

    def test_missing_third_clique_rejected(self):
        persp = perspective(4, zeta(4), veblen(veblen_label(6, Perm.identity(4))))
        with pytest.raises(ValueError, match="free"):
            stp_diagram(persp)

    def test_equivalence_reflexive(self):
        persp = perspective(4, zeta(4), veblen(veblen_label(5, parse_cycles("(1,2)", 4))))
        d = stp_diagram(persp)
        assert stp_equivalent(d, d)

    def test_identity_vs_twisted_not_equivalent(self):
        d1 = stp_diagram(perspective(4, identity_skew(4), grassmannian(4)))
        d2 = stp_diagram(
            perspective(4, zeta(4), veblen(veblen_label(5, parse_cycles("(1,2)", 4))))
        )
        assert not stp_equivalent(d1, d2)

    def test_row_permuted_diagram_equivalent(self):
        persp = perspective(4, identity_skew(4), grassmannian(4))
        d = stp_diagram(persp)
        permuted = StpDiagram(
            rows=(d.rows[1], d.rows[0], d.rows[2]),
            matching=tuple(
                tuple(
                    sorted(
                        (
                            ({0: 1, 1: 0, 2: 2}[r1], k1),
                            ({0: 1, 1: 0, 2: 2}[r2], k2),
                        )
                    )
                )
                + (apex,)
                for (r1, k1), (r2, k2), apex in d.matching
            ),
        )
        assert stp_equivalent(d, permuted)


def diagram_or_error(build, persp):
    """The diagram `build` draws for persp, or its ValueError text."""
    try:
        return build(persp)
    except ValueError as error:
        return str(error)


class TestStpDiagramMatchesReference:
    """`stp_diagram` against `reference_stp_diagram`, which orders two rows
    by the skew's action on the inner pairs: the same diagram or the same
    error text on every input."""

    def drawn_as_reference(self, perspectives):
        """Assert that both functions agree on each perspective, and return
        how many have a diagram."""
        drawn = 0
        for persp in perspectives:
            got = diagram_or_error(stp_diagram, persp)
            assert got == diagram_or_error(reference_stp_diagram, persp), persp.skew
            drawn += isinstance(got, StpDiagram)
        return drawn

    def test_catalog(self):
        assert self.drawn_as_reference(build_instance(key) for key in ALL_KEYS) == 48

    def test_every_skew_over_the_grassmannian(self):
        axis = grassmannian(4)
        perspectives = (
            perspective(4, Skew(4, images), axis)
            for images in itertools.permutations(range(6))
        )
        assert self.drawn_as_reference(perspectives) == 36

    def test_seeded_non_binomial_axes(self):
        # every other axis starts from the three lines joining the axial
        # points {i,4} through distinct inner pairs, so some have a diagram
        rng = random.Random(27)
        pairs = all_pairs(4)
        outer = [k for k, u in enumerate(pairs) if 4 in u]
        inner = [k for k, u in enumerate(pairs) if 4 not in u]
        skews = list(itertools.permutations(range(6)))
        perspectives = []
        for trial in range(40):
            lines = []
            if trial % 2:
                lines = [
                    tuple(sorted((*edge, z)))
                    for edge, z in zip(itertools.combinations(outer, 2), rng.sample(inner, 3))
                ]
            found = random_partial_linear(rng, 6, rng.randint(0, 6), lines)
            axis = axis_config(4, ([pairs[x] for x in L] for L in found.lines))
            if axis.binomial_n is None:
                perspectives += [
                    perspective(4, Skew(4, images), axis)
                    for images in rng.sample(skews, 24)
                ]
        assert (len(perspectives), self.drawn_as_reference(perspectives)) == (864, 24)
