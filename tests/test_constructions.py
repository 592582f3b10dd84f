"""Tests for the configuration builders.

Oracles and anchors used here:
- counts come from closed-form binomials, checked against math.comb;
- the classical identities (4-set pair structure, its complement image,
  the two named 6-point labellings with non-identity mu) are checked by
  exact line-set equality against hand-expanded pair lists;
- the complement law and the induced-relabeling law are verified
  exhaustively over every admissible (s, mu) and every alpha in S4.
"""

import itertools
import random
from math import comb

import pytest

from skewper import constructions, incidence
from skewper.analysis import stp_diagram
from skewper.incidence import Config, make_config, parameters, relabel
from skewper.perms import Perm, parse_cycles, symmetric_group
from skewper.classify import ALL_KEYS, build_instance
from skewper.skews import Skew, all_pairs, bar_alpha, make_pair, zeta
from skewper.constructions import (
    Perspective,
    PerspectiveLabeling,
    VeblenLabel,
    axis_config,
    grassmannian,
    multiset_label,
    pair_label,
    parse_veblen_text,
    perspective,
    perspective_from_config,
    veblen,
    veblen_label,
    veronesian,
    veronesian_axis,
)

from oracles import pair_of_label, perspective_by_definition, point_named, triple_of_label
from paper_claims import (
    apply_pair_map,
    identity_skew,
    kappa,
    perspective_iso,
    phi_from_skew,
    reperspective,
    star_clique_indices,
)


def lines_as_pairs(config: Config) -> set[frozenset]:
    """Translate a pair-labeled configuration's lines back to 2-subsets."""
    out = set()
    for L in config.lines:
        out.add(frozenset(pair_of_label(config.labels[x]) for x in L))
    return out


def pairset(*pairs) -> frozenset:
    return frozenset(make_pair(*p) for p in pairs)


class TestLabels:
    def test_pair_label_round_trip(self):
        for u in all_pairs(6):
            assert pair_of_label(pair_label(u)) == u

    def test_pair_label_text(self):
        assert pair_label((2, 5)) == "{2,5}"

    def test_multiset_label_round_trip(self):
        for m in itertools.product(range(4), repeat=3):
            assert triple_of_label(multiset_label(m)) == m

    def test_multiset_label_text(self):
        assert multiset_label((2, 0, 1)) == "a^2 b^0 c^1"


class TestGrassmannian:
    def test_counts(self):
        for n, nu, b in ((3, 3, 1), (4, 6, 4), (5, 10, 10), (6, 15, 20)):
            g = grassmannian(n)
            assert (g.num_points, len(g.lines)) == (nu, b)
            assert parameters(g).binomial_n == n

    def test_line_content(self):
        g = grassmannian(4)
        expected = {
            frozenset(itertools.combinations(y, 2))
            for y in itertools.combinations(range(1, 5), 3)
        }
        assert lines_as_pairs(g) == expected

    def test_labels_are_sorted_pairs(self):
        g = grassmannian(5)
        assert g.labels == tuple(pair_label(u) for u in all_pairs(5))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            grassmannian(2)


class TestVeronesian:
    def test_counts(self):
        for k in range(1, 9):
            v = veronesian(k)
            assert v.num_points == comb(k + 2, 2)
            assert len(v.lines) == comb(k + 2, 3)
            assert all(len(set(L) & set(M)) <= 1 for L, M in itertools.combinations(v.lines, 2))

    def test_single_line(self):
        v = veronesian(1)
        assert (v.num_points, len(v.lines)) == (3, 1)

    def test_weight_two_is_veblen_shape(self):
        p = parameters(veronesian(2))
        assert (p.nu, p.b) == (6, 4)
        assert p.rank_multiset == (2,) * 6

    def test_point_labels(self):
        v = veronesian(2)
        assert "a^1 b^1 c^0" in v.labels
        assert "a^0 b^0 c^2" in v.labels

    def test_lines_are_one_letter_extensions(self):
        v = veronesian(3)
        for L in v.lines:
            triples = [triple_of_label(v.labels[x]) for x in L]
            base = tuple(map(min, zip(*triples)))
            s = 3 - sum(base)
            assert s >= 1
            assert sorted(triples) == sorted(
                (
                    (base[0] + s, base[1], base[2]),
                    (base[0], base[1] + s, base[2]),
                    (base[0], base[1], base[2] + s),
                )
            )

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            veronesian(0)

    def test_axis_form_is_binomial(self):
        for k in (3, 4, 5):
            ax = veronesian_axis(k)
            assert parameters(ax).binomial_n == k
            assert ax.labels == tuple(pair_label(u) for u in all_pairs(k))

    def test_axis_relabeling_bijection(self):
        # (x, y, z) of weight k-2 pairs with {y+1, y+z+2} inside I_k
        ax = veronesian_axis(5)
        v = veronesian(3)
        assert lines_as_pairs(ax) == {
            frozenset(
                (y + 1, y + z + 2)
                for (x, y, z) in (triple_of_label(v.labels[q]) for q in L)
            )
            for L in v.lines
        }


class TestPerspective:
    def test_validates_the_axis_once(self, monkeypatch):
        """The axis checked itself when it was built; a perspective checks
        only the Config it builds."""
        calls = []
        check = incidence.Config.__post_init__

        def counted(config):
            calls.append(config)
            check(config)

        axes = grassmannian(4), grassmannian(5)
        monkeypatch.setattr(incidence.Config, "__post_init__", counted)
        first = perspective(4, zeta(4), axes[0]).config
        second = perspective(5, zeta(5), axes[1], require_binomial=False).config
        assert calls == [first, second]

    def test_invalid_axis_message(self):
        """An axis that breaks the partial-Steiner axiom cannot be built,
        so no perspective is built over it."""
        g = grassmannian(4)
        with pytest.raises(ValueError) as exc:
            make_config(6, g.lines + ((0, 1, 5),), g.labels)
        assert str(exc.value) == (
            "invalid configuration: lines (0, 1, 3) and (0, 1, 5) share 2 points (0, 1);"
            " lines (0, 1, 5) and (1, 2, 5) share 2 points (1, 5)"
        )

    def test_shape_and_parameters(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        p = parameters(persp.config)
        assert (p.nu, p.b) == (15, 20)
        assert p.binomial_n == 6
        assert p.rank_multiset == (4,) * 15

    def test_returns_config_and_labeling(self):
        persp = perspective(3, identity_skew(3), grassmannian(3))
        assert isinstance(persp.config, Config)
        assert isinstance(persp.labeling, PerspectiveLabeling)

    def test_labeling_covers_all_points(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        lab = persp.labeling
        ids = {lab.center, *lab.a, *lab.b, *lab.c.values()}
        assert ids == set(range(persp.config.num_points))
        assert persp.config.labels[lab.center] == "p"
        assert persp.config.labels[lab.a[0]] == "a1"
        assert persp.config.labels[lab.b[3]] == "b4"
        assert persp.config.labels[lab.c[(1, 2)]] == "c{1,2}"

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_labeling_is_a_function_of_n(self, n):
        lab = perspective(n, identity_skew(n), grassmannian(n)).labeling
        assert lab == PerspectiveLabeling(n)
        assert (lab.a, lab.b, lab.center) == (tuple(range(n)), tuple(range(n, 2 * n)), 2 * n)
        assert list(lab.c) == list(all_pairs(n))
        assert sorted(lab.c.values()) == list(range(2 * n + 1, 2 * n + 1 + len(lab.c)))

    def test_center_lines(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        lab = persp.labeling
        for i in range(4):
            assert tuple(sorted((lab.center, lab.a[i], lab.b[i]))) in persp.config.lines

    def test_a_side_lines(self):
        persp = perspective(4, zeta(4), grassmannian(4))
        lab = persp.labeling
        for i, j in all_pairs(4):
            line = tuple(sorted((lab.a[i - 1], lab.a[j - 1], lab.c[(i, j)])))
            assert line in persp.config.lines

    def test_b_side_lines_use_inverse_skew(self):
        sigma = zeta(3)  # self-inverse, so the b-line for {i,j} meets c at zeta({i,j})
        persp = perspective(3, sigma, grassmannian(3))
        lab = persp.labeling
        for i, j in all_pairs(3):
            expected_c = lab.c[sigma.inverse()((i, j))]
            line = tuple(sorted((lab.b[i - 1], lab.b[j - 1], expected_c)))
            assert line in persp.config.lines

    def test_axis_lines_transported(self):
        ax = grassmannian(4)
        persp = perspective(4, identity_skew(4), ax)
        lab = persp.labeling
        for L in ax.lines:
            pairs = [pair_of_label(ax.labels[x]) for x in L]
            line = tuple(sorted(lab.c[u] for u in pairs))
            assert line in persp.config.lines

    def test_arity_error(self):
        with pytest.raises(ValueError, match="ground set"):
            perspective(4, zeta(3), grassmannian(4))

    def test_label_mismatch_error(self):
        bad = Config(
            num_points=6,
            lines=(),
            labels=tuple(f"x{i}" for i in range(6)),
        )
        with pytest.raises(ValueError, match="labeled by the 2-subsets"):
            perspective(4, zeta(4), bad)

    def test_non_binomial_axis_rejected_by_default(self):
        empty = axis_config(4, [])
        with pytest.raises(ValueError, match="binomial"):
            perspective(4, zeta(4), empty)

    def test_binomial_opt_out(self):
        empty = axis_config(4, [])
        persp = perspective(4, zeta(4), empty, require_binomial=False)
        assert persp.config.num_points == 15
        assert len(persp.config.lines) == 4 + 6 + 6

    def test_five_point_identity(self):
        """The perspective over the smallest pair structure with the identity
        skew is the pair structure of a 5-set, by the witness
        p -> {4,5}, a_i -> {i,4}, b_i -> {i,5}, c_u -> u."""
        persp = perspective(3, identity_skew(3), grassmannian(3))
        lab = persp.labeling
        g5 = grassmannian(5)
        mapping = {lab.center: point_named(g5, pair_label((4, 5)))}
        for i in range(1, 4):
            mapping[lab.a[i - 1]] = point_named(g5, pair_label((i, 4)))
            mapping[lab.b[i - 1]] = point_named(g5, pair_label((i, 5)))
        for u, cid in lab.c.items():
            mapping[cid] = point_named(g5, pair_label(u))
        relined = {tuple(sorted(mapping[x] for x in L)) for L in persp.config.lines}
        assert relined == set(g5.lines)


class TestPerspectiveOracle:
    """`perspective` builds its lines on positions; it must give the
    `Config` (lines and labels) of the construction through pair
    dictionaries (`oracles.perspective_by_definition`)."""

    def test_catalog(self):
        for key in ALL_KEYS:
            p = build_instance(key)
            assert p.config == perspective_by_definition(4, p.skew, p.axis), key

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_skews(self, n):
        rng = random.Random(n)
        for axis in (grassmannian(n), veronesian_axis(n)):
            for _ in range(10):
                images = list(all_pairs(n))
                rng.shuffle(images)
                sigma = Skew.from_map(n, dict(zip(all_pairs(n), images)))
                expected = perspective_by_definition(n, sigma, axis)
                assert perspective(n, sigma, axis).config == expected

    def test_empty_axis(self):
        empty = axis_config(4, [])
        built = perspective(4, zeta(4), empty, require_binomial=False)
        assert built.config == perspective_by_definition(4, zeta(4), empty)

    def test_rejection_messages(self):
        cases = [
            (
                (4, zeta(3), grassmannian(4)),
                "skew acts on a 3-element ground set, expected 4",
            ),
            (
                (4, zeta(4), Config(6, (), tuple(f"x{i}" for i in range(6)))),
                "axis must have its 6 points labeled by the 2-subsets of {1..4} in the"
                " order of all_pairs(4)",
            ),
            (
                (4, zeta(4), axis_config(4, [])),
                "axis is not binomial on {1..4}: expected 6 points of rank 2; pass"
                " require_binomial=False to build anyway",
            ),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as exc:
                perspective(*args)
            assert str(exc.value) == message


RAW_T3 = pairset((1, 2), (1, 4), (2, 4))
RAW_T4 = pairset((1, 2), (1, 3), (2, 3))


class TestVeblen:
    def test_identity_s5_is_grassmannian(self):
        assert veblen(veblen_label(5, Perm.identity(4))) == grassmannian(4)

    def test_identity_s6_is_complement_image(self):
        assert veblen(veblen_label(6, Perm.identity(4))) == kappa(grassmannian(4))

    def test_s5_swap_exact_lines(self):
        """(1,2)(3)(4) at s=5: the two top lines T(3), T(4) plus two slanted
        lines, expanded by hand."""
        c = veblen(veblen_label(5, parse_cycles("(1,2)", 4)))
        assert lines_as_pairs(c) == {
            RAW_T3,
            RAW_T4,
            pairset((1, 4), (3, 4), (2, 3)),
            pairset((2, 4), (3, 4), (1, 3)),
        }

    def test_s5_three_cycle_exact_lines(self):
        c = veblen(veblen_label(5, parse_cycles("(1,2,3)", 4)))
        assert lines_as_pairs(c) == {
            RAW_T4,
            pairset((1, 3), (2, 4), (3, 4)),
            pairset((1, 2), (1, 4), (3, 4)),
            pairset((1, 4), (2, 4), (2, 3)),
        }

    def test_s5_three_cycle_star_triangle(self):
        """The pairs containing 4 form a triangle (pairwise collinear, not a
        line), and no other index does."""
        from skewper.incidence import join

        c = veblen(veblen_label(5, parse_cycles("(1,2,3)", 4)))

        def star_is_triangle(i):
            pts = [point_named(c, pair_label(u)) for u in all_pairs(4) if i in u]
            if tuple(sorted(pts)) in c.lines:
                return False
            return all(join(c, x, y) is not None for x, y in itertools.combinations(pts, 2))

        assert [i for i in range(1, 5) if star_is_triangle(i)] == [4]

    def test_s6_named_cases_via_complement(self):
        for mu_text in ("(1,2)", "(1,2,3)"):
            mu = parse_cycles(mu_text, 4)
            assert veblen(veblen_label(6, mu)) == kappa(veblen(veblen_label(5, mu)))

    def test_all_labellings_are_veblen_configurations(self):
        for s in (5, 6):
            for mu in symmetric_group(4):
                if not mu.fixed_points():
                    continue
                p = parameters(veblen(veblen_label(s, mu)))
                assert (p.nu, p.b) == (6, 4)
                assert p.rank_multiset == (2,) * 6

    def test_derangement_rejected(self):
        with pytest.raises(ValueError, match="no fixed point"):
            veblen_label(5, parse_cycles("(1,2)(3,4)", 4))

    def test_i0_must_be_fixed(self):
        with pytest.raises(ValueError, match="fixed"):
            VeblenLabel(s=5, mu=parse_cycles("(1,2)", 4), i0=1)

    def test_bad_s(self):
        with pytest.raises(ValueError, match="s"):
            veblen_label(4, Perm.identity(4))

    def test_i0_choice_does_not_matter(self):
        for s in (5, 6):
            for mu in symmetric_group(4):
                fixed = mu.fixed_points()
                if len(fixed) < 2:
                    continue
                built = {veblen(VeblenLabel(s=s, mu=mu, i0=i0)) for i0 in fixed}
                assert len(built) == 1

    def test_default_i0_is_largest_fixed_point(self):
        lab = veblen_label(5, parse_cycles("(1,2)", 4))
        assert lab.i0 == 4

    def test_parse_veblen_text(self):
        lab = parse_veblen_text("v5:(1)(2)(3,4)")
        assert lab.s == 5
        assert lab.mu == parse_cycles("(3,4)", 4)
        with pytest.raises(ValueError):
            parse_veblen_text("w5:(1,2)")


class TestKappa:
    def test_involution(self):
        for s in (5, 6):
            c = veblen(veblen_label(s, parse_cycles("(1,2,3)", 4)))
            assert kappa(kappa(c)) == c

    def test_complement_law_all_cases(self):
        for s in (5, 6):
            for mu in symmetric_group(4):
                if not mu.fixed_points():
                    continue
                assert kappa(veblen(veblen_label(s, mu))) == veblen(
                    veblen_label(11 - s, mu)
                )

    def test_rejects_non_pair_labels(self):
        with pytest.raises(ValueError):
            kappa(veronesian(2))

    def test_rejects_wrong_ground_set(self):
        with pytest.raises(ValueError):
            kappa(grassmannian(5))


class TestApplyPairMap:
    def test_identity(self):
        g = grassmannian(4)
        assert apply_pair_map(g, identity_skew(4)) == g

    def test_preserves_labels_in_place(self):
        g = grassmannian(4)
        image = apply_pair_map(g, zeta(4))
        assert image.labels == g.labels

    def test_composition(self):
        c = veblen(veblen_label(5, parse_cycles("(1,2,3)", 4)))
        s, t = zeta(4), bar_alpha(parse_cycles("(1,4)", 4))
        assert apply_pair_map(apply_pair_map(c, s), t) == apply_pair_map(c, t * s)

    def test_symmetry_image_of_complemented_structure(self):
        """The zeta image of the s=6 identity labelling is the s=6 labelling
        with the 3-cycle (1,2,3); derived by direct expansion of all four
        lines."""
        gstar = veblen(veblen_label(6, Perm.identity(4)))
        assert apply_pair_map(gstar, zeta(4)) == veblen(
            veblen_label(6, parse_cycles("(1,2,3)", 4))
        )

    def test_induced_relabeling_law(self):
        """bar(alpha) images of a labelling: mu conjugates by alpha; checked
        for every alpha in S4 and every admissible (s, mu)."""
        for alpha in symmetric_group(4):
            amap = bar_alpha(alpha)
            for s in (5, 6):
                for mu in symmetric_group(4):
                    if not mu.fixed_points():
                        continue
                    left = apply_pair_map(veblen(veblen_label(s, mu)), amap)
                    right = veblen(veblen_label(s, mu.conjugate(alpha)))
                    assert left == right


class TestAxisOrder:
    """Axis point k is the pair all_pairs(n)[k]; labels only echo it."""

    def shifted(self) -> Config:
        g = grassmannian(4)
        return relabel(g, {x: (x + 1) % g.num_points for x in range(g.num_points)})

    def test_out_of_order_axis_rejected(self):
        moved = self.shifted()
        with pytest.raises(ValueError, match="in the order of all_pairs"):
            perspective(4, zeta(4), moved)
        with pytest.raises(ValueError, match="in the order of all_pairs"):
            apply_pair_map(moved, zeta(4))

    def test_axis_config_restores_the_order(self):
        moved = self.shifted()
        rebuilt = axis_config(
            4, ([pair_of_label(moved.labels[x]) for x in L] for L in moved.lines)
        )
        assert perspective(4, zeta(4), rebuilt) == perspective(4, zeta(4), grassmannian(4))

    def test_library_reads_positions_not_labels(self):
        v5 = veblen(veblen_label(5, parse_cycles("(1,2)", 4)))

        def results():
            host = perspective(4, zeta(4), grassmannian(4))
            twisted = perspective(4, zeta(4), v5)
            return (
                host,
                veronesian_axis(5),
                apply_pair_map(v5, zeta(4)),
                kappa(v5),
                perspective_iso(twisted, twisted),
                reperspective(perspective(5, zeta(5), grassmannian(5))),
                stp_diagram(host),
                star_clique_indices(host, phi_from_skew(zeta(4))),
            )

        expected = results()
        assert not hasattr(constructions, "parse_pair_label")
        assert not hasattr(constructions, "parse_multiset_label")
        assert not hasattr(Config, "point_by_label")
        assert results() == expected


class TestPerspectiveFromConfig:
    def test_round_trip(self):
        for sigma, axis in (
            (zeta(4), veblen(veblen_label(5, parse_cycles("(1,2)", 4)))),
            (identity_skew(3), grassmannian(3)),
            (zeta(5), veronesian_axis(5)),
        ):
            persp = perspective(sigma.n, sigma, axis)
            back = perspective_from_config(persp.config)
            assert back.skew == sigma
            assert back.axis == axis
            assert back.labeling == persp.labeling
            assert back.config == persp.config

    def test_rejects_unlabeled(self):
        with pytest.raises(ValueError):
            perspective_from_config(Config(num_points=3, lines=((0, 1, 2),), labels=None))

    def test_relabeled_file_reads_onto_the_layout(self):
        """Labels move with their points; the reader returns the perspective
        as `perspective` built it, in its own point ids."""
        rng = random.Random(20261018)
        for persp in (
            perspective(4, zeta(4), veblen(veblen_label(5, parse_cycles("(1,2)", 4)))),
            perspective(3, identity_skew(3), grassmannian(3)),
            perspective(5, zeta(5), veronesian_axis(5)),
            perspective(4, bar_alpha(parse_cycles("(1,2,3)", 4)), grassmannian(4)),
        ):
            for _ in range(4):
                images = list(range(persp.config.num_points))
                rng.shuffle(images)
                back = perspective_from_config(relabel(persp.config, dict(enumerate(images))))
                assert back.skew == persp.skew
                assert back.axis == persp.axis
                assert back.config == persp.config
                assert back.labeling == persp.labeling

    def host(self) -> Perspective:
        return perspective(4, zeta(4), grassmannian(4))

    def test_rejects_a_repeated_center_label(self):
        """An isolated extra point named p repeats a label, which no Config
        holds; under a fresh name it leaves the labels off the role set."""
        c = self.host().config
        with pytest.raises(ValueError, match="labels are not pairwise distinct"):
            Config(c.num_points + 1, c.lines, c.labels + ("p",))
        extra = Config(c.num_points + 1, c.lines, c.labels + ("q",))
        with pytest.raises(ValueError, match="role names"):
            perspective_from_config(extra)

    def test_rejects_a_label_outside_the_roles(self):
        c = self.host().config
        labels = tuple("q" if name == "c{1,2}" else name for name in c.labels)
        with pytest.raises(ValueError, match="role names"):
            perspective_from_config(Config(c.num_points, c.lines, labels))

    def test_rejects_an_a_label_swapped_with_a_c_label(self):
        c = self.host().config
        swap = {"a1": "c{3,4}", "c{3,4}": "a1"}
        labels = tuple(swap.get(name, name) for name in c.labels)
        with pytest.raises(ValueError):
            perspective_from_config(Config(c.num_points, c.lines, labels))

    def test_rejects_b_side_lines_that_are_not_a_bijection(self):
        """Two b-side lines through one axial point, none through another:
        still a partial Steiner triple system, but no skew."""
        host = self.host()
        c, lab = host.config, host.labeling
        b_lines = [L for L in c.lines if len(set(L) & set(lab.b)) == 2]
        first = b_lines[0]
        second = next(L for L in b_lines if not set(L) & set(first))
        moved = tuple(sorted([*(set(first) & set(lab.b)), *(set(second) - set(lab.b))]))
        bad = Config(
            c.num_points, tuple(sorted(moved if L == first else L for L in c.lines)), c.labels
        )
        with pytest.raises(ValueError, match="skew"):
            perspective_from_config(bad)

    def test_rejects_a_moved_axis_line(self):
        host = self.host()
        c, lab = host.config, host.labeling
        axial = set(lab.c.values())
        first = next(L for L in c.lines if set(L) <= axial)
        other = min(axial - set(first))
        moved = tuple(sorted((first[0], first[1], other)))
        # the moved line shares a pair with another axis line, so no Config
        # holds the lines
        with pytest.raises(ValueError, match="share 2 points"):
            Config(
                c.num_points, tuple(sorted(moved if L == first else L for L in c.lines)), c.labels
            )
