"""Tests for the instance catalog and the exhaustive classification run.

Structural invariants are checked against recomputation from per-instance
data; known coincidences (the Grassmannian instance, conjugation
collisions) serve as anchors.
"""

import multiprocessing
import os
from collections import Counter

import pytest

from skewper import classify
from skewper.analysis import enumerate_free_cliques
from skewper.classify import (
    ALL_KEYS,
    EXPECTED_NONTRIVIAL_AUT,
    EXPECTED_REPRESENTATIVES,
    EXPECTED_THREE_PLUS_CLASSES,
    EXPECTED_THREE_PLUS_PAIRS_S5,
    EXPECTED_TWO_K5_CLASSES,
    InstanceKey,
    MU_CATALOG,
    PHI_CATALOG,
    build_instance,
    classify_all,
    diagnostic_text,
    expectation_checks,
)
from skewper.constructions import (
    grassmannian,
    perspective,
    veblen,
    veblen_label,
)
from skewper.incidence import is_isomorphism, moved_lines
from skewper.isomorphism import (
    are_isomorphic,
    automorphism_group,
    canonical_certificate,
)
from skewper.perms import parse_cycles, symmetric_group
from skewper.skews import Skew, all_pairs, bar_alpha, phi_sequence, skew_from_phi, zeta

import oracles
from oracles import _center_fixing_maps, _row_lifts, backtrack_isos
from paper_claims import apply_pair_map, axis_of, kappa, perspective_iso


@pytest.fixture(scope="module")
def report():
    return classify_all(threads=1)


@pytest.fixture(scope="module")
def representative_of():
    """Each catalog key's center-fixing orbit representative."""
    return classify._center_fixing_orbits()


class TestCatalogs:
    def test_sizes(self):
        assert sorted(PHI_CATALOG) == list(range(1, 9))
        assert sorted(MU_CATALOG) == list(range(1, 16))

    def test_phi_spot_values(self):
        assert skew_from_phi(PHI_CATALOG[1]).is_identity()
        assert skew_from_phi(PHI_CATALOG[4]) == zeta(4)
        assert PHI_CATALOG[2].level(4) == parse_cycles("()", 3)
        assert PHI_CATALOG[2].level(3) == parse_cycles("(1,2)", 2)
        assert PHI_CATALOG[7].level(4) == parse_cycles("(1,2,3)", 3)
        assert skew_from_phi(PHI_CATALOG[7]).order() == 3
        assert skew_from_phi(PHI_CATALOG[8]).order() == 6

    def test_phi_distinct(self):
        skews = {skew_from_phi(phi) for phi in PHI_CATALOG.values()}
        assert len(skews) == 8

    def test_mu_values(self):
        assert MU_CATALOG[1] == parse_cycles("()", 4)
        assert MU_CATALOG[2] == parse_cycles("(1,2,3)", 4)
        assert MU_CATALOG[9] == parse_cycles("(2,4,3)", 4)
        assert MU_CATALOG[10] == parse_cycles("(3,4)", 4)
        assert MU_CATALOG[15] == parse_cycles("(1,2)", 4)
        assert len(set(MU_CATALOG.values())) == 15
        # exactly the members of Sym(I_4) with a fixed point
        assert all(mu.fixed_points() for mu in MU_CATALOG.values())
        from skewper.perms import symmetric_group

        with_fixed = [p for p in symmetric_group(4) if p.fixed_points()]
        assert set(MU_CATALOG.values()) == set(with_fixed)


class TestBuildInstance:
    def test_grassmannian_axis_instance(self):
        inst = build_instance(InstanceKey(4, 5, 1))
        direct = perspective(4, zeta(4), grassmannian(4))
        assert inst.config.lines == direct.config.lines
        assert inst.config.labels == direct.config.labels

    def test_identity_skew_instance_is_bigger_grassmannian(self):
        inst = build_instance(InstanceKey(1, 5, 1))
        assert are_isomorphic(inst.config, grassmannian(6)) is not None

    def test_s6_axis_is_complement_of_s5_axis(self):
        for f, i in [(2, 3), (4, 12), (7, 9)]:
            a5 = axis_of(build_instance(InstanceKey(f, 5, i)))
            a6 = axis_of(build_instance(InstanceKey(f, 6, i)))
            assert kappa(a5).lines == a6.lines

    def test_instances_cached(self):
        assert build_instance(InstanceKey(3, 6, 7)) is build_instance(
            InstanceKey(3, 6, 7)
        )

    def test_invalid_keys(self):
        with pytest.raises(ValueError, match="f"):
            InstanceKey(0, 5, 1)
        with pytest.raises(ValueError, match="s"):
            InstanceKey(2, 7, 1)
        with pytest.raises(ValueError, match="i"):
            InstanceKey(2, 5, 16)

    @pytest.mark.parametrize(
        "key, message",
        [
            ((9, 5, 1), "f must be in 1..8, got 9"),
            ((2, 4, 1), "s must be 5 or 6, got 4"),
            ((2, 6, 0), "i must be in 1..15, got 0"),
        ],
    )
    def test_invalid_key_messages(self, key, message):
        with pytest.raises(ValueError) as exc:
            InstanceKey(*key)
        assert str(exc.value) == message

    def test_key_text(self):
        assert str(InstanceKey(4, 5, 12)) == "(4,5,12)"
        assert repr(InstanceKey(4, 5, 12)) == "InstanceKey(f=4, s=5, i=12)"


class TestConjugationCollisions:
    def test_claimed_distinct_instances_can_coincide(self):
        # conjugating every row index by (1,2) fixes this skew and carries
        # one axis labelling to the other, so the two instances are
        # isomorphic even though they use different mu
        p1 = build_instance(InstanceKey(2, 6, 2))
        p2 = build_instance(InstanceKey(2, 6, 3))
        hit = perspective_iso(p1, p2)
        assert hit is not None
        assert are_isomorphic(p1.config, p2.config) is not None


class TestClassifyAll:
    def test_covers_all_instances(self, report):
        assert len(report.instances) == 240
        keys = set(report.instances)
        assert keys == {
            InstanceKey(f, s, i)
            for f in range(1, 9)
            for s in (5, 6)
            for i in range(1, 16)
        }

    def test_every_instance_is_binomial(self, report):
        for key in [InstanceKey(1, 5, 1), InstanceKey(8, 6, 15), InstanceKey(5, 5, 7)]:
            c = build_instance(key).config
            assert (c.num_points, len(c.lines), c.binomial_n) == (15, 20, 6)
            assert sorted(map(len, c.pairs_by_point)) == [4] * 15
        assert all(s.free_clique_count >= 2 for s in report.instances.values())

    def test_classes_partition_instances(self, report):
        member_lists = [cls.members for cls in report.classes]
        flat = [k for members in member_lists for k in members]
        assert sorted(flat) == sorted(report.instances)
        for cls in report.classes:
            assert cls.members and list(cls.members) == sorted(set(cls.members))
            counts = {report.instances[k].free_clique_count for k in cls.members}
            assert counts == {cls.free_clique_count}
            orders = {report.instances[k].aut_order for k in cls.members}
            assert orders == {cls.aut_order}
        for k, summary in report.instances.items():
            assert k in report.classes[summary.class_id].members

    def test_members_of_a_class_are_isomorphic(self, report):
        multi = [cls for cls in report.classes if len(cls.members) > 1]
        assert multi
        cls = multi[0]
        first = build_instance(cls.members[0])
        for other in cls.members[1:3]:
            assert are_isomorphic(first.config, build_instance(other).config)

    def test_headline_counts_match_recomputation(self, report):
        certified = {}
        for k, summary in report.instances.items():
            certified.setdefault(summary.class_id, []).append(k)
        two = {
            cid
            for cid, ks in certified.items()
            if any(k.f >= 2 for k in ks)
            and report.classes[cid].free_clique_count == 2
        }
        three = {
            cid
            for cid, ks in certified.items()
            if any(k.f >= 2 for k in ks)
            and report.classes[cid].free_clique_count >= 3
        }
        assert report.class_count_two_k5 == len(two)
        assert report.class_count_three_plus == len(three)

    def test_three_plus_pairs_recomputed(self, report):
        expected = {
            (k.f, k.i)
            for k, s in report.instances.items()
            if k.s == 5 and k.f >= 2 and s.free_clique_count >= 3
        }
        assert report.three_plus_pairs_s5 == frozenset(expected)

    def test_nontrivial_aut_consistent(self, report):
        for key, order in report.nontrivial_aut.items():
            assert order > 1
            assert report.instances[key].aut_order == order
        for key, summary in report.instances.items():
            if summary.aut_order > 1:
                assert key in report.nontrivial_aut

    def test_threads_keyword_starts_no_process(self, report, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify_all started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        two = classify_all(threads=2)
        assert two.instances == report.instances
        assert two.classes == report.classes
        assert two.class_count_two_k5 == report.class_count_two_k5
        assert two.class_count_three_plus == report.class_count_three_plus
        assert two.three_plus_pairs_s5 == report.three_plus_pairs_s5
        assert two.nontrivial_aut == report.nontrivial_aut
        with pytest.raises(ValueError, match="thread count must be positive"):
            classify_all(threads=0)


def center_fixing_witness(p1, p2, kind, phi):
    """The point map of a direct or flip center-fixing map, written out
    from its definition: rows follow phi (a flip also trades a and b), the
    axial points follow bar(phi), composed with the skew of p1 for a flip."""
    bar = bar_alpha(phi)
    c_map = bar if kind == "direct" else bar * p1.skew
    rows1 = (p1.labeling.a, p1.labeling.b)
    rows2 = (p2.labeling.a, p2.labeling.b)
    if kind == "flip":
        rows2 = rows2[::-1]
    witness = {p1.labeling.center: p2.labeling.center}
    for row1, row2 in zip(rows1, rows2):
        for i in range(1, p1.n + 1):
            witness[row1[i - 1]] = row2[phi(i) - 1]
    for u in all_pairs(p1.n):
        witness[p1.labeling.c[u]] = p2.labeling.c[c_map(u)]
    return witness


class TestOrbitQuotient:
    def test_orbit_sizes(self, representative_of, report):
        # the map that joins a member is the first center-fixing map from
        # its representative, which the reference search also finds first
        kinds = Counter(
            "representative" if rep == key else orbit_join(rep, key)[0]
            for key, rep in representative_of.items()
        )
        assert kinds == {"representative": 70, "direct": 72, "flip": 98}
        assert sorted(representative_of) == list(ALL_KEYS)
        for key, rep in representative_of.items():
            assert representative_of[rep] == rep and rep <= key
            member, first = report.instances[key], report.instances[rep]
            assert (member.free_clique_count, member.aut_order) == (
                first.free_clique_count,
                first.aut_order,
            )
        assert set(report.timings) == {"orbits", "stats", "grouping", "total"}

    def test_recorded_maps_are_isomorphisms(self, representative_of):
        for key, rep in representative_of.items():
            if key == rep:
                continue
            p1 = build_instance(rep)
            p2 = build_instance(key)
            _, _, witness = orbit_join(rep, key)
            assert sorted(witness.values()) == list(range(15))
            mapped = {tuple(sorted(witness[x] for x in L)) for L in p1.config.lines}
            assert mapped == set(p2.config.lines), key

    def test_a_join_failing_verification_stops_the_classification(self, monkeypatch):
        # the reference quotient checks every orbit join line for line
        # before the member joins; a check that rejects the first join
        # must not be absorbed
        check = oracles.is_isomorphism
        calls = []

        def rejecting_first(c1, c2, f):
            calls.append(f)
            return len(calls) > 1 and check(c1, c2, f)

        monkeypatch.setattr(oracles, "is_isomorphism", rejecting_first)
        message = "internal error: center-fixing witness failed verification"
        with pytest.raises(RuntimeError, match=message):
            oracles._center_fixing_orbits()
        assert len(calls) == 1

    def test_matches_the_reference_quotient(self, representative_of):
        # the algebraic quotient of `oracles` conjugates skews by pair
        # lifts and verifies a witness per join
        assert sorted(representative_of) == list(ALL_KEYS)
        assert representative_of == oracles._center_fixing_orbits()
        assert len(set(representative_of.values())) == 70

    def test_a_map_with_two_images_swapped_joins_nothing_wrong(
        self, monkeypatch, representative_of, report
    ):
        # a join is a line-for-line lookup, so a broken map can only lose
        # joins: the quotient gets finer and the classification stays
        row_maps = classify._row_maps

        def swapped(labeling):
            maps = row_maps(labeling)
            images = list(maps[6])
            images[0], images[1] = images[1], images[0]
            maps[6] = tuple(images)
            return maps

        monkeypatch.setattr(classify, "_row_maps", swapped)
        orbits = classify._center_fixing_orbits()
        assert len(set(orbits.values())) == 93
        maps = swapped(build_instance(ALL_KEYS[0]).labeling)
        for key, rep in orbits.items():
            assert representative_of[key] == representative_of[rep]
            if key == rep:
                continue
            p1, p2 = build_instance(rep), build_instance(key)
            lab = p1.labeling
            swap = lab.b + lab.a + (lab.center,)
            swap += tuple(lab.c_offset + k for k in p1.skew.point_map)
            candidates = maps + [tuple(g[x] for x in swap) for g in maps]
            joins = [m for m in candidates if is_isomorphism(p1.config, p2.config, m)]
            assert joins and maps[6] not in joins, key

        def rows(r):
            return {k: (s.free_clique_count, s.aut_order, s.class_id) for k, s in r.instances.items()}

        assert rows(classify_all()) == rows(report)

    def test_a_cold_quotient_composes_no_skews(self, monkeypatch):
        # every map is a point map built from the 24 pair lifts; no skew
        # is multiplied or inverted
        def refused(*args):
            raise AssertionError("a skew product or inverse was built")

        monkeypatch.setattr(Skew, "__mul__", refused)
        monkeypatch.setattr(Skew, "inverse", refused)
        lifts = []

        def counted(phi):
            lifts.append(phi)
            return bar_alpha(phi)

        monkeypatch.setattr(classify, "bar_alpha", counted)
        classify._catalog.cache_clear()
        assert len(set(classify._center_fixing_orbits().values())) == 70
        assert len(lifts) == 24


def brute_moved_lines(axis, c_map):
    """The axis lines moved along c_map, each point read as its pair of
    ``all_pairs(4)`` and its image's position looked up again."""
    pairs = all_pairs(4)
    return tuple(
        sorted(tuple(sorted(pairs.index(c_map(pairs[x])) for x in L)) for L in axis.lines)
    )


def orbit_join(rep, key):
    """(kind, phi, witness) of the center-fixing map that joins `key` to
    the orbit of `rep`; fails when there is none."""
    found = reference_perspective_iso(build_instance(rep), build_instance(key))
    assert found is not None, (rep, key)
    return found


def reference_perspective_iso(p1, p2):
    """(kind, phi, witness) of the first center-fixing map p1 -> p2, phi
    in `symmetric_group` order and direct before flip, written from the
    definitions with the axis moved pair by pair; None if there is none."""
    for phi in symmetric_group(p1.n):
        bar = bar_alpha(phi)
        for kind, source, c_map in [
            ("direct", p1.skew, bar),
            ("flip", p1.skew.inverse(), bar * p1.skew),
        ]:
            if bar * source * bar.inverse() != p2.skew:
                continue
            if brute_moved_lines(axis_of(p1), c_map) == axis_of(p2).lines:
                return kind, phi, center_fixing_witness(p1, p2, kind, phi)
    return None


class TestAxisTransport:
    """Axis lines move through `Skew.point_map`, and the catalog shares its
    8 skews and 30 axes among the 240 instances."""

    def test_instances_share_skews_and_axes(self):
        # a perspective keeps no axis; the 30 axes are counted as the 30
        # `veblen` calls of a cold classification in `TestSearchSize`
        persps = [build_instance(key) for key in ALL_KEYS]
        assert len({id(p.skew) for p in persps}) == 8

    def test_point_map_moves_lines_as_pairs_do(self):
        persps = [build_instance(key) for key in ALL_KEYS]
        axes = {axis_of(p) for p in persps}
        lifts = list(_row_lifts(4))
        moves = 0
        for sigma in {p.skew for p in persps}:
            for _, _, _, c_map in _center_fixing_maps(sigma, lifts):
                for axis in axes:
                    expected = brute_moved_lines(axis, c_map)
                    assert moved_lines(axis.lines, c_map.point_map) == expected
                    assert apply_pair_map(axis, c_map).lines == expected
                    moves += 1
        assert moves == 8 * 48 * 30

    def test_perspective_iso_matches_reference(self, representative_of):
        # each member against its representative and back, and the named
        # catalog pairs of the other tests
        pairs = [(rep, key) for key, rep in representative_of.items()]
        pairs += [(b, a) for a, b in pairs]
        pairs += [
            (InstanceKey(2, 6, 2), InstanceKey(2, 6, 3)),
            (InstanceKey(4, 5, 1), InstanceKey(2, 5, 4)),
            (InstanceKey(2, 5, 6), InstanceKey(2, 6, 7)),
        ]
        hits = 0
        for a, b in pairs:
            p1, p2 = build_instance(a), build_instance(b)
            hit = perspective_iso(p1, p2)
            expected = reference_perspective_iso(p1, p2)
            got = None if hit is None else (hit.kind, hit.phi, hit.witness)
            assert got == expected, (a, b)
            hits += hit is not None
        assert hits == 2 * 240 + 2


@pytest.fixture(scope="module")
def canonized_directly():
    """Every instance canonized on its own, with no orbit quotient:
    (free five-clique count, group order, certificate)."""
    out = {}
    for key in ALL_KEYS:
        config = build_instance(key).config
        out[key] = (
            len(enumerate_free_cliques(config, 5)),
            automorphism_group(config).order,
            canonical_certificate(config).canonical_lines,
        )
    return out


def test_orbit_quotient_matches_direct_canonization(
    canonized_directly, representative_of, report
):
    class_of_cert = {}
    for key in ALL_KEYS:
        cliques, order, cert = canonized_directly[key]
        summary = report.instances[key]
        assert (summary.free_clique_count, summary.aut_order) == (cliques, order), key
        assert canonized_directly[representative_of[key]][2] == cert, key
        assert summary.class_id == class_of_cert.setdefault(cert, len(class_of_cert))
    assert len(report.classes) == len(class_of_cert)


def test_catalog_is_complete_for_level_skews(canonized_directly):
    """Every level sequence (phi_4 in S3, phi_3 in S2), not only the eight
    cataloged ones, over the 30 catalog Veblen axes lands in a catalog
    class: the catalog misses no class of level-skew perspectives."""
    axes = [veblen(veblen_label(s, mu)) for s in (5, 6) for mu in MU_CATALOG.values()]
    skews = [
        skew_from_phi(phi_sequence(4, {4: top, 3: inner}))
        for top in symmetric_group(3)
        for inner in symmetric_group(2)
    ]
    level = {
        canonical_certificate(perspective(4, skew, axis).config).canonical_lines
        for skew in skews
        for axis in axes
    }
    catalog = {cert for _, _, cert in canonized_directly.values()}
    distinct = (len(set(skews)), len({axis.lines for axis in axes}), len(catalog))
    assert distinct == (12, 30, 65)
    assert level == catalog


# Values computed by this package's exhaustive run and re-verified by the
# independent backtracking searcher and by hand-checked sample witnesses.
TRUE_TWO_K5_CLASSES = 47
TRUE_THREE_PLUS_CLASSES = 13
TRUE_THREE_PLUS_PAIRS_S5 = frozenset(
    (f, i)
    for f, ids in {
        2: (1, 2, 3, 4, 5, 11, 12, 13, 14, 15),
        3: (1, 2, 3, 8, 9, 10, 11, 12, 14, 15),
        4: (1, 2, 3, 12, 14, 15),
        5: (1, 2, 3, 4, 5, 11, 12, 13, 14, 15),
        6: (1, 2, 3, 4, 5, 11, 12, 13, 14, 15),
        7: (1, 2, 3, 12, 14, 15),
        8: (1, 2, 3, 12, 14, 15),
    }.items()
    for i in ids
)


class TestComputedTruth:
    def test_headline_class_counts(self, report):
        assert report.class_count_two_k5 == TRUE_TWO_K5_CLASSES
        assert report.class_count_three_plus == TRUE_THREE_PLUS_CLASSES

    def test_three_plus_pairs(self, report):
        assert report.three_plus_pairs_s5 == TRUE_THREE_PLUS_PAIRS_S5
        assert len(TRUE_THREE_PLUS_PAIRS_S5) == 58

    def test_spot_aut_orders(self, report):
        spot = {
            InstanceKey(1, 5, 1): 720,  # the big Grassmannian itself
            InstanceKey(1, 6, 1): 48,
            InstanceKey(2, 5, 10): 2,
            InstanceKey(4, 5, 2): 2,
            InstanceKey(4, 5, 12): 6,
            InstanceKey(6, 5, 10): 8,
            InstanceKey(6, 5, 15): 48,
            InstanceKey(7, 6, 1): 3,
        }
        for key, order in spot.items():
            assert report.instances[key].aut_order == order, key

    def test_spot_free_clique_counts(self, report):
        spot = {
            InstanceKey(1, 5, 1): 6,
            InstanceKey(4, 5, 1): 3,
            InstanceKey(4, 5, 12): 3,
            InstanceKey(6, 5, 15): 4,
            InstanceKey(4, 6, 3): 2,
            InstanceKey(8, 6, 9): 2,
        }
        for key, count in spot.items():
            assert report.instances[key].free_clique_count == count, key

    def test_row_permutation_automorphism_found_by_hand(self, report):
        # phi = (1,2): its pair lift commutes with this skew and maps the
        # axis lines onto themselves, giving a row-permuting automorphism
        p = build_instance(InstanceKey(2, 5, 10))
        from skewper.skews import bar_alpha

        bar = bar_alpha(parse_cycles("(1,2)", 4))
        lab = p.labeling
        mapping = {lab.center: lab.center}
        for i in (1, 2, 3, 4):
            j = (2 if i == 1 else 1) if i <= 2 else i
            mapping[lab.a[i - 1]] = lab.a[j - 1]
            mapping[lab.b[i - 1]] = lab.b[j - 1]
        for u, point in lab.c.items():
            mapping[point] = lab.c[bar(u)]
        mapped = {tuple(sorted(mapping[x] for x in L)) for L in p.config.lines}
        assert mapped == set(p.config.lines)
        assert any(mapping[x] != x for x in mapping)
        assert report.instances[InstanceKey(2, 5, 10)].aut_order == 2

    def test_cross_axis_type_collision_backtracked(self, report):
        c1 = build_instance(InstanceKey(2, 5, 6)).config
        c2 = build_instance(InstanceKey(2, 6, 7)).config
        witness = next(backtrack_isos(c1, c2), None)
        assert witness is not None
        k1 = report.instances[InstanceKey(2, 5, 6)].class_id
        k2 = report.instances[InstanceKey(2, 6, 7)].class_id
        assert k1 == k2

    def test_center_moving_collision_backtracked(self, report):
        # the two skews have different cycle types on the pair set, so no
        # center-fixing isomorphism exists, yet the configurations are
        # isomorphic
        p1 = build_instance(InstanceKey(4, 5, 1))
        p2 = build_instance(InstanceKey(2, 5, 4))
        from skewper.skews import all_pairs

        fixed1 = sum(1 for u in all_pairs(4) if p1.skew(u) == u)
        fixed2 = sum(1 for u in all_pairs(4) if p2.skew(u) == u)
        assert fixed1 != fixed2
        assert perspective_iso(p1, p2) is None
        witness = next(backtrack_isos(p1.config, p2.config), None)
        assert witness is not None
        assert are_isomorphic(p1.config, p2.config) is not None

    def test_claimed_family_pair_split_backtracked(self, report):
        c1 = build_instance(InstanceKey(4, 5, 2)).config
        c2 = build_instance(InstanceKey(4, 5, 8)).config
        assert next(backtrack_isos(c1, c2), None) is None
        k1 = report.instances[InstanceKey(4, 5, 2)].class_id
        k2 = report.instances[InstanceKey(4, 5, 8)].class_id
        assert k1 != k2

    def test_all_multi_member_classes_verified(self, report):
        for cls in report.classes:
            first, *others = cls.members
            rep = build_instance(first).config
            for member in others:
                assert are_isomorphic(rep, build_instance(member).config), (first, member)


class TestExpectations:
    def test_reference_constants(self):
        assert EXPECTED_TWO_K5_CLASSES == 104
        assert EXPECTED_THREE_PLUS_CLASSES == 11
        assert len(EXPECTED_THREE_PLUS_PAIRS_S5) == 36
        assert len(EXPECTED_NONTRIVIAL_AUT) == 10
        assert all(
            order == 2 for order in EXPECTED_NONTRIVIAL_AUT.values()
        )

    def test_checks_shape(self, report):
        checks = expectation_checks(report)
        names = [c.name for c in checks]
        assert names == [
            "two-free-clique class count",
            "three-plus-free-clique class count",
            "three-plus pair set at s=5",
            "nontrivial automorphism instances",
            "nontrivial automorphism orders",
            "pairwise non-isomorphic representative list f=2",
            "pairwise non-isomorphic representative list f=3",
            "pairwise non-isomorphic representative list f=4",
            "pairwise non-isomorphic representative list f=5",
            "pairwise non-isomorphic representative list f=6",
            "pairwise non-isomorphic representative list f=7",
            "pairwise non-isomorphic representative list f=8",
            "two-free-clique classes missed by the representative lists",
        ]
        for c in checks[:5]:
            assert isinstance(c.passed, bool)
            assert c.passed == (c.expected == c.actual)
        for c in checks[5:]:
            assert isinstance(c.passed, bool)

    def test_representative_lists_shape(self):
        sizes = {f: len(keys) for f, keys in EXPECTED_REPRESENTATIVES.items()}
        assert sizes == {2: 10, 3: 10, 4: 14, 5: 10, 6: 12, 7: 25, 8: 24}
        assert sum(sizes.values()) == 105
        flat = [k for keys in EXPECTED_REPRESENTATIVES.values() for k in keys]
        assert len(set(flat)) == len(flat)
        assert all(k.f == f for f, keys in EXPECTED_REPRESENTATIVES.items() for k in keys)

    def test_representative_list_collisions_are_detailed(self, report):
        checks = {c.name: c for c in expectation_checks(report)}
        f2 = checks["pairwise non-isomorphic representative list f=2"]
        assert f2.expected == 10
        if not f2.passed:
            assert "isomorphic entries" in f2.detail
        # the conjugation-law collision (2,6,2) ~ (2,6,3) sits inside the
        # f=2 reference list, so that list cannot be collision-free
        id_a = report.instances[InstanceKey(2, 6, 2)].class_id
        id_b = report.instances[InstanceKey(2, 6, 3)].class_id
        assert id_a == id_b
        assert not f2.passed
        assert "(2,6,2)" in f2.detail and "(2,6,3)" in f2.detail

    def test_diagnostic_text_mentions_key_facts(self, report):
        text = diagnostic_text(report)
        assert "two-free-clique class count" in text
        assert str(report.class_count_two_k5) in text
        assert "classes with more than one instance" in text
