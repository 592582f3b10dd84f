"""Tests for canonical forms, isomorphism decisions, and automorphisms.

Brute-force bijection search over small configurations is the oracle for
the canonizer; the specialized center-fixing search is cross-checked
against the general decision procedure.
"""

import gc
import itertools
import random

import pytest

from skewper.classify import ALL_KEYS, build_instance, classify_all
from skewper.constructions import (
    apply_pair_map,
    grassmannian,
    perspective,
    veblen,
    veblen_label,
    veronesian,
    veronesian_axis,
)
from skewper import isomorphism
from skewper.incidence import make_config, relabel
from skewper.isomorphism import (
    AutomorphismGroup,
    CanonicalCertificate,
    are_isomorphic,
    automorphism_group,
    canonical_certificate,
    perspective_iso,
    s_map,
)
from skewper.perms import Perm, parse_cycles, symmetric_group
from skewper.skews import identity_skew, phi_sequence, skew_from_phi, zeta

from oracles import backtrack_isos, brute_isos


def verify_witness(c1, c2, witness):
    assert sorted(witness) == list(range(c1.num_points))
    assert sorted(witness.values()) == list(range(c2.num_points))
    mapped = {tuple(sorted(witness[x] for x in L)) for L in c1.lines}
    assert mapped == set(c2.lines)


MU_ID = parse_cycles("()", 4)
SIX_SMALL = [
    veblen(veblen_label(5, MU_ID)),
    veblen(veblen_label(5, parse_cycles("(1,2)", 4))),
    veblen(veblen_label(5, parse_cycles("(1,2,3)", 4))),
    veblen(veblen_label(6, MU_ID)),
    veblen(veblen_label(6, parse_cycles("(1,2)", 4))),
    veblen(veblen_label(6, parse_cycles("(1,2,3)", 4))),
]


def phi4(top, inner):
    return phi_sequence(
        4, {4: parse_cycles(top, 3), 3: parse_cycles(inner, 2)}
    )


class TestCanonicalCertificate:
    def test_relabeling_reproduces_canonical_lines(self):
        for c in SIX_SMALL + [grassmannian(4), veronesian(3)]:
            cert = canonical_certificate(c)
            assert sorted(cert.relabeling) == list(range(c.num_points))
            mapped = sorted(
                tuple(sorted(cert.relabeling[x] for x in L)) for L in c.lines
            )
            assert tuple(mapped) == cert.canonical_lines

    def test_relabel_invariance_small(self):
        rng = random.Random(7)
        for c in SIX_SMALL:
            cert = canonical_certificate(c).canonical_lines
            for _ in range(5):
                perm = list(range(c.num_points))
                rng.shuffle(perm)
                moved = relabel(c, dict(enumerate(perm)))
                assert canonical_certificate(moved).canonical_lines == cert

    def test_relabel_invariance_perspective(self):
        p = perspective(4, zeta(4), grassmannian(4))
        cert = canonical_certificate(p.config).canonical_lines
        rng = random.Random(20260815)
        for _ in range(3):
            perm = list(range(p.config.num_points))
            rng.shuffle(perm)
            moved = relabel(p.config, dict(enumerate(perm)))
            assert canonical_certificate(moved).canonical_lines == cert

    def test_distinguishes_desargues_from_ten_point_veronesian(self):
        v3 = veronesian(3)
        g5 = grassmannian(5)
        assert v3.num_points == g5.num_points == 10
        assert len(v3.lines) == len(g5.lines) == 10
        c1 = canonical_certificate(v3).canonical_lines
        c2 = canonical_certificate(g5).canonical_lines
        assert c1 != c2


class TestBruteForceAgreement:
    def test_six_small_configs_pairwise(self):
        for c1, c2 in itertools.combinations(SIX_SMALL, 2):
            expected = next(brute_isos(c1, c2), None)
            got = are_isomorphic(c1, c2)
            assert (got is None) == (expected is None)
            if got is not None:
                verify_witness(c1, c2, got)
        # as unlabeled configurations the six labellings are all copies of
        # the one (6_2 4_3) configuration; they differ only as line sets
        # over the labeled pair set
        certs = {canonical_certificate(c).canonical_lines for c in SIX_SMALL}
        assert len(certs) == 1
        line_sets = {frozenset(frozenset(L) for L in c.lines) for c in SIX_SMALL}
        assert len(line_sets) == 6

    def test_isomorphic_after_relabel(self):
        rng = random.Random(99)
        for c in SIX_SMALL[:2] + [grassmannian(4)]:
            perm = list(range(c.num_points))
            rng.shuffle(perm)
            moved = relabel(c, dict(enumerate(perm)))
            witness = are_isomorphic(c, moved)
            assert witness is not None
            verify_witness(c, moved, witness)

    def test_mismatched_sizes_are_not_isomorphic(self):
        assert are_isomorphic(grassmannian(4), grassmannian(5)) is None
        c1 = make_config(6, [(0, 1, 2), (0, 3, 4)])
        c2 = make_config(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5)])
        assert are_isomorphic(c1, c2) is None

    def test_small_aut_orders_match_brute(self):
        for c in SIX_SMALL + [grassmannian(4)]:
            group = automorphism_group(c)
            assert group.order == sum(1 for _ in brute_isos(c, c))


class TestAutomorphismGroup:
    def test_group_axioms_small(self):
        for c in SIX_SMALL:
            group = automorphism_group(c)
            n = c.num_points
            identity = tuple(range(n))
            assert identity in group.elements
            assert group.order == len(group.elements) == len(set(group.elements))
            elements = set(group.elements)
            for g in group.elements:
                assert tuple(sorted(g)) == identity  # bijection
                inv = [0] * n
                for x, y in enumerate(g):
                    inv[y] = x
                assert tuple(inv) in elements
            for g, h in itertools.product(group.elements[:4], repeat=2):
                assert tuple(g[h[x]] for x in range(n)) in elements

    def test_generators_generate(self):
        c = grassmannian(4)
        group = automorphism_group(c)
        n = c.num_points
        generated = {tuple(range(n))}
        frontier = list(generated)
        while frontier:
            new = []
            for g in frontier:
                for s in group.generators:
                    prod = tuple(s[g[x]] for x in range(n))
                    if prod not in generated:
                        generated.add(prod)
                        new.append(prod)
            frontier = new
        assert generated == set(group.elements)

    def test_grassmannian6_order_720(self):
        c = grassmannian(6)
        group = automorphism_group(c)
        assert group.order == 720
        lines = {frozenset(L) for L in c.lines}
        for g in group.elements[:50]:
            assert all(frozenset(g[x] for x in L) in lines for L in c.lines)

    def test_rigidity_of_symmetry_skew_grassmannian_hosts(self):
        for n in (4, 5):
            p = perspective(n, zeta(n), grassmannian(n))
            assert automorphism_group(p.config).order == 1

    def test_order_matches_backtracking_oracle(self):
        candidates = [
            grassmannian(6),
            perspective(4, zeta(4), grassmannian(4)).config,
            perspective(4, identity_skew(4), grassmannian(4)).config,
            veronesian(4),
        ]
        for c in candidates:
            assert automorphism_group(c).order == sum(1 for _ in backtrack_isos(c, c))


class TestSMap:
    def test_swap_is_an_automorphism_when_axis_is_stable(self):
        # zeta(4) is an involution and maps this labelling's lines onto
        # themselves, so the swap works
        axis = veblen(veblen_label(5, parse_cycles("(2,3)", 4)))
        assert apply_pair_map(axis, zeta(4)).lines == axis.lines
        p = perspective(4, zeta(4), axis)
        sm = s_map(p)
        verify_witness(p.config, p.config, sm)
        n = p.config.num_points
        assert all(sm[sm[x]] == x for x in range(n))
        assert any(sm[x] != x for x in range(n))
        group = automorphism_group(p.config)
        assert tuple(sm[x] for x in range(n)) in group.elements
        # this host carries three free 5-cliques pairwise meeting in the
        # center, a_4, and b_4; the full symmetric group on the cliques
        # acts, so the group is S_3, and some automorphism moves the center
        assert group.order == 6
        assert group.order == sum(1 for _ in backtrack_isos(p.config, p.config))
        center = p.labeling.center
        assert any(g[center] != center for g in group.elements)

    def test_swap_rejected_when_axis_moves(self):
        p = perspective(4, zeta(4), grassmannian(4))
        assert apply_pair_map(grassmannian(4), zeta(4)).lines != grassmannian(4).lines
        with pytest.raises(ValueError, match="automorphism"):
            s_map(p)


class TestPerspectiveIso:
    def test_identity_self_iso(self):
        p = perspective(4, zeta(4), grassmannian(4))
        hit = perspective_iso(p, p)
        assert hit is not None
        assert hit.kind == "direct"
        verify_witness(p.config, p.config, hit.witness)

    def test_flip_between_inverse_skew_twins(self):
        sigma = skew_from_phi(phi4("(1,2,3)", "()"))
        assert sigma.inverse() != sigma
        p1 = perspective(4, sigma, grassmannian(4))
        p2 = perspective(4, sigma.inverse(), apply_pair_map(grassmannian(4), sigma))
        hit = perspective_iso(p1, p2)
        assert hit is not None
        verify_witness(p1.config, p2.config, hit.witness)
        assert hit.kind == "flip"
        assert hit.phi == parse_cycles("()", 4)

    def test_nontrivial_hit_under_conjugation(self):
        from skewper.skews import bar_alpha, conjugate_skew

        alpha = parse_cycles("(2,3)", 4)
        sigma1 = skew_from_phi(phi4("(1,2)", "()"))
        sigma2 = conjugate_skew(sigma1, bar_alpha(alpha))
        assert sigma2 != sigma1 and sigma2 != sigma1.inverse()
        # the all-pairs-complement labelling is fixed by every induced
        # pair map, so both sides can share the axis
        axis = veblen(veblen_label(6, MU_ID))
        assert apply_pair_map(axis, bar_alpha(alpha)).lines == axis.lines
        p1 = perspective(4, sigma1, axis)
        p2 = perspective(4, sigma2, axis)
        hit = perspective_iso(p1, p2)
        assert hit is not None
        verify_witness(p1.config, p2.config, hit.witness)
        assert hit.phi != parse_cycles("()", 4)
        bar = bar_alpha(hit.phi)
        if hit.kind == "direct":
            assert bar * sigma1 == sigma2 * bar
        else:
            assert bar * sigma1 == sigma2.inverse() * bar

    def test_none_when_not_isomorphic(self):
        p1 = perspective(4, zeta(4), grassmannian(4))
        p2 = perspective(4, identity_skew(4), grassmannian(4))
        assert are_isomorphic(p1.config, p2.config) is None
        assert perspective_iso(p1, p2) is None

    def test_row_count_mismatch(self):
        p1 = perspective(4, zeta(4), grassmannian(4))
        p2 = perspective(5, zeta(5), grassmannian(5))
        with pytest.raises(ValueError, match="rows"):
            perspective_iso(p1, p2)

    def test_hits_imply_general_isomorphism(self):
        pool = []
        for top, inner in [("()", "(1,2)"), ("(1,3)", "(1,2)")]:
            for mu in ["()", "(1,2)"]:
                axis = veblen(veblen_label(5, parse_cycles(mu, 4)))
                pool.append(
                    perspective(4, skew_from_phi(phi4(top, inner)), axis)
                )
        for p1, p2 in itertools.combinations_with_replacement(pool, 2):
            hit = perspective_iso(p1, p2)
            general = are_isomorphic(p1.config, p2.config)
            if hit is not None:
                verify_witness(p1.config, p2.config, hit.witness)
                assert general is not None


class TestCanonizerMemo:
    def fresh(self):
        # unique labels keep this Config unequal to any other live one
        c = grassmannian(5)
        return make_config(c.num_points, c.lines, [f"memo{x}" for x in range(c.num_points)])

    def test_certificate_and_group_share_one_search(self, monkeypatch):
        calls = []
        leaves = isomorphism._leaves

        def counted(*args):
            calls.append(args[0])
            return leaves(*args)

        monkeypatch.setattr(isomorphism, "_leaves", counted)
        c = self.fresh()
        cert = canonical_certificate(c)
        group = automorphism_group(c)
        assert calls == [c.num_points]
        assert group.order == 120
        assert canonical_certificate(c) == cert
        assert len(calls) == 1

    def test_entry_goes_with_its_config(self):
        c = self.fresh()
        fields = (c.num_points, c.lines, c.labels)
        canonical_certificate(c)
        assert c in isomorphism._CANON_MEMO
        del c
        gc.collect()
        assert all(
            (k.num_points, k.lines, k.labels) != fields
            for k in isomorphism._CANON_MEMO.keys()
        )


def relabelings(c, seed):
    """Three seeded random relabelings of c."""
    rng = random.Random(seed)
    for _ in range(3):
        images = list(range(c.num_points))
        rng.shuffle(images)
        yield relabel(c, dict(enumerate(images)))


def host(n):
    return perspective(n, zeta(n), grassmannian(n)).config


class TestTracePruning:
    """The search keeps only the leaves on the least refinement trace.  An
    automorphism maps a surviving leaf to a surviving leaf, so there is at
    least one per automorphism; on these structures there is exactly one."""

    def test_catalog_leaves_match_group_order(self):
        for key in ALL_KEYS:
            c = build_instance(key).config
            leaves = isomorphism._leaves(c.num_points, c.lines_by_point)
            assert len(leaves) == automorphism_group(c).order

    @pytest.mark.parametrize(
        "build, order",
        [pytest.param(lambda k=k: veronesian(k), 6, id=f"V({k})") for k in range(4, 9)]
        + [
            pytest.param(lambda: host(8), 1, id="host(8)"),
            pytest.param(lambda: grassmannian(5), 120, id="G(2,5)"),
            pytest.param(lambda: grassmannian(6), 720, id="G(2,6)"),
        ],
    )
    def test_leaves_match_group_order_under_relabeling(self, build, order):
        c = build()
        assert automorphism_group(c).order == order
        assert len(isomorphism._leaves(c.num_points, c.lines_by_point)) == order
        for moved in relabelings(c, c.num_points):
            assert len(isomorphism._leaves(moved.num_points, moved.lines_by_point)) == order

    @pytest.mark.parametrize(
        "build, oracle",
        [pytest.param(lambda k=k: veronesian(k), k <= 6, id=f"V({k})") for k in range(4, 8)]
        + [pytest.param(lambda n=n: host(n), n <= 6, id=f"host({n})") for n in range(5, 9)],
    )
    def test_relabeled_structures(self, build, oracle):
        c = build()
        cert = canonical_certificate(c).canonical_lines
        for moved in relabelings(c, c.num_points):
            assert canonical_certificate(moved).canonical_lines == cert
            witness = are_isomorphic(moved, c)
            assert witness is not None
            verify_witness(moved, c, witness)
            if oracle:
                assert set(automorphism_group(moved).elements) == set(
                    backtrack_isos(moved, moved)
                )

    @pytest.mark.parametrize("k", [5, 6])
    def test_veronesian_is_not_the_host(self, k):
        v, h = veronesian(k), host(k)
        assert are_isomorphic(v, h) is None
        assert next(backtrack_isos(v, h), None) is None


def certificate_witness(c1, c2):
    """The witness of a full search of both sides: inverse(cert2.relabeling)
    composed with cert1.relabeling, or None when the certificates differ."""
    cert1, cert2 = canonical_certificate(c1), canonical_certificate(c2)
    if cert1.canonical_lines != cert2.canonical_lines:
        return None
    inverse2 = {c: p for p, c in enumerate(cert2.relabeling)}
    return {p: inverse2[cert1.relabeling[p]] for p in range(c1.num_points)}


@pytest.fixture(scope="module")
def catalog_report():
    return classify_all(threads=1)


class TestReferenceSearch:
    """`are_isomorphic` searches its second configuration against the
    first's least trace; its answers and witnesses are those of the
    certificate formula over two full searches."""

    def test_catalog_members_against_their_class(self, catalog_report):
        for cls in catalog_report.classes:
            first = build_instance(cls.members[0]).config
            for key in cls.members:
                moved = next(relabelings(build_instance(key).config, key.s * key.i * key.f))
                expected = certificate_witness(first, moved)
                assert expected is not None
                assert are_isomorphic(first, moved) == expected, key

    def test_orbit_representatives_with_equal_invariants(self, catalog_report):
        by_invariants = {}
        for key, summary in catalog_report.instances.items():
            if summary.kind == "representative":
                invariants = (summary.free_clique_count, summary.aut_order)
                by_invariants.setdefault(invariants, []).append(key)
        negatives = 0
        for keys in by_invariants.values():
            for k1, k2 in itertools.combinations(keys, 2):
                c1, c2 = build_instance(k1).config, build_instance(k2).config
                expected = certificate_witness(c1, c2)
                negatives += expected is None
                assert are_isomorphic(c1, c2) == expected, (k1, k2)
        assert negatives > 0

    def test_smaller_root_key_aborts(self):
        # the same size, but c2's root key is smaller: a point on two lines
        # and one on none sort before points on one line
        c1 = make_config(6, [(0, 1, 2), (3, 4, 5)])
        c2 = make_config(6, [(0, 1, 2), (0, 3, 4)])
        trace = []
        isomorphism._leaves(c1.num_points, c1.lines_by_point, trace)
        trace2 = []
        isomorphism._leaves(c2.num_points, c2.lines_by_point, trace2)
        assert trace2[0] < trace[0]
        accepted = []
        found = isomorphism._leaves(
            c2.num_points, c2.lines_by_point, trace, accepted.append
        )
        assert found == [] and accepted == []
        assert are_isomorphic(c1, c2) is None
        assert are_isomorphic(c2, c1) is None

    def test_smaller_key_below_the_root_ends_the_search(self):
        # G(2,5) is one cell after the root pass and branches ten ways; a
        # reference whose second key sorts after every key makes the first
        # child's key smaller, which ends the search without its siblings
        c = grassmannian(5)
        reads = []

        class Counted(tuple):
            def __getitem__(self, p):
                reads.append(p)
                return tuple.__getitem__(self, p)

        trace = []
        isomorphism._leaves(c.num_points, c.lines_by_point, trace)
        reference = [trace[0], ((c.num_points + 1,),)]
        accepted = []
        found = isomorphism._leaves(
            c.num_points, Counted(c.lines_by_point), reference, accepted.append
        )
        assert found == [] and accepted == []
        assert len(reads) == 2 * c.num_points  # the root pass and one child's

    @pytest.mark.parametrize("k", [5, 6])
    def test_veronesian_against_the_host_visits_no_leaf(self, k, monkeypatch):
        # the least traces share their root key and part further down, so
        # one search aborts below the root and the other is pruned there
        v, h = veronesian(k), host(k)
        trace_v, trace_h = [], []
        isomorphism._leaves(v.num_points, v.lines_by_point, trace_v)
        isomorphism._leaves(h.num_points, h.lines_by_point, trace_h)
        assert trace_v[0] == trace_h[0] and trace_v != trace_h
        certified = []
        certificate_of = isomorphism._certificate_of

        def counted(colors, lines):
            certified.append(lines)
            return certificate_of(colors, lines)

        monkeypatch.setattr(isomorphism, "_certificate_of", counted)
        for c1, c2 in [(v, h), (h, v)]:
            certified.clear()
            assert are_isomorphic(c1, c2) is None
            assert all(lines is not c2.lines for lines in certified)

    def test_relabeled_grassmannian_found_early(self, monkeypatch):
        c = grassmannian(6)
        moved = next(relabelings(c, 6))
        visited = []
        certificate_of = isomorphism._certificate_of

        def counted(colors, lines):
            visited.append(lines is moved.lines)
            return certificate_of(colors, lines)

        monkeypatch.setattr(isomorphism, "_certificate_of", counted)
        witness = are_isomorphic(c, moved)
        verify_witness(c, moved, witness)
        # c is searched in full; moved stops at its first trace leaf,
        # since every one of its 720 leaves has c's certificate
        assert visited.count(False) == 720
        assert visited.count(True) == 1

    @pytest.mark.parametrize("num_points, lines", [(0, []), (3, [(0, 1, 2)])])
    def test_smallest_files(self, num_points, lines):
        c = make_config(num_points, lines)
        moved = relabel(c, {p: num_points - 1 - p for p in range(num_points)})
        witness = are_isomorphic(c, moved)
        assert witness == certificate_witness(c, moved)
        verify_witness(c, moved, witness)

    def test_no_trace_is_kept(self):
        # unique labels keep this Config unequal to any other live one
        base = grassmannian(5)
        c1 = make_config(base.num_points, base.lines, [f"ref{x}" for x in range(10)])
        c2 = next(relabelings(c1, 3))
        state = dict(vars(isomorphism))
        assert are_isomorphic(c1, c2) is not None
        assert vars(isomorphism).keys() == state.keys()
        assert all(vars(isomorphism)[name] is value for name, value in state.items())
        assert c1 in isomorphism._CANON_MEMO
        assert c2 not in isomorphism._CANON_MEMO
        for certificate, relabeling, automorphisms in isomorphism._CANON_MEMO.values():
            assert all(len(line) == 3 for line in certificate)
            assert all(isinstance(x, int) for x in relabeling)
            assert all(len(g) == len(relabeling) for g in automorphisms)
