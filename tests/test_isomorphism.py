"""Tests for canonical forms, isomorphism decisions, and automorphisms.

Brute-force bijection search over small configurations is the oracle for
the canonizer; the specialized center-fixing search is cross-checked
against the general decision procedure.
"""

import itertools
import random
from math import comb

import pytest

from skewper.classify import ALL_KEYS, InstanceKey, build_instance, classify_all
from skewper.constructions import (
    grassmannian,
    perspective,
    veblen,
    veblen_label,
    veronesian,
)
from skewper import classify, isomorphism
from skewper.incidence import Config, make_config, relabel
from skewper.isomorphism import (
    are_isomorphic,
    automorphism_group,
    canonical_certificate,
)
from skewper.perms import parse_cycles
from skewper.skews import phi_sequence, skew_from_phi, zeta

import oracles
from oracles import (
    backtrack_isos,
    brute_isos,
    brute_triangles_and_pasch,
    certificate_per_leaf,
    full_trace_leaves,
    generated_group,
    random_partial_linear,
    relabelled_lines,
    tuple_signature,
)
from paper_claims import apply_pair_map, identity_skew, perspective_iso, s_map


def verify_witness(c1, c2, witness):
    assert type(witness) is tuple and len(witness) == c1.num_points
    assert sorted(witness) == list(range(c2.num_points))
    mapped = {tuple(sorted(witness[x] for x in L)) for L in c1.lines}
    assert mapped == set(c2.lines)


def images_of(mapping):
    """A dict point map {p: image} of the center-fixing helpers as the
    image tuple whose entry p is mapping[p]."""
    return tuple(mapping[p] for p in range(len(mapping)))


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
                moved = relabel(c, tuple(perm))
                assert canonical_certificate(moved).canonical_lines == cert

    def test_relabel_invariance_perspective(self):
        p = perspective(4, zeta(4), grassmannian(4))
        cert = canonical_certificate(p.config).canonical_lines
        rng = random.Random(20260815)
        for _ in range(3):
            perm = list(range(p.config.num_points))
            rng.shuffle(perm)
            moved = relabel(p.config, tuple(perm))
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
            moved = relabel(c, tuple(perm))
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
        assert generated_group(c.num_points, group.generators) == set(group.elements)

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
        verify_witness(p.config, p.config, images_of(sm))
        n = p.config.num_points
        assert all(sm[sm[x]] == x for x in range(n))
        assert any(sm[x] != x for x in range(n))
        group = automorphism_group(p.config)
        assert images_of(sm) in group.elements
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
        verify_witness(p.config, p.config, images_of(hit.witness))

    def test_identity_hit_builds_one_lift(self, monkeypatch):
        # the lifts are built one phi at a time, and phi = id comes first
        p = perspective(6, zeta(6), grassmannian(6))
        calls = TestSearchSize.count_calls(monkeypatch, oracles, "bar_alpha")
        hit = perspective_iso(p, p)
        assert (hit.kind, hit.phi) == ("direct", parse_cycles("()", 6))
        assert len(calls) == 1

    def test_flip_between_inverse_skew_twins(self):
        sigma = skew_from_phi(phi4("(1,2,3)", "()"))
        assert sigma.inverse() != sigma
        p1 = perspective(4, sigma, grassmannian(4))
        p2 = perspective(4, sigma.inverse(), apply_pair_map(grassmannian(4), sigma))
        hit = perspective_iso(p1, p2)
        assert hit is not None
        verify_witness(p1.config, p2.config, images_of(hit.witness))
        assert hit.kind == "flip"
        assert hit.phi == parse_cycles("()", 4)

    def test_nontrivial_hit_under_conjugation(self):
        from paper_claims import conjugate_skew
        from skewper.skews import bar_alpha

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
        verify_witness(p1.config, p2.config, images_of(hit.witness))
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
                verify_witness(p1.config, p2.config, images_of(hit.witness))
                assert general is not None


class TestOneSearch:
    def test_classify_all_searches_each_representative_once(self, monkeypatch):
        calls = []
        leaves = isomorphism._leaves

        def counted(*args):
            calls.append(args[0])
            return leaves(*args)

        monkeypatch.setattr(isomorphism, "_leaves", counted)
        classify_all(1)
        orbits = classify._center_fixing_orbits()
        representatives = {key for key, rep in orbits.items() if key == rep}
        assert set(orbits.values()) == representatives
        assert len(representatives) == 70
        assert len(calls) == 70
        assert set(calls) == {build_instance(k).config for k in representatives}

    def test_invalid_automorphism_is_caught(self, monkeypatch):
        # the search verifies each automorphism as it meets its leaf: a
        # check that rejects one genuine automorphism of a group of order 6
        # leaves a leaf whose certificate equals the best
        key = InstanceKey(4, 5, 12)
        config = build_instance(key).config
        elements = automorphism_group(config).elements
        assert len(elements) == 6
        genuine = elements[-1]
        check = isomorphism.is_isomorphism

        def rejecting(c1, c2, f):
            return f != genuine and check(c1, c2, f)

        monkeypatch.setattr(isomorphism, "is_isomorphism", rejecting)
        message = "internal error: invalid automorphism produced"
        with pytest.raises(RuntimeError, match=message):
            automorphism_group(config)
        with pytest.raises(RuntimeError, match=message):
            classify._instance_stats(key)


def relabelings(c, seed):
    """Three seeded random relabelings of c."""
    rng = random.Random(seed)
    for _ in range(3):
        images = list(range(c.num_points))
        rng.shuffle(images)
        yield relabel(c, tuple(images))


def host(n):
    return perspective(n, zeta(n), grassmannian(n)).config


def least_leaves(c):
    """The leaves `_leaves(c)` yields from its last `first` leaf on: the
    discrete colorings on c's least trace, in search order."""
    leaves = []
    for leaf, first in isomorphism._leaves(c):
        if first:
            leaves.clear()
        leaves.append(leaf)
    return leaves


def one_trace(leaves):
    """Leaves as `_leaves` would yield them from one trace: only the first
    is `first`."""
    return [(leaf, i == 0) for i, leaf in enumerate(leaves)]


class TestTracePruning:
    """The search keeps only the leaves on the least refinement trace,
    which ends at the pass that makes a leaf's coloring discrete.  An
    automorphism maps a surviving leaf to a surviving leaf, so there is at
    least one per automorphism; on these structures there is exactly one."""

    def test_catalog_leaves_match_group_order(self):
        for key in ALL_KEYS:
            c = build_instance(key).config
            leaves = least_leaves(c)
            assert len(leaves) == automorphism_group(c).order

    @pytest.mark.parametrize(
        "build, order",
        [pytest.param(lambda k=k: veronesian(k), 6, id=f"V({k})") for k in range(4, 11)]
        + [pytest.param(lambda n=n: host(n), 1, id=f"host({n})") for n in range(5, 11)]
        + [
            pytest.param(lambda: grassmannian(5), 120, id="G(2,5)"),
            pytest.param(lambda: grassmannian(6), 720, id="G(2,6)"),
        ],
    )
    def test_leaves_match_group_order_under_relabeling(self, build, order):
        c = build()
        assert automorphism_group(c).order == order
        assert len(least_leaves(c)) == order
        for moved in relabelings(c, c.num_points):
            assert len(least_leaves(moved)) == order

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


STRUCTURES = (
    [pytest.param(lambda k=k: veronesian(k), id=f"V({k})") for k in range(4, 11)]
    + [pytest.param(lambda n=n: host(n), id=f"host({n})") for n in range(5, 11)]
    + [pytest.param(lambda n=n: grassmannian(n), id=f"G(2,{n})") for n in (5, 6)]
)

# a system on which a later branch beats the first leaf's trace, so the
# search yields a second `first` leaf and `_canonize` must start over
BEATEN_TRACE = pytest.param(
    lambda: make_config(
        10,
        [(0, 2, 7), (0, 3, 6), (0, 4, 8), (0, 5, 9), (1, 2, 3), (1, 4, 9)]
        + [(1, 5, 6), (2, 4, 5), (2, 6, 8), (3, 7, 9), (4, 6, 7), (5, 7, 8)],
    ),
    id="beaten-trace",
)


def fake_leaves(c, leaf, best):
    """Two seeded relabellings of leaf that are no automorphic leaf: one
    whose relabelled line list is below the certificate best, one above."""
    rng = random.Random(c.num_points)
    fakes = []
    for _ in range(40):
        images = list(range(c.num_points))
        rng.shuffle(images)
        fake = tuple(images[x] for x in leaf)
        fakes.append((relabelled_lines(fake, c.lines), fake))
    (low_cert, low), (high_cert, high) = min(fakes), max(fakes)
    assert low_cert < best < high_cert
    return low, high


class TestCertificateOracle:
    """`_canonize` certifies only the leaves that fail as automorphisms of
    the best leaf; it must reduce the leaves exactly as certifying every
    leaf does (`oracles.certificate_per_leaf`)."""

    @staticmethod
    def assert_matches(c):
        assert isomorphism._canonize(c)[:3] == certificate_per_leaf(least_leaves(c), c.lines)

    def test_catalog(self):
        for key in ALL_KEYS:
            c = build_instance(key).config
            self.assert_matches(c)
            self.assert_matches(next(relabelings(c, key.f * key.s * key.i)))

    @pytest.mark.parametrize("build", STRUCTURES + [BEATEN_TRACE])
    def test_structures(self, build):
        c = build()
        self.assert_matches(c)
        for moved in relabelings(c, c.num_points):
            self.assert_matches(moved)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: build_instance(InstanceKey(4, 5, 12)).config, id="(4,5,12)"),
            pytest.param(lambda: build_instance(InstanceKey(6, 6, 1)).config, id="(6,6,1)"),
            pytest.param(lambda: build_instance(InstanceKey(2, 5, 6)).config, id="(2,5,6)"),
            pytest.param(lambda: veronesian(5), id="V(5)"),
            pytest.param(lambda: host(6), id="host(6)"),
            pytest.param(lambda: grassmannian(6), id="G(2,6)"),
        ],
    )
    def test_non_automorphic_leaves(self, build, monkeypatch):
        # natural structures give one least-trace leaf per automorphism, so
        # the certificate fallback is reached only through added leaves
        c = build()
        real = least_leaves(c)
        best, base, automorphisms = certificate_per_leaf(real, c.lines)
        low, high = fake_leaves(c, real[0], best)
        certified = TestSearchSize.count_certificates(monkeypatch)
        # a worse first leaf: the first real leaf is a new best, then the
        # lower last leaf is; a lower first leaf: every later leaf is worse
        for first, last, certificates in [(high, low, 3), (low, high, len(real) + 2)]:
            leaves = [first, *real, last]
            with monkeypatch.context() as m:
                m.setattr(isomorphism, "_leaves", lambda config: one_trace(leaves))
                certified.clear()
                got = isomorphism._canonize(c)
            assert got[:3] == certificate_per_leaf(leaves, c.lines)
            assert got == (relabelled_lines(low, c.lines), low, (tuple(range(c.num_points)),), ())
            assert len(certified) == certificates
        # the real leaves between fakes above them still give the group
        leaves = [high, *real, high]
        monkeypatch.setattr(isomorphism, "_leaves", lambda config: one_trace(leaves))
        got = isomorphism._canonize(c)
        assert got[:3] == (best, base, automorphisms)
        assert generated_group(c.num_points, got[3]) == set(automorphisms)


def orbits(num_points, generators):
    """Each point's orbit under the generators, as the set of points its
    images reach."""
    reached = []
    for p in range(num_points):
        orbit, frontier = {p}, [p]
        while frontier:
            x = frontier.pop()
            for s in generators:
                if s[x] not in orbit:
                    orbit.add(s[x])
                    frontier.append(s[x])
        reached.append(orbit)
    return reached


class TestGenerators:
    """The search keeps an automorphism as a generator exactly when it
    joins two orbits of the generators kept before it; met in depth-first
    order, those generators generate the whole group."""

    @staticmethod
    def assert_generates(c):
        group = automorphism_group(c)
        n, generators = c.num_points, group.generators
        assert generated_group(n, generators) == set(group.elements)
        assert len(generators) <= max(n - 1, 0)
        for i, g in enumerate(generators):
            before = orbits(n, generators[:i])
            assert any(g[p] not in before[p] for p in range(n)), (i, g)

    def test_catalog(self):
        for key in ALL_KEYS:
            c = build_instance(key).config
            self.assert_generates(c)
            self.assert_generates(next(relabelings(c, key.f * key.s * key.i)))

    @pytest.mark.parametrize("build", STRUCTURES + [BEATEN_TRACE])
    def test_structures(self, build):
        c = build()
        self.assert_generates(c)
        for moved in relabelings(c, c.num_points):
            self.assert_generates(moved)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_line_free(self, n):
        self.assert_generates(make_config(n, []))


def connected_random_systems(rng, count):
    """`count` seeded partial triple systems on 6 to 12 points whose every
    point lies on a line and whose collinearity graph is connected."""
    systems = []
    while len(systems) < count:
        nu = rng.randint(6, 12)
        c = random_partial_linear(rng, nu, rng.randint(nu, 4 * nu))
        reached, frontier = {0}, [0]
        while frontier:
            p = frontier.pop()
            for x, y in c.pairs_by_point[p]:
                for q in (x, y):
                    if q not in reached:
                        reached.add(q)
                        frontier.append(q)
        if len(reached) == nu:
            systems.append(c)
    return systems


class TestFullTraceOracle:
    """`_leaves` ends a node's passes at the pass that makes its coloring
    discrete.  The search that refines a discrete coloring once more
    (`oracles.full_trace_leaves`) must give the same leaves, and, put in
    its place, the same `_canonize` results, generators included, and
    `are_isomorphic` witnesses."""

    MAX_LEAVES = 2000

    @staticmethod
    def outcomes(c, moved, other):
        return (
            least_leaves(c),
            isomorphism._canonize(c),
            are_isomorphic(c, moved),
            are_isomorphic(moved, c),
            are_isomorphic(c, other),
        )

    def assert_matches(self, monkeypatch, c, moved, other):
        shipped = self.outcomes(c, moved, other)
        with monkeypatch.context() as m:
            m.setattr(isomorphism, "_leaves", full_trace_leaves)
            reference = self.outcomes(c, moved, other)
        assert shipped == reference, c

    def test_catalog(self, monkeypatch):
        previous = build_instance(ALL_KEYS[-1]).config
        for key in ALL_KEYS:
            c = build_instance(key).config
            self.assert_matches(monkeypatch, c, next(relabelings(c, key.f * key.s * key.i)), previous)
            previous = c

    @pytest.mark.parametrize("build", STRUCTURES)
    def test_structures(self, build, monkeypatch):
        c = build()
        # a structure on as many points: V(k) and host(k) have C(k+2, 2)
        k = next(k for k in range(3, 12) if comb(k + 2, 2) == c.num_points)
        other = host(k) if c == veronesian(k) else veronesian(k)
        for moved in relabelings(c, c.num_points):
            self.assert_matches(monkeypatch, c, moved, other)

    def test_random_systems(self, monkeypatch):
        systems = connected_random_systems(random.Random(20261019), 300)
        compared = 0
        for c, other in zip(systems, systems[1:] + systems[:1]):
            if len(least_leaves(c)) > self.MAX_LEAVES:
                continue
            self.assert_matches(monkeypatch, c, next(relabelings(c, c.num_points)), other)
            compared += 1
        assert compared > 250


class TestRootColors:
    """The root coloring ranks each point's triangle and Pasch counts."""

    def test_counts_match_definition_on_catalog(self, representative_of):
        for key, rep in representative_of.items():
            if key == rep:
                c = build_instance(key).config
                expected = brute_triangles_and_pasch(c.num_points, c.lines)
                assert list(c.triangles_and_pasch) == expected, key

    # Pasch configurations are counted from their least point, so each
    # structure is also checked under one seeded relabelling; the
    # Grassmannians are the richest in Pasch configurations
    STRUCTURES = (
        [(lambda k=k: veronesian(k), f"V({k})") for k in range(4, 7)]
        + [(lambda n=n: grassmannian(n), f"G(2,{n})") for n in range(5, 8)]
        + [(lambda n=n: host(n), f"host({n})") for n in (5, 6)]
    )

    @pytest.mark.parametrize(
        "build",
        [pytest.param(build, id=name) for build, name in STRUCTURES]
        + [
            pytest.param(lambda b=build: next(relabelings(b(), 34)), id=f"relabelled {name}")
            for build, name in STRUCTURES
        ],
    )
    def test_counts_match_definition(self, build):
        c = build()
        expected = brute_triangles_and_pasch(c.num_points, c.lines)
        assert list(c.triangles_and_pasch) == expected
        ranks = sorted(set(expected))
        assert isomorphism._root_colors(c) == [ranks.index(pair) for pair in expected]

    def test_counts_match_definition_on_random_systems(self):
        rng = random.Random(20261018)
        for _ in range(40):
            # up to 15 points, so at most 35 lines; enough tries that many
            # draws come near a maximal system, rich in Pasch configurations
            nu = rng.randint(3, 15)
            c = random_partial_linear(rng, nu, rng.randint(0, 300))
            expected = brute_triangles_and_pasch(c.num_points, c.lines)
            assert list(c.triangles_and_pasch) == expected

    @pytest.mark.parametrize(
        "build, one_cell",
        [pytest.param(lambda k=k: veronesian(k), False, id=f"V({k})") for k in range(4, 11)]
        + [pytest.param(lambda n=n: host(n), False, id=f"host({n})") for n in range(5, 11)]
        + [pytest.param(lambda n=n: grassmannian(n), True, id=f"G(2,{n})") for n in range(4, 8)],
    )
    def test_cells_move_with_relabeling(self, build, one_cell):
        c = build()
        colors = isomorphism._root_colors(c)
        assert (len(set(colors)) == 1) == one_cell
        rng = random.Random(c.num_points)
        images = list(range(c.num_points))
        rng.shuffle(images)
        moved = isomorphism._root_colors(relabel(c, tuple(images)))
        assert all(moved[images[p]] == colors[p] for p in range(c.num_points))


def search_outcome(c):
    """The least-trace leaves of c and its (certificate, relabeling,
    automorphisms, generators)."""
    return least_leaves(c), isomorphism._canonize(c)


def integer_and_tuple_outcomes(c, monkeypatch):
    shipped = search_outcome(c)
    with monkeypatch.context() as m:
        # the oracle reads c.lines, never the pair view the kernel is given
        m.setattr(
            isomorphism, "_signature", lambda _pairs, colors, p: tuple_signature(c.lines, colors, p)
        )
        reference = search_outcome(c)
    return shipped, reference


class TestIntegerSignature:
    """`_signature` codes a line whose other points have colors a <= b as
    a*N + b; the search must take the same path as with the tuple (a, b)
    of `oracles.tuple_signature`."""

    def test_codes_order_signatures_as_pairs_do(self):
        rng = random.Random(1301)
        for _ in range(30):
            nu = rng.randint(3, 15)
            c = random_partial_linear(rng, nu, rng.randint(0, 40))
            colors = [rng.randrange(nu) for _ in range(nu)]
            coded = [isomorphism._signature(c.pairs_by_point, colors, p) for p in range(nu)]
            paired = [tuple_signature(c.lines, colors, p) for p in range(nu)]
            for p, q in itertools.product(range(nu), repeat=2):
                assert (coded[p] < coded[q]) == (paired[p] < paired[q])
                assert (coded[p] == coded[q]) == (paired[p] == paired[q])

    def test_catalog(self, monkeypatch):
        for key in ALL_KEYS:
            shipped, reference = integer_and_tuple_outcomes(
                build_instance(key).config, monkeypatch
            )
            assert shipped == reference, key

    @pytest.mark.parametrize(
        "build",
        [pytest.param(lambda k=k: veronesian(k), id=f"V({k})") for k in range(4, 11)]
        + [pytest.param(lambda n=n: host(n), id=f"host({n})") for n in range(5, 11)]
        + [pytest.param(lambda n=n: grassmannian(n), id=f"G(2,{n})") for n in (5, 6)],
    )
    def test_structures(self, build, monkeypatch):
        shipped, reference = integer_and_tuple_outcomes(build(), monkeypatch)
        assert shipped == reference

    def test_random_systems(self, monkeypatch):
        rng = random.Random(1493)
        for _ in range(40):
            nu = rng.randint(6, 9)
            c = random_partial_linear(rng, nu, rng.randint(3, 20))
            shipped, reference = integer_and_tuple_outcomes(c, monkeypatch)
            assert shipped == reference, c


class TestSearchSize:
    """Counts of `_signature` calls pin the size of the search on any
    machine."""

    @staticmethod
    def count_signatures(monkeypatch, work):
        calls = [0]
        signature = isomorphism._signature

        def counted(*args):
            calls[0] += 1
            return signature(*args)

        monkeypatch.setattr(isomorphism, "_signature", counted)
        work()
        return calls[0]

    def test_classify_all(self, monkeypatch):
        assert self.count_signatures(monkeypatch, lambda: classify_all(1)) == 25407

    @pytest.mark.parametrize(
        "build, calls",
        [
            (lambda: grassmannian(6), 17655),
            (lambda: grassmannian(7), 203973),
            (lambda: veronesian(8), 462),
            (lambda: host(10), 66),
        ],
        ids=["G(2,6)", "G(2,7)", "V(8)", "host(10)"],
    )
    def test_leaves(self, monkeypatch, build, calls):
        config = build()
        assert self.count_signatures(monkeypatch, lambda: least_leaves(config)) == calls

    @staticmethod
    def count_certificates(monkeypatch):
        calls = []
        moved_lines = isomorphism.moved_lines

        def counted(lines, images):
            calls.append(lines)
            return moved_lines(lines, images)

        monkeypatch.setattr(isomorphism, "moved_lines", counted)
        return calls

    def test_are_isomorphic_on_catalog_classes(self, monkeypatch, catalog_report):
        # each member, relabelled, against its class's first member: the
        # composed maps are tested, and no certificate is computed
        pairs = []
        for cls in catalog_report.classes:
            first = build_instance(cls.members[0]).config
            for key in cls.members:
                moved = next(relabelings(build_instance(key).config, key.s * key.i * key.f))
                pairs.append((first, moved))
        assert len(pairs) == 240
        certified = self.count_certificates(monkeypatch)

        def decide_all():
            for first, moved in pairs:
                certified.clear()
                assert are_isomorphic(first, moved) is not None
                assert certified == []

        assert self.count_signatures(monkeypatch, decide_all) == 17964

    def test_are_isomorphic_on_relabelled_grassmannian(self, monkeypatch):
        c = grassmannian(7)
        moved = next(relabelings(c, 7))
        certified = self.count_certificates(monkeypatch)
        verify_witness(c, moved, are_isomorphic(c, moved))
        assert certified == []

    @staticmethod
    def count_calls(monkeypatch, module, name):
        """The arguments of each call of module.name, as they come."""
        calls = []
        function = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return function(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_classify_all_certifies_each_representative_once(self, monkeypatch):
        certified = self.count_certificates(monkeypatch)
        checked = self.count_calls(monkeypatch, isomorphism, "is_isomorphism")
        classify_all(1)
        assert len(certified) == 70
        # the 993 leaves of the 70 representatives less their 70 base
        # leaves; an orbit join is a line lookup and checks nothing more
        assert len(checked) == 923

    @pytest.mark.parametrize(
        "build, order",
        [
            (lambda: grassmannian(5), 120),
            (lambda: grassmannian(6), 720),
            (lambda: veronesian(6), 6),
            (lambda: host(6), 1),
        ],
        ids=["G(2,5)", "G(2,6)", "V(6)", "host(6)"],
    )
    def test_automorphism_group_certifies_once(self, monkeypatch, build, order):
        c = build()
        certified = self.count_certificates(monkeypatch)
        checked = self.count_calls(monkeypatch, isomorphism, "is_isomorphism")
        assert automorphism_group(c).order == order
        assert certified == [c.lines]
        assert len(checked) == order - 1

    @staticmethod
    def count_configs(monkeypatch):
        """The arguments of each `Config` built, as they come."""
        built = []
        init = Config.__init__

        def counted(config, *args, **kwargs):
            built.append(args)
            init(config, *args, **kwargs)

        monkeypatch.setattr(Config, "__init__", counted)
        return built

    def test_cold_classify_all_builds_each_skew_and_axis_once(self, monkeypatch):
        veblen_calls = self.count_calls(monkeypatch, classify, "veblen")
        skew_calls = self.count_calls(monkeypatch, classify, "skew_from_phi")
        built = self.count_configs(monkeypatch)
        classify._catalog.cache_clear()
        classify_all(1)
        assert len(veblen_calls) == 30
        assert len(skew_calls) == 8
        # the 30 axes and the 240 instances: the orbit quotient moves axis
        # lines without building a Config
        assert len(built) == 30 + 240

    def test_the_first_instance_builds_the_catalog(self, monkeypatch):
        # one `build_instance` builds all 240 instances over their 30
        # axes; a classification after it builds no Config
        built = self.count_configs(monkeypatch)
        classify._catalog.cache_clear()
        build_instance(ALL_KEYS[0])
        assert len(built) == 30 + 240
        built.clear()
        classify_all(1)
        assert built == []


def no_search(*args):
    raise AssertionError("the pre-check should have answered")


def count_multiset(c):
    return sorted(brute_triangles_and_pasch(c.num_points, c.lines))


class TestPreCheck:
    """`are_isomorphic` compares the multisets of per-point triangle and
    Pasch counts before any search and answers None on a difference."""

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_veronesian_against_the_host(self, k, monkeypatch):
        v, h = veronesian(k), host(k)
        if k <= 6:
            assert count_multiset(v) != count_multiset(h)
        monkeypatch.setattr(isomorphism, "_leaves", no_search)
        assert are_isomorphic(v, h) is None
        assert are_isomorphic(h, v) is None

    def test_hard_catalog_negatives(self, catalog_report, representative_of, monkeypatch):
        # pairs of representatives that agree on free-clique count and
        # group order, the invariants `classify` reports
        by_invariants = {}
        for key, summary in catalog_report.instances.items():
            if representative_of[key] == key:
                invariants = (summary.free_clique_count, summary.aut_order)
                by_invariants.setdefault(invariants, []).append(key)
        configs = {
            key: build_instance(key).config for keys in by_invariants.values() for key in keys
        }
        oracle = {key: count_multiset(c) for key, c in configs.items()}
        monkeypatch.setattr(isomorphism, "_leaves", no_search)
        answered = 0
        for keys in by_invariants.values():
            for k1, k2 in itertools.combinations(keys, 2):
                c1, c2 = configs[k1], configs[k2]
                differ = sorted(c1.triangles_and_pasch) != sorted(c2.triangles_and_pasch)
                assert differ == (oracle[k1] != oracle[k2]), (k1, k2)
                if not differ:
                    continue
                assert are_isomorphic(c1, c2) is None, (k1, k2)
                assert are_isomorphic(c2, c1) is None, (k2, k1)
                answered += 1
        assert answered > 0

    def test_equal_multisets_reach_the_search(self, catalog_report, representative_of, monkeypatch):
        # the representatives of classes 8 and 9: 2 free five-cliques, a
        # trivial group and equal multisets
        k1, k2 = InstanceKey(2, 5, 6), InstanceKey(2, 5, 7)
        s1, s2 = catalog_report.instances[k1], catalog_report.instances[k2]
        assert (representative_of[k1], representative_of[k2]) == (k1, k2)
        assert s1.class_id != s2.class_id
        c1, c2 = build_instance(k1).config, build_instance(k2).config
        assert count_multiset(c1) == count_multiset(c2)
        searched = []
        leaves = isomorphism._leaves

        def counted(*args):
            searched.append(args[0])
            return leaves(*args)

        monkeypatch.setattr(isomorphism, "_leaves", counted)
        assert are_isomorphic(c1, c2) is None
        assert searched
        assert next(backtrack_isos(c1, c2), None) is None


def random_pairs(rng, count):
    """Seeded pairs of random partial linear spaces with equal point and
    line counts; every fourth second side is a relabeled copy of the
    first."""
    pairs = []
    while len(pairs) < count:
        nu = rng.randint(6, 9)
        c1 = random_partial_linear(rng, nu, rng.randint(3, 20))
        if len(pairs) % 4 == 3:
            images = list(range(nu))
            rng.shuffle(images)
            pairs.append((c1, relabel(c1, tuple(images))))
            continue
        for _ in range(50):
            c2 = random_partial_linear(rng, nu, rng.randint(3, 20))
            if len(c2.lines) == len(c1.lines):
                pairs.append((c1, c2))
                break
    return pairs


def test_decisions_match_backtracking_on_random_pairs(monkeypatch):
    # a negative answer rests on the pre-check or the canonizer alone, so
    # every answer is checked against the backtracking oracle, and both
    # paths must decide some of the negatives
    searches = []
    leaves = isomorphism._leaves

    def counted(*args):
        searches.append(args[0])
        return leaves(*args)

    monkeypatch.setattr(isomorphism, "_leaves", counted)
    answers = []
    negatives_by = {"pre-check": 0, "search": 0}
    for c1, c2 in random_pairs(random.Random(1018), 120):
        expected = next(backtrack_isos(c1, c2), None)
        searches.clear()
        witness = are_isomorphic(c1, c2)
        assert (witness is None) == (expected is None), (c1, c2)
        if witness is not None:
            verify_witness(c1, c2, witness)
        else:
            negatives_by["search" if searches else "pre-check"] += 1
        answers.append(witness is None)
    assert 10 < sum(answers) < len(answers) - 10
    assert all(count > 0 for count in negatives_by.values()), negatives_by


def certificate_witness(c1, c2):
    """The witness of a full search of both sides: inverse(cert2.relabeling)
    composed with cert1.relabeling, or None when the certificates differ."""
    cert1, cert2 = canonical_certificate(c1), canonical_certificate(c2)
    if cert1.canonical_lines != cert2.canonical_lines:
        return None
    inverse2 = [0] * c2.num_points
    for p, c in enumerate(cert2.relabeling):
        inverse2[c] = p
    return tuple(inverse2[c] for c in cert1.relabeling)


@pytest.fixture(scope="module")
def catalog_report():
    return classify_all(threads=1)


@pytest.fixture(scope="module")
def representative_of():
    """Each catalog key's center-fixing orbit representative."""
    return classify._center_fixing_orbits()


class TestReferenceSearch:
    """`are_isomorphic` searches its second configuration against the
    trace of the first's first leaf; on these inputs its answers and
    witnesses are those of the certificate formula over two full
    searches."""

    def test_catalog_members_against_their_class(self, catalog_report):
        for cls in catalog_report.classes:
            first = build_instance(cls.members[0]).config
            for key in cls.members:
                moved = next(relabelings(build_instance(key).config, key.s * key.i * key.f))
                expected = certificate_witness(first, moved)
                assert expected is not None
                assert are_isomorphic(first, moved) == expected, key

    def test_orbit_representatives_with_equal_invariants(self, catalog_report, representative_of):
        by_invariants = {}
        for key, summary in catalog_report.instances.items():
            if representative_of[key] == key:
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
        next(isomorphism._leaves(c1, trace))
        trace2 = []
        next(isomorphism._leaves(c2, trace2))
        assert trace2[0] < trace[0]
        assert list(isomorphism._leaves(c2, trace)) == []
        assert are_isomorphic(c1, c2) is None
        assert are_isomorphic(c2, c1) is None

    def test_differing_key_prunes_only_its_branch(self, monkeypatch):
        # G(2,5) is one cell at the root and branches ten ways; a reference
        # whose second key sorts after every key differs from each child's
        # first key, which prunes that child alone: each of the ten is
        # tried once and none descends
        c = grassmannian(5)
        trace = []
        next(isomorphism._leaves(c, trace))
        reference = [trace[0], ((c.num_points + 1,),)]
        colorings = []
        signature = isomorphism._signature

        def counted(pairs_by_point, colors, p):
            colorings.append(tuple(colors))
            return signature(pairs_by_point, colors, p)

        monkeypatch.setattr(isomorphism, "_signature", counted)
        assert list(isomorphism._leaves(c, reference)) == []
        # the root pass and each child's first pass, which recomputes the
        # signatures of the individualized point and its six collinear
        # points only
        assert len(set(colorings)) == 1 + c.num_points
        assert len(colorings) == c.num_points + c.num_points * (1 + 6)
        assert reference == [trace[0], ((c.num_points + 1,),)]

    def test_rejected_leaf_continues_the_search(self):
        # the unguided search finds its least trace on its first path, so
        # the search that follows that path meets the leaves the unguided
        # one keeps, in the same order; a caller that leaves the loop at
        # the second leaf has met the first two
        moved = next(relabelings(grassmannian(5), 5))
        leaves = least_leaves(moved)
        assert len(leaves) > 2
        assert list(isomorphism._leaves(moved)) == one_trace(leaves)
        trace = []
        seen = []
        for found in isomorphism._leaves(moved, trace):
            seen.append(found)
            if len(seen) == 2:
                break
        assert seen == one_trace(leaves)[:2]
        assert list(isomorphism._leaves(moved, trace)) == one_trace(leaves)

    @pytest.mark.parametrize("k", [5, 6])
    def test_veronesian_against_the_host_visits_no_leaf(self, k, monkeypatch):
        # the root colorings tell the two apart, and so do the multisets
        # of triangle and Pasch counts they are ranked from: the pre-check
        # answers, and no certificate is computed on either side
        v, h = veronesian(k), host(k)
        trace_v, trace_h = [], []
        next(isomorphism._leaves(v, trace_v))
        next(isomorphism._leaves(h, trace_h))
        assert trace_v[0] != trace_h[0]
        certified = []
        moved_lines = isomorphism.moved_lines

        def counted(lines, images):
            certified.append(lines)
            return moved_lines(lines, images)

        monkeypatch.setattr(isomorphism, "moved_lines", counted)
        for c1, c2 in [(v, h), (h, v)]:
            assert are_isomorphic(c1, c2) is None
        assert certified == []

    def test_relabeled_grassmannian_found_early(self, monkeypatch):
        c = grassmannian(6)
        moved = next(relabelings(c, 6))
        certified = TestSearchSize.count_certificates(monkeypatch)
        checked = TestSearchSize.count_calls(monkeypatch, isomorphism, "is_isomorphism")
        witness = are_isomorphic(c, moved)
        verify_witness(c, moved, witness)
        # c is descended to its first leaf; moved stops at its first leaf
        # on that trace, whose composed map is an isomorphism, since every
        # such leaf differs from c's leaf by one; no certificate is computed
        assert len(checked) == 1
        assert certified == []

    @pytest.mark.parametrize("num_points, lines", [(0, []), (3, [(0, 1, 2)])])
    def test_smallest_files(self, num_points, lines):
        c = make_config(num_points, lines)
        moved = relabel(c, tuple(range(num_points - 1, -1, -1)))
        witness = are_isomorphic(c, moved)
        assert witness == certificate_witness(c, moved)
        verify_witness(c, moved, witness)

    def test_no_trace_is_kept(self):
        c1 = grassmannian(5)
        c2 = next(relabelings(c1, 3))
        state = dict(vars(isomorphism))
        calls = [
            lambda: are_isomorphic(c1, c2),
            lambda: canonical_certificate(c1),
            lambda: automorphism_group(c2),
        ]
        for call in calls:
            assert call() is not None
            assert vars(isomorphism).keys() == state.keys()
            assert all(vars(isomorphism)[name] is value for name, value in state.items())
