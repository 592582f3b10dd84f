"""Acceptance suite: ten headline checks with stated time budgets.

Checks 1 to 6 and 10 verify structural identities with explicit witnesses
or independent oracles.  Checks 7 to 9 compare the exhaustive
classification against external reference values; when the computation
contradicts a reference value, the check fails and prints the complete
evidence (collision listings, set differences, group orders).  That
failure output is the point: disagreements are reported, not absorbed.
"""

import itertools
import random
from time import perf_counter

import pytest

from skewper.analysis import enumerate_free_cliques
from skewper.classify import (
    EXPECTED_NONTRIVIAL_AUT,
    EXPECTED_THREE_PLUS_CLASSES,
    EXPECTED_THREE_PLUS_PAIRS_S5,
    EXPECTED_TWO_K5_CLASSES,
    MU_CATALOG,
    PHI_CATALOG,
    InstanceKey,
    build_instance,
    classify_all,
    diagnostic_text,
)
from skewper.constructions import (
    grassmannian,
    multiset_label,
    pair_label,
    perspective,
    veblen,
    veblen_label,
    veronesian,
    veronesian_axis,
)
from skewper.incidence import Config
from skewper.isomorphism import are_isomorphic, automorphism_group
from skewper.perms import Perm, parse_cycles, symmetric_group
from skewper.skews import (
    PhiSequence,
    Skew,
    all_pairs,
    bar_alpha,
    phi_sequence,
    skew_from_phi,
    zeta,
)

from oracles import point_named
from paper_claims import (
    apply_pair_map,
    axis_of,
    conjugate_skew,
    free_star_indices,
    gamma_between,
    identity_skew,
    kappa,
    phi_conjugate,
    phi_inverse,
    recognize_bar,
    reperspective,
    s_map,
    star_clique_indices,
)

SEED = 20260815


@pytest.fixture(scope="session")
def report():
    return classify_all(threads=1)


def _verify_witness(source: Config, target: Config, witness: dict) -> None:
    assert sorted(witness) == list(range(source.num_points))
    assert sorted(witness.values()) == list(range(target.num_points))
    mapped = {tuple(sorted(witness[x] for x in L)) for L in source.lines}
    assert mapped == set(target.lines)


def test_01_grassmannian_identity():
    """The identity-skew perspective over the pair Grassmannian is the next
    Grassmannian, with an explicit verified witness, for n = 3, 4, 5."""
    start = perf_counter()
    for n in (3, 4, 5):
        p = perspective(n, identity_skew(n), grassmannian(n))
        target = grassmannian(n + 2)
        lab = p.labeling
        witness = {lab.center: point_named(target, pair_label((n + 1, n + 2)))}
        for i in range(1, n + 1):
            witness[lab.a[i - 1]] = point_named(target, pair_label((i, n + 1)))
            witness[lab.b[i - 1]] = point_named(target, pair_label((i, n + 2)))
        for u in all_pairs(n):
            witness[lab.c[u]] = point_named(target, pair_label(u))
        _verify_witness(p.config, target, witness)
    assert perf_counter() - start < 1.0


def test_02_veronesian_recursion():
    """The symmetry-skew perspective over the weight-(k-2) multiset axis is
    the weight-k multiset configuration, for k = 4, 5, 6, 7."""
    start = perf_counter()
    for k in (4, 5, 6, 7):
        p = perspective(k, zeta(k), veronesian_axis(k))
        target = veronesian(k)
        lab = p.labeling
        witness = {lab.center: point_named(target, multiset_label((k, 0, 0)))}
        for i in range(1, k + 1):
            witness[lab.a[i - 1]] = point_named(
                target, multiset_label((k - i, i, 0))
            )
            witness[lab.b[i - 1]] = point_named(
                target, multiset_label((k - i, 0, i))
            )
        for i, j in all_pairs(k):
            witness[lab.c[(i, j)]] = point_named(
                target, multiset_label((k - j, i, j - i))
            )
        _verify_witness(p.config, target, witness)
    assert perf_counter() - start < 5.0


def test_03_ten_point_configurations_differ():
    """The weight-3 multiset configuration is a (10_3 10_3) configuration
    isomorphic to the small symmetry-skew perspective but not to the
    ten-point pair Grassmannian."""
    start = perf_counter()
    v3 = veronesian(3)
    assert (v3.num_points, len(v3.lines)) == (10, 10)
    assert sorted(map(len, v3.pairs_by_point)) == [3] * 10
    small = perspective(3, zeta(3), grassmannian(3))
    assert are_isomorphic(v3, small.config) is not None
    assert are_isomorphic(v3, grassmannian(5)) is None
    assert perf_counter() - start < 1.0


def test_04_free_clique_counts():
    """Symmetry-skew Grassmannian hosts and the multiset configurations
    freely contain exactly three complete graphs of top size."""
    start = perf_counter()
    for n in (4, 5):
        host = perspective(n, zeta(n), grassmannian(n)).config
        assert len(enumerate_free_cliques(host, n + 1)) == 3
    for k in (4, 5):
        assert len(enumerate_free_cliques(veronesian(k), k + 1)) == 3
    assert perf_counter() - start < 10.0


def test_05_rigidity():
    """The symmetry-skew Grassmannian hosts admit no nonidentity
    automorphism for n = 4, 5."""
    start = perf_counter()
    for n in (4, 5):
        host = perspective(n, zeta(n), grassmannian(n)).config
        assert automorphism_group(host).order == 1
    assert perf_counter() - start < 10.0


def test_06_complement_law():
    """Complementing the pair labels swaps the two axis families at equal
    permutation, as labeled line sets, for all fifteen permutations."""
    start = perf_counter()
    for i, mu in MU_CATALOG.items():
        for s in (5, 6):
            left = kappa(veblen(veblen_label(s, mu)))
            right = veblen(veblen_label(11 - s, mu))
            assert left.lines == right.lines, (s, i)
            assert left.labels == right.labels, (s, i)
    assert perf_counter() - start < 1.0


def test_07_classification_headline(report):
    """Exactly 104 isomorphism classes among catalog instances (f >= 2)
    with exactly two free five-cliques, and exactly 11 among those with
    three or more.  On any other counts this fails with the full class
    listing, which names every colliding instance."""
    assert report.timings["total"] < 60.0
    actual = (report.class_count_two_k5, report.class_count_three_plus)
    expected = (EXPECTED_TWO_K5_CLASSES, EXPECTED_THREE_PLUS_CLASSES)
    assert actual == expected, (
        f"computed (two-clique, three-plus) class counts {actual} differ from"
        f" the reference {expected}; full evidence follows\n"
        + diagnostic_text(report)
    )


def test_08_three_plus_pair_list(report):
    """The s=5 instances with three or more free five-cliques are exactly
    the 36 reference pairs."""
    assert report.timings["total"] < 30.0
    actual = report.three_plus_pairs_s5
    expected = EXPECTED_THREE_PLUS_PAIRS_S5
    missing = sorted(expected - actual)
    extra = sorted(actual - expected)
    assert actual == expected, (
        f"computed {len(actual)} pairs, reference lists {len(expected)};"
        f" reference-only: {missing}; computed-only: {extra}\n"
        + diagnostic_text(report)
    )


def test_09_automorphism_families(report):
    """Nontrivial automorphism groups occur exactly at the ten reference
    instances, each of order two generated by the row swap."""
    assert report.timings["total"] < 60.0
    actual_keys = {k for k in report.nontrivial_aut if k.f >= 2}
    expected_keys = set(EXPECTED_NONTRIVIAL_AUT)
    problems = []
    for key in sorted(expected_keys):
        order = report.instances[key].aut_order
        if order != 2:
            problems.append(f"({key.f},{key.s},{key.i}) has order {order}, not 2")
            continue
        persp = build_instance(key)
        try:
            sm = s_map(persp)
        except ValueError:
            problems.append(
                f"({key.f},{key.s},{key.i}) group is not generated by the row swap"
            )
            continue
        group = automorphism_group(persp.config)
        n = persp.config.num_points
        if set(group.elements) != {
            tuple(range(n)),
            tuple(sm[x] for x in range(n)),
        }:
            problems.append(
                f"({key.f},{key.s},{key.i}) group is not generated by the row swap"
            )
    unexpected = sorted(
        (k.f, k.s, k.i) for k in actual_keys - expected_keys
    )
    if unexpected:
        problems.append(
            f"{len(unexpected)} instances outside the reference list have"
            f" nontrivial groups: {unexpected}"
        )
    assert not problems, (
        "automorphism reference comparison failed:\n  "
        + "\n  ".join(problems)
        + "\n"
        + diagnostic_text(report)
    )


def _random_phi(rng: random.Random, n: int) -> PhiSequence:
    levels = {}
    for j in range(2, n + 1):
        images = list(range(1, j))
        rng.shuffle(images)
        levels[j] = Perm(tuple(images))
    return phi_sequence(n, levels)


def _brute_bar_match(sigma: Skew):
    for alpha in symmetric_group(sigma.n):
        if bar_alpha(alpha) == sigma:
            return alpha
    return None


def test_10_property_suites(report):
    """Seeded property checks: Config construction vs brute force, level-sequence
    algebra, conjugation laws, lift recognition, the star-clique formula
    against brute-force search on all 240 instances, re-centering, and the
    row-swap twin isomorphism on all 240 instances."""
    start = perf_counter()
    rng = random.Random(SEED)

    # constructing a Config raises exactly when a brute-force pairwise
    # check fails
    for _ in range(120):
        nu = rng.randint(3, 9)
        lines = []
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.15:
                line = tuple(sorted(rng.choices(range(nu), k=3)))
            else:
                line = tuple(sorted(rng.sample(range(nu), 3)))
            lines.append(line)
        brute_ok = (
            all(len(set(L)) == 3 for L in lines)
            and all(
                len(set(L) & set(M)) <= 1
                for L, M in itertools.combinations(lines, 2)
            )
            and len({frozenset(L) for L in lines}) == len(lines)
        )
        try:
            Config(num_points=nu, lines=tuple(sorted(lines)), labels=None)
        except ValueError:
            built = False
        else:
            built = True
        assert built == brute_ok

    # level-sequence skews: bijectivity and the inverse law
    for _ in range(20):
        phi = _random_phi(rng, 5)
        sigma = skew_from_phi(phi)
        assert sorted(sigma(u) for u in all_pairs(5)) == sorted(all_pairs(5))
        assert skew_from_phi(phi_inverse(phi)) == sigma.inverse()

    # the symmetry skew is an involution
    for n in range(2, 8):
        assert (zeta(n) * zeta(n)).is_identity()

    # conjugation law for the level-preserving point permutation
    alpha = parse_cycles("(1,2)", 5)
    for _ in range(15):
        phi = _random_phi(rng, 5)
        lhs = conjugate_skew(skew_from_phi(phi), bar_alpha(alpha))
        assert lhs == skew_from_phi(phi_conjugate(phi, alpha))

    # conjugacy of level sequences with matching per-level cycle types
    for _ in range(10):
        phi1 = _random_phi(rng, 5)
        gammas = {
            j: Perm(tuple(rng.sample(range(1, j), j - 1)))
            for j in range(2, 6)
        }
        phi2 = phi_sequence(
            5,
            {
                j: gammas[j] * phi1.level(j) * gammas[j].inverse()
                for j in range(2, 6)
            },
        )
        gamma = gamma_between(phi1, phi2)
        assert conjugate_skew(skew_from_phi(phi1), gamma) == skew_from_phi(phi2)

    # lift recognition is complete at n = 4
    for top in symmetric_group(3):
        for inner in symmetric_group(2):
            phi = phi_sequence(4, {4: top, 3: inner})
            sigma = skew_from_phi(phi)
            recognized = recognize_bar(phi)
            brute = _brute_bar_match(sigma)
            assert (recognized is None) == (brute is None)
            if recognized is not None:
                assert bar_alpha(recognized.alpha) == sigma

    # the star-clique index formula equals brute-force search on all 240
    for f in range(1, 9):
        for s in (5, 6):
            for i in range(1, 16):
                persp = build_instance(InstanceKey(f, s, i))
                formula = star_clique_indices(persp, PHI_CATALOG[f])
                assert formula == free_star_indices(persp), (f, s, i)

    # re-centering: verified witness, identity inner skew over the
    # pair-Grassmannian axis
    for n in (4, 5):
        rep = reperspective(perspective(n, zeta(n), grassmannian(n)))
        assert rep.rho0.is_identity()
        assert rep.rebuilt.config.binomial_n == n + 2

    # the row swap carries every instance onto its inverse-skew twin
    for f in range(1, 9):
        for s in (5, 6):
            for i in range(1, 16):
                persp = build_instance(InstanceKey(f, s, i))
                sigma = persp.skew
                twin = perspective(
                    4, sigma.inverse(), apply_pair_map(axis_of(persp), sigma)
                )
                lab, twin_lab = persp.labeling, twin.labeling
                mapping = {lab.center: twin_lab.center}
                for r in range(4):
                    mapping[lab.a[r]] = twin_lab.b[r]
                    mapping[lab.b[r]] = twin_lab.a[r]
                for u in all_pairs(4):
                    mapping[lab.c[u]] = twin_lab.c[sigma(u)]
                mapped = {
                    tuple(sorted(mapping[x] for x in L))
                    for L in persp.config.lines
                }
                assert mapped == set(twin.config.lines), (f, s, i)
                if sigma == sigma.inverse() and apply_pair_map(
                    axis_of(persp), sigma
                ).lines == axis_of(persp).lines:
                    sm = s_map(persp)
                    assert all(sm[sm[x]] == x for x in sm)

    assert perf_counter() - start < 30.0
