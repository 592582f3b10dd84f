"""Tests for pair permutations (skews), level sequences, lifts, conjugation.

Oracles used here:
- bijection checks are done by pigeonhole over all pairs;
- lift recognition is cross-checked by brute force over all bar(alpha);
- conjugation identities are verified pointwise on every pair.
"""

import itertools
import random
import re

import pytest

from skewper.perms import Perm, parse_cycles, symmetric_group
from skewper.skews import (
    PhiSequence,
    Skew,
    all_pairs,
    bar_alpha,
    conjugate_skew,
    gamma_between,
    identity_skew,
    make_pair,
    parse_phi_text,
    format_phi_text,
    phi_conjugate,
    phi_from_skew,
    phi_inverse,
    phi_sequence,
    recognize_bar,
    skew_from_phi,
    zeta,
)


def random_phi(rng: random.Random, n: int) -> PhiSequence:
    levels = {}
    for j in range(3, n + 1):
        perm = list(range(1, j))
        rng.shuffle(perm)
        levels[j] = Perm.from_one_line(perm)
    return phi_sequence(n, levels)


def brute_lift_match(sigma: Skew):
    """Search all alpha with bar(alpha) == sigma; return the list of hits."""
    return [a for a in symmetric_group(sigma.n) if bar_alpha(a) == sigma]


class TestPairs:
    def test_lex_order_and_count(self):
        assert all_pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_make_pair_sorts(self):
        assert make_pair(5, 2) == (2, 5)

    def test_make_pair_rejects_equal(self):
        with pytest.raises(ValueError):
            make_pair(3, 3)


class TestSkewBasics:
    def test_from_map_rejects_non_bijection(self):
        pairs = all_pairs(3)
        bad = {u: pairs[0] for u in pairs}
        with pytest.raises(ValueError):
            Skew.from_map(3, bad)

    def test_identity(self):
        s = identity_skew(4)
        assert all(s(u) == u for u in all_pairs(4))
        assert s.is_identity()

    def test_compose_and_inverse(self):
        rng = random.Random(11)
        for _ in range(20):
            s = skew_from_phi(random_phi(rng, 5))
            t = skew_from_phi(random_phi(rng, 5))
            st = s * t
            for u in all_pairs(5):
                assert st(u) == s(t(u))
            assert (s * s.inverse()).is_identity()

    def test_order(self):
        assert identity_skew(4).order() == 1
        assert zeta(4).order() == 2


def validated_product(s: Skew, t: Skew) -> Skew:
    return Skew(s.n, tuple(s(v) for v in t.images))


def assert_same_skew(unchecked: Skew, validated: Skew):
    assert unchecked == validated
    assert hash(unchecked) == hash(validated)
    assert all(unchecked(u) == validated(u) for u in all_pairs(validated.n))
    assert unchecked.order() == validated.order()
    assert unchecked.inverse() == validated.inverse()


class TestUncheckedProduct:
    """Products and inverses are built without re-validation; they must be
    the skews the validating constructor gives."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_level_skews(self, n):
        rng = random.Random(n)
        for _ in range(15):
            s = skew_from_phi(random_phi(rng, n))
            t = skew_from_phi(random_phi(rng, n))
            assert_same_skew(s * t, validated_product(s, t))
            inv = {v: u for u, v in zip(all_pairs(n), s.images)}
            assert_same_skew(s.inverse(), Skew.from_map(n, inv))

    def test_all_lifts_at_four(self):
        lifts = [bar_alpha(a) for a in symmetric_group(4)]
        assert len(lifts) == 24
        for s, t in itertools.product(lifts, repeat=2):
            assert_same_skew(s * t, validated_product(s, t))

    def test_constructors_still_validate(self):
        pairs = all_pairs(4)
        repeated = (pairs[0],) + pairs[:-1]
        with pytest.raises(ValueError, match="bijection"):
            Skew(4, repeated)
        with pytest.raises(ValueError, match="expected 6 images"):
            Skew(4, pairs[:-1])
        with pytest.raises(ValueError, match="bijection"):
            Skew.from_map(4, dict(zip(pairs, repeated)))

    def test_different_ground_sets_do_not_compose(self):
        with pytest.raises(ValueError, match="different ground sets"):
            identity_skew(4) * identity_skew(5)


class TestSkewFromPhi:
    def test_all_identity_gives_identity(self):
        phi = phi_sequence(5, {})
        assert skew_from_phi(phi).is_identity()

    def test_single_value_example(self):
        phi = phi_sequence(4, {4: parse_cycles("(1,2,3)", 3), 3: parse_cycles("(1,2)", 2)})
        assert skew_from_phi(phi)((1, 4)) == (2, 4)

    def test_always_bijection(self):
        rng = random.Random(23)
        for n in range(2, 9):
            for _ in range(10):
                s = skew_from_phi(random_phi(rng, n))
                assert sorted(s(u) for u in all_pairs(n)) == sorted(all_pairs(n))

    def test_inverse_law(self):
        rng = random.Random(31)
        for _ in range(25):
            phi = random_phi(rng, 6)
            assert skew_from_phi(phi_inverse(phi)) == skew_from_phi(phi).inverse()

    def test_malformed_level_named_in_error(self):
        with pytest.raises(ValueError, match="phi_4"):
            PhiSequence(n=4, phis=(Perm.identity(2), Perm.identity(2), Perm.identity(1)))

    def test_level_accessor(self):
        phi = phi_sequence(4, {4: parse_cycles("(2,3)", 3)})
        assert phi.level(4) == parse_cycles("(2,3)", 3)
        assert phi.level(3).is_identity()
        assert phi.level(2).is_identity()


class TestZeta:
    def test_example(self):
        assert zeta(4)((1, 4)) == (3, 4)

    def test_involution(self):
        for n in range(2, 9):
            assert (zeta(n) * zeta(n)).is_identity()

    def test_zeta3_is_a_lift(self):
        assert zeta(3) == bar_alpha(parse_cycles("(1,2)", 3))

    def test_zeta_as_phi_sequence(self):
        # level maps i -> j - i
        phi = phi_sequence(4, {4: parse_cycles("(1,3)", 3), 3: parse_cycles("(1,2)", 2)})
        assert skew_from_phi(phi) == zeta(4)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            zeta(1)


class TestBarAlpha:
    def test_identity(self):
        assert bar_alpha(Perm.identity(5)).is_identity()

    def test_pointwise_example(self):
        assert bar_alpha(parse_cycles("(1,2)", 4))((1, 3)) == (2, 3)

    def test_functorial(self):
        rng = random.Random(47)
        for _ in range(30):
            a = Perm.from_one_line(rng.sample(range(1, 6), 5))
            b = Perm.from_one_line(rng.sample(range(1, 6), 5))
            assert bar_alpha(a * b) == bar_alpha(a) * bar_alpha(b)


class TestPhiFromSkew:
    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(20):
            phi = random_phi(rng, 5)
            recovered = phi_from_skew(skew_from_phi(phi))
            assert recovered == phi

    def test_non_level_skew_recognized(self):
        # bar((3,4)) moves the maximum of {1,3}, so it is not level-preserving
        assert phi_from_skew(bar_alpha(parse_cycles("(3,4)", 4))) is None


class TestRecognizeBar:
    def test_all_identity(self):
        hit = recognize_bar(phi_sequence(5, {}))
        assert hit is not None
        assert hit.kind == "identity"
        assert hit.alpha.is_identity()

    def test_swap_lift_smallest_case(self):
        hit = recognize_bar(phi_sequence(3, {3: parse_cycles("(1,2)", 2)}))
        assert hit is not None
        assert hit.kind == "transposition"
        assert hit.alpha == parse_cycles("(1,2)", 3)

    def test_swap_lift_general(self):
        for n in (4, 5, 6):
            levels = {j: Perm.transposition(1, 2, j - 1) for j in range(3, n + 1)}
            phi = phi_sequence(n, levels)
            hit = recognize_bar(phi)
            assert hit is not None and hit.kind == "transposition"
            assert bar_alpha(hit.alpha) == skew_from_phi(phi)

    def test_zeta4_is_not_a_lift(self):
        phi = phi_sequence(4, {4: parse_cycles("(1,3)", 3), 3: parse_cycles("(1,2)", 2)})
        assert recognize_bar(phi) is None
        assert brute_lift_match(zeta(4)) == []

    def test_accepts_skew_argument(self):
        assert recognize_bar(identity_skew(4)) is not None
        assert recognize_bar(zeta(4)) is None

    def test_rejects_non_level_structured_skew(self):
        with pytest.raises(ValueError, match="level-structured"):
            recognize_bar(bar_alpha(parse_cycles("(3,4)", 4)))

    def test_complete_over_n4(self):
        """Exhaustive check: over all 12 level sequences on n=4, the lifts are
        exactly the all-identity one and the all-(1,2) one, matching a brute
        force search over every bar(alpha)."""
        lifts = []
        for phi4 in symmetric_group(3):
            for phi3 in symmetric_group(2):
                phi = phi_sequence(4, {4: phi4, 3: phi3})
                sigma = skew_from_phi(phi)
                hits = brute_lift_match(sigma)
                assert len(hits) <= 1
                got = recognize_bar(phi)
                if hits:
                    assert got is not None and bar_alpha(got.alpha) == sigma
                    lifts.append((phi4, phi3))
                else:
                    assert got is None
        assert lifts == [
            (Perm.identity(3), Perm.identity(2)),
            (Perm.transposition(1, 2, 3), Perm.transposition(1, 2, 2)),
        ] or lifts == [
            (Perm.transposition(1, 2, 3), Perm.transposition(1, 2, 2)),
            (Perm.identity(3), Perm.identity(2)),
        ]

    def test_lone_level3_swap_is_not_a_lift_beyond_n3(self):
        for n in (4, 5):
            phi = phi_sequence(n, {3: parse_cycles("(1,2)", 2)})
            assert brute_lift_match(skew_from_phi(phi)) == []
            assert recognize_bar(phi) is None


class TestGammaBetween:
    def verify(self, phi1, phi2):
        gamma = gamma_between(phi1, phi2)
        s1, s2 = skew_from_phi(phi1), skew_from_phi(phi2)
        for u in all_pairs(phi1.n):
            assert (gamma * s1 * gamma.inverse())(u) == s2(u)

    def test_equal_sequences(self):
        phi = phi_sequence(4, {4: parse_cycles("(1,2,3)", 3)})
        self.verify(phi, phi)

    def test_three_cycles(self):
        phi1 = phi_sequence(4, {4: parse_cycles("(1,2,3)", 3)})
        phi2 = phi_sequence(4, {4: parse_cycles("(1,3,2)", 3)})
        self.verify(phi1, phi2)

    def test_mismatch_error_names_level(self):
        phi1 = phi_sequence(4, {4: parse_cycles("(1,2)", 3)})
        phi2 = phi_sequence(4, {4: parse_cycles("(1,2,3)", 3)})
        with pytest.raises(ValueError, match="level 4"):
            gamma_between(phi1, phi2)

    def test_random_conjugate_pairs(self):
        rng = random.Random(61)
        for _ in range(15):
            phi1 = random_phi(rng, 5)
            # conjugate each level by a random permutation of its domain
            levels = {}
            for j in range(3, 6):
                g = Perm.from_one_line(rng.sample(range(1, j), j - 1))
                levels[j] = phi1.level(j).conjugate(g)
            self.verify(phi1, phi_sequence(5, levels))


class TestConjugateSkew:
    def test_identity_conjugation(self):
        s = zeta(5)
        assert conjugate_skew(s, identity_skew(5)) == s

    def test_level_conjugation_law(self):
        """Conjugating a level skew by bar(alpha) matches conjugating the
        sequence levelwise, for the alphas that preserve every level domain."""
        for n in (4, 5):
            alphas = [Perm.identity(n), Perm.transposition(1, 2, n)]
            rng = random.Random(n)
            for _ in range(10):
                phi = random_phi(rng, n)
                for alpha in alphas:
                    left = conjugate_skew(skew_from_phi(phi), bar_alpha(alpha))
                    right = skew_from_phi(phi_conjugate(phi, alpha))
                    assert left == right

    def test_phi_conjugate_rejects_unstable_alpha(self):
        phi = phi_sequence(4, {})
        with pytest.raises(ValueError, match="does not preserve"):
            phi_conjugate(phi, parse_cycles("(1,3)", 4))

    def test_zeta4_rigidity(self):
        """No nonidentity relabeling fixes the symmetry skew."""
        fixing = [
            a
            for a in symmetric_group(4)
            if conjugate_skew(zeta(4), bar_alpha(a)) == zeta(4)
        ]
        assert fixing == [Perm.identity(4)]


class TestPhiText:
    def test_documented_example(self):
        phi = parse_phi_text("[(2)(1,3),(1,2)]")
        assert phi.n == 4
        assert phi.level(4) == parse_cycles("(1,3)", 3)
        assert phi.level(3) == parse_cycles("(1,2)", 2)

    def test_identity_entries(self):
        phi = parse_phi_text("[(), ()]")
        assert phi.n == 4
        assert skew_from_phi(phi).is_identity()
        assert parse_phi_text("[id,()]") == phi

    def test_empty(self):
        assert parse_phi_text("[]").n == 2
        assert parse_phi_text("[ ]").n == 2

    def test_round_trip(self):
        rng = random.Random(71)
        for n in (3, 4, 5, 6):
            for _ in range(5):
                phi = random_phi(rng, n)
                assert parse_phi_text(format_phi_text(phi)) == phi

    @pytest.mark.parametrize("text", ["[(1,2),]", "[,]", "[,(1,2)]", "[(1,2),,()]", "[ , ]"])
    def test_rejects_an_empty_entry(self, text):
        with pytest.raises(ValueError, match="^" + re.escape(f"empty entry in {text!r}") + "$"):
            parse_phi_text(text)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_phi_text("(1,2)")
