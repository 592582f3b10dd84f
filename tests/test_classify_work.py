"""Tests for the work `classify_all` does outside the search: which
instances build third-point tables, the shared role labels, the
member-side witness check of the reference quotient in `oracles`, and
free-clique search on int bitmasks, which takes only vertices that are
points.

Free-clique lists are compared, in order, with the brute-force oracle
over all m-subsets; the perspective cliques with the three closed-form
ones.
"""

import pytest

from skewper import classify, constructions
from skewper.analysis import enumerate_free_cliques, freely_contains
from skewper.classify import ALL_KEYS, build_instance, classify_all
from skewper.constructions import grassmannian, perspective
from skewper.skews import all_pairs, zeta

import oracles
from oracles import brute_free_cliques


def test_cold_classification_builds_third_tables_only_for_representatives():
    classify._catalog.cache_clear()
    constructions._role_labels.cache_clear()
    classify_all()
    configs = {key: build_instance(key).config for key in ALL_KEYS}
    with_third = {key for key, config in configs.items() if "third" in config.__dict__}
    representatives = set(classify._center_fixing_orbits().values())
    assert len(representatives) == 70
    assert with_third == representatives
    assert len({id(config.labels) for config in configs.values()}) == 1


def test_a_witness_with_two_images_swapped_fails_verification(monkeypatch):
    # the reference quotient checks each witness from the member's side,
    # on its inverse; a transposition is never an automorphism here,
    # since every point lies on more than one line
    witness = oracles._witness

    def swapped(*args):
        w = witness(*args)
        w[0], w[1] = w[1], w[0]
        return w

    monkeypatch.setattr(oracles, "_witness", swapped)
    with pytest.raises(RuntimeError, match="center-fixing witness failed verification"):
        oracles._center_fixing_orbits()


@pytest.mark.parametrize("n", range(5, 11))
def test_perspective_cliques_past_64_bits(n):
    # 21 points at n = 5 up to 66 at n = 10, so the masks outgrow a word
    persp = perspective(n, zeta(n), grassmannian(n))
    lab = persp.labeling
    star = {lab.c[u] for u in all_pairs(n) if n in u}
    expected = {
        frozenset({lab.center, *lab.a}),
        frozenset({lab.center, *lab.b}),
        frozenset({lab.a[n - 1], lab.b[n - 1], *star}),
    }
    found = enumerate_free_cliques(persp.config, n + 1)
    assert len(found) == 3 and {c.vertices for c in found} == expected
    for vertices in expected:
        assert freely_contains(persp.config, vertices).vertices == vertices


@pytest.mark.parametrize("vertices", [{-1}, {0, -1}, {0, 15}])
def test_freely_contains_rejects_vertices_outside_the_points(vertices):
    # a negative vertex used to index the point table from its end
    config = perspective(4, zeta(4), grassmannian(4)).config
    with pytest.raises(ValueError, match=r"^vertices \[.*\] are not all points 0\.\.14$"):
        freely_contains(config, vertices)


def test_catalog_representatives_match_brute_force():
    for key in sorted(set(classify._center_fixing_orbits().values())):
        config = build_instance(key).config
        got = [tuple(sorted(c.vertices)) for c in enumerate_free_cliques(config, 5)]
        assert got == brute_free_cliques(config.num_points, config.lines, 5), key
