"""Structural analysis of configurations and perspectives.

Covers free complete subgraphs and the 3x3 diagrams describing the top
axial line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .incidence import Config, join
from .perms import Perm, symmetric_group
from .skews import Pair, all_pairs, make_pair
from .constructions import Perspective


@dataclass(frozen=True)
class FreeClique:
    """A complete graph living freely inside a configuration: every two
    vertices are collinear, distinct edges use distinct lines, and lines of
    disjoint edges do not meet.

    When lines have three points and two lines share at most one point,
    this holds exactly when every two vertices are collinear and the third
    points of the pair lines are pairwise distinct and lie outside the
    vertex set: two edges share a line exactly when its third point is a
    vertex, and, that excluded, lines of disjoint edges can meet only in a
    common third point.  The search reads those third points from
    `Config.third`.  The record holds the vertex set; a pair's line is
    `join` of its two vertices."""

    vertices: frozenset


def _add_vertex(third, current: list[int], thirds: set[int], v: int) -> Optional[list[int]]:
    """The third points `third[v][u]` of the lines joining v to the free
    clique `current` (ascending, below v, its pair lines' third points
    `thirds`), or None when adding v breaks the rule stated on
    `FreeClique`."""
    # v outside `thirds` also keeps every new third point z out of
    # `current`: z in `current` would make v the third point of (u, z)
    if v in thirds:
        return None
    row = third[v]
    added: list[int] = []
    for u in current:
        z = row.get(u)
        if z is None or z in thirds or z in added:
            return None
        added.append(z)
    return added


def freely_contains(config: Config, vertices: Iterable[int]) -> Optional[FreeClique]:
    """The free complete subgraph on the given vertices, or None, under
    the line axioms stated on `FreeClique`."""
    vs = sorted(set(vertices))
    third = config.third
    thirds: set[int] = set()
    for j, v in enumerate(vs):
        added = _add_vertex(third, vs[:j], thirds, v)
        if added is None:
            return None
        thirds.update(added)
    return FreeClique(frozenset(vs))


def enumerate_free_cliques(config: Config, m: int) -> list[FreeClique]:
    """All size-m vertex sets carrying a free complete graph, in ascending
    vertex order.  Backtracks over ascending vertex lists and the third
    points of their pair lines; the conditions are hereditary, so any
    extension of a failing set is pruned.  Each list tries only the points
    above its last vertex that are collinear with all of its vertices."""
    if m < 0:
        raise ValueError(f"clique size must be non-negative, got {m}")
    third = config.third
    found: list[FreeClique] = []

    def extend(current: list[int], thirds: set[int], candidates: list[int]):
        if len(current) == m:
            found.append(FreeClique(frozenset(current)))
            return
        for i in range(len(candidates) - (m - len(current)) + 1):
            v = candidates[i]
            added = _add_vertex(third, current, thirds, v)
            if added is not None:
                rest = [w for w in candidates[i + 1 :] if w in third[v]]
                extend(current + [v], thirds.union(added), rest)

    extend([], set(), list(range(config.num_points)))
    return found


def _star_point_ids(persp: Perspective, i0: int) -> list[int]:
    return [persp.labeling.c[u] for u in all_pairs(persp.n) if i0 in u]


@dataclass(frozen=True)
class StpDiagram:
    """The 3x3 diagram of the top axial line: three triangle rows whose
    column pairs concur in the top line's points, plus the cross-row
    matching with its three apexes (center, a_n, b_n)."""

    rows: tuple[tuple[int, int, int], ...]
    matching: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]


def _restrict_to_inner_pairs(skew_like) -> Optional[Perm]:
    """The point permutation pi of {1,2,3} with pair images matching the
    given map on the pairs inside {1,2,3}, if any."""
    inner = list(all_pairs(3))
    for pi in symmetric_group(3):
        if all(
            skew_like(u) == make_pair(pi(u[0]), pi(u[1])) for u in inner
        ):
            return pi
    return None


def stp_diagram(persp: Perspective) -> StpDiagram:
    """Build the diagram of the top axial line of a 4-row perspective.

    Needs the third free clique on index 4 (on top of the two rows).  Rows:
    a_1 a_2 a_3; the b-row ordered by the permutation lifting the skew's
    action on the inner pairs; the axial points {i,4} ordered by the
    inverse of the join-pattern permutation.  Every declared concurrence is
    verified before returning.
    """
    if persp.n != 4:
        raise ValueError("diagrams are defined for 4-row perspectives")
    lab = persp.labeling
    star_vertices = {lab.a[3], lab.b[3], *_star_point_ids(persp, 4)}
    if freely_contains(persp.config, star_vertices) is None:
        raise ValueError(
            "no third free clique on index 4; the diagram needs three free cliques"
        )
    config = persp.config
    # the join pattern of the axial points {i,4}: m({i,j}) = w with
    # c_{i,4} + c_{j,4} = c_w
    pair_of = {x: u for u, x in lab.c.items()}
    m_map: dict[Pair, Pair] = {}
    for i, j in all_pairs(3):
        third = join(config, lab.c[(i, 4)], lab.c[(j, 4)])
        assert third is not None
        m_map[(i, j)] = pair_of[third]
    for u in all_pairs(3):
        if max(m_map[u]) > 3:
            raise ValueError("axial join pattern leaves the inner pairs")
    pi = _restrict_to_inner_pairs(persp.skew)
    if pi is None:
        raise ValueError("skew does not act on the pairs inside {1,2,3}")
    m_inv = {v: u for u, v in m_map.items()}
    x = _restrict_to_inner_pairs(lambda u: m_inv[u])
    if x is None:
        raise ValueError("axial join pattern is not induced by a point permutation")
    rows = (
        (lab.a[0], lab.a[1], lab.a[2]),
        (lab.b[pi(1) - 1], lab.b[pi(2) - 1], lab.b[pi(3) - 1]),
        (lab.c[(x(1), 4)], lab.c[(x(2), 4)], lab.c[(x(3), 4)]),
    )
    matching: list[tuple[tuple[int, int], tuple[int, int], int]] = []
    apexes = {(0, 1): lab.center, (0, 2): lab.a[3], (1, 2): lab.b[3]}
    for (r1, r2), apex in apexes.items():
        for k1 in range(3):
            hits = [
                k2
                for k2 in range(3)
                if join(config, rows[r1][k1], rows[r2][k2]) == apex
            ]
            if len(hits) != 1:
                raise ValueError(
                    f"rows {r1 + 1} and {r2 + 1} do not match one-to-one through their apex"
                )
            matching.append(((r1, k1), (r2, hits[0]), apex))
    # verify the column concurrences in the top line
    for r, s in itertools.combinations(range(3), 2):
        expected = lab.c[(r + 1, s + 1)]
        for row in range(3):
            if join(config, rows[row][r], rows[row][s]) != expected:
                raise ValueError("column joins do not concur in the top line")
    return StpDiagram(rows=rows, matching=tuple(sorted(matching)))
