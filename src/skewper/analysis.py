"""Structural analysis of configurations and perspectives.

Covers free complete subgraphs and the 3x3 diagrams describing the top
axial line.  A diagram orders each of its rows by the concurrences it
promises, reading only the perspective's labeling and lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .incidence import Config, join
from .skews import all_pairs
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


def _add_vertex(row: dict[int, int], current: Iterable[int], thirds: int, v: int) -> Optional[int]:
    """`thirds`, the bitmask of the third points of the free clique
    `current`'s pair lines, with the third point ``row[u]`` of the line
    joining v to each u of `current` added (`row` is ``third[v]``); None
    when adding v breaks the rule stated on `FreeClique`."""
    # v outside `thirds` also keeps every new third point z out of
    # `current`: z in `current` would make v the third point of (u, z)
    if thirds >> v & 1:
        return None
    for u in current:
        z = row.get(u)
        if z is None or thirds >> z & 1:
            return None
        thirds |= 1 << z
    return thirds


def freely_contains(config: Config, vertices: Iterable[int]) -> Optional[FreeClique]:
    """The free complete subgraph on the given vertices, or None, under
    the line axioms stated on `FreeClique`.  Raises ValueError when a
    vertex is not a point of the configuration."""
    vs = sorted(set(vertices))
    if vs and not 0 <= vs[0] <= vs[-1] < config.num_points:
        raise ValueError(f"vertices {vs} are not all points 0..{config.num_points - 1}")
    third = config.third
    thirds: Optional[int] = 0
    for j, v in enumerate(vs):
        thirds = _add_vertex(third[v], vs[:j], thirds, v)
        if thirds is None:
            return None
    return FreeClique(frozenset(vs))


def enumerate_free_cliques(config: Config, m: int) -> list[FreeClique]:
    """All size-m vertex sets carrying a free complete graph, in ascending
    vertex order.  Backtracks over ascending vertex lists, keeping the
    candidates for the next vertex and the third points of the pair lines
    as int bitmasks; the conditions are hereditary, so any extension of a
    failing set is pruned.  The candidates are the points above the last
    vertex that are collinear with all of the vertices (each step ands in
    the new vertex's collinearity mask from `Config.neighbours`), tried
    lowest bit first while enough of them remain to reach size m."""
    if type(m) is not int:
        raise ValueError(f"clique size {m} is not an int")
    if m < 0:
        raise ValueError(f"clique size must be non-negative, got {m}")
    third, neighbours = config.third, config.neighbours
    found: list[FreeClique] = []

    def extend(current: list[int], thirds: int, candidates: int):
        if len(current) == m:
            found.append(FreeClique(frozenset(current)))
            return
        need = m - len(current)
        while candidates.bit_count() >= need:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            added = _add_vertex(third[v], current, thirds, v)
            if added is not None:
                extend(current + [v], added, candidates & neighbours[v])

    extend([], 0, (1 << config.num_points) - 1)
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


def _ordered_row(config: Config, top: dict[tuple[int, int], int], points: Iterable[int]):
    """The ordering of three points whose columns r and s join in
    top[(r, s)]; unique, as the top points differ."""
    for row in itertools.permutations(points):
        if all(join(config, row[r], row[s]) == c for (r, s), c in top.items()):
            return row
    raise ValueError("column joins do not concur in the top line")


def stp_diagram(persp: Perspective) -> StpDiagram:
    """Build the diagram of the top axial line of a 4-row perspective.

    Needs the third free clique on index 4 (on top of the two rows).  The
    rows are {a_1,a_2,a_3}, {b_1,b_2,b_3} and the axial points {i,4}, each
    in the one order whose columns r and s join in the top line's point
    c_{r,s} (columns numbered 1 to 3).  Raises ValueError when a row has no
    such order, or when two rows do not match one-to-one through their
    apex.
    """
    if persp.n != 4:
        raise ValueError("diagrams are defined for 4-row perspectives")
    config, lab = persp.config, persp.labeling
    axial = _star_point_ids(persp, 4)
    if freely_contains(config, {lab.a[3], lab.b[3], *axial}) is None:
        raise ValueError(
            "no third free clique on index 4; the diagram needs three free cliques"
        )
    top = {(r, s): lab.c[(r + 1, s + 1)] for r, s in itertools.combinations(range(3), 2)}
    rows = tuple(
        _ordered_row(config, top, points)
        for points in (lab.a[:3], lab.b[:3], axial)
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
    return StpDiagram(rows=rows, matching=tuple(sorted(matching)))
