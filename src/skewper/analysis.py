"""Structural analysis of configurations and perspectives.

Covers free complete subgraphs, the star-clique index formula, the
line-crossing predicate, extraction of a second perspective around a new
center, and the 3x3 diagrams describing the top axial line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .incidence import Config, Line, is_isomorphism, join
from .perms import Perm, symmetric_group
from .skews import (
    Pair,
    PhiSequence,
    Skew,
    all_pairs,
    make_pair,
    skew_from_phi,
    zeta,
)
from .constructions import Perspective, axis_config, perspective


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
    `Config.third`."""

    vertices: frozenset
    edge_lines: Mapping[frozenset, Line]


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


def _free_clique(third, vs: list[int]) -> FreeClique:
    edge_lines = {
        frozenset((u, v)): tuple(sorted((u, v, third[u][v])))
        for u, v in itertools.combinations(vs, 2)
    }
    return FreeClique(frozenset(vs), edge_lines)


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
    return _free_clique(third, vs)


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
            found.append(_free_clique(third, current))
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


def _axis_star_ids(persp: Perspective, i0: int) -> list[int]:
    return [x for x, u in enumerate(all_pairs(persp.n)) if i0 in u]


def free_star_indices(persp: Perspective) -> set[int]:
    """Indices i0 whose set {a_i0, b_i0} plus the axial points through i0
    is a free complete subgraph of the host, found by direct containment."""
    out = set()
    lab = persp.labeling
    for i0 in range(1, persp.n + 1):
        vertices = {lab.a[i0 - 1], lab.b[i0 - 1], *_star_point_ids(persp, i0)}
        if freely_contains(persp.config, vertices) is not None:
            out.add(i0)
    return out


def star_clique_indices(persp: Perspective, phi: PhiSequence) -> set[int]:
    """Indices i0 giving an extra free clique, by the level-fixing rule:
    the axial points through i0 must form a free clique of the axis, and
    every level above i0 must fix i0."""
    if phi.n != persp.n or skew_from_phi(phi) != persp.skew:
        raise ValueError("level sequence does not produce this perspective's skew")
    out = set()
    for i0 in range(1, persp.n + 1):
        if freely_contains(persp.axis, _axis_star_ids(persp, i0)) is None:
            continue
        if all(phi.level(j)(i0) == i0 for j in range(i0 + 1, persp.n + 1)):
            out.add(i0)
    return out


def cross_predicate(persp: Perspective, k: int) -> bool:
    """Whether every a-line through a_k meets some b-line through b_k,
    checked by a literal scan over the line sets."""
    if k <= 3:
        raise ValueError(f"the crossing criterion requires k > 3, got k={k}")
    if k > persp.n:
        raise ValueError(f"k={k} outside 1..{persp.n}")
    lab = persp.labeling
    config = persp.config
    a_lines = [
        L
        for L in config.lines
        if lab.a[k - 1] in L and lab.center not in L and any(x in L for x in lab.a[: k - 1] + lab.a[k:])
    ]
    b_lines = [
        L
        for L in config.lines
        if lab.b[k - 1] in L and lab.center not in L and any(x in L for x in lab.b[: k - 1] + lab.b[k:])
    ]
    for La in a_lines:
        if not any(set(La) & set(Lb) for Lb in b_lines):
            return False
    return True


def cross_fixed_level_criterion(phi: PhiSequence, k: int) -> bool:
    """The closed-form version: true iff k is the top index or every level
    above k fixes k."""
    if k <= 3:
        raise ValueError(f"the crossing criterion requires k > 3, got k={k}")
    if k > phi.n:
        raise ValueError(f"k={k} outside 1..{phi.n}")
    return k == phi.n or all(phi.level(j)(k) == k for j in range(k + 1, phi.n + 1))


@dataclass(frozen=True)
class Reperspective:
    """A second perspective structure around the new center a_n: the skew
    rho, its inner part rho0 (determined by the axial joins), the extracted
    axis, a verified witness bijection host-point -> rebuilt-point, and the
    rebuilt perspective itself."""

    rho: Skew
    rho0: Skew
    axis: Config
    witness: Mapping[int, int]
    rebuilt: Perspective


def reperspective(persp: Perspective) -> Reperspective:
    """Re-center a symmetry-skew perspective at a_n.

    Requires the host to be built with the symmetry skew and the axial
    points through n to form a free clique of the axis.  The new skew is
    read off the axial joins (inner part) and the index-reversal rule (top
    part); the new axis collects the axial lines missing the top star plus
    one line per b-side pair.  The witness relabeling is verified by full
    line-set comparison before returning.
    """
    n = persp.n
    lab = persp.labeling
    if persp.skew != zeta(n):
        raise ValueError("re-centering requires the symmetry skew")
    star = _axis_star_ids(persp, n)
    if freely_contains(persp.axis, star) is None:
        raise ValueError("the axial points through the top index are not a free clique")
    star_set = set(star)
    for L in persp.axis.lines:
        meet = len(star_set & set(L))
        if meet not in (0, 2):
            raise ValueError(
                f"axis line meets the top star in {meet} points; need 0 or 2"
            )
    # inner part of the new skew: the join of the axial points {i,n},{j,n}
    # is an axial point over a pair inside {1..n-1}
    rho_inv_map: dict[Pair, Pair] = {}
    ax = persp.axis
    pairs = all_pairs(n)
    index = {u: x for x, u in enumerate(pairs)}
    for i, j in all_pairs(n - 1):
        third = join(ax, index[(i, n)], index[(j, n)])
        assert third is not None  # star is a clique
        rho_inv_map[(i, j)] = pairs[third]
    for i in range(1, n):
        rho_inv_map[(i, n)] = make_pair(n - i, n)
    rho = Skew.from_map(n, rho_inv_map).inverse()
    # from_map(n - 1, ...) reads only the pairs inside {1..n-1}
    rho0 = Skew.from_map(n - 1, rho_inv_map).inverse()
    # the new axis: axial lines missing the top star, plus the b-side rule
    new_lines: list[tuple[Pair, ...]] = []
    for L in ax.lines:
        if star_set & set(L):
            continue
        new_lines.append(tuple(pairs[x] for x in L))
    for i, j in all_pairs(n - 1):
        new_lines.append(((i, n), (j, n), make_pair(j - i, j)))
    new_axis = axis_config(n, new_lines)
    rebuilt = perspective(n, rho, new_axis)
    new_lab = rebuilt.labeling
    witness: dict[int, int] = {lab.a[n - 1]: new_lab.center, lab.center: new_lab.a[n - 1]}
    for i in range(1, n):
        witness[lab.a[i - 1]] = new_lab.a[i - 1]
        witness[lab.c[(i, n)]] = new_lab.b[i - 1]
        witness[lab.b[i - 1]] = new_lab.c[(i, n)]
    witness[lab.b[n - 1]] = new_lab.b[n - 1]
    for u in all_pairs(n - 1):
        witness[lab.c[u]] = new_lab.c[u]
    if not is_isomorphism(persp.config, rebuilt.config, witness):
        raise RuntimeError("internal error: re-centering witness failed verification")
    return Reperspective(rho=rho, rho0=rho0, axis=new_axis, witness=witness, rebuilt=rebuilt)


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


def stp_equivalent(d1: StpDiagram, d2: StpDiagram) -> bool:
    """Whether two diagrams agree up to permuting rows and columns; only
    the matching pattern matters."""

    def edges(d: StpDiagram) -> frozenset:
        return frozenset(
            frozenset((cell1, cell2)) for cell1, cell2, _ in d.matching
        )

    target = edges(d2)
    for rho in symmetric_group(3):
        for gamma in symmetric_group(3):
            moved = frozenset(
                frozenset(
                    (rho(r + 1) - 1, gamma(k + 1) - 1) for r, k in edge
                )
                for edge in edges(d1)
            )
            if moved == target:
                return True
    return False
