"""Checks that do not use the program under test.

Everything here works on bare structures: a point count and a list of
3-point lines.  The isomorphism search maps points one at a time and
closes the map under joins (the image of the third point of a line is
forced), so it shares no code or idea with the canonizer it checks.
"""

from __future__ import annotations

import itertools
from collections import Counter


def join_table(lines):
    """(x, y) -> third point of their line, for both orders."""
    table = {}
    for a, b, c in lines:
        table[a, b] = table[b, a] = c
        table[a, c] = table[c, a] = b
        table[b, c] = table[c, b] = a
    return table


def point_colors(n, lines):
    """A relabel-invariant colour per point: its rank, the census of how
    many points of each line missing it are collinear with it, and the
    multiset of those colours over its collinear neighbours."""
    table = join_table(lines)
    nbrs = [set() for _ in range(n)]
    for (x, y) in table:
        nbrs[x].add(y)
    first = []
    for p in range(n):
        census = Counter(
            sum(1 for x in L if x in nbrs[p]) for L in lines if p not in L
        )
        first.append((len(nbrs[p]) // 2, tuple(sorted(census.items()))))
    ids = {c: i for i, c in enumerate(sorted(set(first)))}
    first = [ids[c] for c in first]
    second = [(first[p], tuple(sorted(first[q] for q in nbrs[p]))) for p in range(n)]
    ids = {c: i for i, c in enumerate(sorted(set(second)))}
    return [ids[c] for c in second], nbrs


def structure_invariant(n, lines):
    """Counts that isomorphic structures share: points, lines, and the
    colour-class sizes of `point_colors`.  Colours are numbered in sorted
    order of their defining tuples, so the numbers compare across
    structures."""
    colors, _ = point_colors(n, lines)
    return (n, len(lines), tuple(sorted(Counter(colors).items())))


def _search(n, lines_a, lines_b, find_all):
    """Yield every line-preserving bijection a -> b as an image list."""
    if len(lines_a) != len(lines_b):
        return
    ja, jb = join_table(lines_a), join_table(lines_b)
    col_a, nbrs_a = point_colors(n, lines_a)
    col_b, _ = point_colors(n, lines_b)
    if Counter(col_a) != Counter(col_b):
        return
    # visit points of a so that each one after the first is, where
    # possible, collinear with an earlier one
    order, seen = [], set()
    for start in sorted(range(n), key=lambda p: (Counter(col_a)[col_a[p]], p)):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            p = queue.pop(0)
            order.append(p)
            for q in sorted(nbrs_a[p]):
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
    f = [-1] * n
    g = [-1] * n

    def assign(x, y, trail):
        pending = [(x, y)]
        while pending:
            x, y = pending.pop()
            if f[x] == y:
                continue
            if f[x] != -1 or g[y] != -1 or col_a[x] != col_b[y]:
                return False
            for u in trail:
                z = ja.get((x, u))
                w = jb.get((y, f[u]))
                if (z is None) != (w is None):
                    return False
                if z is not None:
                    pending.append((z, w))
            f[x], g[y] = y, x
            trail.append(x)
        return True

    def undo(trail, keep):
        while len(trail) > keep:
            x = trail.pop()
            g[f[x]] = -1
            f[x] = -1

    trail: list[int] = []

    def extend(k):
        while k < n and f[order[k]] != -1:
            k += 1
        if k == n:
            yield list(f)
            return
        x = order[k]
        for y in range(n):
            if g[y] != -1 or col_b[y] != col_a[x]:
                continue
            keep = len(trail)
            if assign(x, y, trail):
                yield from extend(k + 1)
                if not find_all and len(trail) == n:
                    return
            undo(trail, keep)

    for images in extend(0):
        yield images
        if not find_all:
            return


def find_isomorphism(n, lines_a, lines_b):
    """A bijection (image list) carrying lines_a onto lines_b, or None
    after an exhaustive search."""
    for images in _search(n, lines_a, lines_b, find_all=False):
        return images
    return None


def count_automorphisms(n, lines):
    return sum(1 for _ in _search(n, lines, lines, find_all=True))


def maps_lines_onto(images, lines_a, lines_b) -> bool:
    """True when images is a bijection carrying lines_a onto lines_b."""
    if sorted(images) != list(range(len(images))):
        return False
    target = {frozenset(L) for L in lines_b}
    mapped = {frozenset(images[x] for x in L) for L in lines_a}
    return len(lines_a) == len(lines_b) and mapped == target


def is_free_clique(lines, vertices) -> bool:
    """Every two vertices collinear, distinct edges on distinct lines, and
    lines of disjoint edges disjoint."""
    table = join_table(lines)
    edge_line = {}
    for x, y in itertools.combinations(sorted(vertices), 2):
        z = table.get((x, y))
        if z is None:
            return False
        edge_line[x, y] = frozenset((x, y, z))
    if len(set(edge_line.values())) != len(edge_line):
        return False
    for e1, e2 in itertools.combinations(edge_line, 2):
        if not set(e1) & set(e2) and edge_line[e1] & edge_line[e2]:
            return False
    return True


def count_free_cliques(n, lines, m) -> int:
    """Free m-cliques by brute force over every m-subset of pairwise
    collinear points."""
    table = join_table(lines)
    count = 0
    for vs in itertools.combinations(range(n), m):
        if all((x, y) in table for x, y in itertools.combinations(vs, 2)):
            if is_free_clique(lines, vs):
                count += 1
    return count


def group_closure_order(n, generators, limit) -> int:
    """Order of the group the image tuples generate, or limit + 1 once it
    is known to exceed limit."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for s in generators:
                prod = tuple(s[h[x]] for x in range(n))
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > limit:
                        return limit + 1
                    nxt.append(prod)
        frontier = nxt
    return len(seen)
