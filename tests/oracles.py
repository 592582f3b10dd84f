"""Oracles independent of the package's canonical-form machinery, its
incidence views and its free-clique rule, label decoders written from the
label formats, plus seeded inputs, shared by the tests.  Three oracles
keep an earlier, longer route to a result the package now reaches more
directly: `full_trace_leaves` refines discrete colorings once more (its
root colors read `Config.triangles_and_pasch`),
`perspective_by_definition` builds a perspective through pair
dictionaries, and `reference_stp_diagram` orders two diagram rows by how
the skew and the axis act on the pairs inside {1,2,3}, then checks the
concurrences it promised (it reads the package's `freely_contains`).

Both isomorphism generators yield every line-preserving point bijection
c1 -> c2 as an image tuple, in lexicographic order: `next(gen, None)` is a
witness or None, and counting the yields on (c, c) gives the automorphism
group order.
"""

import itertools
import re
from collections import Counter
from math import comb
from typing import Optional

from skewper.analysis import StpDiagram, _star_point_ids, freely_contains
from skewper.constructions import Perspective, pair_label
from skewper.incidence import join, make_config
from skewper.perms import Perm, symmetric_group
from skewper.skews import Pair, all_pairs, make_pair


def pair_of_label(name):
    """The pair (i, j) named by a pair label "{i,j}"."""
    match = re.fullmatch(r"\{(\d+),(\d+)\}", name)
    if match is None:
        raise ValueError(f"not a pair label: {name!r}")
    return (int(match[1]), int(match[2]))


def triple_of_label(name):
    """The exponents (x, y, z) named by a multiset label "a^x b^y c^z"."""
    match = re.fullmatch(r"a\^(\d+) b\^(\d+) c\^(\d+)", name)
    if match is None:
        raise ValueError(f"not a multiset label: {name!r}")
    return (int(match[1]), int(match[2]), int(match[3]))


def point_named(config, name):
    """The point of a labeled configuration that carries this name."""
    return config.labels.index(name)


def random_partial_linear(rng, nu, tries, lines=()):
    """A seeded partial Steiner triple system on nu points: starting from
    `lines`, each of `tries` random triples is kept when it shares at most
    one point with every kept line."""
    lines = list(lines)
    for _ in range(tries):
        cand = tuple(sorted(rng.sample(range(nu), 3)))
        if all(len(set(cand) & set(L)) <= 1 for L in lines):
            lines.append(cand)
    return make_config(nu, lines)


def brute_binomial_n(num_points, lines):
    """The least n >= 3 with C(n,2) points, C(n,3) lines and every point
    on n-2 lines, trying each n up to num_points + 2 against point ranks
    counted over the raw line list; None when there is none."""
    ranks = [sum(p in L for L in lines) for p in range(num_points)]
    for n in range(3, num_points + 3):
        if comb(n, 2) == num_points and comb(n, 3) == len(lines) and all(r == n - 2 for r in ranks):
            return n
    return None


def is_free_by_definition(lines, vertices):
    """Whether the vertices span a free complete graph, from the definition
    over the raw line list: every two vertices lie on a common line,
    distinct edges lie on distinct lines, and the lines of two disjoint
    edges share no point."""
    edge_line = {}
    for edge in itertools.combinations(sorted(vertices), 2):
        on = [L for L in lines if edge[0] in L and edge[1] in L]
        if not on:
            return False
        edge_line[edge] = frozenset(on[0])
    if len(set(edge_line.values())) != len(edge_line):
        return False
    return all(
        not (edge_line[e1] & edge_line[e2])
        for e1, e2 in itertools.combinations(edge_line, 2)
        if not set(e1) & set(e2)
    )


def brute_free_cliques(num_points, lines, m):
    """Every size-m free vertex set as an ascending tuple, in lexicographic
    order, by testing each m-subset with `is_free_by_definition`."""
    return [
        vs
        for vs in itertools.combinations(range(num_points), m)
        if is_free_by_definition(lines, vs)
    ]


def brute_triangles_and_pasch(num_points, lines):
    """Per point, (triangles, Pasch configurations) through it, from the
    definitions over the raw line list: a triangle is three pairwise
    collinear points not on one line, and a Pasch configuration is four
    lines on six points with every point on two of them."""
    lines = [frozenset(L) for L in lines]
    collinear = {
        frozenset(pair) for L in lines for pair in itertools.combinations(L, 2)
    }
    triangles = [0] * num_points
    for triple in itertools.combinations(range(num_points), 3):
        pairs = itertools.combinations(triple, 2)
        if all(frozenset(pair) in collinear for pair in pairs) and frozenset(triple) not in lines:
            for x in triple:
                triangles[x] += 1
    pasch = [0] * num_points
    for four in itertools.combinations(lines, 4):
        points = frozenset().union(*four)
        if len(points) == 6 and all(sum(x in L for L in four) == 2 for x in points):
            for x in points:
                pasch[x] += 1
    return list(zip(triangles, pasch))


def tuple_signature(lines, colors, p):
    """The refinement signature with each line's color pair kept as a
    sorted tuple: p's color and the sorted pairs of the lines of `lines`
    through it, found by scanning them all.  Integer line codes must order
    signatures exactly as these do."""
    profile = sorted(
        tuple(sorted(colors[q] for q in L if q != p)) for L in lines if p in L
    )
    return (colors[p], tuple(profile))


def brute_isos(c1, c2):
    """Every line-preserving bijection, by trying all permutations."""
    if c1.num_points != c2.num_points or len(c1.lines) != len(c2.lines):
        return
    target = {frozenset(L) for L in c2.lines}
    for per in itertools.permutations(range(c2.num_points)):
        if all(frozenset(per[x] for x in L) in target for L in c1.lines):
            yield per


def _collinearity(c):
    adj = {p: set() for p in range(c.num_points)}
    for L in c.lines:
        for x, y in itertools.combinations(L, 2):
            adj[x].add(y)
            adj[y].add(x)
    return adj


def backtrack_isos(c1, c2):
    """Every line-preserving bijection, by depth-first image assignment
    pruned by rank, by collinearity agreement and by fully-assigned
    lines."""
    n = c1.num_points
    if n != c2.num_points or len(c1.lines) != len(c2.lines):
        return
    lines2 = {frozenset(L) for L in c2.lines}
    adj1, adj2 = _collinearity(c1), _collinearity(c2)
    rank1 = [sum(1 for L in c1.lines if p in L) for p in range(n)]
    rank2 = [sum(1 for L in c2.lines if p in L) for p in range(n)]
    lines_by_max = {p: [] for p in range(n)}
    for L in c1.lines:
        lines_by_max[max(L)].append(L)
    image = [-1] * n
    used = [False] * n

    def extend(p):
        if p == n:
            if all(frozenset(image[x] for x in L) in lines2 for L in c1.lines):
                yield tuple(image)
            return
        for q in range(n):
            if used[q] or rank1[p] != rank2[q]:
                continue
            if any((u in adj1[p]) != (image[u] in adj2[q]) for u in range(p)):
                continue
            if any(
                frozenset(q if x == p else image[x] for x in L) not in lines2
                for L in lines_by_max[p]
            ):
                continue
            image[p] = q
            used[q] = True
            yield from extend(p + 1)
            used[q] = False
        image[p] = -1

    yield from extend(0)


def generated_group(num_points, generators):
    """Every product of the generators, image tuples on num_points points,
    by closing the identity under composition with each generator."""
    generated = {tuple(range(num_points))}
    frontier = list(generated)
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                prod = tuple(s[x] for x in g)
                if prod not in generated:
                    generated.add(prod)
                    new.append(prod)
        frontier = new
    return generated


def relabelled_lines(leaf, lines):
    """The sorted line list with each point p renamed leaf[p]."""
    return tuple(sorted(tuple(sorted(leaf[x] for x in L)) for L in lines))


def certificate_per_leaf(leaves, lines):
    """A search's (certificate, relabeling, automorphisms) from every
    leaf's certificate: the least `relabelled_lines`, the first leaf
    reaching it, and the sorted base^-1 . leaf over the leaves reaching
    it."""
    best, best_leaves = None, []
    for leaf in leaves:
        cert = relabelled_lines(leaf, lines)
        if best is None or cert < best:
            best, best_leaves = cert, [leaf]
        elif cert == best:
            best_leaves.append(leaf)
    base = best_leaves[0]
    base_inv = {c: p for p, c in enumerate(base)}
    automorphisms = {tuple(base_inv[c] for c in leaf) for leaf in best_leaves}
    return best, base, tuple(sorted(automorphisms))


def full_trace_leaves(config, trace=None):
    """The canonizer's search with one more refinement pass on every
    discrete coloring, whose key ends the leaf's trace: the same root
    colors (the ranks of `Config.triangles_and_pasch`, which tests hold to
    `brute_triangles_and_pasch`), the same pass keys with each line's
    colors kept as a sorted pair, the same least-trace pruning, the same
    (leaf, first) yields and the same followed `trace` as `_leaves`."""
    num_points = config.num_points
    pairs_by_point = [[] for _ in range(num_points)]
    for L in config.lines:
        for p in L:
            pairs_by_point[p].append(tuple(q for q in L if q != p))
    best = [] if trace is None else trace
    first = True

    def signature(colors, p):
        profile = sorted(tuple(sorted((colors[x], colors[y]))) for x, y in pairs_by_point[p])
        return (colors[p], tuple(profile))

    def descend(colors, sigs, position):
        nonlocal first
        count = len(set(colors))
        while True:
            key = tuple(sorted(set(sigs)))
            if position == len(best):
                best.append(key)
            elif key != best[position]:
                if trace is not None or key > best[position]:
                    return
                del best[position:]
                best.append(key)
                first = True
            position += 1
            if len(key) == count:
                break
            numbering = {s: i for i, s in enumerate(key)}
            colors = [numbering[s] for s in sigs]
            count = len(key)
            sigs = [signature(colors, p) for p in range(num_points)]
        if count == num_points:
            yield tuple(colors), first
            first = False
            return
        target = min(c for c, k in Counter(colors).items() if k > 1)
        for p in range(num_points):
            if colors[p] == target:
                branch = list(colors)
                branch[p] = count
                child = list(sigs)
                for q in {p, *itertools.chain(*pairs_by_point[p])}:
                    child[q] = signature(branch, q)
                yield from descend(branch, child, position)

    counts = config.triangles_and_pasch
    rank = {pair: i for i, pair in enumerate(sorted(set(counts)))}
    colors = [rank[pair] for pair in counts]
    yield from descend(colors, [signature(colors, p) for p in range(num_points)], 0)


def perspective_by_definition(n, sigma, axis):
    """The lines and labels of the skew perspective (n, sigma, axis), built
    from the definition through pair dictionaries: {p, a_i, b_i},
    {a_i, a_j, c_{i,j}}, {b_i, b_j, c_{sigma^-1({i,j})}} and the axis lines
    on the c points, normalized by `make_config`.  Points a_1..a_n,
    b_1..b_n, p and c over ``all_pairs(n)`` are 0, 1, ... in that order."""
    pairs = all_pairs(n)
    a = {i: i - 1 for i in range(1, n + 1)}
    b = {i: n + i - 1 for i in range(1, n + 1)}
    c = {u: 2 * n + 1 + k for k, u in enumerate(pairs)}
    sigma_inv = {sigma(u): u for u in pairs}
    lines = [(a[i], b[i], 2 * n) for i in range(1, n + 1)]
    lines += [(a[i], a[j], c[(i, j)]) for i, j in pairs]
    lines += [(b[i], b[j], c[sigma_inv[(i, j)]]) for i, j in pairs]
    lines += [tuple(c[pairs[x]] for x in L) for L in axis.lines]
    labels = (
        [f"a{i}" for i in range(1, n + 1)]
        + [f"b{i}" for i in range(1, n + 1)]
        + ["p"]
        + ["c" + pair_label(u) for u in pairs]
    )
    return make_config(2 * n + 1 + len(pairs), lines, labels)


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


def reference_stp_diagram(persp: Perspective) -> StpDiagram:
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
