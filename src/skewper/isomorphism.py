"""Canonical forms, isomorphism decisions, and automorphism groups.

The canonizer starts from a vertex invariant (McKay & Piperno), each
point's counts of the triangles and Pasch configurations through it
(`Config.triangles_and_pasch`): on the regular structures built from
Veblen configurations refinement alone splits nothing, while these
counts give the Veronesians and the symmetry-skew hosts several root
cells (a Grassmannian keeps one).  It iterates color refinement (a
point's signature is its color plus the multiset of its lines' color
profiles) and, while cells remain, individualizes every point of the
first non-singleton cell, after which only that point and the points
collinear with it change signature.  Refinement reads each line through
p as its other two points (`Config.pairs_by_point`); one whose two points
have colors a <= b enters p's signature as the integer a*N + b (N
points): colors are below N, so these codes order lines, and sorted
profiles, exactly as the color pairs (a, b) would.
Every refinement pass has a relabel-invariant key, its sorted signatures, and
the search keeps only the leaves whose sequence of keys (their trace) is
least, abandoning a branch at the first pass that is worse than the
least path found so far (the trace half of McKay & Piperno's Traces).
Refinement stops at a discrete coloring, as in nauty and Traces: a
discrete coloring is stable, so the pass that makes it discrete is the
last of its leaf.  Each surviving discrete leaf yields a relabeled line
list; the lexicographically least one is the certificate, and it, not
the trace, orders leaves that share a trace.  An automorphism maps a
leaf to a leaf with the same trace and certificate, so the surviving
leaves achieving the certificate differ exactly by automorphisms, and
there is one such leaf per automorphism.  The search (`_leaves`) is a
generator that yields each leaf as it reaches it, flagged `first` when
the leaf starts a smaller trace.  One search (`_canonize`) gives the
certificate, a relabeling realizing it, and the group's elements and
generators: it tests each leaf, line for line, as an automorphism of the
best leaf so far and certifies only a leaf that fails, so every
automorphism is verified once, inside the search, and a structure whose
leaves all differ by automorphisms is certified once.  An automorphism is
a generator exactly when it joins two orbits of those kept since the last
start: the search finishes the subtree under the base leaf's first d
individualized points before any later sibling, so by induction the
generators generate each point stabilizer in turn, at most n-1 of them.
Nothing is kept between calls.

An isomorphism decision first compares the sizes and the multisets of
the per-point counts; a difference answers "not isomorphic" before any
search.  Otherwise it certifies neither configuration: it descends the
first once, to its first leaf, and searches the second with that leaf's
trace held fixed (the isomorphism-test mode of Traces).  A key that
differs from the trace's prunes only its own branch, and the first leaf
of the second whose composed map passes `is_isomorphism` is the witness.
Like every point map here (a relabeling, an automorphism, a witness), it
is an image tuple: entry p is the image of point p.
The search is complete: an isomorphism carries the first path onto a
path of the second with the same keys, ending at a leaf whose composed
map is that isomorphism, so only non-isomorphic configurations exhaust it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .incidence import Config, Line, is_isomorphism, moved_lines


@dataclass(frozen=True)
class CanonicalCertificate:
    """A relabel-invariant normal form: the canonical line list and one
    relabeling old point -> canonical point realizing it."""

    canonical_lines: tuple[Line, ...]
    relabeling: tuple[int, ...]


@dataclass(frozen=True)
class AutomorphismGroup:
    """All line-preserving point bijections, as image tuples, each verified
    line for line by the search that found it, and generators, each joining
    two orbits of those before it, at most n-1."""

    elements: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _root_colors(config: Config) -> list[int]:
    """Each point's rank among the distinct `Config.triangles_and_pasch`
    counts: a relabel-invariant first split of structures on which every
    point lies on as many lines, where refinement alone splits nothing."""
    counts = config.triangles_and_pasch
    rank = {pair: i for i, pair in enumerate(sorted(set(counts)))}
    return [rank[pair] for pair in counts]


def _signature(pairs_by_point, colors: list[int], p: int) -> tuple:
    """p's color and the sorted codes of the lines through it.

    Each line through p is read from `Config.pairs_by_point` as its other
    two points x and y.  With colors a <= b it codes as a*N + b,
    N = len(colors) the number of points.  Every color is below N, so the
    codes order lines as the pairs (a, b) would, and sorted codes order
    signatures exactly as sorted tuples of color pairs do: passes, traces
    and leaves are those of the pair profiles."""
    n = len(colors)
    codes = []
    for x, y in pairs_by_point[p]:
        a, b = colors[x], colors[y]
        codes.append(a * n + b if a <= b else b * n + a)
    codes.sort()
    return (colors[p], tuple(codes))


def _leaves(config: Config, trace=None):
    """Yield (leaf, first) for each discrete coloring on the least
    refinement trace, or on a given `trace`, as the search reaches it.

    The root coloring is `_root_colors`.  A pass keys itself by its sorted
    distinct signatures and numbers colors in that order.  A node's trace
    is the pass keys from the root down; a key greater than the least
    path's at the same position abandons the node, and a smaller one makes
    it the least path, so the next leaf is `first`: the least-trace leaves
    are those from the last `first` on.  Keys fix when passes stop and
    which nodes are leaves, so no leaf's trace is a prefix of another's.

    A stable pass renumbers every color to itself, so its signatures are
    those of the coloring it yields.  A discrete coloring is stable, so
    the passes stop at the one that makes the coloring discrete, and the
    leaf's trace ends with that pass's key.  Every key is still invariant
    under relabeling, so an isomorphism still carries a least-trace leaf
    onto one.  A child individualizes p with the next free color, and its
    first pass recomputes the signatures of p and the points collinear
    with it only.

    A given `trace` list is followed instead: a key that differs from the
    trace's prunes its own branch only (the trace need not be least, so a
    smaller key proves nothing), and a pass past its end extends it, so on
    an empty trace the first path writes it.  The caller's loop visits the
    leaves; leaving it ends the search.  A loop runs a stack of per-node
    generators, each yielding its leaf or its children's searches, so no
    search runs inside another and no depth meets the recursion limit.
    """
    num_points, pairs_by_point, third = config.num_points, config.pairs_by_point, config.third
    best: list[tuple] = [] if trace is None else trace  # the least or the followed path's keys
    first = True

    def node(colors: list[int], sigs: list, position: int):
        """Refine a node whose colors are numbered from 0 without gaps; yield
        its discrete coloring or its children's searches."""
        nonlocal first
        count = len(set(colors))
        while True:
            key = tuple(sorted(set(sigs)))
            if position == len(best):
                best.append(key)  # a pass past the path's end extends it
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
            if count == num_points:
                break  # a discrete coloring is stable
            sigs = [_signature(pairs_by_point, colors, p) for p in range(num_points)]
        if count == num_points:
            yield tuple(colors)
            return
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min(c for c, k in counts.items() if k > 1)
        for p in range(num_points):
            if colors[p] == target:
                branch = list(colors)
                branch[p] = count
                child = list(sigs)
                for q in (p, *third[p]):
                    child[q] = _signature(pairs_by_point, branch, q)
                yield node(branch, child, position)

    colors = _root_colors(config)
    stack = [node(colors, [_signature(pairs_by_point, colors, p) for p in range(num_points)], 0)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        elif isinstance(step, tuple):
            yield step, first
            first = False
        else:
            stack.append(step)


def _canonize(config: Config):
    """(certificate, relabeling, automorphisms, generators) of config from
    one search: the least certificate, the first leaf achieving it, the
    sorted automorphisms, each verified line for line, and generators in
    the order met.

    A `first` leaf or a new best certificate starts over.  A later leaf's
    certificate equals the best leaf's exactly when base^-1 . leaf is an
    automorphism, so it is tested as one and certified only if it fails; an
    equal certificate then means the test rejected a genuine automorphism.
    An automorphism is a generator when it joins two orbits (each one set
    its points share) of those kept since the start; as the search is depth
    first, these generate the group (see the module docstring)."""
    num_points, lines = config.num_points, config.lines
    best: tuple[Line, ...] = ()
    base: tuple[int, ...] = ()
    base_inv = [0] * num_points
    automorphisms: list[tuple[int, ...]] = []
    generators: list[tuple[int, ...]] = []
    orbit: list[set[int]] = []
    for leaf, first in _leaves(config):
        if not first:
            g = tuple(base_inv[c] for c in leaf)
            if is_isomorphism(config, config, g):
                automorphisms.append(g)
                if any(orbit[p] is not orbit[q] for p, q in enumerate(g)):
                    generators.append(g)
                    for p, q in enumerate(g):
                        if orbit[p] is not orbit[q]:
                            joined = orbit[p] | orbit[q]
                            for x in joined:
                                orbit[x] = joined
                continue
        cert = moved_lines(lines, leaf)
        if not first and cert == best:
            raise RuntimeError("internal error: invalid automorphism produced")
        if first or cert < best:
            best, base = cert, leaf
            for p, c in enumerate(leaf):
                base_inv[c] = p
            automorphisms, generators = [tuple(range(num_points))], []
            orbit = [{p} for p in range(num_points)]
    return best, base, tuple(sorted(automorphisms)), tuple(generators)


def canonical_certificate(config: Config) -> CanonicalCertificate:
    """The canonical line list of config and a relabeling realizing it."""
    return CanonicalCertificate(*_canonize(config)[:2])


def are_isomorphic(c1: Config, c2: Config) -> Optional[tuple[int, ...]]:
    """A verified isomorphism from c1 to c2, as the image tuple whose
    entry p is the image of point p of c1, or None.  Different sizes or
    different multisets of per-point triangle and Pasch counts answer None
    before any search.  Otherwise c1 is descended once, to its first leaf,
    and c2 is searched against that leaf's trace up to its first leaf
    whose composed map passes `is_isomorphism`."""
    if c1.num_points != c2.num_points or len(c1.lines) != len(c2.lines):
        return None
    if sorted(c1.triangles_and_pasch) != sorted(c2.triangles_and_pasch):
        return None
    trace: list[tuple] = []
    leaf1, _ = next(_leaves(c1, trace))
    for leaf2, _ in _leaves(c2, trace):
        inverse2 = sorted(range(c2.num_points), key=leaf2.__getitem__)
        witness = tuple(inverse2[c] for c in leaf1)
        if is_isomorphism(c1, c2, witness):
            return witness
    return None


def automorphism_group(config: Config) -> AutomorphismGroup:
    """The automorphism group of config, from one search (`_canonize`)."""
    return AutomorphismGroup(*_canonize(config)[2:])
