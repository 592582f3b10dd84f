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
there is one such leaf per automorphism.  One search (`_canonize`) gives
the certificate, a relabeling realizing it and the group: it tests each
leaf, line for line, as an automorphism of the best leaf so far and
certifies only a leaf that fails, so every automorphism is verified once,
inside the search, and a structure whose leaves all differ by
automorphisms is certified once.  Nothing is kept between calls.

An isomorphism decision first compares the sizes and the multisets of
the per-point counts; a difference answers "not isomorphic" before any
search.  Otherwise it canonizes neither configuration: it descends the
first once, to its first leaf, and searches the second with that leaf's
trace held fixed (the isomorphism-test mode of Traces).  A key that
differs from the trace's prunes only its own branch, and the first leaf
of the second whose certificate equals the first leaf's gives the
witness, which is verified before it is returned.  The search is
complete: an isomorphism carries the first path onto a path of the
second with the same keys, ending at a leaf with the same certificate,
so only non-isomorphic configurations exhaust it.
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
    line for line by the search that found it, plus a small generating
    subset."""

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


def _leaves(config: Config, trace=None, accept=None) -> list[tuple[int, ...]]:
    """The discrete colorings on the least refinement trace.

    The root coloring is `_root_colors`.  A pass keys itself by its sorted
    distinct signatures and numbers colors in that order.  A node's trace
    is the pass keys from the root down; a key greater than the least
    path's at the same position abandons the node, a smaller one makes it
    the least path and drops the leaves kept so far.  Keys fix when passes
    stop and which nodes are leaves, so no leaf's trace is a prefix of
    another's.

    A stable pass renumbers every color to itself, so its signatures are
    those of the coloring it yields.  A discrete coloring is stable, so
    the passes stop at the one that makes the coloring discrete, and the
    leaf's trace ends with that pass's key; no pass runs only to confirm
    it.  Every key is still invariant under relabeling, so an
    isomorphism still carries a least-trace leaf onto one, and leaves
    that share a trace are told apart by their certificates (`_canonize`,
    and the `accept` of `are_isomorphic`).  A child individualizes p with
    the next free color, and its first pass recomputes the signatures of
    p and the points collinear with it only.

    A given `trace` list receives the least trace.  With `accept` the
    search instead follows the given trace: a pass whose key differs from
    the trace's at the same position prunes its own branch only (the
    trace need not be least, so a smaller key proves nothing), a pass
    past the trace's end extends it, and the search ends at the first
    leaf that `accept` takes, returning that leaf alone.  On an empty
    trace the first path writes the trace, so an `accept` that takes
    every leaf makes the search one descent to the first leaf.
    """
    num_points, pairs_by_point, third = config.num_points, config.pairs_by_point, config.third
    best: list[tuple] = [] if trace is None else trace  # the least or the followed path's keys
    out: list[tuple[int, ...]] = []

    def descend(colors: list[int], sigs: list, position: int) -> bool:
        """Search below a node whose colors are numbered from 0 without
        gaps and whose points have signatures `sigs`; True ends the whole
        search."""
        count = len(set(colors))
        while True:
            key = tuple(sorted(set(sigs)))
            if position == len(best):
                # a pass past the path's end extends it; no leaf is kept yet
                best.append(key)
            elif key != best[position]:
                if accept is not None or key > best[position]:
                    return False
                del best[position:]
                best.append(key)
                out.clear()
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
            leaf = tuple(colors)
            if accept is None or accept(leaf):
                out.append(leaf)
                return accept is not None
            return False
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
                if descend(branch, child, position):
                    return True
        return False

    colors = _root_colors(config)
    sigs = [_signature(pairs_by_point, colors, p) for p in range(num_points)]
    descend(colors, sigs, 0)
    return out


def _canonize(config: Config):
    """(certificate, relabeling, automorphisms) of config from one search:
    the least certificate, the first leaf achieving it, and the sorted
    automorphisms, each verified line for line.

    A leaf's certificate equals the best leaf's exactly when base^-1 . leaf
    is an automorphism, so each leaf is first tested as one; only a leaf
    that fails is certified, and one whose certificate then equals the best
    means the test rejected a genuine automorphism."""
    num_points, lines = config.num_points, config.lines
    best: Optional[tuple[Line, ...]] = None
    base: tuple[int, ...] = ()
    base_inv = [0] * num_points
    automorphisms: list[tuple[int, ...]] = []
    for leaf in _leaves(config):
        if best is not None:
            g = tuple(base_inv[c] for c in leaf)
            if is_isomorphism(config, config, g):
                automorphisms.append(g)
                continue
        cert = moved_lines(lines, leaf)
        if best is not None and cert == best:
            raise RuntimeError("internal error: invalid automorphism produced")
        if best is None or cert < best:
            best, base = cert, leaf
            for p, c in enumerate(leaf):
                base_inv[c] = p
            automorphisms = [tuple(range(num_points))]
    return best, base, tuple(sorted(automorphisms))


def canonical_certificate(config: Config) -> CanonicalCertificate:
    lines_canon, relabeling, _ = _canonize(config)
    return CanonicalCertificate(canonical_lines=lines_canon, relabeling=relabeling)


def are_isomorphic(c1: Config, c2: Config) -> Optional[dict[int, int]]:
    """A verified point bijection carrying the lines of c1 onto those of
    c2, or None.  Different sizes or different multisets of per-point
    triangle and Pasch counts answer None before any search.  Otherwise
    c1 is descended once, to its first leaf, and c2 is searched against
    that leaf's trace up to its first leaf with the same certificate."""
    if c1.num_points != c2.num_points or len(c1.lines) != len(c2.lines):
        return None
    if sorted(c1.triangles_and_pasch) != sorted(c2.triangles_and_pasch):
        return None
    trace: list[tuple] = []
    (leaf1,) = _leaves(c1, trace, lambda leaf: True)
    cert1 = moved_lines(c1.lines, leaf1)
    match = _leaves(c2, trace, lambda leaf: moved_lines(c2.lines, leaf) == cert1)
    if not match:
        return None
    inverse2 = [0] * c2.num_points
    for p, c in enumerate(match[0]):
        inverse2[c] = p
    witness = {p: inverse2[leaf1[p]] for p in range(c1.num_points)}
    if not is_isomorphism(c1, c2, witness):
        raise RuntimeError("internal error: certificate witness failed verification")
    return witness


def _group(config: Config, automorphisms) -> AutomorphismGroup:
    """The group of the automorphisms `_canonize` verified; an element is
    a generator when the generators before it do not generate it."""
    num_points = config.num_points
    generators: list[tuple[int, ...]] = []
    generated = {tuple(range(num_points))}
    for g in automorphisms:
        if g in generated:
            continue
        generators.append(g)
        frontier = list(generated)
        while frontier:
            new = []
            for h in frontier:
                for s in generators:
                    prod = tuple(s[h[x]] for x in range(num_points))
                    if prod not in generated:
                        generated.add(prod)
                        new.append(prod)
            frontier = new
    return AutomorphismGroup(elements=automorphisms, generators=tuple(generators))


def automorphism_group(config: Config) -> AutomorphismGroup:
    return _group(config, _canonize(config)[2])
