"""Canonical forms, isomorphism decisions, and automorphism groups.

The canonizer iterates color refinement (a point's signature is its color
plus the multiset of its lines' color profiles) and, while cells remain,
individualizes every point of the first non-singleton cell.  Every
refinement pass has a relabel-invariant key, its sorted signatures, and
the search keeps only the leaves whose sequence of keys (their trace) is
least, abandoning a branch at the first pass that is worse than the
least path found so far (the trace half of McKay & Piperno's Traces).
Each surviving discrete leaf yields a relabeled line list; the
lexicographically least one is the certificate.  An automorphism maps a
leaf to a leaf with the same trace and certificate, so the surviving
leaves achieving the certificate differ exactly by automorphisms, and
there is one such leaf per automorphism: the group comes for free.

An isomorphism decision searches only its first configuration in full.
The second is searched against the first's least trace (the
isomorphism-test mode of Traces): a key greater than the trace's prunes
the branch, a smaller one means the second's least trace is smaller and
the answer is "not isomorphic" at once, and the first leaf on the trace
whose certificate equals the first configuration's gives the witness.
That leaf is the one a full search of the second would take as its
base, so the witness is the certificate formula's.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from .incidence import Config, Line, is_isomorphism
from .perms import Perm, symmetric_group
from .skews import Skew, all_pairs, bar_alpha
from .constructions import Perspective, apply_pair_map


@dataclass(frozen=True)
class CanonicalCertificate:
    """A relabel-invariant normal form: the canonical line list and one
    relabeling old point -> canonical point realizing it."""

    canonical_lines: tuple[Line, ...]
    relabeling: tuple[int, ...]


@dataclass(frozen=True)
class AutomorphismGroup:
    """All line-preserving point bijections, as image tuples, plus a small
    generating subset."""

    elements: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _leaves(
    num_points: int, lines_by_point, trace=None, accept=None
) -> list[tuple[int, ...]]:
    """The discrete colorings on the least refinement trace.

    A pass keys itself by its sorted distinct signatures and numbers
    colors in that order.  A node's trace is the pass keys from the root
    down; a key greater than the least path's at the same position
    abandons the node, a smaller one makes it the least path and drops
    the leaves kept so far.  Keys fix when passes stop and which nodes
    are leaves, so no leaf's trace is a prefix of another's.

    A given `trace` list receives the least trace.  With `accept` it is
    instead another configuration's least trace, held fixed: a pass past
    its end, or with a key smaller than its key at the same position,
    ends the search with no leaf, and the search ends at the first leaf
    that `accept` takes, returning that leaf alone.
    """
    best: list[tuple] = [] if trace is None else trace  # the least path's pass keys
    out: list[tuple[int, ...]] = []

    def descend(colors: list[int], position: int) -> bool:
        """Search below a node; True ends the whole search."""
        count = len(set(colors))
        while True:
            sigs = []
            for p in range(num_points):
                profile = sorted(
                    tuple(sorted(colors[q] for q in L if q != p))
                    for L in lines_by_point[p]
                )
                sigs.append((colors[p], tuple(profile)))
            key = tuple(sorted(set(sigs)))
            # At the end of the least path no leaf is kept yet.
            if position == len(best) or key < best[position]:
                if accept is not None:
                    return True
                del best[position:]
                best.append(key)
                out.clear()
            elif key > best[position]:
                return False
            position += 1
            numbering = {s: i for i, s in enumerate(key)}
            colors = [numbering[s] for s in sigs]
            if len(key) == count:
                break
            count = len(key)
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
                branch[p] = num_points  # distinct from every current color
                if descend(branch, position):
                    return True
        return False

    descend([0] * num_points, 0)
    return out


def _certificate_of(colors: tuple[int, ...], lines) -> tuple[Line, ...]:
    return tuple(
        sorted(tuple(sorted(colors[x] for x in L)) for L in lines)
    )


# Config -> (certificate, relabeling, automorphisms).  The certificate and
# the group of one configuration come from one tree search; an entry lives
# as long as its Config.
_CANON_MEMO: weakref.WeakKeyDictionary[Config, tuple] = weakref.WeakKeyDictionary()


def _canonize(config: Config, trace: Optional[list] = None):
    """The memo entry of config.  A given `trace` list receives the least
    trace, which takes a search even on a memoized config and is never
    memoized."""
    cached = _CANON_MEMO.get(config)
    if cached is not None and trace is None:
        return cached
    num_points, lines = config.num_points, config.lines
    leaves = _leaves(num_points, config.lines_by_point, trace)
    best: Optional[tuple[Line, ...]] = None
    best_leaves: list[tuple[int, ...]] = []
    for leaf in leaves:
        cert = _certificate_of(leaf, lines)
        if best is None or cert < best:
            best, best_leaves = cert, [leaf]
        elif cert == best:
            best_leaves.append(leaf)
    base = best_leaves[0]
    base_inv = [0] * num_points
    for p, c in enumerate(base):
        base_inv[c] = p
    automorphisms = sorted(
        {tuple(base_inv[leaf[p]] for p in range(num_points)) for leaf in best_leaves}
    )
    result = _CANON_MEMO[config] = (best, base, tuple(automorphisms))
    return result


def canonical_certificate(config: Config) -> CanonicalCertificate:
    lines_canon, relabeling, _ = _canonize(config)
    return CanonicalCertificate(canonical_lines=lines_canon, relabeling=relabeling)


def are_isomorphic(c1: Config, c2: Config) -> Optional[dict[int, int]]:
    """A verified point bijection carrying the lines of c1 onto those of
    c2, or None.  Only c1 is searched in full; c2 is searched against
    c1's least trace up to its first leaf with c1's certificate."""
    if c1.num_points != c2.num_points or len(c1.lines) != len(c2.lines):
        return None
    trace: list[tuple] = []
    cert1, base1, _ = _canonize(c1, trace)
    match = _leaves(
        c2.num_points,
        c2.lines_by_point,
        trace,
        lambda leaf: _certificate_of(leaf, c2.lines) == cert1,
    )
    if not match:
        return None
    inverse2 = [0] * c2.num_points
    for p, c in enumerate(match[0]):
        inverse2[c] = p
    witness = {p: inverse2[base1[p]] for p in range(c1.num_points)}
    if not is_isomorphism(c1, c2, witness):
        raise RuntimeError("internal error: certificate witness failed verification")
    return witness


def _greedy_generators(
    num_points: int, elements: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    identity = tuple(range(num_points))
    generators: list[tuple[int, ...]] = []
    generated = {identity}
    for g in elements:
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
    return tuple(generators)


def automorphism_group(config: Config) -> AutomorphismGroup:
    _, _, elements = _canonize(config)
    for g in elements:
        if not is_isomorphism(config, config, g):
            raise RuntimeError("internal error: invalid automorphism produced")
    return AutomorphismGroup(
        elements=elements,
        generators=_greedy_generators(config.num_points, elements),
    )


def s_map(persp: Perspective) -> dict[int, int]:
    """The swap a_i <-> b_i, c_u -> c_{sigma(u)} fixing the center, as a
    verified automorphism.  It exists exactly when the skew is an
    involution stabilizing the axis line set."""
    mapping = _witness(persp, persp, "flip", Perm.identity(persp.n), persp.skew)
    if not is_isomorphism(persp.config, persp.config, mapping):
        raise ValueError("the a/b swap is not an automorphism of this perspective")
    return mapping


@dataclass(frozen=True)
class PerspectiveIso:
    """A center-fixing isomorphism between two perspectives: either rows
    map to rows ("direct") or the two simplices trade places ("flip"),
    both driven by a point permutation phi of the row indices."""

    kind: str
    phi: Perm
    witness: dict[int, int]


def _row_lifts(n: int) -> list[tuple[Perm, Skew, Skew]]:
    """(phi, bar(phi), bar(phi)^-1) for every point permutation phi of
    the row indices 1..n."""
    lifts = []
    for phi in symmetric_group(n):
        bar = bar_alpha(phi)
        lifts.append((phi, bar, bar.inverse()))
    return lifts


def _center_fixing_maps(sigma: Skew, lifts: list[tuple[Perm, Skew, Skew]]):
    """The direct and flip maps out of a perspective with skew sigma, one
    pair per entry of `_row_lifts`, as (kind, phi, image skew, pair map
    carrying the axis).  With b = bar(phi): direct gives b sigma b^-1 and
    b; flip gives b sigma^-1 b^-1 and b sigma."""
    sigma_inv = sigma.inverse()
    for phi, bar, bar_inv in lifts:
        yield "direct", phi, bar * sigma * bar_inv, bar
        yield "flip", phi, bar * sigma_inv * bar_inv, bar * sigma


def perspective_iso(p1: Perspective, p2: Perspective) -> Optional[PerspectiveIso]:
    """Search the center-fixing isomorphisms p1 -> p2.

    For each point permutation phi of the row indices, a direct hit needs
    the pair lift of phi to intertwine the skews and carry axis to axis; a
    flip composes with the a/b swap and uses the inverted source skew.
    The first hit is verified line-for-line and returned.
    """
    if p1.n != p2.n:
        raise ValueError("perspectives have different numbers of rows")
    for kind, phi, image, c_map in _center_fixing_maps(p1.skew, _row_lifts(p1.n)):
        if image == p2.skew and apply_pair_map(p1.axis, c_map).lines == p2.axis.lines:
            return _build_iso(p1, p2, kind, phi, c_map)
    return None


def _witness(
    p1: Perspective, p2: Perspective, kind: str, phi: Perm, c_map: Skew
) -> dict[int, int]:
    """The center-fixing point map p1 -> p2, unverified: center to center,
    a_i and b_i to a_phi(i) and b_phi(i) (to b_phi(i) and a_phi(i) for a
    flip), and c_u to c_{c_map(u)}."""
    lab1, lab2 = p1.labeling, p2.labeling
    a2, b2 = (lab2.a, lab2.b) if kind == "direct" else (lab2.b, lab2.a)
    witness = {lab1.center: lab2.center}
    for i in range(1, p1.n + 1):
        witness[lab1.a[i - 1]] = a2[phi(i) - 1]
        witness[lab1.b[i - 1]] = b2[phi(i) - 1]
    for u in all_pairs(p1.n):
        witness[lab1.c[u]] = lab2.c[c_map(u)]
    return witness


def _build_iso(
    p1: Perspective, p2: Perspective, kind: str, phi: Perm, c_map: Skew
) -> PerspectiveIso:
    witness = _witness(p1, p2, kind, phi, c_map)
    if not is_isomorphism(p1.config, p2.config, witness):
        raise RuntimeError("internal error: center-fixing witness failed verification")
    return PerspectiveIso(kind=kind, phi=phi, witness=witness)
