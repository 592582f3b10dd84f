"""The paper's structural claims, stated as functions that acceptance
checks 1-6 and 10 and the unit tests verify: the conjugation laws for
permutations and level sequences, lift recognition, the complement
relabeling, the star-clique rule, the crossing criterion, re-centering at
a_n, diagram equivalence, the a/b swap map and the pairwise center-fixing
isomorphism search.  No program path calls them, so they live with the
tests; a function moves back into the package with its first program
caller.  Like `oracles`, pytest does not collect this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from skewper.analysis import StpDiagram, _star_point_ids, freely_contains
from skewper.constructions import (
    Perspective,
    _check_axis_labels,
    axis_config,
    perspective,
)
from skewper.incidence import Config, is_isomorphism, join, moved_lines
from skewper.perms import Perm, format_cycles, symmetric_group
from skewper.skews import (
    Pair,
    PhiSequence,
    Skew,
    all_pairs,
    make_pair,
    phi_sequence,
    skew_from_phi,
    zeta,
)

from oracles import _build_iso, _center_fixing_maps, _row_lifts, _witness


# Permutations and level sequences


def conjugator(p: Perm, q: Perm) -> Perm:
    """Some g with g * p * g^-1 == q, or ValueError if the cycle types differ.

    Cycles of equal length are aligned in order of their minima and mapped
    positionally.
    """
    if p.n != q.n:
        raise ValueError("permutations act on different sets")
    if p.cycle_type() != q.cycle_type():
        raise ValueError(
            f"cycle-type mismatch: {p.cycle_type()} vs {q.cycle_type()}"
        )
    by_len_p: dict[int, list[tuple[int, ...]]] = {}
    by_len_q: dict[int, list[tuple[int, ...]]] = {}
    for c in p.cycles():
        by_len_p.setdefault(len(c), []).append(c)
    for c in q.cycles():
        by_len_q.setdefault(len(c), []).append(c)
    images = [0] * p.n
    for length, cycles_p in by_len_p.items():
        for cp, cq in zip(cycles_p, by_len_q[length]):
            for u, v in zip(cp, cq):
                images[u - 1] = v
    return Perm(tuple(images))


def identity_skew(n: int) -> Skew:
    return Skew.from_map(n, {u: u for u in all_pairs(n)})


def axis_of(persp: Perspective) -> Config:
    """The axis `persp` was built over, read back through `axis_config`
    from the axial lines, those whose points are all axial."""
    pairs, offset = all_pairs(persp.n), persp.labeling.c_offset
    return axis_config(
        persp.n, ([pairs[x - offset] for x in L] for L in persp.config.lines if L[0] >= offset)
    )


def phi_from_skew(sigma: Skew) -> Optional[PhiSequence]:
    """Recover the level sequence of a skew, or None if some pair's maximum
    moves (such skews are not level-structured)."""
    levels: dict[int, Perm] = {}
    for j in range(2, sigma.n + 1):
        images = []
        for i in range(1, j):
            u = sigma((i, j))
            if u[1] != j:
                return None
            images.append(u[0])
        levels[j] = Perm.from_one_line(images)
    return phi_sequence(sigma.n, levels)


def phi_inverse(phi: PhiSequence) -> PhiSequence:
    return PhiSequence(phi.n, tuple(p.inverse() for p in phi.phis))


def _restriction(alpha: Perm, size: int, level: int) -> Perm:
    images = [alpha(x) for x in range(1, size + 1)]
    if any(y > size for y in images):
        raise ValueError(
            f"alpha does not preserve the level-{level} domain {{1,..,{size}}}"
        )
    return Perm.from_one_line(images)


def phi_conjugate(phi: PhiSequence, alpha: Perm) -> PhiSequence:
    """Conjugate each level by alpha restricted to that level's domain.

    Requires alpha to map each domain {1,..,j-1} (j >= 3) to itself; on the
    full ground set this allows exactly the identity and the swap of 1 and 2.
    """
    if alpha.n != phi.n:
        raise ValueError("alpha must permute the same ground set as the sequence")
    levels = {}
    for j in range(3, phi.n + 1):
        r = _restriction(alpha, j - 1, j)
        levels[j] = phi.level(j).conjugate(r)
    return phi_sequence(phi.n, levels)


@dataclass(frozen=True)
class BarRecognition:
    """A level sequence whose skew is induced by a point permutation."""

    alpha: Perm
    kind: str  # "identity" or "transposition"


def recognize_bar(arg: Union[PhiSequence, Skew]) -> Optional[BarRecognition]:
    """Decide whether a level-structured skew equals bar(alpha) for some
    point permutation alpha, and classify the witness.

    Exactly two level sequences produce lifts: the all-identity sequence
    (alpha = id) and the sequence whose every level with a 2-element or
    larger domain is the transposition (1,2) (alpha = (1,2)).  A skew
    argument must be level-structured; anything else raises ValueError.
    """
    if isinstance(arg, Skew):
        phi = phi_from_skew(arg)
        if phi is None:
            raise ValueError("skew is not level-structured; supply its level sequence")
    else:
        phi = arg
    n = phi.n
    if all(phi.level(j).is_identity() for j in range(2, n + 1)):
        return BarRecognition(alpha=Perm.identity(n), kind="identity")
    if n >= 3 and all(
        phi.level(j) == Perm.transposition(1, 2, j - 1) for j in range(3, n + 1)
    ):
        return BarRecognition(alpha=Perm.transposition(1, 2, n), kind="transposition")
    return None


def gamma_between(phi1: PhiSequence, phi2: PhiSequence) -> Skew:
    """A pair bijection conjugating the first sequence's skew to the second's.

    Works level by level: any gamma_j with gamma_j phi1_j gamma_j^{-1} =
    phi2_j (same cycle type required) assembles into a level-structured
    conjugator."""
    if phi1.n != phi2.n:
        raise ValueError("sequences live on different ground sets")
    levels = {}
    for j in range(3, phi1.n + 1):
        try:
            levels[j] = conjugator(phi1.level(j), phi2.level(j))
        except ValueError as exc:
            raise ValueError(f"cycle-type mismatch at level {j}: {exc}") from exc
    return skew_from_phi(phi_sequence(phi1.n, levels))


def conjugate_skew(sigma: Skew, gamma: Skew) -> Skew:
    return gamma * sigma * gamma.inverse()


def format_phi_text(phi: PhiSequence) -> str:
    return "[" + ",".join(format_cycles(phi.level(j)) for j in range(phi.n, 2, -1)) + "]"


# Constructions


def apply_pair_map(config: Config, pm: Skew) -> Config:
    """Transport the lines of an axis on the 2-subsets of {1..pm.n} along
    the pair bijection pm, keeping the point/label assignment fixed."""
    _check_axis_labels(pm.n, config)
    return Config(config.num_points, moved_lines(config.lines, pm.point_map), config.labels)


def kappa(config: Config) -> Config:
    """Complement relabeling on the 2-subsets of a 4-set: each line's points
    are replaced by their complementary 2-subsets."""
    complement = {
        u: tuple(sorted(set(range(1, 5)) - set(u))) for u in all_pairs(4)
    }
    return apply_pair_map(config, Skew.from_map(4, complement))


# Analysis


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
    axis = axis_of(persp)
    out = set()
    for i0 in range(1, persp.n + 1):
        if freely_contains(axis, _axis_star_ids(persp, i0)) is None:
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
    ax = axis_of(persp)
    if freely_contains(ax, star) is None:
        raise ValueError("the axial points through the top index are not a free clique")
    star_set = set(star)
    for L in ax.lines:
        meet = len(star_set & set(L))
        if meet not in (0, 2):
            raise ValueError(
                f"axis line meets the top star in {meet} points; need 0 or 2"
            )
    # inner part of the new skew: the join of the axial points {i,n},{j,n}
    # is an axial point over a pair inside {1..n-1}
    rho_inv_map: dict[Pair, Pair] = {}
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
    images = tuple(witness[p] for p in range(persp.config.num_points))
    if not is_isomorphism(persp.config, rebuilt.config, images):
        raise RuntimeError("internal error: re-centering witness failed verification")
    return Reperspective(rho=rho, rho0=rho0, axis=new_axis, witness=witness, rebuilt=rebuilt)


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


# Center-fixing maps


def s_map(persp: Perspective) -> dict[int, int]:
    """The swap a_i <-> b_i, c_u -> c_{sigma(u)} fixing the center, as a
    verified automorphism.  It exists exactly when the skew is an
    involution stabilizing the axis line set."""
    mapping = _witness(persp, persp, "flip", Perm.identity(persp.n), persp.skew)
    images = tuple(mapping[p] for p in range(persp.config.num_points))
    if not is_isomorphism(persp.config, persp.config, images):
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


def perspective_iso(p1: Perspective, p2: Perspective) -> Optional[PerspectiveIso]:
    """Search the center-fixing isomorphisms p1 -> p2.

    For each point permutation phi of the row indices, a direct hit needs
    the pair lift of phi to intertwine the skews and carry axis to axis; a
    flip composes with the a/b swap and uses the inverted source skew.
    The lifts are built one phi at a time, so a hit stops building them.
    The first hit is verified line-for-line and returned.  This is the
    pairwise form of the reference orbit quotient
    `oracles._center_fixing_orbits`, which tests compare against it.
    """
    if p1.n != p2.n:
        raise ValueError("perspectives have different numbers of rows")
    lines1, lines2 = axis_of(p1).lines, axis_of(p2).lines
    for kind, phi, image, c_map in _center_fixing_maps(p1.skew, _row_lifts(p1.n)):
        if image == p2.skew and moved_lines(lines1, c_map.point_map) == lines2:
            witness = _build_iso(p1, p2, kind, phi, c_map)
            return PerspectiveIso(kind=kind, phi=phi, witness=witness)
    return None
