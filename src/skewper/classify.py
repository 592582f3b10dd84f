"""The 240-instance catalog and its exhaustive classification.

Instances are the perspectives built from the eight cataloged level
sequences and the fifteen fixed-point permutations (both axis sizes).
Classification first quotients the catalog by the center-fixing direct and
flip maps (`_center_fixing_maps`), which move axis lines and axial points
by position along each pair map's `Skew.point_map`.  It then groups the
orbit representatives by canonical certificate and records the free
five-clique census and automorphism order of each; every orbit member
shares its representative's values through a witness that is verified
and not kept.
Reference constants carry the reference counts; `expectation_checks`
compares a computed report against them without hiding disagreements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .analysis import enumerate_free_cliques
from .constructions import Perspective, perspective, veblen, veblen_label
from .incidence import Config, is_isomorphism, moved_lines
from .isomorphism import _canonize
from .perms import Perm, parse_cycles, symmetric_group
from .skews import PhiSequence, Skew, bar_alpha, phi_sequence, skew_from_phi


def _phi(top: str, inner: str) -> PhiSequence:
    return phi_sequence(4, {4: parse_cycles(top, 3), 3: parse_cycles(inner, 2)})


PHI_CATALOG: dict[int, PhiSequence] = {
    1: _phi("()", "()"),
    2: _phi("()", "(1,2)"),
    3: _phi("(2,3)", "()"),
    4: _phi("(1,3)", "(1,2)"),
    5: _phi("(1,2)", "()"),
    6: _phi("(1,2)", "(1,2)"),
    7: _phi("(1,2,3)", "()"),
    8: _phi("(1,2,3)", "(1,2)"),
}

MU_CATALOG: dict[int, Perm] = {
    1: parse_cycles("()", 4),
    2: parse_cycles("(1,2,3)", 4),
    3: parse_cycles("(1,3,2)", 4),
    4: parse_cycles("(1,2,4)", 4),
    5: parse_cycles("(1,4,2)", 4),
    6: parse_cycles("(1,3,4)", 4),
    7: parse_cycles("(1,4,3)", 4),
    8: parse_cycles("(2,3,4)", 4),
    9: parse_cycles("(2,4,3)", 4),
    10: parse_cycles("(3,4)", 4),
    11: parse_cycles("(2,4)", 4),
    12: parse_cycles("(2,3)", 4),
    13: parse_cycles("(1,4)", 4),
    14: parse_cycles("(1,3)", 4),
    15: parse_cycles("(1,2)", 4),
}


@dataclass(frozen=True, order=True)
class InstanceKey:
    """Catalog coordinates: level-sequence index f (a key of
    `PHI_CATALOG`), axis type s, and fixed-point permutation index i (a key
    of `MU_CATALOG`).  Prints as ``(f,s,i)``."""

    f: int
    s: int
    i: int

    def __post_init__(self):
        if self.f not in PHI_CATALOG:
            raise ValueError(f"f must be in 1..{len(PHI_CATALOG)}, got {self.f}")
        if self.s not in (5, 6):
            raise ValueError(f"s must be 5 or 6, got {self.s}")
        if self.i not in MU_CATALOG:
            raise ValueError(f"i must be in 1..{len(MU_CATALOG)}, got {self.i}")

    def __str__(self) -> str:
        return f"({self.f},{self.s},{self.i})"


ALL_KEYS: tuple[InstanceKey, ...] = tuple(
    InstanceKey(f, s, i) for f in PHI_CATALOG for s in (5, 6) for i in MU_CATALOG
)


@lru_cache(maxsize=None)
def _catalog_skew(f: int) -> Skew:
    """The skew of level sequence f, built once; only the keys of
    `PHI_CATALOG` succeed, so the table holds at most 8 entries."""
    return skew_from_phi(PHI_CATALOG[f])


@lru_cache(maxsize=None)
def _catalog_axis(s: int, i: int) -> Config:
    """The Veblen axis of switch s and permutation i, built once; only
    s in (5, 6) and the keys of `MU_CATALOG` succeed, so the table holds
    at most 30 entries."""
    return veblen(veblen_label(s, MU_CATALOG[i]))


@lru_cache(maxsize=None)
def build_instance(key: InstanceKey) -> Perspective:
    """The perspective at `key`, memoized.  `InstanceKey` admits only the
    240 catalog keys, which bounds the table.  Instances share their 8
    skews and 30 axes.  The memo pays because callers ask for an instance
    more than once: `classify_all` in the orbit quotient and again per
    representative, the benchmark's `iso` set-up for ~200 sides from ~110
    keys."""
    return perspective(4, _catalog_skew(key.f), _catalog_axis(key.s, key.i))


@dataclass(frozen=True)
class InstanceSummary:
    """Per-instance results: the free five-clique count, the automorphism
    group order and the certificate class, all read off the instance's
    orbit representative (see `_center_fixing_orbits`)."""

    key: InstanceKey
    free_clique_count: int
    aut_order: int
    class_id: int


@dataclass(frozen=True)
class ClassSummary:
    class_id: int
    members: tuple[InstanceKey, ...]
    free_clique_count: int
    aut_order: int


@dataclass
class ClassificationReport:
    """Everything the downstream checks need: per-instance data, the
    certificate classes, the headline counts over f >= 2, the s=5 pair set
    with three or more free five-cliques, the instances with nontrivial
    automorphism group, and phase timings in seconds ("orbits", "stats",
    "grouping", "total")."""

    instances: dict[InstanceKey, InstanceSummary]
    classes: tuple[ClassSummary, ...]
    class_count_two_k5: int
    class_count_three_plus: int
    three_plus_pairs_s5: frozenset
    nontrivial_aut: dict[InstanceKey, int]
    timings: dict[str, float]


def _instance_stats(key: InstanceKey) -> tuple[int, tuple, int]:
    """Free five-clique count, certificate and group order at `key`."""
    config = build_instance(key).config
    cliques = len(enumerate_free_cliques(config, 5))
    cert, _, automorphisms, _ = _canonize(config)
    return cliques, cert, len(automorphisms)


def _class_ids(instances, cliques) -> set[int]:
    """The classes over f >= 2 of the instances whose free five-clique
    count satisfies `cliques`."""
    return {
        s.class_id for s in instances if s.key.f >= 2 and cliques(s.free_clique_count)
    }


def _row_lifts(n: int) -> Iterator[tuple[Perm, Skew, Skew]]:
    """(phi, bar(phi), bar(phi)^-1) for every point permutation phi of
    the row indices 1..n, built as they are asked for."""
    for phi in symmetric_group(n):
        bar = bar_alpha(phi)
        yield phi, bar, bar.inverse()


def _center_fixing_maps(sigma: Skew, lifts: Iterable[tuple[Perm, Skew, Skew]]):
    """The direct and flip maps out of a perspective with skew sigma, one
    pair per entry of `_row_lifts`, as (kind, phi, image skew, pair map
    carrying the axis).  With b = bar(phi): direct gives b sigma b^-1 and
    b; flip gives b sigma^-1 b^-1 and b sigma."""
    sigma_inv = sigma.inverse()
    for phi, bar, bar_inv in lifts:
        yield "direct", phi, bar * sigma * bar_inv, bar
        yield "flip", phi, bar * sigma_inv * bar_inv, bar * sigma


def _witness(
    p1: Perspective, p2: Perspective, kind: str, phi: Perm, c_map: Skew
) -> dict[int, int]:
    """The center-fixing point map p1 -> p2, unverified: center to center,
    a_i and b_i to a_phi(i) and b_phi(i) (to b_phi(i) and a_phi(i) for a
    flip), and c_u to c_{c_map(u)} by position along `Skew.point_map`."""
    lab1, lab2 = p1.labeling, p2.labeling
    a1, b1 = lab1.a, lab1.b
    a2, b2 = (lab2.a, lab2.b) if kind == "direct" else (lab2.b, lab2.a)
    witness = {lab1.center: lab2.center}
    for i in range(1, p1.n + 1):
        witness[a1[i - 1]] = a2[phi(i) - 1]
        witness[b1[i - 1]] = b2[phi(i) - 1]
    offset1, offset2 = lab1.c_offset, lab2.c_offset
    for k, image in enumerate(c_map.point_map):
        witness[offset1 + k] = offset2 + image
    return witness


def _build_iso(
    p1: Perspective, p2: Perspective, kind: str, phi: Perm, c_map: Skew
) -> dict[int, int]:
    """The center-fixing point map p1 -> p2 of `_witness`, verified line
    for line from p2's side: its inverse must carry every line of p2 onto
    a line of p1.  The check reads only p1's `Config.third`, so in the
    quotient, where p1 is the orbit representative, no member builds
    one."""
    witness = _witness(p1, p2, kind, phi, c_map)
    inverse = {image: x for x, image in witness.items()}
    if not is_isomorphism(p2.config, p1.config, inverse):
        raise RuntimeError("internal error: center-fixing witness failed verification")
    return witness


def _center_fixing_orbits() -> dict[InstanceKey, InstanceKey]:
    """Quotient the catalog by the center-fixing direct and flip maps.

    For phi in S4 and b = bar(phi), the direct map sends (sigma, axis) to
    (b sigma b^-1, b(axis)) and the flip map to (b sigma^-1 b^-1,
    b sigma(axis)).  Together they are an action of S4 x Z2, so the images
    of one representative are its whole orbit.  Walking the catalog in
    order, each instance not yet reached becomes a representative.  An
    image's axis is looked up by its lines moved along the pair map's
    `Skew.point_map` (`incidence.moved_lines`), with no `Config` built,
    and every image that is a catalog instance joins its orbit once
    `_build_iso` has verified the witness line for line.  Maps each key
    to its representative.
    """
    persps = {key: build_instance(key) for key in ALL_KEYS}
    # skew -> axis lines -> key; most images leave the eight catalog skews
    index: dict[Skew, dict[tuple, InstanceKey]] = {}
    for key, p in persps.items():
        index.setdefault(p.skew, {})[p.axis.lines] = key
    lifts = list(_row_lifts(4))  # shared by the eight skews
    # each skew's maps onto catalog skews, shared by its representatives
    maps = {
        skew: [m for m in _center_fixing_maps(skew, lifts) if m[2] in index]
        for skew in index
    }
    representative: dict[InstanceKey, InstanceKey] = {}
    for rep in ALL_KEYS:
        if rep in representative:
            continue
        representative[rep] = rep
        persp = persps[rep]
        for kind, phi, image, c_map in maps[persp.skew]:
            key = index[image].get(moved_lines(persp.axis.lines, c_map.point_map))
            if key is None or key in representative:
                continue
            _build_iso(persp, persps[key], kind, phi, c_map)
            representative[key] = rep
    return representative


def classify_all(threads: int = 1) -> ClassificationReport:
    """Classify all 240 catalog instances.

    Only the representatives of `_center_fixing_orbits` are canonized, in
    catalog order; each member takes its representative's free-clique
    count, certificate and group order, which are isomorphism invariants.
    Each representative is searched once, and its automorphisms are
    verified inside that search (`_canonize`).

    `threads` has no effect: the benchmark still passes it, so it stays,
    and a value below 1 is still rejected, until ROADMAP item 1 stops
    the benchmark passing it and it is removed.
    """
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    start = time.perf_counter()
    representative = _center_fixing_orbits()
    orbits_done = time.perf_counter()
    stats = {k: _instance_stats(k) for k in ALL_KEYS if representative[k] == k}
    stats_done = time.perf_counter()

    class_of_cert: dict[tuple, int] = {}
    members: dict[int, list[InstanceKey]] = {}
    instances: dict[InstanceKey, InstanceSummary] = {}
    for key in ALL_KEYS:
        cliques, cert, order = stats[representative[key]]
        cid = class_of_cert.setdefault(cert, len(class_of_cert))
        members.setdefault(cid, []).append(key)
        instances[key] = InstanceSummary(
            key=key,
            free_clique_count=cliques,
            aut_order=order,
            class_id=cid,
        )
    classes = tuple(
        ClassSummary(
            class_id=cid,
            members=tuple(sorted(ks)),
            free_clique_count=instances[ks[0]].free_clique_count,
            aut_order=instances[ks[0]].aut_order,
        )
        for cid, ks in sorted(members.items())
    )
    two = _class_ids(instances.values(), lambda c: c == 2)
    three = _class_ids(instances.values(), lambda c: c >= 3)
    pairs = frozenset(
        (s.key.f, s.key.i)
        for s in instances.values()
        if s.key.s == 5 and s.key.f >= 2 and s.free_clique_count >= 3
    )
    nontrivial = {
        key: s.aut_order for key, s in sorted(instances.items()) if s.aut_order > 1
    }
    end = time.perf_counter()
    return ClassificationReport(
        instances=instances,
        classes=classes,
        class_count_two_k5=len(two),
        class_count_three_plus=len(three),
        three_plus_pairs_s5=pairs,
        nontrivial_aut=nontrivial,
        timings={
            "orbits": orbits_done - start,
            "stats": stats_done - orbits_done,
            "grouping": end - stats_done,
            "total": end - start,
        },
    )


# Reference values for the classification.  The checks below
# compare computed results against them; disagreements are reported with
# full detail, never absorbed.
EXPECTED_TWO_K5_CLASSES = 104
EXPECTED_THREE_PLUS_CLASSES = 11
EXPECTED_THREE_PLUS_PAIRS_S5: frozenset = frozenset(
    (f, i)
    for f, ids in {
        2: (1, 2, 3, 4, 5),
        3: (1, 2, 3, 8, 9, 15),
        4: (1, 2, 12, 14),
        5: (1, 2, 3, 4),
        6: (1, 2, 4, 11, 12, 15),
        7: (1, 2, 12, 14, 15),
        8: (1, 2, 3, 12, 14, 15),
    }.items()
    for i in ids
)
EXPECTED_NONTRIVIAL_AUT: dict[InstanceKey, int] = {
    InstanceKey(4, 5, 2): 2,
    InstanceKey(4, 5, 8): 2,
    InstanceKey(4, 5, 12): 2,
    InstanceKey(4, 6, 3): 2,
    InstanceKey(4, 6, 9): 2,
    InstanceKey(4, 6, 12): 2,
    InstanceKey(6, 5, 10): 2,
    InstanceKey(6, 6, 1): 2,
    InstanceKey(6, 6, 10): 2,
    InstanceKey(6, 6, 15): 2,
}

# Reference per-f lists of instances asserted pairwise non-isomorphic among
# those with exactly two free five-cliques.  For f = 7 and f = 8 the
# reference asserts this for every instance whose (f,i) is outside the
# three-plus pair list (both s values).  The entry counts sum to 105.
_REPRESENTATIVE_IDS: dict[int, dict[int, tuple[int, ...]]] = {
    2: {6: (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)},
    3: {6: (1, 2, 3, 4, 5, 6, 7, 8, 9, 13)},
    4: {5: (4, 5, 6, 8, 9, 10, 11, 13), 6: (1, 3, 5, 9, 12, 14)},
    5: {6: (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)},
    6: {5: (6, 7, 10), 6: (1, 2, 4, 6, 7, 10, 11, 12, 15)},
}


def _build_representatives() -> dict[int, tuple[InstanceKey, ...]]:
    out: dict[int, tuple[InstanceKey, ...]] = {}
    for f, by_s in _REPRESENTATIVE_IDS.items():
        out[f] = tuple(
            InstanceKey(f, s, i) for s, ids in sorted(by_s.items()) for i in ids
        )
    for f in (7, 8):
        named = {i for g, i in EXPECTED_THREE_PLUS_PAIRS_S5 if g == f}
        keys = [InstanceKey(f, 5, i) for i in MU_CATALOG if i not in named]
        keys += [InstanceKey(f, 6, i) for i in MU_CATALOG]
        out[f] = tuple(keys)
    return out


EXPECTED_REPRESENTATIVES: dict[int, tuple[InstanceKey, ...]] = (
    _build_representatives()
)


@dataclass(frozen=True)
class ExpectationCheck:
    name: str
    expected: object
    actual: object
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


def _set_diff_detail(expected, actual) -> str:
    missing = sorted(expected - actual)
    extra = sorted(actual - expected)
    parts = []
    if missing:
        parts.append(f"expected but not computed: {missing}")
    if extra:
        parts.append(f"computed but not expected: {extra}")
    return "; ".join(parts)


def expectation_checks(report: ClassificationReport) -> list[ExpectationCheck]:
    """Compare a report against the reference values, one named check per
    reference value."""
    checks = []
    checks.append(
        ExpectationCheck(
            name="two-free-clique class count",
            expected=EXPECTED_TWO_K5_CLASSES,
            actual=report.class_count_two_k5,
        )
    )
    checks.append(
        ExpectationCheck(
            name="three-plus-free-clique class count",
            expected=EXPECTED_THREE_PLUS_CLASSES,
            actual=report.class_count_three_plus,
        )
    )
    checks.append(
        ExpectationCheck(
            name="three-plus pair set at s=5",
            expected=EXPECTED_THREE_PLUS_PAIRS_S5,
            actual=report.three_plus_pairs_s5,
            detail=_set_diff_detail(
                EXPECTED_THREE_PLUS_PAIRS_S5, report.three_plus_pairs_s5
            ),
        )
    )
    expected_keys = frozenset(EXPECTED_NONTRIVIAL_AUT)
    actual_keys = frozenset(k for k in report.nontrivial_aut if k.f >= 2)
    checks.append(
        ExpectationCheck(
            name="nontrivial automorphism instances",
            expected=expected_keys,
            actual=actual_keys,
            detail=_set_diff_detail(
                {(k.f, k.s, k.i) for k in expected_keys},
                {(k.f, k.s, k.i) for k in actual_keys},
            ),
        )
    )
    actual_orders = {
        key: report.instances[key].aut_order for key in EXPECTED_NONTRIVIAL_AUT
    }
    checks.append(
        ExpectationCheck(
            name="nontrivial automorphism orders",
            expected=dict(EXPECTED_NONTRIVIAL_AUT),
            actual=actual_orders,
            detail="; ".join(
                f"{k}: expected {v}, computed {actual_orders[k]}"
                for k, v in EXPECTED_NONTRIVIAL_AUT.items()
                if actual_orders[k] != v
            ),
        )
    )
    for f in sorted(EXPECTED_REPRESENTATIVES):
        entries = EXPECTED_REPRESENTATIVES[f]
        by_class: dict[int, list[InstanceKey]] = {}
        for key in entries:
            by_class.setdefault(report.instances[key].class_id, []).append(key)
        collisions = [group for group in by_class.values() if len(group) > 1]
        checks.append(
            ExpectationCheck(
                name=f"pairwise non-isomorphic representative list f={f}",
                expected=len(entries),
                actual=len(by_class),
                detail="; ".join(
                    "isomorphic entries "
                    + ", ".join(map(str, group))
                    for group in collisions
                ),
            )
        )
    listed_ids = {
        report.instances[k].class_id
        for keys in EXPECTED_REPRESENTATIVES.values()
        for k in keys
    }
    two_clique_ids = _class_ids(report.instances.values(), lambda c: c == 2)
    missed = sorted(two_clique_ids - listed_ids)
    checks.append(
        ExpectationCheck(
            name="two-free-clique classes missed by the representative lists",
            expected=0,
            actual=len(missed),
            detail=", ".join(f"class {c}" for c in missed),
        )
    )
    return checks


def diagnostic_text(
    report: ClassificationReport, checks: Optional[list[ExpectationCheck]] = None
) -> str:
    """A full plain-text account of the classification and the reference
    comparison, including every multi-member class."""
    if checks is None:
        checks = expectation_checks(report)
    out = []
    out.append("classification of the 240 catalog instances")
    out.append(
        f"  classes over f>=2: {report.class_count_two_k5} with two free"
        f" five-cliques, {report.class_count_three_plus} with three or more"
    )
    out.append(f"  total certificate classes (all f): {len(report.classes)}")
    out.append("reference comparison:")
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        out.append(f"  [{status}] {c.name}: expected {_short(c.expected)},"
                   f" computed {_short(c.actual)}")
        if c.detail and not c.passed:
            out.append(f"         {c.detail}")
    out.append("three-plus pairs at s=5 (computed):")
    out.append(f"  {sorted(report.three_plus_pairs_s5)}")
    out.append("instances with nontrivial automorphism group (computed):")
    for key, order in report.nontrivial_aut.items():
        out.append(f"  {key}: order {order}")
    out.append("classes with more than one instance:")
    for cls in report.classes:
        if len(cls.members) > 1:
            names = ", ".join(map(str, cls.members))
            out.append(
                f"  class {cls.class_id} ({cls.free_clique_count} free"
                f" five-cliques, automorphism order {cls.aut_order}): {names}"
            )
    return "\n".join(out)


def _short(value) -> str:
    if isinstance(value, frozenset):
        return f"set of {len(value)}"
    if isinstance(value, dict):
        return f"map of {len(value)}"
    return str(value)
