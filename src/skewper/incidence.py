"""Partial Steiner triple systems with 3-element lines.

A configuration is a finite set of points {0, ..., num_points - 1} together
with a family of 3-element lines such that any two distinct lines share at
most one point.  Points may optionally carry string labels.  A `Config`
checks these axioms when it is built, so every `Config` that exists is
one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Mapping, Optional, Sequence, Union

Line = tuple[int, int, int]


@dataclass(frozen=True)
class Config:
    """An incidence structure with 3-element lines.

    ``lines`` is a strictly increasing tuple of increasing 3-tuples of
    point ids, and ``labels``, when present, maps point id -> distinct name
    positionally.  Building one that breaks this or the partial-Steiner
    axiom raises ValueError naming every violation.  The derived views
    (the pair view ``pairs_by_point``, the third-point index ``third`` and
    the per-point ``triangles_and_pasch`` counts) are computed on first
    use and kept on the instance; they are not fields, so equality,
    hashing and every emitter see only the three fields.
    """

    num_points: int
    lines: tuple[Line, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        """A valid configuration passes in one sweep: every line is an
        increasing triple in range, the list is strictly increasing, and
        the lines' pairs are all distinct (two lines sharing a pair would
        repeat one).  Only a configuration that fails it is walked line by
        line for the messages."""
        n, lines, labels = self.num_points, self.lines, self.labels
        if not (
            all(len(L) == 3 and 0 <= L[0] < L[1] < L[2] < n for L in lines)
            and all(L < M for L, M in zip(lines, lines[1:]))
            and len({p for x, y, z in lines for p in ((x, y), (x, z), (y, z))}) == 3 * len(lines)
            and (labels is None or len(labels) == len(set(labels)) == n)
        ):
            raise ValueError("invalid configuration: " + "; ".join(_violations(self)))

    @cached_property
    def pairs_by_point(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each point p, the other two points of each line through p,
        in line order."""
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(self.num_points)]
        for x, y, z in self.lines:
            pairs[x].append((y, z))
            pairs[y].append((x, z))
            pairs[z].append((x, y))
        return tuple(map(tuple, pairs))

    @cached_property
    def third(self) -> tuple[dict[int, int], ...]:
        """third[x][y]: the third point of the line through x and y, for
        every collinear pair in both orders."""
        third: list[dict[int, int]] = [{} for _ in range(self.num_points)]
        for x, y, z in self.lines:
            third[x][y] = third[y][x] = z
            third[x][z] = third[z][x] = y
            third[y][z] = third[z][y] = x
        return tuple(third)

    @cached_property
    def triangles_and_pasch(self) -> tuple[tuple[int, int], ...]:
        """The triangles and Pasch configurations (four lines on six
        points, every point on two of them) through each point.

        Over each pair of lines {p, a, b} and {p, c, d}: a collinear cross
        pair such as (a, c) closes a triangle, and join(a, c) == join(b, d)
        or join(a, d) == join(b, c) closes a Pasch configuration."""
        third = self.third
        counts = []
        for pairs in third:
            # one row per line {p, a, b}, a < b, read off p's own table: a,
            # b and their third-point tables; a lookup gives -1 for a pair
            # that is not collinear
            rows = [(a, b, third[a], third[b]) for a, b in pairs.items() if a < b]
            triangles = pasch = 0
            for (_, _, ta, tb), (c, d, _, _) in itertools.combinations(rows, 2):
                ac, bd = ta.get(c, -1), tb.get(d, -1)
                ad, bc = ta.get(d, -1), tb.get(c, -1)
                triangles += (ac >= 0) + (bd >= 0) + (ad >= 0) + (bc >= 0)
                pasch += (ac == bd >= 0) + (ad == bc >= 0)
            counts.append((triangles, pasch))
        return tuple(counts)

    def label_of(self, point: int) -> str:
        if self.labels is not None:
            return self.labels[point]
        return str(point)


def _violations(config: Config) -> list[str]:
    """Every way the lines and labels break the `Config` rules, in order:
    repeated lines, each line's shape, range and place in the list, pairs
    shared by two lines, then the labels."""
    n, lines = config.num_points, config.lines
    violations: list[str] = []
    seen_lines: set[frozenset[int]] = set()
    for L in lines:
        if frozenset(L) in seen_lines:
            violations.append(f"line list repeats line {L}")
        seen_lines.add(frozenset(L))
    for L, before in zip(lines, ((), *lines)):
        if len(L) != 3 or len(set(L)) != 3:
            violations.append(f"line {L} does not consist of 3 distinct points")
        elif not L[0] < L[1] < L[2]:
            violations.append(f"line {L} is not an increasing triple")
        for x in L:
            if not (0 <= x < n):
                violations.append(f"line {L} uses point {x} outside 0..{n - 1}")
        if before > L:
            violations.append(f"lines {before} and {L} are out of order")
    seen: dict[tuple[int, int], Line] = {}
    for L in lines:
        if len(set(L)) != 3:
            continue
        for pair in itertools.combinations(sorted(L), 2):
            if pair in seen and seen[pair] != L:
                violations.append(f"lines {seen[pair]} and {L} share 2 points {pair}")
            else:
                seen[pair] = L
    if config.labels is not None:
        if len(config.labels) != n:
            violations.append(f"label count {len(config.labels)} differs from point count {n}")
        if len(set(config.labels)) != len(config.labels):
            violations.append("labels are not pairwise distinct")
    return violations


@dataclass(frozen=True)
class ConfigParams:
    """Numeric invariants: point/line counts, point ranks, and the witness
    n when the counts match (C(n,2), C(n,3)) with all ranks n-2."""

    nu: int
    rank_multiset: tuple[int, ...]
    b: int
    binomial_n: Optional[int]


def make_config(
    num_points: int,
    lines: Iterable[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
) -> Config:
    """Build a Config from lines in any order, sorting each line and the
    list and dropping repeats; raises ValueError as `Config` does."""
    normalized = sorted({tuple(sorted(L)) for L in lines})
    lab = tuple(labels) if labels is not None else None
    return Config(num_points=num_points, lines=tuple(normalized), labels=lab)


def parameters(config: Config) -> ConfigParams:
    """Compute counts, ranks and the binomial witness n; a `Config` is
    valid by construction, so there is nothing to reject."""
    rank = [len(pairs) for pairs in config.pairs_by_point]
    nu, b = config.num_points, len(config.lines)
    binomial_n: Optional[int] = None
    for n in range(3, nu + 3):
        if comb(n, 2) == nu and comb(n, 3) == b and all(r == n - 2 for r in rank):
            binomial_n = n
            break
    return ConfigParams(
        nu=nu,
        rank_multiset=tuple(sorted(rank)),
        b=b,
        binomial_n=binomial_n,
    )


def join(config: Config, x: int, y: int) -> Optional[int]:
    """The third point of the line through x and y, or None if not collinear.

    join(c, x, x) == x by convention.
    """
    return x if x == y else config.third[x].get(y)


def is_isomorphism(
    c1: Config, c2: Config, f: Union[Sequence[int], Mapping[int, int]]
) -> bool:
    """Whether f, indexed by the points of c1, is a bijection onto the
    points of c2 carrying the lines of c1 exactly onto those of c2."""
    n = c1.num_points
    if n != c2.num_points or len(c1.lines) != len(c2.lines) or len(f) != n:
        return False
    try:
        images = [f[x] for x in range(n)]
    except KeyError:
        return False
    if sorted(images) != list(range(n)):
        return False
    # a hit means the image triple is a line of c2
    third2 = c2.third
    return all(third2[images[x]].get(images[y]) == images[z] for x, y, z in c1.lines)


def moved_lines(
    lines: Iterable[Sequence[int]], images: Union[Sequence[int], Mapping[int, int]]
) -> tuple[Line, ...]:
    """The lines with each point x replaced by images[x], in `Config` line
    order: every line sorted, then the list sorted."""
    return tuple(sorted(tuple(sorted(images[x] for x in L)) for L in lines))


def relabel(config: Config, f: Mapping[int, int]) -> Config:
    """Apply a point bijection f to a configuration, transporting labels."""
    if sorted(f.keys()) != list(range(config.num_points)) or sorted(
        f.values()
    ) != list(range(config.num_points)):
        raise ValueError("relabeling map is not a bijection on the point set")
    labels = None
    if config.labels is not None:
        new_labels = [""] * config.num_points
        for old, name in enumerate(config.labels):
            new_labels[f[old]] = name
        labels = tuple(new_labels)
    return Config(
        num_points=config.num_points,
        lines=moved_lines(config.lines, f),
        labels=labels,
    )
