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
from math import comb, isqrt
from typing import Iterable, Mapping, Optional, Sequence, Union

Line = tuple[int, int, int]


@dataclass(frozen=True)
class Config:
    """An incidence structure with 3-element lines.

    ``lines`` is a strictly increasing tuple of increasing 3-tuples of
    int point ids, and ``labels``, when present, is a tuple of distinct
    str names, positionally by point id.  Building one that breaks this or
    the partial-Steiner axiom raises ValueError naming every violation.
    The derived views (the pair view ``pairs_by_point``, the third-point
    index ``third``, the per-point ``triangles_and_pasch`` counts and the
    binomial witness ``binomial_n``) are computed on first use and kept on
    the instance; they are not fields, so equality, hashing and every
    emitter see only the three fields.
    """

    num_points: int
    lines: tuple[Line, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        """A valid configuration passes in one sweep: the point count is a
        non-negative int (``bool`` is not an int here), the lines are a
        tuple of int triples, each increasing and in range, the list is
        strictly increasing, the lines' pairs are all distinct (two lines
        sharing a pair would repeat one), and the labels are a tuple of
        distinct str, one per point.  Only a configuration that fails it is
        walked line by line for the messages."""
        n, lines, labels = self.num_points, self.lines, self.labels
        if not (
            type(n) is int
            and n >= 0
            and type(lines) is tuple
            and all(
                type(L) is tuple and len(L) == 3 and type(L[0]) is type(L[1]) is type(L[2]) is int
                and 0 <= L[0] < L[1] < L[2] < n
                for L in lines
            )
            and all(L < M for L, M in zip(lines, lines[1:]))
            and len({p for x, y, z in lines for p in ((x, y), (x, z), (y, z))}) == 3 * len(lines)
            and (
                labels is None
                or type(labels) is tuple and set(map(type, labels)) <= {str}
                and len(labels) == len(set(labels)) == n
            )
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

    @cached_property
    def binomial_n(self) -> Optional[int]:
        """The n with C(n,2) points, C(n,3) lines and every point on n-2
        lines, or None; n is at least 3."""
        n = (1 + isqrt(1 + 8 * self.num_points)) // 2
        counts = n >= 3 and comb(n, 2) == self.num_points and comb(n, 3) == len(self.lines)
        if counts and all(len(pairs) == n - 2 for pairs in self.pairs_by_point):
            return n
        return None

    def label_of(self, point: int) -> str:
        if self.labels is not None:
            return self.labels[point]
        return str(point)


def _violations(config: Config) -> list[str]:
    """Every way the point count, lines and labels break the `Config`
    rules, in order: the point count, the types of the line list and its
    lines, repeated lines, each line's shape, range and place in the list,
    pairs shared by two lines, then the labels.  A line that is not a tuple
    of int is named once and left out of the later checks, and no range is
    checked against a point count that is not an int."""
    n, lines, labels = config.num_points, config.lines, config.labels
    violations: list[str] = []
    if type(n) is not int:
        violations.append(f"point count {n!r} is not an int")
    elif n < 0:
        violations.append(f"point count {n} is negative")
    if type(lines) is not tuple:
        violations.append(f"line list has type {type(lines).__name__}, not tuple")
    typed = []
    for L in lines if isinstance(lines, (tuple, list)) else ():
        if type(L) is not tuple:
            violations.append(f"line {L!r} has type {type(L).__name__}, not tuple")
            continue
        wrong = [x for x in L if type(x) is not int]
        if wrong:
            violations.append(f"line {L} holds {wrong[0]!r}, which is not an int")
        else:
            typed.append(L)
    lines = typed
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
        for x in L if type(n) is int else ():
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
    if labels is not None and type(labels) is not tuple:
        violations.append(f"labels have type {type(labels).__name__}, not tuple")
    elif labels is not None:
        wrong = [x for x in labels if type(x) is not str]
        violations += [f"label {x!r} is not a str" for x in wrong]
        if len(labels) != n:
            violations.append(f"label count {len(labels)} differs from point count {n}")
        if not wrong and len(set(labels)) != len(labels):
            violations.append("labels are not pairwise distinct")
    return violations


def make_config(
    num_points: int,
    lines: Iterable[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
) -> Config:
    """Build a Config from lines in any order, sorting each line and the
    list; raises ValueError as `Config` does, on a repeated line too."""
    normalized = sorted(tuple(sorted(L)) for L in lines)
    lab = tuple(labels) if labels is not None else None
    return Config(num_points=num_points, lines=tuple(normalized), labels=lab)


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
