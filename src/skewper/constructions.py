"""Configuration builders.

Four families on top of the incidence core:

- the pair structure of an n-set: points are 2-subsets of {1..n}, lines are
  the pair-triples inside each 3-subset;
- weight-k multiset structures over a 3-letter alphabet: points are
  exponent triples summing to k, lines extend a base multiset by a single
  letter power;
- skew perspectives: two complete n-point rows a_i / b_i joined through a
  center p and an axial configuration on the 2-subsets, with a skew
  twisting the b-side;
- the fifteen 6-point, 4-line labellings on the 2-subsets of a 4-set,
  parameterized by a switch s in {5,6} and a non-derangement mu of S4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Mapping

from .incidence import Config, make_config, moved_lines
from .perms import Perm, parse_cycles
from .skews import Pair, Skew, all_pairs, make_pair

Multiset3 = tuple[int, int, int]


def pair_label(u: Pair) -> str:
    return "{%d,%d}" % u


def multiset_label(m: Multiset3) -> str:
    return "a^%d b^%d c^%d" % tuple(m)


def axis_config(n: int, pair_lines: Iterable[Iterable[Pair]]) -> Config:
    """A configuration on the 2-subsets of {1..n} in canonical point order:
    point k is the pair ``all_pairs(n)[k]``, labeled by `pair_label`."""
    pairs = all_pairs(n)
    index = {u: i for i, u in enumerate(pairs)}
    lines = [tuple(sorted(index[make_pair(*u)] for u in L)) for L in pair_lines]
    return make_config(len(pairs), lines, tuple(pair_label(u) for u in pairs))


def grassmannian(n: int) -> Config:
    """Points: 2-subsets of {1..n}; lines: the three 2-subsets of each
    3-subset."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return axis_config(
        n,
        (
            tuple(itertools.combinations(y, 2))
            for y in itertools.combinations(range(1, n + 1), 3)
        ),
    )


def _weight_triples(k: int) -> list[Multiset3]:
    return sorted(
        (x, y, k - x - y) for x in range(k + 1) for y in range(k + 1 - x)
    )


def veronesian(k: int) -> Config:
    """Points: 3-letter multisets of weight k; lines: {e a^s, e b^s, e c^s}
    for every base e and power s >= 1."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    points = _weight_triples(k)
    index = {m: i for i, m in enumerate(points)}
    lines = []
    for s in range(1, k + 1):
        for e in _weight_triples(k - s):
            lines.append(
                (
                    index[(e[0] + s, e[1], e[2])],
                    index[(e[0], e[1] + s, e[2])],
                    index[(e[0], e[1], e[2] + s)],
                )
            )
    return make_config(len(points), lines, tuple(multiset_label(m) for m in points))


def _triple_to_pair(m: Multiset3) -> Pair:
    x, y, z = m
    return (y + 1, y + z + 2)


def veronesian_axis(k: int) -> Config:
    """The weight-(k-2) multiset structure relabeled onto the 2-subsets of
    {1..k} via (x,y,z) -> {y+1, y+z+2}; suitable as a perspective axis."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    v = veronesian(k - 2)
    triples = _weight_triples(k - 2)  # the point order of `veronesian`
    return axis_config(
        k,
        (tuple(_triple_to_pair(triples[x]) for x in L) for L in v.lines),
    )


@dataclass(frozen=True)
class PerspectiveLabeling:
    """Roles of the points of a perspective, a function of n alone: rows
    a_1..a_n and b_1..b_n are points 0..n-1 and n..2n-1, the center p is
    2n, and the axial point c_u over ``all_pairs(n)[k]`` is 2n + 1 + k."""

    n: int

    @property
    def a(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(range(self.n, 2 * self.n))

    @property
    def center(self) -> int:
        return 2 * self.n

    @property
    def c_offset(self) -> int:
        """The axial point over ``all_pairs(n)[0]``; the one over
        ``all_pairs(n)[k]`` is c_offset + k."""
        return 2 * self.n + 1

    @cached_property
    def c(self) -> Mapping[Pair, int]:
        return {u: self.c_offset + k for k, u in enumerate(all_pairs(self.n))}


@dataclass(frozen=True)
class Perspective:
    """A built perspective: the bare configuration plus its labeling and
    the skew used.  The axis is not kept: its lines are the axial lines
    of the configuration, as `perspective_from_config` reads them."""

    config: Config
    labeling: PerspectiveLabeling
    skew: Skew

    @property
    def n(self) -> int:
        return self.labeling.n


@lru_cache(maxsize=4)
def _role_labels(n: int) -> tuple[str, ...]:
    """The point names `perspective` writes, in its point order: a1..an,
    b1..bn, p, then c{i,j} over ``all_pairs(n)``.  Cached, so every
    perspective of one n shares one tuple."""
    return (
        tuple(f"a{i}" for i in range(1, n + 1))
        + tuple(f"b{i}" for i in range(1, n + 1))
        + ("p",)
        + tuple("c" + pair_label(u) for u in all_pairs(n))
    )


def _check_axis_labels(n: int, axis: Config) -> None:
    """Enforce the axis rule: point k is ``all_pairs(n)[k]``, as
    `axis_config` builds it, so a point's pair is its position.  The
    labels are read against the c names of the shared `_role_labels(n)`."""
    names = _role_labels(n)[2 * n + 1 :]
    if axis.labels is None or tuple("c" + x for x in axis.labels) != names:
        raise ValueError(
            f"axis must have its {len(names)} points labeled by the 2-subsets of"
            f" {{1..{n}}} in the order of all_pairs({n})"
        )


def perspective(n: int, sigma: Skew, axis: Config) -> Perspective:
    """Join two complete rows through a center over an axial configuration.

    Points: a_1..a_n, b_1..b_n, p, c_u (u a 2-subset of {1..n}).  Lines:
    {p, a_i, b_i}; {a_i, a_j, c_{i,j}}; {b_i, b_j, c_{sigma^{-1}({i,j})}};
    and one line {c_u, c_v, c_w} per axis line.  The axis's point k must
    be ``all_pairs(n)[k]`` (`_check_axis_labels`); any line set passes,
    binomial or not (an empty axis too), as the `Config` built checks
    every line.

    The lines are built on positions in ``all_pairs(n)``: the b-line over
    the pair at position sigma.point_map[k] meets c at position k, read
    straight off `Skew.point_map` with no inverse built, and an axis line
    is shifted by the labeling's c offset.  Every triple comes out
    increasing and distinct, so the line list is only sorted.
    """
    if sigma.n != n:
        raise ValueError(f"skew acts on a {sigma.n}-element ground set, expected {n}")
    _check_axis_labels(n, axis)
    pairs = all_pairs(n)
    labeling = PerspectiveLabeling(n)
    a, b, center, offset = labeling.a, labeling.b, labeling.center, labeling.c_offset
    lines = [(a[i], b[i], center) for i in range(n)]
    for k, (i, j) in enumerate(pairs):
        lines.append((a[i - 1], a[j - 1], offset + k))
    for k, image in enumerate(sigma.point_map):
        i, j = pairs[image]
        lines.append((b[i - 1], b[j - 1], offset + k))
    lines += [(offset + x, offset + y, offset + z) for x, y, z in axis.lines]
    config = Config(offset + len(pairs), tuple(sorted(lines)), _role_labels(n))
    return Perspective(config=config, labeling=labeling, skew=sigma)


@dataclass(frozen=True)
class VeblenLabel:
    """Switch s in {5,6} plus a permutation mu of {1,2,3,4} with a fixed
    point.  `veblen` anchors the labelling at mu's largest fixed point;
    any fixed point gives the same lines."""

    s: int
    mu: Perm

    def __post_init__(self):
        if not self.mu.fixed_points():
            raise ValueError("mu has no fixed point")
        if type(self.s) is not int or self.s not in (5, 6):
            raise ValueError(f"s must be 5 or 6, got {self.s}")
        if self.mu.n != 4:
            raise ValueError("mu must permute {1,2,3,4}")


def veblen_label(s: int, mu: Perm) -> VeblenLabel:
    """The label of switch s and permutation mu; the benchmark traces label
    building under this name."""
    return VeblenLabel(s=s, mu=mu)


def parse_veblen_text(text: str) -> VeblenLabel:
    """Parse "v5:<cycles>" or "v6:<cycles>"."""
    head, sep, tail = text.partition(":")
    if not sep or head not in ("v5", "v6"):
        raise ValueError(f"expected 'v5:<cycles>' or 'v6:<cycles>', got {text!r}")
    return veblen_label(int(head[1]), parse_cycles(tail, 4))


def veblen(label: VeblenLabel) -> Config:
    """Materialize the 6-point, 4-line labelling on the 2-subsets of a 4-set.

    With i0 the largest fixed point of mu: for s=5 the lines are the
    three 2-subsets avoiding i0 plus, for each k != i0, the line
    {{i,i0}, {j,i0}, w} where {i,j} is the complement of {i0,k} and
    w is the complement of {i0,mu(k)}; for s=6 they are the three
    2-subsets through i0 plus, for each k != i0, the line
    {{i,k}, {j,k}, {mu(k),i0}}.
    """
    s, mu, i0 = label.s, label.mu, max(label.mu.fixed_points())
    rest = [x for x in range(1, 5) if x != i0]
    lines: list[tuple[Pair, ...]] = []
    if s == 5:
        lines.append(tuple(itertools.combinations(rest, 2)))
        for k in rest:
            i, j = sorted(set(rest) - {k})
            w = tuple(sorted(set(rest) - {mu(k)}))
            lines.append((make_pair(i, i0), make_pair(j, i0), w))
    else:
        lines.append(tuple(make_pair(i, i0) for i in rest))
        for k in rest:
            i, j = sorted(set(rest) - {k})
            lines.append((make_pair(i, k), make_pair(j, k), make_pair(mu(k), i0)))
    return axis_config(4, lines)


def perspective_from_config(config: Config) -> Perspective:
    """Read a labeled perspective onto the layout `perspective` builds.

    The labels must be exactly the role names `perspective` writes for the
    n whose point count 2n + 1 + C(n, 2) is the file's, matched as whole
    names.  The skew is read off the b-side lines and
    the axis off the axial lines; the result is the rebuilt perspective, in
    `perspective`'s point ids.  Raises ValueError unless the lines are
    exactly its lines.
    """
    n = 0
    while 2 * n + 1 + comb(n, 2) < config.num_points:
        n += 1
    # the names are built only for a point count that n gives exactly
    if (
        2 * n + 1 + comb(n, 2) != config.num_points
        or config.labels is None
        or sorted(config.labels) != sorted(names := _role_labels(n))
    ):
        raise ValueError(
            "point labels must be exactly the role names a1..an, b1..bn, p and"
            " c{i,j} of a perspective"
        )
    role = {name: i for i, name in enumerate(names)}
    to_role = [role[name] for name in config.labels]
    lines = moved_lines(config.lines, to_role)
    pairs = all_pairs(n)
    axial = PerspectiveLabeling(n).c_offset
    # a b-side line {b_i, b_j, c_k} of `perspective` says sigma(pairs[k]) = {i, j}
    sigma_map = {
        pairs[z - axial]: (x - n + 1, y - n + 1)
        for x, y, z in lines
        if n <= x < y < 2 * n and z >= axial
    }
    if len(sigma_map) != len(pairs):
        raise ValueError("b-side lines do not determine a skew")
    axis = axis_config(
        n, ([pairs[x - axial] for x in L] for L in lines if L[0] >= axial)
    )
    rebuilt = perspective(n, Skew.from_map(n, sigma_map), axis)
    if rebuilt.config.lines != lines:
        raise ValueError("labeled lines do not match a perspective construction")
    return rebuilt
