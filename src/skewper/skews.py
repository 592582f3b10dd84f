"""Skews: permutations of the 2-subsets of {1, ..., n}.

A skew is kept as its position tuple on ``all_pairs(n)`` (`Skew.point_map`),
so products and inverses index tuples.  It may be given by a pair map
(`Skew.from_map`), induced from a point permutation alpha
(written bar(alpha) here: {i,j} -> {alpha(i), alpha(j)}), or assembled from
a level sequence Phi = (phi_n, ..., phi_2) with phi_j a permutation of
{1, ..., j-1}; the assembled skew sends {i,j} -> {phi_j(i), j} for i < j,
so it permutes the pairs with a fixed maximum among themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Mapping

from .perms import Perm, _check_int_tuple, parse_cycles

Pair = tuple[int, int]


def make_pair(i: int, j: int) -> Pair:
    if i == j:
        raise ValueError(f"a pair needs two distinct elements, got {i} twice")
    return (i, j) if i < j else (j, i)


def all_pairs(n: int) -> tuple[Pair, ...]:
    return tuple(itertools.combinations(range(1, n + 1), 2))


@dataclass(frozen=True)
class Skew:
    """A bijection of the 2-subsets of {1, ..., n}, kept on positions in
    ``all_pairs(n)``: entry k of ``point_map`` is the position of the image
    of ``all_pairs(n)[k]``.  An axis's point k is that pair, so
    ``point_map`` moves the points of an axis as it stands.
    """

    n: int
    point_map: tuple[int, ...]

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"ground set size {self.n!r} is not an int")
        _check_int_tuple(self.point_map, "point map")
        size = comb(self.n, 2)
        if len(self.point_map) != size:
            raise ValueError(
                f"expected {size} images for n={self.n}, got {len(self.point_map)}"
            )
        if sorted(self.point_map) != list(range(size)):
            raise ValueError("images do not form a bijection of the pair set")

    @classmethod
    def from_map(cls, n: int, mapping: Mapping[Pair, Pair]) -> "Skew":
        """The skew sending each pair u to mapping[u]; an image that is not
        a pair of {1, ..., n} fails validation like a repeated one."""
        pairs = all_pairs(n)
        index = {u: k for k, u in enumerate(pairs)}
        return cls(n, tuple(index.get(mapping[u], -1) for u in pairs))

    @property
    def images(self) -> tuple[Pair, ...]:
        """The image of each pair, in the order of ``all_pairs(n)``."""
        pairs = all_pairs(self.n)
        return tuple(pairs[k] for k in self.point_map)

    def __call__(self, pair: Pair) -> Pair:
        pairs = all_pairs(self.n)
        return pairs[self.point_map[pairs.index(make_pair(*pair))]]

    def __mul__(self, other: "Skew") -> "Skew":
        """(s * t)(u) = s(t(u)): apply the right factor first."""
        if self.n != other.n:
            raise ValueError("cannot compose skews on different ground sets")
        return Skew(self.n, tuple(self.point_map[k] for k in other.point_map))

    def inverse(self) -> "Skew":
        inverse = [0] * len(self.point_map)
        for k, image in enumerate(self.point_map):
            inverse[image] = k
        return Skew(self.n, tuple(inverse))

    def is_identity(self) -> bool:
        return self.point_map == tuple(range(len(self.point_map)))

    def order(self) -> int:
        power, k = self, 1
        while not power.is_identity():
            power, k = power * self, k + 1
        return k


def zeta(n: int) -> Skew:
    """The symmetry skew {i,j} -> {j-i, j} (i < j); an involution."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return Skew.from_map(n, {(i, j): make_pair(j - i, j) for i, j in all_pairs(n)})


def bar_alpha(alpha: Perm) -> Skew:
    """The pair permutation induced by a point permutation."""
    return Skew.from_map(
        alpha.n, {(i, j): make_pair(alpha(i), alpha(j)) for i, j in all_pairs(alpha.n)}
    )


@dataclass(frozen=True)
class PhiSequence:
    """Level maps (phi_n, ..., phi_2), phi_j a permutation of {1, ..., j-1}."""

    n: int
    phis: tuple[Perm, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if len(self.phis) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} level maps (levels {self.n}..2), got {len(self.phis)}"
            )
        for idx, phi in enumerate(self.phis):
            j = self.n - idx
            if phi.n != j - 1:
                raise ValueError(
                    f"phi_{j} must permute {{1,..,{j - 1}}}, got a permutation of degree {phi.n}"
                )

    def level(self, j: int) -> Perm:
        if not 2 <= j <= self.n:
            raise ValueError(f"level {j} out of range 2..{self.n}")
        return self.phis[self.n - j]


def phi_sequence(n: int, levels: Mapping[int, Perm]) -> PhiSequence:
    """Build a level sequence, defaulting unstated levels to the identity."""
    phis = tuple(levels.get(j, Perm.identity(j - 1)) for j in range(n, 1, -1))
    return PhiSequence(n=n, phis=phis)


def skew_from_phi(phi: PhiSequence) -> Skew:
    mapping = {}
    for i, j in all_pairs(phi.n):
        mapping[(i, j)] = make_pair(phi.level(j)(i), j)
    return Skew.from_map(phi.n, mapping)


def parse_phi_text(text: str) -> PhiSequence:
    """Parse "[phi_n,...,phi_3]" where each entry is in cycle notation.

    The list runs from the top level down to level 3 (level 2 is forced to
    the identity), so the ground-set size is the entry count plus 2.  An
    identity entry is written ``()`` or ``id``, never left empty.
    """
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"expected a bracketed list, got {text!r}")
    body = stripped[1:-1].strip()
    items: list[str] = []
    if body:
        depth, start = 0, 0
        for pos, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ValueError(f"unbalanced parentheses in {text!r}")
            elif ch == "," and depth == 0:
                items.append(body[start:pos])
                start = pos + 1
        if depth != 0:
            raise ValueError(f"unbalanced parentheses in {text!r}")
        items.append(body[start:])
    n = len(items) + 2
    levels = {}
    for slot, item in enumerate(map(str.strip, items)):
        if not item:
            raise ValueError(f"empty entry in {text!r}")
        j = n - slot
        levels[j] = parse_cycles(item, j - 1)
    return phi_sequence(n, levels)
