"""Skews: permutations of the 2-subsets of {1, ..., n}.

A skew may be given directly, induced from a point permutation alpha
(written bar(alpha) here: {i,j} -> {alpha(i), alpha(j)}), or assembled from
a level sequence Phi = (phi_n, ..., phi_2) with phi_j a permutation of
{1, ..., j-1}; the assembled skew sends {i,j} -> {phi_j(i), j} for i < j,
so it permutes the pairs with a fixed maximum among themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Union

from .perms import Perm, conjugator, format_cycles, parse_cycles

Pair = tuple[int, int]


def make_pair(i: int, j: int) -> Pair:
    if i == j:
        raise ValueError(f"a pair needs two distinct elements, got {i} twice")
    return (i, j) if i < j else (j, i)


def all_pairs(n: int) -> tuple[Pair, ...]:
    return tuple(itertools.combinations(range(1, n + 1), 2))


@dataclass(frozen=True)
class Skew:
    """A bijection of the 2-subsets of {1, ..., n}.

    ``images`` lists the image of each pair in the lexicographic order of
    ``all_pairs(n)``.
    """

    n: int
    images: tuple[Pair, ...]

    def __post_init__(self):
        pairs = all_pairs(self.n)
        if len(self.images) != len(pairs):
            raise ValueError(
                f"expected {len(pairs)} images for n={self.n}, got {len(self.images)}"
            )
        if sorted(self.images) != list(pairs):
            raise ValueError("images do not form a bijection of the pair set")

    @classmethod
    def from_map(cls, n: int, mapping: Mapping[Pair, Pair]) -> "Skew":
        return cls(n, tuple(mapping[u] for u in all_pairs(n)))

    @cached_property
    def _table(self) -> dict[Pair, Pair]:
        return dict(zip(all_pairs(self.n), self.images))

    def __call__(self, pair: Pair) -> Pair:
        return self._table[make_pair(*pair)]

    @classmethod
    def _unchecked(cls, n: int, images: tuple[Pair, ...]) -> "Skew":
        """A skew from images known to form a bijection, not re-validated."""
        skew = object.__new__(cls)
        object.__setattr__(skew, "n", n)
        object.__setattr__(skew, "images", images)
        return skew

    def __mul__(self, other: "Skew") -> "Skew":
        """(s * t)(u) = s(t(u)): apply the right factor first.

        Both factors were validated when built and the composite of two
        bijections is one, so the product is not validated again; the
        images of t are normalized pairs and index s's table directly."""
        if self.n != other.n:
            raise ValueError("cannot compose skews on different ground sets")
        table = self._table
        return Skew._unchecked(self.n, tuple(table[v] for v in other.images))

    def inverse(self) -> "Skew":
        """The inverse bijection, not validated again (as for a product)."""
        pairs = all_pairs(self.n)
        inv = dict(zip(self.images, pairs))
        return Skew._unchecked(self.n, tuple(inv[u] for u in pairs))

    def is_identity(self) -> bool:
        return self.images == all_pairs(self.n)

    def order(self) -> int:
        power, k = self, 1
        while not power.is_identity():
            power, k = power * self, k + 1
        return k


def identity_skew(n: int) -> Skew:
    return Skew(n, all_pairs(n))


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


def format_phi_text(phi: PhiSequence) -> str:
    return "[" + ",".join(format_cycles(phi.level(j)) for j in range(phi.n, 2, -1)) + "]"
