"""Permutations of {1, ..., n} with cycle-notation parsing and formatting.

A :class:`Perm` is immutable and hashable; composition is written ``p * q``
and means "apply q first, then p".  Cycle notation follows the usual
convention ``(1,2,3)(4)``; fixed points may be written or omitted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n}, stored as the one-line tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        """A tuple of int (``bool`` is not an int here) permuting {1..n}."""
        images = self.images
        _check_int_tuple(images, "image list")
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of {{1..{n}}}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_one_line(cls, images: Sequence[int]) -> "Perm":
        return cls(tuple(images))

    @classmethod
    def transposition(cls, i: int, j: int, n: int) -> "Perm":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different degrees")
        return Perm(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "Perm":
        images = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return Perm(tuple(images))

    def conjugate(self, a: "Perm") -> "Perm":
        """Return a * self * a^-1."""
        return a * self * a.inverse()

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """All cycles (including fixed points), each starting at its minimum,
        ordered by that minimum."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = self(start)
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self(k)
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles()))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self(i) == i)

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def __str__(self) -> str:
        return format_cycles(self)


def _check_int_tuple(entries, what: str) -> None:
    """Raise ValueError unless `entries` is a tuple whose entries all have
    type exactly int, naming, as `what`, the container's wrong type or its
    first entry that is not an int."""
    if type(entries) is not tuple:
        raise ValueError(f"{what} has type {type(entries).__name__}, not tuple")
    if not set(map(type, entries)) <= {int}:
        wrong = next(x for x in entries if type(x) is not int)
        raise ValueError(f"{what} {entries} holds {wrong!r}, which is not an int")


def format_cycles(p: Perm) -> str:
    """Cycle notation for ``p``, fixed points omitted; ``()`` is the identity."""
    cycles = [c for c in p.cycles() if len(c) > 1]
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(e) for e in c) + ")" for c in cycles)


def parse_cycles(text: str, n: int | None = None) -> Perm:
    """Parse cycle notation such as ``(1,2,3)(4)``.

    Fixed points may be omitted.  ``id``, ``()`` and the empty string denote
    the identity.  When ``n`` is omitted it is inferred from the largest
    element mentioned.  Elements are written in the ASCII digits 0-9.
    """
    text = text.strip()
    if text == "id":
        text = ""
    cycles: list[list[int]] = []
    depth = 0
    buf = ""  # the text inside the open parenthesis
    for ch in text:
        if ch == "(":
            if depth != 0:
                raise ValueError(f"nested parenthesis in {text!r}")
            depth, buf = 1, ""
        elif ch == ")":
            if depth != 1:
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            tokens = [tok.strip() for tok in buf.split(",")]
            if not tokens[-1]:
                tokens.pop()  # "()" or a trailing comma
            if not all(tok.isdigit() for tok in tokens):
                raise ValueError(f"malformed cycle ({buf}) in {text!r}")
            cycles.append([int(tok) for tok in tokens])
            depth = 0
        elif ch not in "0123456789, ":
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
        elif depth == 1:
            buf += ch
        elif ch not in ", ":
            raise ValueError(f"digit outside parenthesis in {text!r}")
    if depth != 0:
        raise ValueError(f"unbalanced parenthesis in {text!r}")
    mentioned = [e for cyc in cycles for e in cyc]
    if len(set(mentioned)) != len(mentioned):
        raise ValueError(f"element repeated in {text!r}")
    if any(e < 1 for e in mentioned):
        raise ValueError(f"elements must be positive in {text!r}")
    if n is None and not mentioned:
        raise ValueError("cannot infer the degree of an identity permutation")
    degree = n if n is not None else max(mentioned)
    if any(e > degree for e in mentioned):
        raise ValueError(f"element out of range 1..{degree} in {text!r}")
    images = list(range(1, degree + 1))
    for cyc in cycles:
        for pos, e in enumerate(cyc):
            images[e - 1] = cyc[(pos + 1) % len(cyc)]
    return Perm(tuple(images))


def symmetric_group(n: int) -> Iterator[Perm]:
    """All n! permutations of {1..n}, in lexicographic one-line order."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Perm(images)
