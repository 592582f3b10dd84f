"""Checks of the program's outputs, run after timing.

Each check takes plain data (point counts, line lists, image tuples,
report rows) and returns a list of problems; an empty list means the
output is correct.  Proofs come from `oracle`, which shares no code with
the program.
"""

from __future__ import annotations

import random
from math import factorial

import oracle


def check_witness(images, lines_a, lines_b) -> list[str]:
    if not oracle.maps_lines_onto(images, lines_a, lines_b):
        return ["witness does not carry lines onto lines"]
    return []


def check_group(n, lines, order, elements, generators) -> list[str]:
    """Every element is a verified automorphism, the elements are distinct
    and as many as the order says, and the generators generate a group of
    that order."""
    problems = []
    if len(set(map(tuple, elements))) != len(elements):
        problems.append("repeated group element")
    if len(elements) != order:
        problems.append(f"order {order} but {len(elements)} elements")
    if tuple(range(n)) not in set(map(tuple, elements)):
        problems.append("identity missing from the group")
    bad = sum(1 for g in elements if not oracle.maps_lines_onto(g, lines, lines))
    if bad:
        problems.append(f"{bad} reported elements are not automorphisms")
    closure = oracle.group_closure_order(n, [tuple(g) for g in generators], order)
    if closure != order:
        problems.append(f"generators generate {closure} elements, order is {order}")
    return problems


def check_group_order(n, lines, order) -> list[str]:
    """The order against the oracle's exhaustive count."""
    counted = oracle.count_automorphisms(n, lines)
    if counted != order:
        return [f"order {order}, exhaustive count {counted}"]
    return []


def check_grassmannian_group(n, order, elements, induced) -> list[str]:
    problems = []
    if order != factorial(n):
        problems.append(f"|Aut G(2,{n})| = {order}, expected {factorial(n)}")
    missing = len(induced - set(map(tuple, elements)))
    if missing:
        problems.append(f"{missing} permutations of S_{n} missing from the group")
    return problems


def check_contains(elements, required, what) -> list[str]:
    missing = len(required - set(map(tuple, elements)))
    return [f"{missing} {what} missing from the group"] if missing else []


def check_free_cliques(lines, found, expected) -> list[str]:
    problems = []
    found_sets = {frozenset(c) for c in found}
    if len(found_sets) != len(found):
        problems.append("repeated free clique")
    if found_sets != expected:
        problems.append(f"{len(found_sets)} free cliques reported, expected the {len(expected)} known ones")
    for clique in found_sets:
        if not oracle.is_free_clique(lines, clique):
            problems.append(f"{sorted(clique)} is not a free clique")
    return problems


def check_same_certificates(name, certificates) -> list[str]:
    """One structure under different relabellings has one canonical form."""
    if len({tuple(map(tuple, c)) for c in certificates}) != 1:
        return [f"{name}: canonical form changes under relabelling"]
    return []


# ------------------------------------------------------------------- catalog


def _classes(rows) -> dict[int, list[tuple]]:
    out: dict[int, list[tuple]] = {}
    for f, s, i, _, _, cls in rows:
        out.setdefault(cls, []).append((f, s, i))
    return {c: sorted(keys) for c, keys in out.items()}


def check_catalog_table(rows, stored) -> list[str]:
    """The reported counts, orders and partition equal the stored table
    that regen.py derived with the oracle alone."""
    problems = []
    ours = {tuple(r[:3]): r[3:5] for r in stored}
    for r in rows:
        if list(r[3:5]) != list(ours.get(tuple(r[:3]), [])):
            problems.append(f"{tuple(r[:3])}: cliques/order {r[3:5]}, stored {ours.get(tuple(r[:3]))}")
    got = sorted(_classes(rows).values())
    want = sorted(_classes(stored).values())
    if got != want:
        problems.append(f"partition into {len(got)} classes differs from the stored {len(want)}")
    return problems


def check_catalog_proofs(rows, lines_of, seed, sample=60) -> list[str]:
    """Members are isomorphic to their class representative (witness
    found and verified by the oracle); a seeded sample of class pairs that
    agree on free-clique count and group order are non-isomorphic
    (exhaustive search); free-clique counts and group orders are recounted
    for every instance."""
    problems = []
    classes = _classes(rows)
    for members in classes.values():
        rep = members[0]
        for key in members[1:]:
            images = oracle.find_isomorphism(15, lines_of[rep], lines_of[key])
            if images is None or check_witness(images, lines_of[rep], lines_of[key]):
                problems.append(f"{key} is not isomorphic to its representative {rep}")
    info = {r[5]: tuple(r[3:5]) for r in rows}
    ids = sorted(classes)
    hard = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if info[a] == info[b]]
    rng = random.Random(f"{seed}/catalog/negatives")
    for a, b in rng.sample(hard, min(sample, len(hard))):
        ka, kb = classes[a][0], classes[b][-1]
        if oracle.find_isomorphism(15, lines_of[ka], lines_of[kb]) is not None:
            problems.append(f"classes of {ka} and {kb} are isomorphic")
    for f, s, i, cliques, order, _ in rows:
        lines = lines_of[f, s, i]
        if oracle.count_free_cliques(15, lines, 5) != cliques:
            problems.append(f"({f},{s},{i}): wrong free five-clique count {cliques}")
        if oracle.count_automorphisms(15, lines) != order:
            problems.append(f"({f},{s},{i}): wrong group order {order}")
    return problems


# ------------------------------------------------------------------- iso


def parse_witness(stdout: str):
    """Image list from `skewper iso` output ("  x -> y" per point)."""
    pairs = {}
    for line in stdout.splitlines()[1:]:
        left, _, right = line.partition("->")
        pairs[int(left)] = int(right)
    return [pairs.get(p, -1) for p in range(len(pairs))]


def check_iso_query(n_a, lines_a, n_b, lines_b, result) -> list[str]:
    """A positive answer carries a verified witness; a negative one is
    confirmed by the oracle's exhaustive search (which stops at once when
    its point colours differ)."""
    if result["exc"] is not None:
        return [f"raised {result['exc']}"]
    if result["rc"] == 0:
        return check_witness(parse_witness(result["stdout"]), lines_a, lines_b)
    if result["rc"] == 1 and result["stdout"].strip() == "not isomorphic":
        if n_a == n_b and oracle.find_isomorphism(n_a, lines_a, lines_b) is not None:
            return ["answered not isomorphic, but an isomorphism exists"]
        return []
    return [f"exit {result['rc']}: {result['stdout'][:80]!r} {result['stderr'][:80]!r}"]


def malformed_ok(result) -> bool:
    """The documented answer to a file naming an out-of-range point: exit
    1 with an error on stderr, and no exception."""
    return result["exc"] is None and result["rc"] == 1 and bool(result["stderr"].strip())
