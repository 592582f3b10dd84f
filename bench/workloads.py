"""Workload inputs, made the same way in a pass and in the checks.

The seed enters only through relabellings (a seeded shuffle of the point
ids of each structure) and through the samples the checks draw; which
structures and queries a workload holds is fixed.  Each round of a run
uses fresh relabellings, so no input reaches the program twice in one
process and the checks can compare canonical forms across rounds.
"""

from __future__ import annotations

import json
import random
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent

SYMMETRIC_NS = (5, 6, 7)
VERONESIAN_KS = tuple(range(4, 11))
HOST_NS = (8, 9, 10)
ISO_LARGE_KS = (5, 6, 7)
ISO_MALFORMED = 4

WORKLOADS = ("catalog", "symmetric", "rigid", "iso")


def catalog_rows() -> list[list[int]]:
    """The stored catalog table (see regen.py): per instance f, s, i, free
    five-clique count, group order and class number."""
    return json.loads((HERE / "catalog.json").read_text())["instances"]


def load_catalog() -> list[dict]:
    return [
        {"key": tuple(r[:3]), "cliques": r[3], "order": r[4], "cls": r[5]}
        for r in catalog_rows()
    ]


def catalog_classes(rows) -> list[list[tuple]]:
    classes: dict[int, list[tuple]] = {}
    for r in rows:
        classes.setdefault(r["cls"], []).append(r["key"])
    return [sorted(classes[c]) for c in sorted(classes)]


def hard_negative_class_pairs(rows) -> list[tuple[int, int]]:
    """All pairs of distinct classes that agree on free-clique count and
    group order, so neither invariant tells them apart."""
    info = {r["cls"]: (r["cliques"], r["order"]) for r in rows}
    ids = sorted(info)
    return [
        (a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if info[a] == info[b]
    ]


def shuffled(n: int, *tag) -> list[int]:
    """A seeded permutation of range(n); tag names seed, round and item."""
    images = list(range(n))
    random.Random("/".join(map(str, tag))).shuffle(images)
    return images


def relabel_lines(lines, images) -> list[tuple[int, int, int]]:
    return sorted(tuple(sorted(images[x] for x in L)) for L in lines)


def psts_text(n: int, lines) -> str:
    return f"psts {n} {len(lines)}\n" + "".join(
        f"{a} {b} {c}\n" for a, b, c in lines
    )


# ---------------------------------------------------------------- structures
# The structure lists hold (name, config) pairs in the program's own point
# order; `relabelled` then moves a config by the round's seeded permutation.


def symmetric_structures(sk):
    return [
        (f"G(2,{n})", sk.constructions.grassmannian(n)) for n in SYMMETRIC_NS
    ]


def host(sk, n):
    """The symmetry-skew perspective over the Grassmannian G(2,n)."""
    return sk.constructions.perspective(
        n, sk.skews.zeta(n), sk.constructions.grassmannian(n)
    )


def rigid_structures(sk):
    out = [(f"V({k})", sk.constructions.veronesian(k)) for k in VERONESIAN_KS]
    out += [(f"host({n})", host(sk, n).config) for n in HOST_NS]
    return out


def relabelled(sk, config, *tag):
    images = shuffled(config.num_points, *tag)
    lines = relabel_lines(config.lines, images)
    return sk.incidence.make_config(config.num_points, lines), images


# ---------------------------------------------------------------- iso queries


def iso_queries(rows) -> list[dict]:
    """The fixed query list of the iso workload.

    Kinds: "same" (two members of one catalog class), "hard" (members of
    two classes agreeing on free-clique count and group order), "large"
    (V(k) against a copy of itself, and V(k) against the symmetry-skew
    perspective with the same parameters) and "malformed" (a file whose
    line names an out-of-range point).
    """
    classes = catalog_classes(rows)
    queries = []
    for members in classes:
        if len(members) > 1:
            queries.append({"kind": "same", "a": members[0], "b": members[-1]})
    for a, b in hard_negative_class_pairs(rows)[::10]:
        queries.append({"kind": "hard", "a": classes[a][0], "b": classes[b][-1]})
    for k in ISO_LARGE_KS:
        queries.append({"kind": "large", "a": ("V", k), "b": ("V", k)})
        queries.append({"kind": "large", "a": ("V", k), "b": ("host", k)})
    for j in range(ISO_MALFORMED):
        members = classes[j]
        queries.append({"kind": "malformed", "a": members[0], "b": members[-1]})
    return queries


def iso_side(sk, ref):
    """The configuration a query side names, in the program's point order."""
    if ref[0] == "V":
        return sk.constructions.veronesian(ref[1])
    if ref[0] == "host":
        return host(sk, ref[1]).config
    return sk.classify.build_instance(sk.classify.InstanceKey(*ref)).config


def iso_inputs(sk, rows, seed, rnd):
    """Per query: both sides as (num_points, relabelled lines), and the
    psts text handed to the program.  The malformed side keeps its line
    count but one line names point num_points."""
    out = []
    for q_index, q in enumerate(iso_queries(rows)):
        sides = []
        for side in ("a", "b"):
            config = iso_side(sk, q[side])
            images = shuffled(config.num_points, seed, "iso", rnd, q_index, side)
            lines = relabel_lines(config.lines, images)
            text_lines = lines
            if q["kind"] == "malformed" and side == "a":
                a, b, _ = lines[0]
                text_lines = [(a, b, config.num_points)] + lines[1:]
            sides.append((config.num_points, lines, psts_text(config.num_points, text_lines)))
        out.append({**q, "sides": sides})
    return out


# ---------------------------------------------------------------- expectations


def grassmannian_induced(n, images, config_labels):
    """The images of every permutation of {1..n} acting on G(2,n), moved
    into the relabelled point ids."""
    index = {}
    for p, name in enumerate(config_labels):
        i, j = name.strip("{}").split(",")
        index[frozenset((int(i), int(j)))] = p
    out = set()
    for alpha in permutations(range(1, n + 1)):
        perm = [0] * len(images)
        for pair, p in index.items():
            i, j = pair
            q = index[frozenset((alpha[i - 1], alpha[j - 1]))]
            perm[images[p]] = images[q]
        out.add(tuple(perm))
    return out


def veronesian_letter_perms(config_labels, images):
    """The six automorphisms of V(k) that permute the letters a, b, c,
    in relabelled point ids."""
    triples = []
    for name in config_labels:
        triples.append(tuple(int(part.split("^")[1]) for part in name.split()))
    index = {t: p for p, t in enumerate(triples)}
    out = set()
    for sigma in permutations(range(3)):
        perm = [0] * len(images)
        for p, t in enumerate(triples):
            q = index[tuple(t[sigma[x]] for x in range(3))]
            perm[images[p]] = images[q]
        out.add(tuple(perm))
    return out


def host_free_cliques(persp, images):
    """The three free (n+1)-cliques of a symmetry-skew host: the rows
    {p, a_1..a_n} and {p, b_1..b_n}, and the star {a_n, b_n} plus every
    axial point whose pair contains n."""
    lab = persp.labeling
    n = persp.n
    rows = [
        {lab.center, *lab.a},
        {lab.center, *lab.b},
        {lab.a[n - 1], lab.b[n - 1], *(lab.c[u] for u in lab.c if n in u)},
    ]
    return {frozenset(images[x] for x in clique) for clique in rows}
