"""Regenerate catalog.json, the stored table the catalog and iso checks
read, from the bench's own search alone.

For each of the 240 catalog instances it records the free five-clique
count (brute force over 5-subsets), the group order (exhaustive count of
automorphisms) and the class number (instances are compared by an
exhaustive isomorphism search within groups that agree on those counts
and on point colours).  The program contributes only the instances.

    python3 bench/regen.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import skewper  # noqa: E402


def catalog_table() -> list[list[int]]:
    rows = []
    reps: dict[tuple, list[tuple[int, list]]] = {}
    for key in skewper.classify.ALL_KEYS:
        config = skewper.classify.build_instance(key).config
        n, lines = config.num_points, config.lines
        cliques = oracle.count_free_cliques(n, lines, 5)
        order = oracle.count_automorphisms(n, lines)
        bucket = (cliques, order, oracle.structure_invariant(n, lines))
        for cls, rep_lines in reps.get(bucket, []):
            if oracle.find_isomorphism(n, rep_lines, lines) is not None:
                break
        else:
            cls = sum(len(v) for v in reps.values())
            reps.setdefault(bucket, []).append((cls, lines))
        rows.append([key.f, key.s, key.i, cliques, order, cls])
    return rows


def main() -> int:
    rows = catalog_table()
    doc = {
        "about": "regenerate with: python3 bench/regen.py",
        "columns": ["f", "s", "i", "free_five_cliques", "aut_order", "class"],
        "instances": rows,
    }
    text = json.dumps(doc, indent=None, separators=(",", ":"))
    text = text.replace('"instances":[[', '"instances":[\n[').replace("],[", "],\n[")
    (HERE / "catalog.json").write_text(text + "\n")
    print(f"{len(rows)} instances, {len({r[5] for r in rows})} classes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
