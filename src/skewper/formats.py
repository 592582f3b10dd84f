"""Serialization: the psts/1 text format, and JSON and DOT emitters.

psts/1 layout::

    psts <num_points> <num_lines>
    <p> <q> <r>          (one line per triple, 0-based ids, sorted)
    # label <id> <name>  (optional; all points or none; name runs to EOL)

The parser rejects, with ValueError, a header that is not the format name
and two integers, a negative count in the header, a line that is not
three integers, a line count that differs from the header's, a comment
whose first word is ``label`` but which lacks an integer id or a name, a
second label for one point, and labels that do not cover every point.
An integer is an optional "-" followed by the ASCII digits 0-9.  The
`Config` it builds rejects the rest: a point out of range, a line
without three distinct points, a repeated line, two lines sharing two
points and a repeated label name.  JSON is export-only.
All emitters produce byte-stable output for equal configurations.
"""

from __future__ import annotations

import json
from typing import Optional

from .incidence import Config, make_config

FORMAT_NAME = "psts"


def emit_psts(config: Config) -> str:
    """The psts/1 text of config.  Raises ValueError, naming the point and
    its label, for a label `parse_psts` would not read back unchanged: an
    empty one, one with leading or trailing whitespace, or one that spans
    lines."""
    out = [f"{FORMAT_NAME} {config.num_points} {len(config.lines)}"]
    for L in config.lines:
        out.append(" ".join(str(x) for x in L))
    if config.labels is not None:
        for i, name in enumerate(config.labels):
            if not (name and name == name.strip() and len(name.splitlines()) == 1):
                raise ValueError(f"point {i} has label {name!r}, which psts cannot hold")
            out.append(f"# label {i} {name}")
    return "\n".join(out) + "\n"


def _integers(fields: list[str]) -> Optional[tuple[int, ...]]:
    """The fields as integers, or None when one is not an optional "-"
    followed by ASCII digits (`int` alone would also take "+2", "1_5" and
    non-ASCII digits)."""
    digits = "".join(fields).replace("-", "")
    if digits.isascii() and digits.isdigit():
        try:  # fails on a "-" out of place
            return tuple(map(int, fields))
        except ValueError:
            pass
    return None


def parse_psts(text: str) -> Config:
    header: Optional[tuple[int, ...]] = None
    lines: list[tuple[int, ...]] = []
    labels: dict[int, str] = {}
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped[1:].strip().split(maxsplit=2)
            if parts[:1] == ["label"]:
                if len(parts) < 3 or _integers(parts[1:2]) is None:
                    raise ValueError(f"bad label {stripped!r}; expected '# label <id> <name>'")
                point, name = int(parts[1]), parts[2]
                if point in labels:
                    raise ValueError(f"bad label {stripped!r}; point {point} is already labeled")
                labels[point] = name
            continue
        if header is None:
            fields = stripped.split()
            header = _integers(fields[1:]) if fields[:1] == [FORMAT_NAME] else None
            if header is None or len(header) != 2:
                raise ValueError(f"bad header {stripped!r}; expected '{FORMAT_NAME} <points> <lines>'")
            if min(header) < 0:
                raise ValueError(f"bad header {stripped!r}; counts must be non-negative")
            continue
        ids = _integers(stripped.split())
        if ids is None or len(ids) != 3:
            raise ValueError(f"bad line {stripped!r}; expected three point ids")
        lines.append(ids)
    if header is None:
        raise ValueError("missing header")
    nu, b = header
    if len(lines) != b:
        raise ValueError(f"expected {b} lines, found {len(lines)}")
    label_tuple: Optional[tuple[str, ...]] = None
    if labels:
        if sorted(labels) != list(range(nu)):
            raise ValueError("label comments must cover every point exactly once or be absent")
        label_tuple = tuple(labels[i] for i in range(nu))
    return make_config(nu, lines, label_tuple)


def emit_json(config: Config) -> str:
    doc = {
        "num_points": config.num_points,
        "lines": [list(L) for L in config.lines],
        "labels": list(config.labels) if config.labels is not None else None,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(config: Config) -> str:
    """Levi graph: one circle node per point, one square node per line,
    an edge for each incidence."""
    out = ["graph levi {", "  node [shape=circle];"]
    for i in range(config.num_points):
        out.append(f"  p{i} [label={_quote(config.label_of(i))}];")
    for j in range(len(config.lines)):
        out.append(f'  l{j} [shape=box, label="", width=0.12, height=0.12];')
    for j, L in enumerate(config.lines):
        for x in L:
            out.append(f"  p{x} -- l{j};")
    out.append("}")
    return "\n".join(out) + "\n"


def emit_stp_dot(diagram, config: Config) -> str:
    """Three-row schema drawing: each row of three points forms a triangle,
    and cross-row joins (edges whose joins concur at a shared point) are
    drawn dashed, labeled with the point of concurrence.

    ``diagram.rows`` is a 3x3 grid of point ids; ``diagram.matching`` lists
    ((row, col), (row', col'), apex_point) cross-row joined pairs.
    """
    rows = diagram.rows
    out = ["graph stp {", "  layout=neato;", "  node [shape=circle];"]
    for r, row in enumerate(rows):
        for k, point in enumerate(row):
            name = config.label_of(point)
            out.append(
                f'  n{r}_{k} [label={_quote(name)}, pos="{2.0 * k:.1f},{-1.6 * r:.1f}!"];'
            )
    for r in range(3):
        out.append(f"  n{r}_0 -- n{r}_1;")
        out.append(f"  n{r}_1 -- n{r}_2;")
        out.append(f"  n{r}_0 -- n{r}_2;")
    for (r1, k1), (r2, k2), apex in diagram.matching:
        out.append(
            f"  n{r1}_{k1} -- n{r2}_{k2} [style=dashed, label={_quote(config.label_of(apex))}];"
        )
    out.append("}")
    return "\n".join(out) + "\n"
