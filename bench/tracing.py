"""Spans around calls to the program's public functions.

`Tracer.install` replaces each traced function, in every loaded skewper
module that holds it (the defining module and every module that imported
the name), by a wrapper that records a span: name, start, end, parent
span, the operation the bench was running, and an instance number shared
by all calls on the same configuration object.  Nothing in the package is
edited.  Spans stay in memory until the pass writes them out.

`layer_metrics` turns the spans of one round into the per-layer figures.
"""

from __future__ import annotations

import statistics
import sys
import time

# span name -> (layer, module that defines it, function name)
TRACED = {
    "grassmannian": ("constructions", "skewper.constructions", "grassmannian"),
    "veronesian": ("constructions", "skewper.constructions", "veronesian"),
    "perspective": ("constructions", "skewper.constructions", "perspective"),
    "veblen": ("constructions", "skewper.constructions", "veblen"),
    "veblen_label": ("constructions", "skewper.constructions", "veblen_label"),
    "zeta": ("constructions", "skewper.skews", "zeta"),
    "skew_from_phi": ("constructions", "skewper.skews", "skew_from_phi"),
    "enumerate_free_cliques": ("analysis", "skewper.analysis", "enumerate_free_cliques"),
    "canonical_certificate": ("isomorphism", "skewper.isomorphism", "canonical_certificate"),
    "automorphism_group": ("isomorphism", "skewper.isomorphism", "automorphism_group"),
    "are_isomorphic": ("isomorphism", "skewper.isomorphism", "are_isomorphic"),
    "classify_all": ("classify", "skewper.classify", "classify_all"),
    "parse_psts": ("formats", "skewper.formats", "parse_psts"),
    "main": ("cli", "skewper.cli", "main"),
}

LAYERS = ("constructions", "analysis", "isomorphism", "classify", "formats", "cli")


def _count(name, args, result):
    """The work count a span carries, read from its arguments or result."""
    if name == "enumerate_free_cliques":
        return len(result)
    if name == "canonical_certificate":
        return args[0].num_points
    if name == "automorphism_group":
        return [result.order, len(result.generators)]
    if name == "parse_psts":
        return len(args[0].encode())
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._instances: dict[int, int] = {}
        self._keep: list = []
        self.active = True

    def _instance(self, args):
        config = getattr(args[0], "config", args[0]) if args else None
        if not hasattr(config, "num_points"):
            return None
        key = id(config)
        if key not in self._instances:
            self._instances[key] = len(self._instances)
            self._keep.append(config)  # ids stay unique while it lives
        return self._instances[key]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, self.op, self._instance(args), None]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            record[6] = _count(name, args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "skewper"]
        for name, (_, module, attr) in TRACED.items():
            fn = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def export(self):
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "op": s[4], "instance": s[5], "count": s[6]}
            for s in self.spans
        ]


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[str, float]:
    """Per layer: time inside its spans not covered by child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        own = s["end"] - s["start"] - _union_length(children.get(i, []))
        out[TRACED[s["name"]][0]] += own
    return out


def _outermost(spans, layer):
    """Spans of a layer that no span of the same layer encloses."""
    out = []
    for s in spans:
        if TRACED[s["name"]][0] != layer:
            continue
        p = s["parent"]
        while p is not None and TRACED[spans[p]["name"]][0] != layer:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer figures of one traced round."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def counted(name):
        # a call that raised has no count
        return [s["count"] for s in by_name.get(name, []) if s["count"] is not None]

    def calls(name):
        return len(by_name.get(name, []))

    canon = [s["end"] - s["start"] for s in by_name.get("canonical_certificate", [])]
    auts = counted("automorphism_group")
    selfs = self_times(spans)
    grouping = 0.0
    for i, s in enumerate(spans):
        if s["name"] != "classify_all":
            continue
        kids = [c["end"] for c in spans if c["parent"] == i]
        if kids:
            grouping += s["end"] - max(kids)
    construct = _outermost(spans, "constructions")
    return {
        "constructions.calls": sum(1 for s in spans if TRACED[s["name"]][0] == "constructions"),
        "constructions.busy_s": sum(s["end"] - s["start"] for s in construct),
        "analysis.clique_calls": calls("enumerate_free_cliques"),
        "analysis.clique_busy_s": busy("enumerate_free_cliques"),
        "analysis.cliques_found": sum(counted("enumerate_free_cliques")),
        "isomorphism.canon_calls": len(canon),
        "isomorphism.canon_busy_s": sum(canon),
        "isomorphism.canon_max_ms": 1000 * max(canon, default=0.0),
        "isomorphism.points_canonized": sum(counted("canonical_certificate")),
        "isomorphism.aut_busy_s": busy("automorphism_group"),
        "isomorphism.aut_elements": sum(order for order, _ in auts),
        "isomorphism.aut_generators": sum(gens for _, gens in auts),
        "isomorphism.iso_calls": calls("are_isomorphic"),
        "isomorphism.iso_busy_s": busy("are_isomorphic"),
        "classify.self_s": selfs["classify"],
        "classify.grouping_s": grouping,
        "formats.parse_calls": calls("parse_psts"),
        "formats.parse_busy_s": busy("parse_psts"),
        "formats.bytes_parsed": sum(counted("parse_psts")),
        "cli.self_s": selfs["cli"],
        "_canon_ms": [1000 * d for d in canon],
    }


def combine_rounds(per_round: list[dict]) -> dict[str, float]:
    """Counts repeat exactly from round to round; times are medians over
    rounds, and canon_p50_ms is the median over every canonizer call."""
    out = {}
    for key in per_round[0]:
        if key == "_canon_ms":
            continue
        out[key] = statistics.median(r[key] for r in per_round)
    samples = [ms for r in per_round for ms in r["_canon_ms"]]
    out["isomorphism.canon_p50_ms"] = statistics.median(samples) if samples else 0.0
    return out
