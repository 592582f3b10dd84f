"""One pass of one workload, in a fresh interpreter.

run.py starts it as ``python3 bench/pass_main.py '<json spec>'`` and reads
one JSON document from its standard output.  The pass imports the
package, builds its inputs (set-up), then times each operation while
probing the host's speed, so the parent can allow for it.  Outputs the
checks need are gathered after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import signal
import sys
import time
from pathlib import Path

import oracle


class Clock:
    """Times operations and probes the host's speed while they run.

    The probe is a fixed computation of the bench's own: the oracle's
    exhaustive automorphism count on G(2,5), built here, about 3 ms.  It
    runs from a SIGALRM handler every PERIOD_S during the timed region,
    and in bursts of BURST before and after it.  An operation's time
    excludes the probes that ran inside it, and is reported with the mean
    probe time near it: the probes inside it if there are at least
    NEAREST of them, else the NEAREST probes closest to its midpoint."""

    PERIOD_S = 0.1
    BURST = 10
    NEAREST = 6

    def __init__(self):
        pairs = list(itertools.combinations(range(5), 2))
        index = {p: i for i, p in enumerate(pairs)}
        self._lines = [
            tuple(sorted(index[p] for p in itertools.combinations(t, 2)))
            for t in itertools.combinations(range(5), 3)
        ]
        self.probes: list[tuple[float, float]] = []  # (start, seconds)

    def _probe(self, *_):
        start = time.perf_counter()
        oracle.count_automorphisms(10, self._lines)
        self.probes.append((start, time.perf_counter() - start))

    def burst(self):
        for _ in range(self.BURST):
            self._probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def time(self, fn):
        """fn's result and the (start, end) of the call."""
        start = time.perf_counter()
        result = fn()
        return result, (start, time.perf_counter())

    def measure(self, start, end):
        """(seconds net of probes, mean probe seconds near the interval)."""
        inside = [d for t, d in self.probes if start <= t < end]
        if len(inside) >= self.NEAREST:
            near = inside
        else:
            middle = (start + end) / 2
            near = [d for _, d in sorted(self.probes, key=lambda p: abs(p[0] - middle))]
            near = near[: self.NEAREST]
        return end - start - sum(inside), sum(near) / len(near)


def run_catalog(sk, spec, clock, tracer):
    if tracer is not None:
        tracer.op = f"classify_{spec['threads']}w"
    report, span = clock.time(lambda: sk.classify.classify_all(threads=spec["threads"]))
    rows = [
        [k.f, k.s, k.i, v.free_clique_count, v.aut_order, v.class_id]
        for k, v in sorted(report.instances.items())
    ]
    return [{"name": f"classify_{spec['threads']}w", "span": span}], rows


def _group_json(group):
    return {"order": group.order, "elements": group.elements, "generators": group.generators}


def setup_structures(sk, spec, W):
    build = W.symmetric_structures if spec["workload"] == "symmetric" else W.rigid_structures
    return [
        (name, W.relabelled(sk, config, spec["seed"], spec["workload"], spec["round"], name)[0])
        for name, config in build(sk)
    ]


def run_structures(sk, inputs, clock, tracer):
    """automorphism_group on every structure; on the rigid hosts
    enumerate_free_cliques of size n+1 first."""
    ops, results = [], {}
    for name, config in inputs:
        if tracer is not None:
            tracer.op = name
        entry = results[name] = {}
        if name.startswith("host"):
            size = int(name[5:-1]) + 1
            cliques, span = clock.time(lambda: sk.analysis.enumerate_free_cliques(config, size))
            ops.append({"name": f"cliques {name}", "span": span})
            entry["cliques"] = [sorted(c.vertices) for c in cliques]
        group, span = clock.time(lambda: sk.isomorphism.automorphism_group(config))
        ops.append({"name": f"aut {name}", "span": span})
        entry["group"] = _group_json(group)
    if tracer is not None:
        tracer.active = False
    # outside the timed region: the certificate is already memoized
    for name, config in inputs:
        cert = sk.isomorphism.canonical_certificate(config)
        results[name]["certificate"] = [list(L) for L in cert.canonical_lines]
    return ops, results


def setup_iso(sk, spec, W):
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    files = []
    for index, q in enumerate(W.iso_inputs(sk, W.load_catalog(), spec["seed"], spec["round"])):
        pair = []
        for side, (_, _, text) in zip("ab", q["sides"]):
            path = workdir / f"r{spec['round']}q{index}{side}.psts"
            path.write_text(text)
            pair.append(str(path))
        files.append(pair)
    return files


def run_iso(sk, files, clock, tracer):
    """`skewper iso a b` through cli.main, in this process."""
    ops, results = [], []
    for index, (a, b) in enumerate(files):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()

        def query():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return sk.cli.main(["iso", a, b]), None
            except Exception as e:  # a crash is an outcome the checks grade
                return None, f"{type(e).__name__}: {e}"

        (rc, exc), span = clock.time(query)
        ops.append({"name": f"iso {index}", "span": span})
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "exc": exc})
    return ops, results


def main() -> int:
    spec = json.loads(sys.argv[1])
    clock = Clock()
    clock.burst()
    start = time.perf_counter()
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import skewper as sk
    import skewper.cli  # noqa: F401  (the package does not import its CLI)
    import workloads as W

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = spec["workload"]
    if workload == "iso":
        inputs = setup_iso(sk, spec, W)
    elif workload != "catalog":
        inputs = setup_structures(sk, spec, W)
    setup_end = time.perf_counter()
    clock.burst()

    if spec.get("threads", 1) == 1:
        clock.start()  # a probe in the pool's parent would compete with its workers
    if workload == "catalog":
        ops, results = run_catalog(sk, spec, clock, tracer)
    elif workload == "iso":
        ops, results = run_iso(sk, inputs, clock, tracer)
    else:
        ops, results = run_structures(sk, inputs, clock, tracer)
    clock.stop()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    clock.burst()

    for op in ops:
        op["s"], op["ref_s"] = clock.measure(*op.pop("span"))
    setup_s, setup_ref_s = clock.measure(start, setup_end)
    json.dump(
        {
            "setup_s": setup_s,
            "setup_ref_s": setup_ref_s,
            "ops": ops,
            "results": results,
            "peak_rss_kb": max(own, kids),
            "spans": tracer.export() if tracer else None,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
