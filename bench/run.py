"""The skewper benchmark: one command for every workload.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of its workload until --seconds have passed
(at least two rounds).  Every pass of a round runs in a fresh interpreter
(pass_main.py), so no memo table of the program outlives a pass.  After
timing, every output is checked (checks.py, oracle.py).  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics -- the end-to-end ones with --trace 0; with --trace 1 the
per-layer ones, from rounds run with spans on, alternating with untraced
rounds that give the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
PASS_TIMEOUT_S = 150
# The probe's typical time (pass_main.Clock) alongside operations on the
# machine the README figures come from, so scaled times read close to
# seconds there.
REFERENCE_S = 0.0045


class BenchError(Exception):
    pass


def run_pass(spec: dict) -> dict:
    """Run one pass in its own process group, so that a pass killed on
    timeout takes its pool workers with it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "pass_main.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{spec['workload']} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} pass failed:\n{err[-3000:]}")
    return json.loads(out)


def round_specs(workload, seed, rnd, traced, workdir) -> list[dict]:
    """The passes of one round.  A catalog round classifies once with one
    worker and twice with two: the two-worker time depends on how much of
    the second core the host grants, so it is the noisiest figure and gets
    two samples.  The two-worker passes stay untraced, since spans
    recorded in pool workers would not reach this process."""
    base = {"workload": workload, "seed": seed, "round": rnd, "trace": traced,
            "root": str(ROOT), "workdir": str(workdir)}
    if workload == "catalog":
        return [{**base, "threads": 1}] + [{**base, "threads": 2, "trace": False}] * 2
    return [base]


# ------------------------------------------------------------------ checks


def verify_catalog(sk, rounds, seed):
    reports = [p["results"] for r in rounds for p in r["passes"]]
    problems = []
    if any(rep != reports[0] for rep in reports):
        problems.append("classification differs between passes")
    problems += checks.check_catalog_table(reports[0], W.catalog_rows())
    lines_of = {
        (k.f, k.s, k.i): sk.classify.build_instance(k).config.lines
        for k in sk.classify.ALL_KEYS
    }
    problems += checks.check_catalog_proofs(reports[0], lines_of, seed)
    return problems, [False] * sum(len(p["ops"]) for r in rounds for p in r["passes"])


def verify_structures(sk, rounds, seed, workload):
    build = W.symmetric_structures if workload == "symmetric" else W.rigid_structures
    structures = build(sk)
    problems, certificates = [], {name: [] for name, _ in structures}
    for position, r in enumerate(rounds):
        results = r["passes"][0]["results"]
        for name, config in structures:
            moved, images = W.relabelled(sk, config, seed, workload, r["round"], name)
            n, lines = moved.num_points, moved.lines
            entry = results[name]
            group = entry["group"]
            found = checks.check_group(n, lines, group["order"], group["elements"], group["generators"])
            if position == 0:  # the structure is the same in every round
                found += checks.check_group_order(n, lines, group["order"])
            if name.startswith("G("):
                induced = W.grassmannian_induced(int(name[4:-1]), images, config.labels)
                found += checks.check_grassmannian_group(int(name[4:-1]), group["order"], group["elements"], induced)
            elif name.startswith("V("):
                letters = W.veronesian_letter_perms(config.labels, images)
                found += checks.check_contains(group["elements"], letters, "letter permutations")
            else:
                expected = W.host_free_cliques(W.host(sk, int(name[5:-1])), images)
                found += checks.check_free_cliques(lines, entry["cliques"], expected)
            problems += [f"round {r['round']} {name}: {p}" for p in found]
            certificates[name].append(entry["certificate"])
    for name, certs in certificates.items():
        problems += checks.check_same_certificates(name, certs)
    return problems, [False] * sum(len(p["ops"]) for r in rounds for p in r["passes"])


def verify_iso(sk, rounds, seed):
    rows = W.load_catalog()
    problems, failed = [], []
    for r in rounds:
        queries = W.iso_inputs(sk, rows, seed, r["round"])
        texts = [side[2] for q in queries for side in q["sides"]]
        if len(set(texts)) != len(texts):
            raise BenchError("an input file repeats within a pass")
        for index, (q, result) in enumerate(zip(queries, r["passes"][0]["results"])):
            (n_a, lines_a, _), (n_b, lines_b, _) = q["sides"]
            if q["kind"] == "malformed":
                failed.append(not checks.malformed_ok(result))
                continue
            failed.append(result["exc"] is not None)
            if result["exc"] is None:
                problems += [
                    f"round {r['round']} query {index} ({q['kind']}): {p}"
                    for p in checks.check_iso_query(n_a, lines_a, n_b, lines_b, result)
                ]
    return problems, failed


def verify(workload, rounds, seed):
    """Problems found in the outputs, and per operation whether it failed."""
    import skewper as sk

    if workload == "catalog":
        return verify_catalog(sk, rounds, seed)
    if workload == "iso":
        return verify_iso(sk, rounds, seed)
    return verify_structures(sk, rounds, seed, workload)


# ------------------------------------------------------------------ metrics


def end_to_end(rounds, failed) -> dict:
    """From the untraced rounds.  Every time is scaled by REFERENCE_S over
    the probe time measured alongside it; an operation's time is then its
    best over the rounds, and set-up is the median over the
    passes.  README.md says why, and what an operation is in each
    workload."""
    best: dict[str, float] = {}
    broken: set[str] = set()
    setups, rss = [], []
    flags = iter(failed)
    for r in rounds:
        for p in r["passes"]:
            for op in p["ops"]:
                bad = next(flags)
                if r["traced"]:
                    continue
                scaled = op["s"] * REFERENCE_S / op["ref_s"]
                best[op["name"]] = min(scaled, best.get(op["name"], float("inf")))
                if bad:
                    broken.add(op["name"])
            if not r["traced"]:
                setups.append(p["setup_s"] * REFERENCE_S / p["setup_ref_s"])
        if not r["traced"]:
            rss.append(max(p["peak_rss_kb"] for p in r["passes"]) / 1024)
    ok = [s for name, s in best.items() if name not in broken]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "work_s": (sum(best.values()), "s"),
        "op_gmean_ms": (1000 * statistics.geometric_mean(ok), "ms"),
        "op_max_ms": (1000 * max(ok), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


PER_LAYER_UNITS = {
    "calls": "count", "found": "count", "elements": "count", "generators": "count",
    "canonized": "count", "bytes_parsed": "bytes", "_ms": "ms", "_s": "s",
}


def _unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise BenchError(f"no unit for {name}")


def per_layer(rounds, workload, seed) -> dict:
    traced = [r for r in rounds if r["traced"]]
    per_round, dump = [], []
    for r in traced:
        spans = [s for p in r["passes"] if p["spans"] for s in p["spans"]]
        per_round.append(tracing.layer_metrics(spans))
        dump.append({"round": r["round"], "spans": spans, "self_s": tracing.self_times(spans)})
    metrics = tracing.combine_rounds(per_round)

    def work(r):
        return sum(
            op["s"] * REFERENCE_S / op["ref_s"] for p in r["passes"] for op in p["ops"]
        )

    untraced_s = statistics.median(work(r) for r in rounds if not r["traced"])
    traced_s = statistics.median(work(r) for r in traced)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump))
    return {k: (v, _unit(k)) for k, v in metrics.items()}


# ------------------------------------------------------------------ main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "skewper" / "__init__.py").is_file():
        print(f"no skewper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{os.getpid()}"
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            specs = round_specs(args.workload, args.seed, len(rounds), traced, workdir)
            rounds.append({"round": len(rounds), "traced": traced,
                           "passes": [run_pass(s) for s in specs]})
            kinds = {r["traced"] for r in rounds}
            enough = len(rounds) >= 2 and (not args.trace or kinds == {False, True})
            if enough and time.perf_counter() - start >= args.seconds:
                break
        problems, failed = verify(args.workload, rounds, args.seed)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(rounds, args.workload, args.seed)
    else:
        metrics = end_to_end(rounds, failed)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
