"""Command-line front end.

Verbs: build, analyze, iso, classify, export.  Exit codes: 0 success,
1 domain error (bad values, failed checks, unreadable input), 2 usage
error (unknown verbs or flags).
"""

from __future__ import annotations

import argparse
import functools
import locale  # noqa: F401  (else argparse's gettext imports it inside the first command)
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import enumerate_free_cliques, stp_diagram
from .classify import classify_all, diagnostic_text, expectation_checks
from .constructions import (
    grassmannian,
    perspective,
    perspective_from_config,
    parse_veblen_text,
    veblen,
    veronesian,
    veronesian_axis,
)
from .formats import _integers, emit_dot, emit_json, emit_psts, emit_stp_dot, parse_psts
from .incidence import Config, is_isomorphism, parameters, relabel
from .isomorphism import _canonize, are_isomorphic, canonical_certificate
from .skews import parse_phi_text, skew_from_phi


def _integer(text: str) -> int:
    """An integer option's value: an optional "-" and ASCII digits, the
    rule psts files follow; anything else is a usage error."""
    value = _integers([text])
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected an integer (optional '-' and ASCII digits), got {text!r}"
        )
    return value[0]


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _axis_from_text(text: str, n: int) -> Config:
    if text == "grassmannian":
        return grassmannian(n)
    if text == "veronesian":
        return veronesian_axis(n)
    if text.startswith(("v5:", "v6:")):
        return veblen(parse_veblen_text(text))
    raise ValueError(
        f"unknown axis {text!r}; use grassmannian, veronesian, v5:<cycles>,"
        " or v6:<cycles>"
    )


def _cmd_build(args) -> int:
    if args.what == "grassmannian":
        config = grassmannian(args.n)
    elif args.what == "veronesian":
        config = veronesian(args.k)
    else:
        phi = parse_phi_text(args.phi)
        n = phi.n if args.n is None else args.n
        if n != phi.n:
            raise ValueError(
                f"--phi describes {phi.n} rows but --n says {n}"
            )
        axis = _axis_from_text(args.axis, n)
        config = perspective(n, skew_from_phi(phi), axis).config
    _write_output(emit_psts(config), args.out)
    return 0


def _cmd_analyze(args) -> int:
    config = parse_psts(Path(args.file).read_text())
    # enumerate_free_cliques rejects a bad clique size before any output
    params = parameters(config)
    cliques = None
    if args.cliques is not None:
        cliques = enumerate_free_cliques(config, args.cliques)
    print(f"{config.num_points} points, {len(config.lines)} lines")
    if params.binomial_n is None:
        print("not a binomial configuration")
    else:
        print(
            f"binomial parameters: ({params.nu}_{params.binomial_n - 2}"
            f" {params.b}_3), n = {params.binomial_n}"
        )
    if cliques is not None:
        print(f"free {args.cliques}-cliques: {len(cliques)}")
        for clique in cliques:
            print(f"  {tuple(sorted(clique.vertices))}")
    if args.aut or args.selfcheck:  # one search serves both
        cert, relabeling, automorphisms, generators = _canonize(config)
    if args.aut:
        print(f"automorphism group order {len(automorphisms)} ({len(generators)} generators)")
    if args.selfcheck:
        return _selfcheck(config, args.seed, cert, relabeling)
    return 0


def _selfcheck(config: Config, seed: int, cert, relabeling) -> int:
    """Relabel config at random a few times and confirm its canonical form
    `cert` does not move and the canonical relabelings give a witness."""
    rng = random.Random(seed)
    to_config = {c: p for p, c in enumerate(relabeling)}
    for round_number in range(3):
        images = list(range(config.num_points))
        rng.shuffle(images)
        moved = relabel(config, dict(enumerate(images)))
        moved_canon = canonical_certificate(moved)
        if moved_canon.canonical_lines != cert:
            print(f"selfcheck FAILED at relabeling {round_number + 1}")
            return 1
        witness = {p: to_config[c] for p, c in enumerate(moved_canon.relabeling)}
        if not is_isomorphism(moved, config, witness):
            print(f"selfcheck FAILED to produce a witness {round_number + 1}")
            return 1
    print("selfcheck passed (3 random relabelings, seeded)")
    return 0


def _cmd_iso(args) -> int:
    c1 = parse_psts(Path(args.file1).read_text())
    c2 = parse_psts(Path(args.file2).read_text())
    witness = are_isomorphic(c1, c2)
    if witness is None:
        print("not isomorphic")
        return 1
    print("isomorphic; witness:")
    for x in sorted(witness):
        print(f"  {x} -> {witness[x]}")
    return 0


def _cmd_classify(args) -> int:
    report = classify_all()
    checks = expectation_checks(report)
    print(diagnostic_text(report, checks))
    if args.golden:
        return 0 if all(c.passed for c in checks) else 1
    return 0


def _cmd_export(args) -> int:
    config = parse_psts(Path(args.file).read_text())
    if args.stp:
        if not args.dot:
            raise ValueError("the --stp layout is only available with --dot")
        persp = perspective_from_config(config)
        diagram = stp_diagram(persp)
        _write_output(emit_stp_dot(diagram, persp.config), args.out)
        return 0
    if args.dot:
        text = emit_dot(config)
    elif args.json:
        text = emit_json(config)
    else:
        text = emit_psts(config)
    _write_output(text, args.out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    some 35 times as much as parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="skewper",
        description=(
            "Build, analyze, compare, and classify skew-perspective partial"
            " Steiner triple systems."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    build = sub.add_parser("build", help="construct a configuration")
    build.add_argument(
        "what", choices=["grassmannian", "veronesian", "perspective"]
    )
    build.add_argument("--n", type=_integer, default=None, help="ground-set size")
    build.add_argument("--k", type=_integer, default=None, help="multiset weight")
    build.add_argument(
        "--phi", default=None, help="level sequence, e.g. \"[(1,3),(1,2)]\""
    )
    build.add_argument(
        "--axis",
        default=None,
        help="axis: grassmannian, veronesian, v5:<cycles>, v6:<cycles>",
    )
    build.add_argument("--out", default=None, help="output file (default stdout)")
    build.set_defaults(handler=_cmd_build)

    analyze = sub.add_parser("analyze", help="inspect a configuration file")
    analyze.add_argument("file")
    analyze.add_argument(
        "--cliques", type=_integer, default=None, help="enumerate free cliques of this size"
    )
    analyze.add_argument(
        "--aut", action="store_true", help="compute the automorphism group"
    )
    analyze.add_argument(
        "--selfcheck",
        action="store_true",
        help="verify canonical-form invariance under random relabelings",
    )
    analyze.add_argument(
        "--seed", type=_integer, default=0, help="seed for the selfcheck relabelings"
    )
    analyze.set_defaults(handler=_cmd_analyze)

    iso = sub.add_parser("iso", help="decide isomorphism of two files")
    iso.add_argument("file1")
    iso.add_argument("file2")
    iso.set_defaults(handler=_cmd_iso)

    classify = sub.add_parser(
        "classify", help="classify the 240 catalog instances"
    )
    classify.add_argument(
        "--golden",
        action="store_true",
        help="exit 0 only if every reference check passes",
    )
    classify.set_defaults(handler=_cmd_classify)

    export = sub.add_parser("export", help="re-emit a file in another format")
    export.add_argument("file")
    fmt = export.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--psts", action="store_true")
    export.add_argument(
        "--stp",
        action="store_true",
        help="lay the top axial line out as a three-triangle diagram (with --dot)",
    )
    export.add_argument("--out", default=None)
    export.set_defaults(handler=_cmd_export)
    return parser


def _validate_build_args(args) -> None:
    if args.what == "grassmannian" and args.n is None:
        raise _Usage("build grassmannian requires --n")
    if args.what == "veronesian" and args.k is None:
        raise _Usage("build veronesian requires --k")
    if args.what == "perspective" and (args.phi is None or args.axis is None):
        raise _Usage("build perspective requires --phi and --axis")


class _Usage(Exception):
    pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.verb == "build":
            _validate_build_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
