"""Command-line front end.

Verbs: build (grassmannian, veronesian, perspective), analyze, iso,
classify, export.  Exit codes: 0 success, 1 domain error (bad values,
failed checks, unreadable input), 2 usage error, always in argparse's
format: empty stdout, and stderr ending ``skewper...: error: ...``.
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
from .incidence import Config, is_isomorphism, relabel
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
    if args.target == "grassmannian":
        config = grassmannian(args.n)
    elif args.target == "veronesian":
        config = veronesian(args.k)
    else:
        phi = parse_phi_text(args.phi)
        axis = _axis_from_text(args.axis, phi.n)
        config = perspective(phi.n, skew_from_phi(phi), axis).config
    _write_output(emit_psts(config), args.out)
    return 0


def _cmd_analyze(args) -> int:
    config = parse_psts(Path(args.file).read_text())
    # enumerate_free_cliques rejects a bad clique size before any output
    cliques = None
    if args.cliques is not None:
        cliques = enumerate_free_cliques(config, args.cliques)
    print(f"{config.num_points} points, {len(config.lines)} lines")
    n = config.binomial_n
    if n is None:
        print("not a binomial configuration")
    else:
        print(
            f"binomial parameters: ({config.num_points}_{n - 2}"
            f" {len(config.lines)}_3), n = {n}"
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
    to_config = sorted(range(config.num_points), key=relabeling.__getitem__)
    for round_number in range(3):
        images = list(range(config.num_points))
        rng.shuffle(images)
        moved = relabel(config, tuple(images))
        moved_canon = canonical_certificate(moved)
        if moved_canon.canonical_lines != cert:
            print(f"selfcheck FAILED at relabeling {round_number + 1}")
            return 1
        witness = tuple(to_config[c] for c in moved_canon.relabeling)
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
    for p, q in enumerate(witness):
        print(f"  {p} -> {q}")
    return 0


def _cmd_classify(args) -> int:
    report = classify_all()
    print(diagnostic_text(report))
    if args.golden:
        return 0 if all(c.passed for c in expectation_checks(report)) else 1
    return 0


def _cmd_export(args) -> int:
    config = parse_psts(Path(args.file).read_text())
    if args.stp:
        persp = perspective_from_config(config)
        text = emit_stp_dot(stp_diagram(persp), persp.config)
    elif args.dot:
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
        "line",
        nargs=argparse.REMAINDER,
        metavar="target",
        help="grassmannian, veronesian or perspective, then its options"
        " (skewper build <target> -h)",
    )

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
    fmt.add_argument(
        "--stp",
        action="store_true",
        help="DOT with the top axial line laid out as a three-triangle diagram",
    )
    export.add_argument("--out", default=None)
    export.set_defaults(handler=_cmd_export)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The parser of a build line after the verb: one sub-command per
    target, each with exactly its own options.  `_parser` hands `build`
    the rest of the line, so no other verb builds these four parsers;
    one process runs one build, so nothing caches them."""
    parser = argparse.ArgumentParser(prog="skewper build")
    targets = parser.add_subparsers(dest="target", required=True)
    grass = targets.add_parser("grassmannian", help="the pair structure of {1..n}")
    grass.add_argument("--n", type=_integer, required=True, help="ground-set size")
    veron = targets.add_parser("veronesian", help="the weight-k multiset structure")
    veron.add_argument("--k", type=_integer, required=True, help="multiset weight")
    persp = targets.add_parser("perspective", help="a skew perspective (--phi fixes n)")
    persp.add_argument(
        "--phi", required=True, help="level sequence, e.g. \"[(1,3),(1,2)]\""
    )
    persp.add_argument(
        "--axis",
        required=True,
        help="axis: grassmannian, veronesian, v5:<cycles>, v6:<cycles>",
    )
    for target in (grass, veron, persp):
        target.add_argument("--out", default=None, help="output file (default stdout)")
        target.set_defaults(handler=_cmd_build)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.verb == "build":
            args = _build_parser().parse_args(args.line)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
