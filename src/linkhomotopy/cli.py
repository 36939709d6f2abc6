"""Batch command-line front end.

Subcommands mirror the library: ``word``, ``hatf`` (the simplicial group),
``magnus``, ``link`` and ``spheres``.  Results go to stdout, diagnostics to
stderr, and identical invocations produce byte-identical output.

Exit codes: 0 success, 2 input error (syntax, ranges, file formats),
3 precondition violation (eta on a non-cycle), 4 unrealizable profile.

Each handler imports the layers it uses, so a process loads only those:
``word`` loads words, ``hatf`` words and simplicial, ``magnus`` those and
magnus, ``link`` homotopy and links, ``spheres`` homotopy.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .homotopy import HomotopyTable

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_UNREALIZABLE = 4


def _load_table(path: str | None) -> HomotopyTable:
    from .homotopy import DEFAULT_TABLE, HomotopyTable

    if path is None:
        return DEFAULT_TABLE
    table = HomotopyTable()
    table.load_file(path)
    return table


def _parse_labels(tokens: Sequence[str]) -> list[int]:
    labels = []
    for token in tokens:
        if not token.removeprefix("-").isdecimal():
            raise ValueError(f"bad component label {token!r}")
        labels.append(int(token))
    return labels


def _parse_int_list(token: str) -> list[int]:
    pieces = token.split(",")
    values = [int(piece) for piece in pieces if piece.removeprefix("-").isdecimal()]
    if len(values) != len(pieces):
        raise ValueError(f"bad integer list {token!r}")
    return values


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _cmd_word(args: argparse.Namespace) -> int:
    from . import words

    if args.action == "commutate":
        left = words.parse_word(args.expr)
        right = words.parse_word(args.other)
        print(words.print_word(words.commutator(left, right)))
    else:  # reduce and parse both normalize an expression
        print(words.print_word(words.parse_word(args.expr)))
    return EXIT_OK


def _cmd_hatf(args: argparse.Namespace) -> int:
    from . import simplicial, words

    if args.action == "tower":
        print(simplicial.eta_tower(args.k))
    elif args.action == "meridian":
        print(words.print_word(simplicial.meridian_word(args.k).word, letter="a"))
    else:
        e = simplicial.element(args.degree, args.expr)
        if args.action == "face":
            print(simplicial.face(args.index, e))
        elif args.action == "degen":
            print(simplicial.degeneracy(args.index, e))
        elif args.action == "cycle":
            print("true" if simplicial.is_cycle(e) else "false")
        else:  # eta
            try:
                print(simplicial.eta_word(e))
            except simplicial.NotACycleError as exc:
                return _error(exc, EXIT_PRECONDITION)
    return EXIT_OK


def _cmd_magnus(args: argparse.Namespace) -> int:
    from . import magnus, words

    if args.action == "expand":
        print(magnus.magnus_expand(words.parse_word(args.expr), args.trunc))
    elif args.action == "gamma":
        bound = magnus.gamma_class_lower_bound(words.parse_word(args.expr), args.trunc)
        print(f">= {args.trunc + 1}" if bound is None else bound)
    elif args.action == "mu":
        indices = _parse_int_list(args.indices)
        print(magnus.mu_coefficient(words.parse_word(args.expr), indices))
    else:  # verify51
        report = magnus.milnor_invisibility_report(args.n)
        for line in report.lines(include_variant=args.variant):
            print(line)
    return EXIT_OK


def _cmd_link(args: argparse.Namespace) -> int:
    from . import links

    profile = links.load_profile(args.profile)
    if args.action == "chi2":
        i, j = _parse_labels(args.labels)
        print(links.chi2(profile, i, j))
    elif args.action == "chi3":
        i, j, k = _parse_labels(args.labels)
        print(links.chi3(profile, i, j, k))
    elif args.action == "check":
        findings = links.realizability_findings(profile)
        if findings:
            for finding in findings:
                print(finding)
            return EXIT_UNREALIZABLE
        print("ok")
    else:  # classify
        table = _load_table(args.table)
        l0 = links.parse_subset_token(args.l0, profile.size)
        sub = links.parse_subset_token(args.sub, profile.size)
        try:
            result = links.classify_A(profile, l0, sub, table)
        except links.UnrealizableProfileError as exc:
            return _error(exc, EXIT_UNREALIZABLE)
        print(result.main_line())
        for note in result.notes:
            print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


def _cmd_spheres(args: argparse.Namespace) -> int:
    from .homotopy import PiOfSphere, hilton_pi

    table = _load_table(args.table)
    if args.action == "pi":
        entry = table.entry(args.n, args.m)
        if entry is None:
            print(PiOfSphere(args.n, args.m).render(mark_unknown=True))
        else:
            print(entry.render())
    else:  # wedge
        dims = _parse_int_list(args.dims)
        print(hilton_pi(args.n, dims, table).render(mark_unknown=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkhomotopy",
        description="Exact word calculus, loop-space towers, Magnus/Milnor "
        "detection, and splitting-profile link classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="free-group word operations")
    word_actions = word.add_subparsers(dest="action", required=True)
    for name in ("reduce", "parse"):
        action = word_actions.add_parser(name, help=f"{name} a word expression")
        action.add_argument("expr")
    commutate = word_actions.add_parser("commutate", help="commutator of two words")
    commutate.add_argument("expr")
    commutate.add_argument("other")

    hatf = sub.add_parser("hatf", help="simplicial loop-space group")
    hatf_actions = hatf.add_subparsers(dest="action", required=True)
    for name in ("face", "degen"):
        action = hatf_actions.add_parser(name, help=f"apply a {name} map")
        action.add_argument("--degree", type=int, required=True)
        action.add_argument("--index", "-i", type=int, required=True)
        action.add_argument("expr")
    cycle = hatf_actions.add_parser("cycle", help="Moore-cycle test")
    cycle.add_argument("--degree", type=int, required=True)
    cycle.add_argument("expr")
    eta = hatf_actions.add_parser("eta", help="suspension-Hopf step on a cycle")
    eta.add_argument("--degree", type=int, required=True)
    eta.add_argument("expr")
    tower = hatf_actions.add_parser("tower", help="iterated tower word")
    tower.add_argument("k", type=int)
    meridian = hatf_actions.add_parser("meridian", help="meridian form of a tower word")
    meridian.add_argument("k", type=int)

    mag = sub.add_parser("magnus", help="Magnus expansion and Milnor detection")
    mag_actions = mag.add_subparsers(dest="action", required=True)
    for name in ("expand", "gamma"):
        action = mag_actions.add_parser(name)
        action.add_argument("expr")
        action.add_argument("--trunc", type=int, default=4)
    mu = mag_actions.add_parser("mu", help="Milnor-type coefficient")
    mu.add_argument("expr")
    mu.add_argument("indices", help="comma-separated distinct indices, e.g. 1,2")
    verify = mag_actions.add_parser(
        "verify51", help="invisibility desk check for the tower classes"
    )
    verify.add_argument("n", type=int)
    verify.add_argument("--variant", action="store_true",
                        help="also check the literature's variant word")

    link = sub.add_parser("link", help="splitting-profile invariants")
    link_actions = link.add_subparsers(dest="action", required=True)
    for name, count in (("chi2", 2), ("chi3", 3)):
        action = link_actions.add_parser(name)
        action.add_argument("--profile", required=True)
        action.add_argument("labels", nargs=count)
    classify = link_actions.add_parser("classify")
    classify.add_argument("--profile", required=True)
    classify.add_argument("--L0", dest="l0", required=True,
                          help='base sublink: "empty", "full" or e.g. "1,3"')
    classify.add_argument("--sub", required=True,
                          help='meridian sublink: "full" or e.g. "1,2"')
    classify.add_argument("--table", help="extra homotopy-table file")
    check = link_actions.add_parser("check", help="realizability findings")
    check.add_argument("--profile", required=True)

    spheres = sub.add_parser("spheres", help="homotopy groups of sphere wedges")
    spheres_actions = spheres.add_subparsers(dest="action", required=True)
    pi = spheres_actions.add_parser("pi")
    pi.add_argument("n", type=int)
    pi.add_argument("m", type=int)
    pi.add_argument("--table", help="extra homotopy-table file")
    wedge = spheres_actions.add_parser("wedge")
    wedge.add_argument("n", type=int)
    wedge.add_argument("dims", help="comma-separated sphere dimensions, e.g. 2,2")
    wedge.add_argument("--table", help="extra homotopy-table file")

    return parser


_HANDLERS = {
    "word": _cmd_word,
    "hatf": _cmd_hatf,
    "magnus": _cmd_magnus,
    "link": _cmd_link,
    "spheres": _cmd_spheres,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        return _error(exc, EXIT_INPUT)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
