"""Command-line front end.

Subcommands:
    verify <target>   run one property campaign (claim, star, remark, embed,
                      interleave, gtof, constjump)
    count --n K       brute-force class counts for both levels
    chain             verify every implemented chain link, print the report
    echo [TEXT]       parse a serialized code (argument or stdin) and print
                      its canonical form

Flags of verify, count and chain: --seed --cases --atom-universe
--max-period --max-entries --format {text,machine}.  echo takes only
--help; any other argument is its text.  Exit codes: 0 pass,
1 violation, 2 usage or configuration error.
"""

import argparse
import json
import sys

from .campaigns import CAMPAIGNS
from .errors import CarveqError, ParseError, ResourceLimit
from .generators import FuzzConfig
from .invariants import closed_form, count_classes
from .reductions import chain_report
from .serialize import parse_any, to_text


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    sub.add_argument("--cases", type=int, default=1000, help="cases per campaign (default 1000)")
    sub.add_argument("--atom-universe", type=int, default=4, dest="atom_universe",
                     help="number of distinct atoms drawn from (default 4)")
    sub.add_argument("--max-period", type=int, default=None, dest="max_period",
                     help="max cyclic period (default 6; for count, defaults to --n)")
    sub.add_argument("--max-entries", type=int, default=5, dest="max_entries",
                     help="max entries per sequence (default 5)")
    sub.add_argument("--format", choices=("text", "machine"), default="text",
                     help="report format (default text)")


def build_parser():
    parser = argparse.ArgumentParser(prog="carveq", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one property campaign")
    pv.add_argument("target", choices=sorted(CAMPAIGNS))
    _add_common(pv)

    pc = sub.add_parser("count", help="brute-force class counts")
    pc.add_argument("--n", type=int, required=True, help="atom universe size")
    _add_common(pc)

    pch = sub.add_parser("chain", help="verify the reducibility chain")
    pch.add_argument("--corrupt", default=None, metavar="LINK",
                     help="deliberately corrupt a link map (test hook)")
    _add_common(pch)

    pe = sub.add_parser("echo", help="canonicalize a serialized code",
                        add_help=False, allow_abbrev=False)
    pe.add_argument("--help", action="help", help="show this help message and exit")
    pe.add_argument("text", nargs="?", default=None)

    return parser


def _config(args):
    return FuzzConfig(
        seed=args.seed,
        cases=args.cases,
        atom_universe=args.atom_universe,
        max_period=args.max_period if args.max_period is not None else 6,
        max_entries=args.max_entries,
    )


def _cmd_verify(args):
    report = CAMPAIGNS[args.target](_config(args))
    if args.format == "machine":
        print(json.dumps(report.to_machine(), sort_keys=True))
    else:
        print(report.to_text())
    return 0 if report.status == "pass" else 1


def _cmd_count(args):
    max_period = args.max_period if args.max_period is not None else args.n
    rows = []
    for level in ("F", "E"):
        count = count_classes(level, args.n, max_period)
        closed = closed_form(level, args.n)
        rows.append({"level": level, "n": args.n, "count": count,
                     "closed_form": closed, "match": count == closed})
    if args.format == "machine":
        print(json.dumps({"rows": rows}, sort_keys=True))
    else:
        print(f"{'level':<6} {'n':<3} {'count':<12} {'closed-form':<12} match")
        for row in rows:
            print(f"{row['level']:<6} {row['n']:<3} {row['count']:<12} "
                  f"{row['closed_form']:<12} {'yes' if row['match'] else 'NO'}")
    return 0


def _cmd_chain(args):
    report = chain_report(_config(args), corrupt=args.corrupt)
    if args.format == "machine":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.status == "counterexample structure verified" else 1


def _cmd_echo(args):
    text = args.text if args.text is not None else sys.stdin.read()
    try:
        print(to_text(parse_any(text)))
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except CarveqError as err:
        print(f"invalid code: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "echo" and args.text is None and len(extra) == 1:
        args.text = extra.pop()  # argparse leaves a text that starts with "-" over
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "chain":
            return _cmd_chain(args)
        return _cmd_echo(args)
    except (ValueError, ResourceLimit) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
