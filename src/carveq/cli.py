"""Command-line front end.

Subcommands:
    verify <target>   run one property campaign (claim, star, remark, embed,
                      interleave, gtof, constjump)
    count --n K       brute-force class counts for both levels
    chain             verify every implemented chain link, print the report
    echo [TEXT]       parse a serialized code (argument or stdin) and print
                      its canonical form

verify and chain take one campaign flag per FuzzConfig field and --format
{text,machine}; chain also takes --corrupt LINK.
count takes only --n and --format: its table depends on n alone.  echo
takes only --help; any other argument is its text.  Exit codes: 0 pass,
1 violation, 2 usage or configuration error or a failed write to stdout;
a reader of stdout or stderr that stops early changes none of them.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

from .campaigns import CAMPAIGNS
from .errors import CarveqError, ParseError, ResourceLimit
from .generators import FuzzConfig
from .invariants import ROW_KEYS, count_row
from .reductions import chain_report
from .serialize import parse_any, to_text


def build_parser():
    parser = argparse.ArgumentParser(prog="carveq", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one property campaign")
    pv.add_argument("target", choices=sorted(CAMPAIGNS))

    pc = sub.add_parser("count", help="brute-force class counts")
    pc.add_argument("--n", type=int, required=True, help="atom universe size")

    pch = sub.add_parser("chain", help="verify the reducibility chain")
    pch.add_argument("--corrupt", default=None, metavar="LINK",
                     help="deliberately corrupt a link map (test hook)")

    for campaign in (pv, pch):
        for f in fields(FuzzConfig):
            campaign.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default,
                                  help=f"{f.metadata['help']} (default {f.default})")
    for report in (pv, pc, pch):
        report.add_argument("--format", choices=("text", "machine"), default="text",
                            help="report format (default text)")

    pe = sub.add_parser("echo", help="canonicalize a serialized code",
                        add_help=False, allow_abbrev=False)
    pe.add_argument("--help", action="help", help="show this help message and exit")
    pe.add_argument("text", nargs="?", default=None)

    return parser


def _config(args):
    return FuzzConfig(**{f.name: getattr(args, f.name) for f in fields(FuzzConfig)})


def _print(text, stream=None):
    """Write ``text`` and a newline to ``stream`` (stdout by default), the
    only route for stdout and stderr.  A failed write points the stream at
    os.devnull, so the flush at exit cannot raise.  It exits 2 if stdout
    failed other than on a broken pipe, and keeps the exit code otherwise."""
    stream = stream or sys.stdout
    try:
        print(text, file=stream, flush=True)
    except OSError as err:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if stream is sys.stdout and not isinstance(err, BrokenPipeError):
            _print(f"error: cannot write output: {err.strerror}", sys.stderr)
            sys.exit(2)


def _emit(report, fmt, passing):
    """Print a verify or chain report; exit 0 when its status is ``passing``."""
    _print(json.dumps(report.to_machine(), sort_keys=True) if fmt == "machine" else report.to_text())
    return 0 if report.status == passing else 1


def _cmd_count(args):
    # E's plan refuses every n >= 5 and F's only n >= 7: plan E first, so a
    # refused count enumerates nothing.
    e_row = count_row("E", args.n)
    rows = [dict(zip(ROW_KEYS, row)) for row in (count_row("F", args.n), e_row)]
    if args.format == "machine":
        _print(json.dumps({"rows": rows}, sort_keys=True))
    else:
        lines = [f"{'level':<6} {'n':<3} {'count':<12} {'closed-form':<12} match"]
        lines += (f"{row['level']:<6} {row['n']:<3} {row['count']:<12} "
                  f"{row['closed_form']:<12} {'yes' if row['match'] else 'NO'}" for row in rows)
        _print("\n".join(lines))
    return 0 if all(row["match"] for row in rows) else 1


def _cmd_echo(args):
    text = args.text if args.text is not None else sys.stdin.read()
    try:
        _print(to_text(parse_any(text)))
    except ParseError as err:
        _print(f"parse error: {err}", sys.stderr)
        return 2
    except CarveqError as err:
        _print(f"invalid code: {type(err).__name__}: {err}", sys.stderr)
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
            return _emit(CAMPAIGNS[args.target](_config(args)), args.format, "pass")
        if args.command == "chain":
            report = chain_report(_config(args), corrupt=args.corrupt)
            return _emit(report, args.format, "counterexample structure verified")
        if args.command == "count":
            return _cmd_count(args)
        return _cmd_echo(args)
    except (ValueError, ResourceLimit) as err:
        _print(f"error: {err}", sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
