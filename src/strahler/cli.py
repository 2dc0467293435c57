"""Command-line front end.

Subcommands
-----------
tau R                 print the R-th interpolating tree (0 <= R <= 10**7)
hs TREE               print the refined and classical Horton-Strahler numbers
d2t PATH              convert a Dyck path to its tree
t2d TREE              convert a tree to its Dyck path
decompose-tree TREE   print the spinal decomposition (with its hs)
decompose-path PATH   print the landmark decomposition (with its height)
enumerate --n N --side {trees,paths}
verify --max-n N [--timings]
                      exhaustive equidistribution check; --timings adds
                      each n's elapsed_s to its JSON row

TREE arguments use the canonical text form (leaf ``.``, node ``(LR)``); PATH
arguments accept a U/D step string or a comma-separated height sequence, and
are always printed as U/D.  Passing ``-`` reads the value from stdin.
``d2t``, ``t2d`` and ``hs`` never build a ``Tree``: they go between text and
heights directly, with the same cuts, outputs and parse errors as the
library's ``path_to_tree``, ``tree_to_path`` and ``parse_tree``.

``--format json`` emits the same content as line-delimited JSON; it may come
before or after the subcommand.  Exit status: 0 on success, 1 if ``verify``
found a mismatch, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bijection import _image_text, _preimage_steps
from .dyck import decompose_path, parse_path
from .enumeration import all_dyck_paths, all_full_binary_trees, verify_equidistribution
from .tree import _scan, _tau_text, _values, decompose_tree, parse_tree, tree_to_text


def _value(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _emit(fmt: str, text_lines, json_obj) -> None:
    if fmt == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# tau(R)'s text has 3R + 1 characters; this cap matches the largest
# conversions the CLI is meant for, n = 10**7, at 30 MB of output
_TAU_MAX_R = 10**7


def _cmd_tau(args) -> int:
    if args.r < 0:
        raise ValueError("R must be >= 0")
    if args.r > _TAU_MAX_R:
        raise ValueError(f"R must be <= {_TAU_MAX_R}")
    text = _tau_text(args.r)
    _emit(args.format, [text], {"r": args.r, "tree": text})
    return 0


def _cmd_hs(args) -> int:
    refined = _values(_scan(_value(args.tree)))[0]
    classical = (1 + refined).bit_length() - 1
    _emit(
        args.format,
        [f"refined {refined}", f"classical {classical}"],
        {"refined": refined, "classical": classical},
    )
    return 0


def _cmd_d2t(args) -> int:
    text = _image_text(parse_path(_value(args.path)).heights)
    _emit(args.format, [text], {"tree": text})
    return 0


def _cmd_t2d(args) -> int:
    steps = _preimage_steps(_scan(_value(args.tree)))
    _emit(args.format, [steps], {"path": steps})
    return 0


def _cmd_decompose_tree(args) -> int:
    parts = decompose_tree(parse_tree(_value(args.tree)))
    fix, free = tree_to_text(parts.fix), tree_to_text(parts.free)
    spine = [(side, tree_to_text(sub)) for side, sub in parts.spine]
    lines = [f"h {parts.hs}", f"fix {fix}", f"free {free}"]
    lines += [f"spine {side} {text}" for side, text in spine]
    obj = {
        "h": parts.hs,
        "fix": fix,
        "free": free,
        "spine": [{"side": side, "tree": text} for side, text in spine],
    }
    _emit(args.format, lines, obj)
    return 0


def _cmd_decompose_path(args) -> int:
    parts = decompose_path(parse_path(_value(args.path)))
    fix, free = parts.fix.steps(), parts.free.steps()
    spine = [(e, p.steps()) for e, p in parts.spine]
    lines = [f"h {parts.height}", f"fix {fix}".rstrip(), f"free {free}".rstrip()]
    lines += [f"spine {e:+d} {steps}".rstrip() for e, steps in spine]
    obj = {
        "h": parts.height,
        "fix": fix,
        "free": free,
        "spine": [{"sign": e, "path": steps} for e, steps in spine],
    }
    _emit(args.format, lines, obj)
    return 0


def _cmd_enumerate(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    if args.side == "paths":
        for d in all_dyck_paths(args.n):
            steps = d.steps()
            _emit(args.format, [steps], {"path": steps})
    else:
        for t in all_full_binary_trees(args.n):
            text = tree_to_text(t)
            _emit(args.format, [text], {"tree": text})
    return 0


def _cmd_verify(args) -> int:
    report = verify_equidistribution(args.max_n)
    if args.format == "json":
        for row in report.rows:
            for h in sorted(row.by_height.counts):
                print(json.dumps({"n": row.n, "h": h, "count": row.by_height.counts[h]}))
        for row in report.rows:
            record = {
                "n": row.n,
                "objects": row.by_height.total(),
                "cells": len(row.by_height.counts),
                "equal": row.counts_equal,
                "dyadic": row.dyadic_ok,
                "totals": row.totals_ok,
                "bijection": row.bijection_ok,
            }
            if args.timings:
                record["elapsed_s"] = row.elapsed_s
            print(json.dumps(record, sort_keys=True))
        print(json.dumps({"max_n": report.max_n, "ok": report.ok}, sort_keys=True))
    else:
        print(f"{'n':>3} {'objects':>9} {'cells':>6} {'equal':>8} {'dyadic':>7} {'bijection':>10}")
        for row in report.rows:
            print(
                f"{row.n:>3} {row.by_height.total():>9} {len(row.by_height.counts):>6} "
                f"{'ok' if row.counts_equal else 'FAIL':>8} "
                f"{'ok' if row.dyadic_ok else 'FAIL':>7} "
                f"{'ok' if row.bijection_ok else 'FAIL':>10}"
            )
            for line in row.mismatches:
                print(f"    mismatch: {line}")
        print(f"all checks passed for n <= {report.max_n}" if report.ok else "MISMATCH FOUND")
    return 0 if report.ok else 1


@functools.cache  # built on the first call, then reused by every main call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=argparse.SUPPRESS,
        help="output format (default: text)",
    )
    parser = argparse.ArgumentParser(
        prog="strahler",
        description="Refined Horton-Strahler numbers, Dyck paths, and their bijection.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", parents=[common], help="print the R-th interpolating tree")
    p.add_argument("r", type=int, metavar="R")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("hs", parents=[common], help="refined and classical numbers of TREE")
    p.add_argument("tree", metavar="TREE")
    p.set_defaults(func=_cmd_hs)

    p = sub.add_parser("d2t", parents=[common], help="convert PATH to its tree")
    p.add_argument("path", metavar="PATH")
    p.set_defaults(func=_cmd_d2t)

    p = sub.add_parser("t2d", parents=[common], help="convert TREE to its path")
    p.add_argument("tree", metavar="TREE")
    p.set_defaults(func=_cmd_t2d)

    p = sub.add_parser("decompose-tree", parents=[common], help="spinal decomposition of TREE")
    p.add_argument("tree", metavar="TREE")
    p.set_defaults(func=_cmd_decompose_tree)

    p = sub.add_parser("decompose-path", parents=[common], help="landmark decomposition of PATH")
    p.add_argument("path", metavar="PATH")
    p.set_defaults(func=_cmd_decompose_path)

    p = sub.add_parser("enumerate", parents=[common], help="stream all size-N objects")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--side", choices=("trees", "paths"), required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[common], help="exhaustive equidistribution check")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument(
        "--timings",
        action="store_true",
        help="with --format json, add each n's wall time as elapsed_s to its row",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv, argparse.Namespace(format="text"))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
