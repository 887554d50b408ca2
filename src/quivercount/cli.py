"""Command-line front door for counting, enumeration and verification.

Exit codes are part of the interface: 0 success, 1 verification failure,
2 usage error, 3 multiplicity cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from quivercount import counting
from quivercount.classify import classify, is_symmetric
from quivercount.mutation_class import (
    CapExceeded,
    _refuse_member_files,
    enumerate_class,
    seed_cycle,
    seed_dynkin_d,
    write_class_dir,
    write_class_json,
)
from quivercount.quiver import QuiverFormatError, read_quiver
from quivercount.verify import run_verification

USAGE_ERROR = 2
CAP_ERROR = 3
# table's time and output grow about as n_max^3: 500 writes 12 MB in
# about 2.5 s, 700 writes 34 MB in about 7 s
TABLE_N_MAX = 500
# every side weight of count: at 1000 the slowest form, --r2 0 --s2 0,
# takes about 1.5 s for a 598-digit answer
COUNT_WEIGHT_MAX = 1000
# the rank of verify --n-max, enumerate --dynkin-d, --cycle R + S and --seed:
# D_13 takes about 72 s and 305 MB, and D_n grows about 3.5x per rank
RANK_MAX = 13
# verify --n-max 4 --degree 40 takes 2 to 2.5 s, about 1.4x per 4 degrees
DEGREE_MAX = 40


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercount",
        description=(
            "Exact counting and brute-force enumeration of quiver mutation "
            "classes of affine type A and type D."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="evaluate a closed-form count")
    c.add_argument("--r", type=int, help="total anticlockwise weight")
    c.add_argument("--s", type=int, help="total clockwise weight")
    c.add_argument("--r1", type=int, help="plain arrows, anticlockwise side")
    c.add_argument("--r2", type=int, help="oriented 3-cycles, anticlockwise side")
    c.add_argument("--s1", type=int, help="plain arrows, clockwise side")
    c.add_argument("--s2", type=int, help="oriented 3-cycles, clockwise side")
    c.add_argument("--format", choices=("text", "json"), default="text")

    e = sub.add_parser("enumerate", help="breadth-first mutation class enumeration")
    src = e.add_mutually_exclusive_group(required=True)
    src.add_argument("--cycle", nargs=2, type=int, metavar=("R", "S"))
    src.add_argument("--dynkin-d", type=int, metavar="N")
    src.add_argument("--seed", metavar="FILE", help="quiver file to start from")
    e.add_argument("--cap", type=int, default=2, help="arrow multiplicity cap")
    e.add_argument("--out", metavar="DIR", help="dump members as quiver files")
    e.add_argument("--json", metavar="FILE", help="dump members as a JSON array")
    e.add_argument("--format", choices=("text", "json"), default="text")

    cl = sub.add_parser("classify", help="report annular structure of a quiver file")
    cl.add_argument("--file", required=True)

    t = sub.add_parser("table", help="counts per rank and anticlockwise weight")
    t.add_argument("--n-max", type=int, default=10)
    t.add_argument("--format", choices=("text", "json"), default="text")

    v = sub.add_parser("verify", help="run the full cross-check suite")
    v.add_argument("--n-max", type=int, default=8)
    v.add_argument("--degree", type=int, default=10)

    return parser


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _at_most(what: str, value: int, ceiling: int) -> None:
    """Refuse ``value`` above ``ceiling``: ``run`` reports a usage error."""
    if value > ceiling:
        raise ValueError(f"{what} is at most {ceiling}, got {value}")


def _cmd_count(args) -> int:
    full = (args.r1, args.s1)
    refined = (args.r2, args.s2)
    if any(v is not None for v in full):
        if None in (args.r1, args.r2, args.s1, args.s2):
            return _usage("--r1 --r2 --s1 --s2 must be given together")
        if args.r is not None and args.r != args.r1 + 2 * args.r2:
            return _usage("--r contradicts --r1 + 2*--r2")
        if args.s is not None and args.s != args.s1 + 2 * args.s2:
            return _usage("--s contradicts --s1 + 2*--s2")
        _at_most("count --r1 + 2*--r2", args.r1 + 2 * args.r2, COUNT_WEIGHT_MAX)
        _at_most("count --s1 + 2*--s2", args.s1 + 2 * args.s2, COUNT_WEIGHT_MAX)
        value = counting.derived_class_count(args.r1, args.r2, args.s1, args.s2)
    elif any(v is not None for v in refined):
        if None in (args.r, args.s, args.r2, args.s2):
            return _usage("refined counts need --r --s --r2 --s2")
        _at_most("count --r", args.r, COUNT_WEIGHT_MAX)
        _at_most("count --s", args.s, COUNT_WEIGHT_MAX)
        value = counting.refined_realization_count(args.r, args.r2, args.s, args.s2)
    else:
        if args.r is None or args.s is None:
            return _usage("need at least --r and --s")
        _at_most("count --r", args.r, COUNT_WEIGHT_MAX)
        _at_most("count --s", args.s, COUNT_WEIGHT_MAX)
        if args.r == 0 or args.s == 0:
            value = counting.d_n_count(max(args.r, args.s))
        else:
            value = counting.a_tilde(args.r, args.s)
    if args.format == "json":
        print(json.dumps({"value": value}))
    else:
        print(value)
    return 0


def _cmd_enumerate(args) -> int:
    if args.cycle is not None:
        _at_most("enumerate --cycle R + S", sum(args.cycle), RANK_MAX)
        seed = seed_cycle(args.cycle[0], args.cycle[1])
    elif args.dynkin_d is not None:
        _at_most("enumerate --dynkin-d", args.dynkin_d, RANK_MAX)
        seed = seed_dynkin_d(args.dynkin_d)
    else:
        seed = read_quiver(args.seed)
        _at_most("enumerate --seed vertices", seed.n, RANK_MAX)
    # the walk can take minutes, so a dump that cannot be written is refused first
    if args.out:
        _refuse_uncreatable(args.out)
        _refuse_member_files(args.out)
    if args.json:
        _refuse_unwritable(args.json)
    mc = enumerate_class(seed, multiplicity_cap=args.cap)
    if args.out:
        write_class_dir(mc, args.out)
    if args.json:
        write_class_json(mc, args.json)
    if args.format == "json":
        print(json.dumps({"size": mc.size}))
    else:
        print(mc.size)
    return 0


def _refuse_unwritable(path) -> None:
    """Raise OSError, creating nothing, when no file can be written at ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise OSError(f"cannot write a file at {path}")


def _refuse_uncreatable(path) -> None:
    """Raise OSError, creating nothing, when no directory can be made at
    ``path``: its nearest existing ancestor is not a writable directory."""
    ancestor = os.path.abspath(path)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK)):
        raise OSError(f"cannot make a directory at {path}")


def _cmd_classify(args) -> int:
    st = classify(read_quiver(args.file))
    params = ("r1", "r2", "s1", "s2", "r", "s")
    payload = {"atilde": st is not None, **dict.fromkeys(params), "symmetric": None}
    if st is not None:
        for name in params:
            payload[name] = getattr(st.realization_1, name)
        payload["symmetric"] = is_symmetric(st)
    print(json.dumps(payload))
    return 0


def _cmd_table(args) -> int:
    _at_most("table --n-max", args.n_max, TABLE_N_MAX)
    rows = counting.table_rows(args.n_max)
    if args.format == "json":
        print(json.dumps({"rows": [{"n": n, "counts": c} for n, c in rows]}))
    else:
        for n, values in rows:
            print(f"{n} | " + " ".join(str(v) for v in values))
    return 0


def _cmd_verify(args) -> int:
    _at_most("verify --n-max", args.n_max, RANK_MAX)
    _at_most("verify --degree", args.degree, DEGREE_MAX)
    failed = run_verification(args.n_max, args.degree)
    if failed is not None:
        print(f"verification failed at: {failed}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {
        "count": _cmd_count,
        "enumerate": _cmd_enumerate,
        "classify": _cmd_classify,
        "table": _cmd_table,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (QuiverFormatError, OSError, ValueError) as exc:
        # OSError covers missing, directory and unreadable paths
        return _usage(str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
