"""Command-line front end: triangles, polynomials, distributions, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 enumeration
budget exceeded.  Output is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import sys

from . import enumeration, families, verify
from .errors import SizeLimit, StatClassMismatch, UnknownFamily

_DEFAULT_VARS = ("x", "q", "y", "t")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altrun",
        description="Exact alternating-run polynomial families, cross-verified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="print a recurrence triangle")
    p_tri.add_argument(
        "--family", required=True, choices=families.TRIANGLE_FAMILIES
    )
    p_tri.add_argument("--rows", required=True, type=int, metavar="N")
    p_tri.add_argument(
        "--format",
        default="table",
        choices=("table", "csv", "json", "bfile"),
    )

    p_poly = sub.add_parser("poly", help="print one family polynomial")
    p_poly.add_argument("--family", required=True, choices=families.POLY_FAMILIES)
    p_poly.add_argument("--n", required=True, type=int)

    p_dist = sub.add_parser("dist", help="print an exact statistic distribution")
    p_dist.add_argument("--class", dest="klass", required=True, choices=enumeration.CLASSES)
    p_dist.add_argument(
        "--stat",
        required=True,
        help="statistic name, or a comma-separated list for a joint distribution",
    )
    p_dist.add_argument("--n", required=True, type=int)
    p_dist.add_argument(
        "--vars",
        default=None,
        help="comma-separated variable names (default: x, q, y, t)",
    )

    p_verify = sub.add_parser("verify", help="run a cross-verification suite")
    p_verify.add_argument(
        "--suite", default="all", choices=("all",) + verify.SUITES
    )
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=None)
    p_verify.add_argument("--order", type=int, default=None)

    return parser


def _cmd_triangle(args) -> int:
    tri = families.triangle(args.family, args.rows)
    if args.format == "bfile":
        sys.stdout.write(families.export_bfile(tri))
    elif args.format == "csv":
        sys.stdout.write(families.export_csv(tri))
    elif args.format == "json":
        print(families.export_json(tri))
    else:
        for n in range(tri.min_n, tri.max_n + 1):
            cells = " | ".join(map(families.entry_str, tri.row(n)))
            print(f"n={n}: {cells}")
    return 0


def _cmd_poly(args) -> int:
    print(families.polyseq(args.family, args.n).poly(args.n))
    return 0


def _cmd_dist(args) -> int:
    stat_names = [s.strip() for s in args.stat.split(",") if s.strip()]
    if not stat_names:
        raise ValueError("no statistic given")
    if args.vars:
        var_names = [v.strip() for v in args.vars.split(",") if v.strip()]
    else:
        var_names = list(_DEFAULT_VARS[: len(stat_names)])
    if len(var_names) != len(stat_names):
        raise ValueError("need one variable per statistic")
    dist = enumeration.distribution(
        args.klass, args.n, list(zip(stat_names, var_names))
    )
    print(dist)
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, max_n=args.max_n, order=args.order)
    print(report.to_json())
    return 0 if report.overall else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "triangle": _cmd_triangle,
        "poly": _cmd_poly,
        "dist": _cmd_dist,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnknownFamily, StatClassMismatch, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
