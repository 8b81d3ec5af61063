"""Command-line surface: count, series, check, height, selftest.

Counts are always serialized as decimal strings so arbitrary precision
survives any consumer; output is deterministic byte-for-byte for identical
flags.  Every error path has its own exit code (see EXIT_* and --help).
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn, Optional, Sequence

from .core import (
    DEFAULT_ORACLE_CAP,
    FAMILIES,
    BFileError,
    EndKind,
    EngineDomainError,
    InfiniteFamilyError,
    OracleCapError,
    Orientation,
    PathQuery,
)

EXIT_OK = 0
EXIT_USAGE = 2          # argparse errors
EXIT_INFINITE = 3       # infinite-family queries
EXIT_ORACLE_CAP = 4     # oracle asked beyond its cap
EXIT_DISAGREE = 5       # engine disagreement, selftest or check failure
EXIT_BFILE = 6          # unreadable or malformed b-file
EXIT_DOMAIN = 7         # query outside an engine's or family's domain
EXIT_INTERNAL = 8       # any other exception: a fault of the program

_EPILOG = """\
exit codes:
  0  success
  2  usage error
  3  infinite family (unbounded left-to-right query with no end height)
  4  oracle cap exceeded
  5  engine disagreement / failed selftest or check
  6  unreadable or malformed b-file
  7  query outside the requested engine's or family's domain
  8  internal error (an unexpected exception, reported on one line)
"""


#: Exit code of each reported error class, all of them ValueErrors; the
#: first match wins.
_EXIT_CODES = (
    (InfiniteFamilyError, EXIT_INFINITE),
    (OracleCapError, EXIT_ORACLE_CAP),
    (BFileError, EXIT_BFILE),
    (ValueError, EXIT_DOMAIN),  # EngineDomainError and the engines' own checks
)


def _report(line: str) -> None:
    """Write one error line to standard error.  A stderr that cannot take it
    (closed, or a pipe whose reader has gone) loses the line; the exit code
    still tells."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _internal_error(exc: Exception) -> int:
    _report(f"error: internal error: {type(exc).__name__}: {exc}")
    return EXIT_INTERNAL


def _int_at_least(low: int, rule: str):
    """An argparse type for ints >= `low`; `rule` names the range in errors."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


_nonnegative_int = _int_at_least(0, "nonnegative")
_positive_int = _int_at_least(1, "positive")


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_nonnegative_int, default=None, help="end height")
    p.add_argument(
        "--total", action="store_true",
        help="sum over all end heights (instead of --k)",
    )
    p.add_argument(
        "--kind", choices=[k.value for k in EndKind], default="any",
        help="final-step kind filter (default any)",
    )
    p.add_argument(
        "--orientation", choices=[o.value for o in Orientation], default="l2r",
        help="path model (default l2r)",
    )
    p.add_argument("--bound", type=_nonnegative_int, default=None, help="maximum height t")
    p.add_argument(
        "--alternate", action="store_true",
        help="restrict to paths with no two consecutive same-direction steps",
    )


def _query_fields(args: argparse.Namespace) -> dict:
    """The query fields of `count`, `series` or `check`, which take exactly
    one of --k and --total."""
    if args.total and args.k is not None:
        raise EngineDomainError("--total and --k are mutually exclusive")
    if not args.total and args.k is None:
        raise EngineDomainError(f"{args.command} needs --k or --total")
    return dict(
        k=args.k,
        kind=EndKind(args.kind),
        orientation=Orientation(args.orientation),
        bound=args.bound,
        alternate=args.alternate,
    )


#: The parsed flags a JSON record echoes as its query, in this order; a
#: subcommand that lacks one leaves it out.
_ECHO = ("n", "k", "kind", "orientation", "bound", "alternate", "total")


def _emit_record(args: argparse.Namespace, engine: str, values: list[int], meta: dict) -> None:
    if args.format == "json":
        import json

        record = {
            "query": {name: getattr(args, name) for name in _ECHO if hasattr(args, name)},
            "engine": engine,
            "values": [str(v) for v in values],
            "meta": meta,
        }
        print(json.dumps(record))
    elif args.format == "csv":
        print("index,value")
        for i, v in enumerate(values):
            print(f"{i},{v}")
    else:
        print(",".join(str(v) for v in values))


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def cmd_count(args: argparse.Namespace) -> int:
    from .engines import count_by_engine, engine_counts

    query = PathQuery(n=args.n, **_query_fields(args))
    if args.engine == "all":
        results = engine_counts(query, args.oracle_cap)
        if len(set(results.values())) != 1:
            _report(f"error: engine disagreement at {query}: {results}")
            return EXIT_DISAGREE
        used = list(results)
        value = results[used[0]]
    else:
        value = count_by_engine(args.engine, query, args.oracle_cap)
        used = [args.engine]
    meta = {"engines": used, "oracle_cap": args.oracle_cap, "order": None, "precision": None}
    _emit_record(args, args.engine, [value], meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _series_values(args: argparse.Namespace) -> list[int]:
    from .engines import series_for_query

    return series_for_query(order=args.order, **_query_fields(args)).integer_coefficients()


def cmd_series(args: argparse.Namespace) -> int:
    values = _series_values(args)
    meta = {"engines": ["gf"], "oracle_cap": None, "order": args.order, "precision": None}
    _emit_record(args, "gf", values, meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    from .engines import compare_bfile, read_bfile

    table = read_bfile(args.bfile)
    values = _series_values(args)
    ncomp, mismatches = compare_bfile(table, values, shift=args.shift, start=args.start)
    for i, got, want in mismatches:
        print(f"index {i}: computed {got} != fixture {want}")
    print(f"{ncomp} comparisons, {len(mismatches)} mismatches")
    return EXIT_OK if not mismatches else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------


def cmd_height(args: argparse.Namespace) -> int:
    from .asymptotics import avg_height

    try:
        n_list = [int(part) for part in args.n_list.split(",") if part]
    except ValueError:
        raise EngineDomainError(f"bad --n-list {args.n_list!r}")
    if not n_list:
        raise EngineDomainError(f"--n-list names no length: {args.n_list!r}")
    stats = [
        avg_height(n, args.family, k=args.k, route=args.route) for n in n_list
    ]
    if args.format == "json":
        import json

        record = {
            "family": args.family,
            "k": args.k,
            "route": args.route,
            "stats": [
                {
                    "n": st.n,
                    "mean": str(st.mean_height),
                    "sqrt_pi_n": round(st.sqrt_pi_n, args.precision),
                    "ratio": round(st.ratio, args.precision),
                }
                for st in stats
            ],
        }
        print(json.dumps(record))
    else:
        # Render every line before writing any: a refused precision then
        # leaves standard output empty.
        p, k = args.precision, f" (k={args.k})" if args.k is not None else ""
        rows = [f"{st.n} {st.mean_height} {st.sqrt_pi_n:.{p}f} {st.ratio:.{p}f}" for st in stats]
        print("\n".join([f"family {args.family}{k}", "n mean sqrt_pi_n ratio", *rows]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(args: argparse.Namespace) -> int:
    from .engines import cross_engine_grid, run_fixture_checks

    n_max = 6 if args.quick else 9
    print(f"cross-engine grid (n <= {n_max}) ...")
    failure = cross_engine_grid(n_max=n_max)
    if failure is not None:
        print(f"FAIL: {failure}")
        return EXIT_DISAGREE
    print("cross-engine grid: ok")
    print("fixture comparisons ...")
    ok = True
    for name, ncomp, nmiss in run_fixture_checks():
        status = "ok" if nmiss == 0 else "FAIL"
        if nmiss:
            ok = False
        print(f"  {name}: {ncomp} comparisons, {nmiss} mismatches [{status}]")
    if not ok:
        return EXIT_DISAGREE
    print("selftest: all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lukas",
        description="Exact counting of Lukasiewicz lattice path prefixes and suffixes.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count paths matching a query")
    p_count.add_argument("--n", type=_nonnegative_int, required=True, help="path length")
    _add_query_flags(p_count)
    p_count.add_argument(
        "--engine", choices=["oracle", "dp", "closed", "gf", "all"], default="all",
        help="counting engine; 'all' asserts agreement (default)",
    )
    p_count.add_argument("--oracle-cap", type=_nonnegative_int, default=DEFAULT_ORACLE_CAP)
    p_count.add_argument("--format", choices=["json", "text"], default="text")
    p_count.set_defaults(func=cmd_count)

    p_series = sub.add_parser("series", help="series coefficients of a query")
    _add_query_flags(p_series)
    p_series.add_argument("--order", type=_positive_int, default=None, help="truncation order")
    p_series.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_series.set_defaults(func=cmd_series)

    p_check = sub.add_parser("check", help="diff a computed series against a b-file")
    p_check.add_argument("--bfile", required=True, help="path to the b-file")
    p_check.add_argument("--shift", type=int, default=0,
                         help="computed[i] is compared to fixture[i - shift]")
    p_check.add_argument("--start", type=_nonnegative_int, default=0,
                         help="first computed index to compare")
    _add_query_flags(p_check)
    p_check.add_argument("--order", type=_positive_int, default=None)
    p_check.set_defaults(func=cmd_check)

    p_height = sub.add_parser("height", help="exact average heights vs sqrt(pi n)")
    p_height.add_argument("--family", choices=list(FAMILIES), required=True, metavar="FAMILY",
                          help=f"path family: {', '.join(FAMILIES)}")
    p_height.add_argument(
        "--k", type=_nonnegative_int, default=None, help="end height for *-at-k families"
    )
    p_height.add_argument("--n-list", required=True, help="comma-separated lengths")
    p_height.add_argument("--route", choices=["gf", "dp"], default="gf")
    p_height.add_argument(
        "--precision", type=_nonnegative_int, default=6,
        help="decimal places of sqrt_pi_n and ratio (default 6)",
    )
    p_height.add_argument("--format", choices=["json", "text"], default="text")
    p_height.set_defaults(func=cmd_height)

    p_self = sub.add_parser("selftest", help="cross-engine grid and fixture comparisons")
    p_self.add_argument("--quick", action="store_true", help="limit the grid to n <= 6")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The arguments are parsed under the interpreter's limit on integer
    # string digits (Python 3.11, 3.10.7+); the limit is then lifted, so an
    # answer of any length prints.
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "order", 0) is None:
        from .series import DEFAULT_ORDER

        args.order = DEFAULT_ORDER
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except Exception as exc:
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                _report(f"error: {exc}")
                return code
        return _internal_error(exc)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run() -> NoReturn:
    """The entry point of `lukas` and `python -m lukaspaths`.

    Runs `main`, flushes the standard streams and ends the process with
    `os._exit`, skipping interpreter teardown: module cleanup, the final
    garbage collection and `atexit` handlers, about 10 ms of every call.
    Nothing in the command-line process may rely on an `atexit` handler,
    and a log handler must be flushed here before the exit.  A `SystemExit`
    (argparse usage errors and --help) gives its status as `sys.exit`
    would; any other exception takes the normal path.
    """
    # Python sets a stream whose descriptor was closed at start-up to None.
    # Error lines then go nowhere, as into any stderr that cannot take them,
    # rather than to argparse's fallback for a missing stderr, stdout.
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    # A stdout that cannot take the answer is an error of this run, reported
    # like any other, not at interpreter exit; closed at start-up, the
    # command does not run.
    if sys.stdout is None:
        code = _internal_error(OSError("standard output is closed"))
    else:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
            if code is None:
                code = EXIT_OK
            elif not isinstance(code, int):
                _report(str(code))
                code = 1
        try:
            sys.stdout.flush()
        except OSError as exc:
            code = _internal_error(exc)
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
