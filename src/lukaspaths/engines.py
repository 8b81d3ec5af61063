"""Query dispatch across the counting engines, the cross-engine agreement
sweep, and the b-file fixtures that pin the library against independently
generated sequence data.

The four engines are: the brute-force oracle (explicit generation), the
dynamic program, the closed-form ballot numbers, and exact generating-function
expansion.  Not every engine covers every query: an engine refuses a query
outside its domain with `EngineDomainError` (for example, closed forms for
height-bounded alternate paths) before computing anything, so
`engine_counts` asks every engine and keeps the answers.
"""
from __future__ import annotations

from pathlib import Path
from typing import Optional

from .core import (
    DEFAULT_ORACLE_CAP,
    BFileError,
    EndKind,
    EngineDomainError,
    InfiniteFamilyError,
    OracleCapError,
    Orientation,
    PathQuery,
    dp_count,
    enumerate_count,
    enumerate_profile,
    _tally,
)
from .counts import prefix_count, prefix_series, suffix_count, suffix_series
from .series import Series


def series_for_query(
    k: Optional[int],
    kind: EndKind = EndKind.ANY,
    orientation: Orientation = Orientation.L2R,
    bound: Optional[int] = None,
    alternate: bool = False,
    *,
    order: int,
) -> Series:
    """The generating-function engine: exact series whose coefficient n
    counts the length-n paths of the query.  ``k is None`` sums over all end
    heights.  The fields are checked as `PathQuery` checks them."""
    PathQuery(order - 1, k, kind, orientation, bound, alternate)
    if alternate:
        if orientation is not Orientation.L2R or bound is not None:
            raise EngineDomainError(
                "alternate paths have series only for unbounded l2r queries "
                "with a fixed end height; use the dp engine otherwise"
            )
        from .alternate import alt_series

        return alt_series(k, kind, order)
    if bound is not None and (k is not None or orientation is Orientation.R2L):
        # a bound above `reach` changes no coefficient: a path shorter than
        # `order` falls back to k by ones left to right, and rises by ones
        # right to left
        reach = order - 1 + (k if orientation is Orientation.L2R else 0)
        bound = min(bound, max(k or 0, reach))
    if bound is not None:
        from .bounded import bounded_gf

        return bounded_gf(bound, k, kind, orientation).expand(order)
    if orientation is Orientation.L2R:
        return prefix_series(k, kind, order)
    return suffix_series(k, kind, order)  # k None: the total over end heights


def closed_count(query: PathQuery) -> int:
    """The closed-form ballot-number engine (unbounded, non-alternate queries)."""
    if query.alternate or query.bound is not None:
        raise EngineDomainError("closed forms cover unbounded non-alternate queries only")
    if query.orientation is Orientation.L2R:
        return prefix_count(query.n, query.k, query.kind)
    return suffix_count(query.n, query.k, query.kind)


def count_by_engine(engine: str, query: PathQuery, oracle_cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Evaluate one query on one engine by name."""
    if engine == "oracle":
        return enumerate_count(query, cap=oracle_cap)
    if engine == "dp":
        return dp_count(query)
    if engine == "closed":
        return closed_count(query)
    if engine == "gf":
        series = series_for_query(
            query.k, query.kind, query.orientation, query.bound, query.alternate,
            order=query.n + 1,
        )
        return series.coeffs[query.n]
    raise ValueError(f"unknown engine {engine!r}")


def engine_counts(query: PathQuery, oracle_cap: int = DEFAULT_ORACLE_CAP) -> dict[str, int]:
    """The query's count on every engine that answers it, in the order
    oracle, dp, closed, gf.  An engine that refuses the query, outside its
    domain or the oracle past `oracle_cap`, is left out; each refuses before
    it computes anything."""
    counts = {}
    for engine in ("oracle", "dp", "closed", "gf"):
        try:
            counts[engine] = count_by_engine(engine, query, oracle_cap)
        except (EngineDomainError, OracleCapError):
            pass
    return counts


# ---------------------------------------------------------------------------
# cross-engine agreement sweep
# ---------------------------------------------------------------------------

_KINDS = (EndKind.ANY, EndKind.UP, EndKind.FLAT, EndKind.DOWN)
#: Lengths on which the per-query oracle also runs, next to the census.
_PER_QUERY_ORACLE_N_MAX = 5


def cross_engine_grid(n_max: int = 9) -> Optional[str]:
    """Exhaustive agreement sweep: for every (n <= n_max, k in {none, 0..n},
    kind, orientation, bound in {none, 0..n}, alternate) compare the
    enumeration oracle, the dynamic program, and, where defined, the closed
    forms and the generating functions.  Totals over end heights (k none)
    take kind Any only, and infinite families are skipped.

    One exhaustive generation pass per (n, orientation, alternate) buckets
    paths by (end height, end kind, max height), from which every bounded and
    per-kind oracle count is a partial sum.  Every engine is asked through
    `engine_counts`, with the per-query oracle capped at the smaller lengths.

    Returns None when everything agrees, else a description of the first
    disagreement.
    """
    for n in range(0, n_max + 1):
        for orientation in (Orientation.L2R, Orientation.R2L):
            for alternate in (False, True):
                profile = enumerate_profile(n, orientation, alternate)
                for k in (None, *range(0, n + 1)):
                    for kind in _KINDS[:1] if k is None else _KINDS:
                        for bound in (None, *range(k or 0, n + 1)):
                            try:
                                query = PathQuery(n, k, kind, orientation, bound, alternate)
                            except InfiniteFamilyError:
                                continue
                            got = engine_counts(query, _PER_QUERY_ORACLE_N_MAX)
                            got["census"] = _tally(profile, query)
                            if len(set(got.values())) != 1:
                                return f"disagreement at {query}: {got}"
    return None


# ---------------------------------------------------------------------------
# b-file fixtures
# ---------------------------------------------------------------------------


def read_bfile(path: str | Path) -> dict[int, int]:
    """Parse a b-file of OEIS-style 'index value' lines into {index: value};
    blank lines and '#' comments are ignored, indices must be strictly
    increasing."""
    entries: list[tuple[int, int]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BFileError(f"unreadable b-file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"malformed b-file line {lineno}: {raw!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise BFileError(f"malformed b-file line {lineno}: {raw!r}") from exc
        if entries and idx <= entries[-1][0]:
            raise BFileError(f"b-file indices not strictly increasing at line {lineno}")
        entries.append((idx, val))
    return dict(entries)


def bundled_bfile(name: str) -> Path:
    """Path of a fixture shipped with the package."""
    return Path(__file__).parent / "data" / name


def compare_bfile(
    table: dict[int, int], computed: list[int], shift: int, start: int
) -> tuple[int, list[tuple[int, int, int]]]:
    """Compare computed[i] against the b-file value at index i - shift for
    every i >= start where both sides exist.  Returns (comparisons,
    mismatches) with mismatches as (index, computed, fixture) triples."""
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    comparisons = 0
    mismatches: list[tuple[int, int, int]] = []
    for i in range(start, len(computed)):
        j = i - shift
        if j not in table:
            continue
        comparisons += 1
        if computed[i] != table[j]:
            mismatches.append((i, computed[i], table[j]))
    return comparisons, mismatches


#: Bundled fixture checks: (fixture, query kwargs, shift, start).  Each
#: fixture is generated by an independent formula or a tiny standalone
#: dynamic program (see tools/gen_bfiles.py), so agreement here pins the
#: library against data it did not produce.
FIXTURE_CHECKS: tuple[tuple[str, dict, int, int], ...] = (
    ("b000108.txt", dict(k=0), 0, 0),
    ("b000245.txt", dict(k=1), 0, 0),
    ("b002057.txt", dict(k=2), 1, 0),
    ("b000344.txt", dict(k=3), 1, 0),
    ("b000108.txt", dict(k=1, orientation=Orientation.R2L), 0, 1),
    ("b000245.txt", dict(k=2, orientation=Orientation.R2L), 1, 0),
    ("b002057.txt", dict(k=3, orientation=Orientation.R2L), 3, 0),
    ("b001519.txt", dict(k=2, kind=EndKind.UP, bound=2), 0, 1),
    ("b007051.txt", dict(k=2, kind=EndKind.UP, bound=3), 1, 0),
    ("b080937.txt", dict(k=2, kind=EndKind.UP, bound=4), 0, 1),
    ("b000012.txt", dict(k=None, bound=0), 0, 0),
    ("b000079.txt", dict(k=None, bound=1), 0, 0),
    ("b001906.txt", dict(k=None, bound=2), -1, 0),
    ("b003462.txt", dict(k=None, bound=3), -1, 0),
    ("b005021.txt", dict(k=None, bound=4), 0, 0),
    ("b000012.txt", dict(k=None, bound=0, orientation=Orientation.R2L), 0, 0),
    ("b000079.txt", dict(k=None, bound=1, orientation=Orientation.R2L), 0, 0),
    ("b001519.txt", dict(k=None, bound=2, orientation=Orientation.R2L), -1, 0),
    ("b007051.txt", dict(k=None, bound=3, orientation=Orientation.R2L), 0, 0),
)


def run_fixture_checks() -> list[tuple[str, int, int]]:
    """Compare the bundled fixtures against the series engine to order 21.
    Returns (fixture name, comparisons, mismatches) per check."""
    results = []
    for name, kwargs, shift, start in FIXTURE_CHECKS:
        series = series_for_query(order=21, **kwargs)
        computed = series.integer_coefficients()
        table = read_bfile(bundled_bfile(name))
        ncomp, mismatches = compare_bfile(table, computed, shift, start)
        results.append((name, ncomp, len(mismatches)))
    return results
