"""Run one `lukas` command with call counters and self-time accounting
wrapped around the public functions of each lukaspaths module.

    PYTHONPATH=src python3 perfbench/tracer.py count --n 9 --k 2

Standard output and the exit code are exactly those of
``python -m lukaspaths <argv>``.  The last line written to standard error is
MARKER followed by one JSON object:

    {"import_s": ..., "stats": {name: [calls, self_s]}, "counts": {name: n}}

Self time is the time inside a wrapper minus the time inside traced callees.
Hot functions (the IntPoly and Series operators, `n_poly`) are called up to
10^6 times per job, so each call only bumps a counter and a running sum; no
per-call span is kept.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

MARKER = "perfbench-trace "

#: The engine names `count_by_engine` dispatches on; each gets its own stat.
ENGINES = ("oracle", "dp", "closed", "gf")
#: Exact counts and, for names with ".max_", maxima; every job reports all.
COUNTERS = (
    "core.dp_count.cells", "core.oracle.paths", "engines.series_for_query.order",
    "series.Series.mul.terms", "series.Series.max_order",
    "series.IntPoly.mul.terms", "series.IntPoly.max_degree",
)


class Tracer:
    """Per-name [calls, self seconds] plus exact counters and maxima."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # time spent in traced callees of each open call; the base slot
        # absorbs calls made outside any traced function
        self._inner = [0.0]

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def wrap(self, fn, name: str, note=None, keyed: bool = False):
        """Wrap `fn`, charging each call to stat `name`.  With `keyed`, the
        stat is `name.<first argument>`.  `note(args, kwargs, result)` runs
        after the timed region to update counters."""
        inner = self._inner
        fixed = None if keyed else self.stat(name)
        stats = self.stats

        def wrapper(*args, **kwargs):
            stat = fixed or stats[f"{name}.{args[0]}"]
            inner.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - inner.pop()
                inner[-1] += dt
            if note is not None:
                note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _lukas_namespaces():
    """Every module and class namespace of the lukaspaths package."""
    for name, module in list(sys.modules.items()):
        if name != "lukaspaths" and not name.startswith("lukaspaths."):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("lukaspaths"):
                yield value


def _replace(original, wrapper) -> int:
    """Rebind every name that refers to `original`, in every lukaspaths
    module and class, to `wrapper`.  Aliases such as `__rmul__ = __mul__`
    and names imported into other modules are all rebound."""
    hits = 0
    for space in _lukas_namespaces():
        for attr, value in list(vars(space).items()):
            if value is original:
                setattr(space, attr, wrapper)
                hits += 1
    return hits


def unwrapped(originals) -> list[str]:
    """Names in lukaspaths namespaces still bound to an unwrapped original."""
    ids = {id(fn) for fn in originals}
    return [
        f"{getattr(space, '__name__', space)}.{attr}"
        for space in _lukas_namespaces()
        for attr, value in vars(space).items()
        if id(value) in ids
    ]


def _dp_cells(query) -> int:
    """Length times height window, sized the way `dp_count` sizes its arrays:
    the window is the largest per-position height cap plus two slack slots."""
    n, k, bound = query.n, query.k, query.bound
    if n == 0:
        return 0
    if query.orientation.value == "r2l":
        top = n if bound is None else min(bound, n)
    else:
        caps = [c for c in (bound, None if k is None else k + n - 1) if c is not None]
        top = min(caps)
    return n * (top + 2)


def install(tracer: Tracer) -> list:
    """Wrap the traced functions of lukaspaths; returns the originals."""
    from lukaspaths import alternate, asymptotics, bounded, cli, core, counts, engines
    from lukaspaths.series import IntPoly, RationalGF, Series

    def series_mul(args, kwargs, result):
        a, b = args
        m = result.order
        both = isinstance(b, Series)
        tracer.add("series.Series.mul.terms", m * (m + 1) // 2 if both else m)
        tracer.peak("series.Series.max_order", max(a.order, b.order if both else 0))

    def poly_mul(args, kwargs, result):
        a, b = args
        width = len(b.coeffs) if isinstance(b, IntPoly) else 1
        tracer.add("series.IntPoly.mul.terms", len(a.coeffs) * width)
        tracer.peak("series.IntPoly.max_degree", result.degree)

    def built_order(args, kwargs, result):
        tracer.add("engines.series_for_query.order", result.order)

    def dp_cells(args, kwargs, result):
        tracer.add("core.dp_count.cells", _dp_cells(args[0]))

    def oracle_paths(args, kwargs, result):
        tracer.add("core.oracle.paths", result)

    def profile_paths(args, kwargs, result):
        tracer.add("core.oracle.paths", sum(result.values()))

    targets = [
        (cli.main, "cli.main", None),
        (engines.series_for_query, "engines.series_for_query", built_order),
        (engines.cross_engine_grid, "engines.cross_engine_grid", None),
        (engines.run_fixture_checks, "engines.run_fixture_checks", None),
        (core.dp_count, "core.dp_count", dp_cells),
        (core.enumerate_count, "core.enumerate_count", oracle_paths),
        (core.enumerate_profile, "core.enumerate_profile", profile_paths),
        (Series.__mul__, "series.Series.mul", series_mul),
        (Series.__pow__, "series.Series.pow", None),
        (Series.__truediv__, "series.Series.div", None),
        (Series.inverse, "series.Series.div", None),
        (Series.sqrt, "series.Series.sqrt", None),
        (IntPoly.__mul__, "series.IntPoly.mul", poly_mul),
        (IntPoly.exact_div, "series.IntPoly.exact_div", None),
        (RationalGF.expand, "series.RationalGF.expand", None),
        (RationalGF.coefficients_int, "series.RationalGF.coefficients_int", None),
        (counts.prefix_series, "counts.prefix_series", None),
        (counts.suffix_series, "counts.suffix_series", None),
        (counts.prefix_count, "counts.closed", None),
        (counts.suffix_count, "counts.closed", None),
        (bounded.n_poly, "bounded.n_poly", None),
        (bounded.d_poly, "bounded.d_poly", None),
        (bounded.bounded_gf, "bounded.bounded_gf", None),
        (bounded.total_bounded_gf, "bounded.total_bounded_gf", None),
        (alternate.s1_series, "alternate.s1_series", None),
        (alternate.alt_series, "alternate.alt_series", None),
        (asymptotics.avg_height, "asymptotics.avg_height", None),
        (engines.count_by_engine, "engines.count_by_engine", None),
    ]
    for engine in ENGINES:
        tracer.stat(f"engines.count_by_engine.{engine}")
    for counter in COUNTERS:
        tracer.counts.setdefault(counter, 0)
    originals = []
    for fn, name, note in targets:
        wrapper = tracer.wrap(fn, name, note, keyed=name == "engines.count_by_engine")
        if _replace(fn, wrapper) == 0:
            raise RuntimeError(f"no binding of {name} found to wrap")
        originals.append(fn)
    missed = unwrapped(originals)
    if missed:
        raise RuntimeError(f"calls would bypass the tracer through {missed}")
    return originals


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import lukaspaths.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return lukaspaths.cli.main(argv)
    finally:  # also on the SystemExit of a usage error
        sys.stdout.flush()
        record = {"import_s": import_s, "stats": tracer.stats, "counts": tracer.counts}
        print(MARKER + json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
