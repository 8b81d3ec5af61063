"""Each engine states its domain once, by refusing the queries outside it
before computing.  These tests pin which engines answer each query shape, so
an engine that starts refusing a query it should answer fails here instead of
quietly dropping out of `count --engine all` and the `selftest` grid."""
import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lukaspaths
from lukaspaths.cli import EXIT_OK, main
from lukaspaths.core import (
    EndKind,
    EngineDomainError,
    InfiniteFamilyError,
    Orientation,
    PathQuery,
)
from lukaspaths.engines import engine_counts, series_for_query

from reference import shapes


def _grid(n_max: int):
    """Every finite query with n <= n_max, including one bound above reach."""
    for n in range(n_max + 1):
        for shape in shapes((None, *range(n + 1)), (None, *range(n + 2))):
            yield PathQuery(n, *shape)


def _domains(query: PathQuery, oracle_cap: int) -> list[str]:
    """The engines that define a count for the query, in asking order."""
    unbounded = query.bound is None
    top = query.k if query.k is not None else query.bound  # l2r: reached by one up-step
    oracle = query.n <= oracle_cap and (query.orientation is Orientation.R2L or top <= oracle_cap)
    engines = ["oracle"] if oracle else []
    engines.append("dp")
    if not query.alternate and unbounded:
        engines.append("closed")
    if not query.alternate or (
        query.orientation is Orientation.L2R and unbounded and query.k is not None
    ):
        engines.append("gf")
    return engines


@pytest.mark.parametrize("oracle_cap", [0, 5, 10])
def test_every_engine_answers_its_whole_domain(oracle_cap):
    for query in _grid(6):
        counts = engine_counts(query, oracle_cap)
        assert list(counts) == _domains(query, oracle_cap), query
        assert len(set(counts.values())) == 1, (query, counts)


@pytest.mark.parametrize("argv,engines", [
    (["--k", "1", "--alternate", "--orientation", "r2l"], ["oracle", "dp"]),
    (["--k", "1", "--alternate"], ["oracle", "dp", "gf"]),
    (["--k", "1", "--bound", "3"], ["oracle", "dp", "gf"]),
    (["--total", "--orientation", "r2l"], ["oracle", "dp", "closed", "gf"]),
    (["--k", "1", "--oracle-cap", "5"], ["dp", "closed", "gf"]),
])
def test_count_all_reports_the_engines_that_answered(capsys, argv, engines):
    assert main(["count", "--n", "6", *argv, "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["meta"]["engines"] == engines


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 8),
    k=st.none() | st.integers(0, 10),
    kind=st.sampled_from(EndKind),
    orientation=st.sampled_from(Orientation),
    bound=st.none() | st.integers(0, 12),
    alternate=st.booleans(),
)
def test_the_query_is_the_only_finiteness_check(n, k, kind, orientation, bound, alternate):
    """`PathQuery` refuses exactly the infinite family; every query it
    builds has an answer on which the engines agree, and the series engine,
    given the same fields, refuses what `PathQuery` refuses, in its words,
    and otherwise at most its own domain."""
    fields = (k, kind, orientation, bound, alternate)
    infinite = k is None and bound is None and orientation is Orientation.L2R
    try:
        query = PathQuery(n, *fields)
    except ValueError as exc:
        if isinstance(exc, InfiniteFamilyError):
            assert infinite and kind is EndKind.ANY
        elif isinstance(exc, EngineDomainError):
            assert k is None and kind is not EndKind.ANY
        else:
            assert k is not None and bound is not None and k > bound
        with pytest.raises(ValueError) as refused:
            series_for_query(*fields, order=n + 1)
        assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
        return
    assert not infinite
    counts = engine_counts(query, 6)
    assert counts and len(set(counts.values())) == 1, (query, counts)
    try:
        series_for_query(*fields, order=n + 1)
    except EngineDomainError:
        pass


def test_every_count_is_its_series_coefficient():
    """Every engine that answers a query gives the gf engine's coefficient n,
    n = 0 included: the empty path is in the k = 0 up family on all four, so
    the kinds add up to Any at every length.  Every shape the gf engine
    answers at n <= 6, with one bound above reach."""
    answered = 0
    for shape in shapes((None, *range(7)), (None, *range(8))):
        try:
            series = series_for_query(*shape, order=7)
        except EngineDomainError:
            continue
        answered += 1
        for n in range(7):
            query = PathQuery(n, *shape)
            got = engine_counts(query)
            assert set(got.values()) == {series[n]}, (query, got)
    assert answered >= 381  # a wider gf domain only adds shapes


def _raise_sites(name: str) -> list[str]:
    """`module.qualified.function` of every `raise name(...)` in the package."""
    sites = []

    def visit(node: ast.AST, where: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, where + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc).rpartition(".")[2] == name:
                    sites.append(".".join(where))
            visit(child, where)

    for path in sorted(Path(lukaspaths.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return sites


def test_only_the_query_raises_infinite_family():
    """No entry point states the finiteness rule again: it asks `PathQuery`."""
    assert _raise_sites("InfiniteFamilyError") == ["core.PathQuery.__init__"]
