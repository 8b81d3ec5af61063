"""Each engine states its domain once, by refusing the queries outside it
before computing.  These tests pin which engines answer each query shape, so
an engine that starts refusing a query it should answer fails here instead of
quietly dropping out of `count --engine all` and the `selftest` grid."""
import json

import pytest

from lukaspaths.cli import EXIT_OK, main
from lukaspaths.core import EndKind, Orientation, PathQuery
from lukaspaths.engines import engine_counts


def _grid(n_max: int):
    """Every finite query with n <= n_max, including one bound above reach."""
    for n in range(n_max + 1):
        for orientation in Orientation:
            for alternate in (False, True):
                for k in (None, *range(n + 1)):
                    for kind in (EndKind.ANY,) if k is None else EndKind:
                        for bound in (None, *range(k or 0, n + 2)):
                            query = PathQuery(n, k, kind, orientation, bound, alternate)
                            if not query.is_infinite():
                                yield query


def _domains(query: PathQuery, oracle_cap: int) -> list[str]:
    """The engines that define a count for the query, in asking order."""
    unbounded = query.bound is None
    engines = ["oracle"] if query.n <= oracle_cap else []
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
