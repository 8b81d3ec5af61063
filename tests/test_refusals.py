"""The library's failure paths: the self-check's reports when two engines or
a fixture disagree, and the public functions' refusals of bad arguments.  A
check that never fails in a test could never fail at all."""
from fractions import Fraction

import pytest

from lukaspaths import engines
from lukaspaths.alternate import alt_series, dominant_root, s1_series
from lukaspaths.asymptotics import avg_height, substitution_check
from lukaspaths.bounded import bounded_gf, n_poly, total_bounded_gf
from lukaspaths.cli import EXIT_DISAGREE, main
from lukaspaths.core import (
    EndKind, EngineDomainError, InfiniteFamilyError, OracleCapError, Orientation, PathQuery,
    enumerate_count, enumerate_profile,
)
from lukaspaths.counts import prefix_count, suffix_count
from lukaspaths.series import Series, catalan_gf

#: The first query of the n <= 2 grid that the planted fault below changes.
FIRST_BAD = PathQuery(1, 1, EndKind.ANY, Orientation.R2L)


@pytest.fixture
def wrong_closed(monkeypatch):
    """The closed engine, one too high for right-to-left paths ending at 1."""
    right = engines.closed_count

    def wrong(query):
        return right(query) + (query.orientation is Orientation.R2L and query.k == 1)

    monkeypatch.setattr(engines, "closed_count", wrong)


def test_grid_names_the_first_disagreement(wrong_closed):
    failure = engines.cross_engine_grid(n_max=2)
    assert failure.startswith(f"disagreement at {FIRST_BAD}: ")
    assert "'closed': 2" in failure and "'dp': 1" in failure


def test_selftest_fails_on_a_grid_disagreement(wrong_closed, capsys):
    assert main(["selftest", "--quick"]) == EXIT_DISAGREE == 5
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith(f"FAIL: disagreement at {FIRST_BAD}: ")
    assert "cross-engine grid: ok" not in out


def test_count_all_fails_on_a_disagreement(wrong_closed, capsys):
    assert main(["count", "--n", "3", "--k", "1", "--orientation", "r2l"]) == EXIT_DISAGREE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: engine disagreement at {PathQuery(3, 1, EndKind.ANY, Orientation.R2L)}: ")


def test_selftest_fails_on_a_fixture_mismatch(monkeypatch, capsys):
    (name, kwargs, shift, start), *rest = engines.FIXTURE_CHECKS
    monkeypatch.setattr(engines, "FIXTURE_CHECKS", ((name, kwargs, shift + 1, start), *rest))
    assert main(["selftest", "--quick"]) == EXIT_DISAGREE
    out = capsys.readouterr().out.splitlines()
    assert "cross-engine grid: ok" in out
    failed = [line for line in out if line.endswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith(f"  {name}: ")
    assert "selftest: all checks passed" not in out


def test_count_by_engine_refuses_an_unknown_engine():
    with pytest.raises(ValueError, match="^unknown engine 'nope'$"):
        engines.count_by_engine("nope", PathQuery(3, 0))


@pytest.mark.parametrize("call,error,message", [
    (lambda: s1_series(0), ValueError, "order must be positive"),
    (lambda: alt_series(-1), ValueError, "end height must be nonnegative"),
    (lambda: alt_series(None), InfiniteFamilyError,
     "infinite family: unbounded l2r query with no end height"),
    (lambda: dominant_root(0), ValueError, "tolerance must be positive"),
    (lambda: avg_height(5, "return-to-zero", route="closed"), ValueError,
     "route must be 'gf' or 'dp'"),
    (lambda: substitution_check(-1, Fraction(1, 3)), ValueError, "bound must be nonnegative"),
    (lambda: n_poly(-1, 1), ValueError, "bound must be nonnegative"),
    (lambda: bounded_gf(2, -1), ValueError, "end height must be nonnegative"),
    (lambda: bounded_gf(-1, 0), ValueError, "bound must be nonnegative"),
    (lambda: bounded_gf(2, None, EndKind.UP), EngineDomainError,
     "totals over end heights are defined for kind=any only"),
    (lambda: total_bounded_gf(-1), ValueError, "bound must be nonnegative"),
    (lambda: enumerate_profile(11), OracleCapError, "oracle cap exceeded: n=11 > 10"),
    (lambda: enumerate_profile(-1), ValueError, "length must be nonnegative"),
    (lambda: enumerate_count(PathQuery(3, 11)), OracleCapError, "oracle cap exceeded: k=11 > 10"),
    (lambda: enumerate_count(PathQuery(3, bound=11)), OracleCapError,
     "oracle cap exceeded: bound=11 > 10"),
    (lambda: prefix_count(3, None), InfiniteFamilyError,
     "infinite family: unbounded l2r query with no end height"),
    (lambda: prefix_count(-1, 0), ValueError, "length must be nonnegative"),
    (lambda: suffix_count(3, None, EndKind.UP), EngineDomainError,
     "totals over end heights are defined for kind=any only"),
    (lambda: Series([1, 2])[5], IndexError, "coefficient 5 unknown at truncation order 2"),
    (lambda: Series([1]) ** -1, ValueError, "negative powers: invert first"),
    (lambda: Series([0, 1]).shift_down(2), ValueError, "order too small to shift down"),
    (lambda: catalan_gf(0), ValueError, "order must be positive"),
])
def test_public_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
