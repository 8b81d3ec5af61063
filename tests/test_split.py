"""The split identity ties the two orientations together far past the
n <= 9 cross-engine grid.

Cut a return-to-zero path of length N after step n.  The first part is a
prefix ending at some height k; the second part, read backwards, is a
right-to-left path of length N - n ending at k.  So, under any bound t or
none,

    sum over k = 0 .. N - n of P(n, k) * S(N - n, k) = P(N, 0),

with P the left-to-right Any count and S the right-to-left one.  k runs to
N - n, not n: one left-to-right step climbs any height, while a
right-to-left path rises by one at most.  For alternate paths the kinds at
the cut must differ, and the right-to-left family's last step is the
suffix's first step mirrored (up and down swap), so the sum is

    sum over k and a != b of P(n, k, a) * S(N - n, k, mirror(b)).

Each check pairs one engine left to right with another right to left, so a
wrong count at one length and height in either orientation breaks every
cut that reads it.
"""
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from lukaspaths.core import STEP_KINDS, EndKind, Orientation, PathQuery, dp_count
from lukaspaths.counts import prefix_count, suffix_count
from lukaspaths.engines import series_for_query

from reference import catalan

L2R, R2L = Orientation.L2R, Orientation.R2L
MIRROR = {EndKind.UP: EndKind.DOWN, EndKind.FLAT: EndKind.FLAT, EndKind.DOWN: EndKind.UP}


def _split(left, right, n: int, big_n: int, bound=None) -> int:
    """The identity's left side at cut n: left(n, k) * right(N - n, k)
    summed over k = 0 .. N - n, and k <= bound."""
    top = big_n - n if bound is None else min(bound, big_n - n)
    return sum(left(n, k) * right(big_n - n, k) for k in range(top + 1))


@pytest.mark.parametrize("big_n", [1, 2, 5, 9, 40, 120])
def test_plain_split_every_cut(big_n):
    for n in range(big_n + 1):
        assert _split(prefix_count, suffix_count, n, big_n) == catalan(big_n), n


@settings(max_examples=25, deadline=None)
@given(big_n=st.integers(0, 300), data=st.data())
def test_plain_split_far_past_the_grid(big_n, data):
    n = data.draw(st.integers(0, big_n))
    assert _split(prefix_count, suffix_count, n, big_n) == prefix_count(big_n, 0)


def _gf(orientation: Orientation, big_n: int, bound=None, alternate=False):
    """count(m, k, kind) by the gf engine, one series to order N + 1 per
    (k, kind)."""
    @cache
    def series(k, kind):
        return series_for_query(k, kind, orientation, bound, alternate, order=big_n + 1)

    return lambda m, k, kind=EndKind.ANY: series(k, kind)[m]


def _dp(orientation: Orientation, bound=None, alternate=False):
    """count(m, k, kind) by the dp engine, each count asked once."""
    @cache
    def count(m, k, kind=EndKind.ANY):
        return dp_count(PathQuery(m, k, kind, orientation, bound, alternate))

    return count


BOUNDED_N = 80


@pytest.mark.parametrize("t", [0, 1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("left_engine", ["gf", "dp"])
def test_bounded_split_gf_against_dp(t, left_engine):
    """One orientation by gf, the other by dp, every cut of N = 80 under
    bound t."""
    if left_engine == "gf":
        left, right = _gf(L2R, BOUNDED_N, t), _dp(R2L, t)
    else:
        left, right = _dp(L2R, t), _gf(R2L, BOUNDED_N, t)
    whole = left(BOUNDED_N, 0)
    assert whole == series_for_query(0, bound=t, order=BOUNDED_N + 1)[BOUNDED_N]
    for n in range(BOUNDED_N + 1):
        assert _split(left, right, n, BOUNDED_N, t) == whole, n


def _alt_split(left, right, n: int, big_n: int) -> int:
    return sum(
        left(n, k, a) * right(big_n - n, k, MIRROR[b])
        for k in range(big_n - n + 1)
        for a in STEP_KINDS for b in STEP_KINDS if a is not b
    )


@pytest.mark.parametrize("big_n,cuts", [
    (2, range(1, 2)), (5, range(1, 5)), (9, range(1, 9)), (30, range(1, 30)),
    (120, (50, 60, 70)),
])
def test_alternate_split_gf_against_dp(big_n, cuts):
    """Left to right by gf, right to left by dp, at cuts 1 <= n < N: at
    n = 0 or n = N the empty part has no step whose kind the rule reads."""
    left, right = _gf(L2R, big_n, alternate=True), _dp(R2L, alternate=True)
    whole = left(big_n, 0)
    assert whole == dp_count(PathQuery(big_n, 0, alternate=True))
    for n in cuts:
        assert _alt_split(left, right, n, big_n) == whole, n
