from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from lukaspaths.alternate import alt_series
from lukaspaths.bounded import bounded_gf, total_bounded_gf
from lukaspaths.core import (
    EndKind,
    InfiniteFamilyError,
    OracleCapError,
    Orientation,
    PathQuery,
    STEP_KINDS,
    _bound_sweep,
    dp_count,
    enumerate_count,
    enumerate_profile,
)
from lukaspaths.engines import closed_count

from reference import KINDS, catalan

def _kind(rise):
    """A step's direction class, by the sign of its rise."""
    return EndKind.UP if rise > 0 else EndKind.FLAT if rise == 0 else EndKind.DOWN


def _top(rises, orientation=Orientation.L2R, alternate=False):
    """The paper's definition, independent of the oracle: a path is a
    sequence of steps (1, r) with r >= -1 left to right and r <= 1 right to
    left that never goes below height 0; an alternate path never takes two
    steps of one direction class in a row.  The max height of `rises`, or
    None if it is not such a path."""
    h = top = 0
    for i, r in enumerate(rises):
        if r < -1 if orientation is Orientation.L2R else r > 1:
            return None
        if alternate and i and _kind(r) is _kind(rises[i - 1]):
            return None
        h += r
        if h < 0:
            return None
        top = max(top, h)
    return top


# `_top` is the reference of the brute-force oracle test below, so these
# tests pin it on the paper's example path and on the step-set and
# alternation rules.
# the length-18 example path: U5 D D F F D U2 D D D D U2 F U2 D D D D
FIG_RISES = (5, -1, -1, 0, 0, -1, 2, -1, -1, -1, -1, 2, 0, 2, -1, -1, -1, -1)


def test_validate_examples():
    assert _top(FIG_RISES) is not None
    assert _top(()) == 0
    assert _top((-1,)) is None


def test_validate_checks_step_set():
    assert _top((2, -2)) is None  # falls of size 2 are r2l-only
    assert _top((1, 1, -2), Orientation.R2L) is not None
    assert _top((2,), Orientation.R2L) is None


def test_max_height():
    assert _top(FIG_RISES) == 5
    assert _top((1, -1, 0)) == 1


def test_is_alternate():
    assert _top((1, 0, -1), alternate=True) == 1
    assert _top((0, 0), alternate=True) is None
    assert _top((2, 1, -1), alternate=True) is None  # sizes differ, class clashes


def test_path_query_invariants():
    with pytest.raises(ValueError, match="exceeds"):
        PathQuery(3, k=4, bound=2)
    with pytest.raises(ValueError):
        PathQuery(-1, 0)
    with pytest.raises(InfiniteFamilyError, match="infinite family"):
        PathQuery(3, None, bound=None, orientation=Orientation.L2R)
    PathQuery(3, None, orientation=Orientation.R2L)


def test_oracle_examples():
    assert enumerate_count(PathQuery(3, 0)) == 5
    assert enumerate_count(PathQuery(0, 0)) == 1
    assert enumerate_count(PathQuery(0, 0, orientation=Orientation.R2L)) == 1
    assert enumerate_count(PathQuery(9, 0, alternate=True)) == 173


def test_oracle_cap():
    with pytest.raises(OracleCapError, match="oracle cap exceeded"):
        enumerate_count(PathQuery(11, 0))
    assert enumerate_count(PathQuery(11, 0), cap=11) == catalan(11)


def test_oracle_infinite_family():
    with pytest.raises(InfiniteFamilyError, match="infinite family"):
        enumerate_count(PathQuery(2, None))


def test_dp_examples():
    assert dp_count(PathQuery(9, 1)) == 11934
    assert dp_count(PathQuery(9, 3, orientation=Orientation.R2L)) == 2002
    assert dp_count(PathQuery(4, 2, EndKind.UP, bound=2)) == 13


def test_dp_infinite_family():
    with pytest.raises(InfiniteFamilyError):
        dp_count(PathQuery(5, None))


def test_dp_handles_large_end_heights():
    # a single big up-step reaches any height in one move
    assert dp_count(PathQuery(1, 7)) == 1
    assert dp_count(PathQuery(1, 7, orientation=Orientation.R2L)) == 0


def test_empty_path_conventions():
    """The empty path is in the k = 0 up family, as in the paper's f_0, and
    so in Any; no flat or down path has length 0."""
    for orientation, alternate, bound in product(Orientation, (False, True), (None, 0)):
        for kind, want in zip(KINDS, (1, 1, 0, 0)):
            q = PathQuery(0, 0, kind, orientation, bound, alternate)
            assert dp_count(q) == enumerate_count(q) == want, q
    assert dp_count(PathQuery(0, None, orientation=Orientation.R2L)) == 1
    assert dp_count(PathQuery(0, 1, EndKind.UP)) == 0


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
@pytest.mark.parametrize("alternate", [False, True])
def test_oracle_dp_equivalence_small_grid(orientation, alternate):
    for n in range(0, 6):
        for k in range(0, n + 1):
            for kind in KINDS:
                for bound in [None, *range(k, n + 1)]:
                    q = PathQuery(n, k, kind, orientation, bound, alternate)
                    assert enumerate_count(q) == dp_count(q), q


def test_profile_buckets_match_per_query_oracle():
    prof = enumerate_profile(5, Orientation.L2R, False)
    for k in range(6):
        for kind in KINDS:
            kinds = (EndKind.UP, EndKind.FLAT, EndKind.DOWN) if kind is EndKind.ANY else (kind,)
            got = sum(c for (h, kd, mh), c in prof.items() if h == k and kd in kinds)
            assert got == enumerate_count(PathQuery(5, k, kind))


def _definitional_census(n, orientation, alternate):
    """Every rise sequence in [-n, 2n]^n that `_top` accepts, bucketed by
    (end height, last step kind, max height); the empty path's kind is up.
    Those rises cover every length-n path that ends at height n + 1 or
    lower, or never climbs above it: left to right a fall is one unit, so no
    rise exceeds 2n, and right to left no fall exceeds n."""
    census = Counter()
    for rises in product(range(-n, 2 * n + 1), repeat=n):
        top = _top(rises, orientation, alternate)
        if top is not None:
            census[sum(rises), _kind(rises[-1]) if n else EndKind.UP, top] += 1
    return census


def _answers(census, q):
    """The count of query q tallied from a census keyed by (end height,
    last step kind, max height)."""
    return sum(
        c for (h, last, top), c in census.items()
        if (q.k is None or h == q.k) and q.kind in (EndKind.ANY, last)
        and (q.bound is None or top <= q.bound)
    )


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
@pytest.mark.parametrize("alternate", [False, True])
def test_oracle_matches_definitional_model(orientation, alternate):
    for n in range(0, 5):
        census = _definitional_census(n, orientation, alternate)
        profile = {key: c for key, c in census.items() if key[0] <= n}
        assert enumerate_profile(n, orientation, alternate) == profile, n
        for k in [None, *range(0, n + 2)]:
            for kind in KINDS[:1] if k is None else KINDS:
                for bound in [None, *range(k or 0, n + 2)]:
                    try:
                        q = PathQuery(n, k, kind, orientation, bound, alternate)
                    except InfiniteFamilyError:
                        continue
                    assert enumerate_count(q) == _answers(census, q), q


def _walked_census(n, orientation, alternate, k=None, bound=None):
    """The oracle's census as one plain walk, without the tables of its last
    steps: every path is walked step by step to its end and counted there,
    by (end height, last step kind, max height), the empty path as up.  The
    pruning is the oracle's: after a step from height h with ``rem`` steps
    still to take, the new height lies in [max(h - 1, 0), min(bound, hi +
    rem)] left to right and [max(lo - rem, 0), min(h + 1, bound)] right to
    left, with lo k (else 0) and hi k, else the bound, else n."""
    l2r = orientation is Orientation.L2R
    lo = k or 0
    hi = k if k is not None else bound if bound is not None else n
    up, flat, down = STEP_KINDS
    buckets = Counter()

    def walk(i, h, top, last):
        if i == n:
            buckets[h, up if last is None else last, top] += 1
            return
        rem = n - i - 1
        if l2r:
            first, stop = (h - 1 if h else 0), hi + rem
        else:
            first, stop = (lo - rem if lo > rem else 0), h + 1
        if bound is not None and stop > bound:
            stop = bound
        for nh in range(first, stop + 1):
            kind = up if nh > h else flat if nh == h else down
            if not (alternate and kind is last):
                walk(i + 1, nh, nh if nh > top else top, kind)

    walk(0, 0, 0, None)
    return dict(buckets)


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
@pytest.mark.parametrize("alternate", [False, True])
def test_oracle_tables_match_the_plain_walk(orientation, alternate):
    """The census reads each path's last steps from a table: it must bucket
    exactly the paths the plain walk counts one by one, at lengths below, at
    and past the table's four steps."""
    for n in range(0, 9):
        assert enumerate_profile(n, orientation, alternate) == _walked_census(
            n, orientation, alternate), n
    for n in range(0, 7):
        for k in [None, *range(0, n + 2)]:
            for bound in [None, *range(k or 0, n + 2)]:
                census = _walked_census(n, orientation, alternate, k, bound)
                for kind in KINDS[:1] if k is None else KINDS:
                    try:
                        q = PathQuery(n, k, kind, orientation, bound, alternate)
                    except InfiniteFamilyError:
                        continue
                    assert enumerate_count(q) == _answers(census, q), q


#: Lengths for the DP-only invariants: the whole small range, then a few
#: lengths far past the n <= 9 cross-engine grid.
INVARIANT_LENGTHS = (*range(8), 13, 24, 40)
MODELS = list(product((Orientation.L2R, Orientation.R2L), (False, True)))


def test_census_sums_to_its_number_of_paths():
    """A census buckets every path once, the empty path included."""
    for n, (orientation, alternate) in product(range(8), MODELS):
        paths = sum(dp_count(PathQuery(n, k, EndKind.ANY, orientation, alternate=alternate))
                    for k in range(n + 1))
        census = enumerate_profile(n, orientation, alternate)
        assert sum(census.values()) == paths, (n, orientation, alternate)


def test_oracle_keys_hold_past_n():
    """End heights and bounds above n: left to right a path's max height
    reaches k + n - 1, past any span sized by n alone, and every census key
    packs and unpacks its max height exactly.  The cap is raised to the
    largest k, which the oracle refuses left to right at the default cap."""
    for n, (orientation, alternate) in product(range(5), MODELS):
        for k in range(2 * n + 5):
            for kind, bound in product(KINDS, [None, *range(k, k + n + 2)]):
                q = PathQuery(n, k, kind, orientation, bound, alternate)
                assert enumerate_count(q, cap=2 * n + 4) == dp_count(q), q


def test_kind_additivity():
    for n, (orientation, alternate) in product(INVARIANT_LENGTHS, MODELS):
        for k in range(0, n + 1):
            parts = sum(
                dp_count(PathQuery(n, k, kind, orientation, None, alternate))
                for kind in (EndKind.UP, EndKind.FLAT, EndKind.DOWN)
            )
            whole = dp_count(PathQuery(n, k, EndKind.ANY, orientation, None, alternate))
            assert whole == parts


def test_bound_saturation():
    # no path of length n ending at k climbs above n + k, in either model;
    # a bound far above that must not size the DP's lists either
    huge = 10**12
    for n, (orientation, alternate) in product(INVARIANT_LENGTHS, MODELS):
        for k in range(0, n + 1):
            free = dp_count(PathQuery(n, k, EndKind.ANY, orientation, None, alternate))
            for bound in (n + k, 2 * n + k + 3, huge):
                q = PathQuery(n, k, EndKind.ANY, orientation, bound, alternate)
                assert dp_count(q) == free, q
        if orientation is Orientation.R2L:
            free = dp_count(PathQuery(n, None, EndKind.ANY, orientation, None, alternate))
            for bound in (n, huge):
                q = PathQuery(n, None, EndKind.ANY, orientation, bound, alternate)
                assert dp_count(q) == free, q


@settings(max_examples=130, deadline=None)
@given(data=st.data())
def test_dp_agrees_with_the_other_engines_past_the_grid(data):
    """Unbounded counts, right-to-left totals over end heights among them,
    against the closed forms (n <= 300), bounded counts and bounded totals
    over end heights against the bounded generating functions (n <= 60), and
    unbounded alternate left-to-right counts against the alternate series
    (n <= 60)."""
    route = data.draw(st.sampled_from(["closed", "bounded", "total", "alternate"]))
    n = data.draw(st.integers(1, 300 if route == "closed" else 60), label="n")
    k = data.draw(st.integers(0, 12), label="k")
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    orientation = Orientation.L2R
    if route != "alternate":
        orientation = data.draw(st.sampled_from([Orientation.L2R, Orientation.R2L]))
    bound = None
    if route == "closed":
        if orientation is Orientation.R2L and data.draw(st.booleans(), label="total"):
            k, kind = None, EndKind.ANY  # over every end height
        want = closed_count(PathQuery(n, k, kind, orientation))
    elif route == "bounded":
        bound = data.draw(st.integers(k, k + 12), label="bound")
        want = bounded_gf(bound, k, kind, orientation).coefficients_int(n + 1)[n]
    elif route == "total":  # left to right the DP starts from every height
        k, kind = None, EndKind.ANY
        bound = data.draw(st.integers(0, 12), label="bound")
        want = total_bounded_gf(bound, orientation).coefficients_int(n + 1)[n]
    else:
        want = alt_series(k, kind, n + 1)[n]
    assert dp_count(PathQuery(n, k, kind, orientation, bound, route == "alternate")) == want


def test_catalan_closure():
    for n in range(0, 21):
        assert dp_count(PathQuery(n, 0)) == catalan(n)


def test_monotone_in_bound():
    for n in range(1, 8):
        prev = -1
        for t in range(0, n + 1):
            cur = dp_count(PathQuery(n, 0, bound=t))
            assert cur >= prev
            prev = cur


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
def test_bound_sweep_matches_dp_count_per_bound(orientation):
    # every bound of the sweep, from t = k to one past saturation
    ends = range(6) if orientation is Orientation.L2R else [None, *range(6)]
    for k in ends:
        for n in range(0, 31):
            bounds = range(k or 0, n + (k or 0) + 2)
            want = [dp_count(PathQuery(n, k, EndKind.ANY, orientation, bound=t))
                    for t in bounds]
            assert list(islice(_bound_sweep(n, k, orientation), len(bounds))) == want, (k, n)


@settings(max_examples=40)
@given(
    n=st.integers(min_value=0, max_value=8),
    k=st.integers(min_value=0, max_value=8),
    alternate=st.booleans(),
    orientation=st.sampled_from([Orientation.L2R, Orientation.R2L]),
)
def test_alternate_counts_never_exceed_unrestricted(n, k, alternate, orientation):
    plain = dp_count(PathQuery(n, k, EndKind.ANY, orientation))
    alt = dp_count(PathQuery(n, k, EndKind.ANY, orientation, alternate=True))
    assert alt <= plain


@pytest.mark.parametrize("kind", [EndKind.UP, EndKind.FLAT, EndKind.DOWN])
@pytest.mark.parametrize("bound", [None, 3])
def test_totals_by_kind_are_not_a_query(kind, bound):
    from lukaspaths.engines import EngineDomainError

    with pytest.raises(EngineDomainError, match="kind=any only"):
        PathQuery(3, None, kind, Orientation.R2L, bound)
    assert dp_count(PathQuery(3, None, EndKind.ANY, Orientation.R2L, bound)) > 0
