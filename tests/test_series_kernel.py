"""The integer series kernel against a plain-Fraction reference, and the
generating-function engine against the closed forms and the dynamic program
well past the n <= 9 grid."""
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from lukaspaths.alternate import alt_series, s1_series
from lukaspaths.bounded import bounded_gf, n_poly, total_bounded_gf
from lukaspaths.core import EndKind, Orientation, PathQuery, dp_count
from lukaspaths.counts import prefix_count, prefix_series, suffix_count, suffix_series
from lukaspaths.engines import series_for_query
from lukaspaths.series import IntPoly, RationalGF, Series, catalan_gf, quadratic_powers

from reference import KINDS

# -- plain-Fraction reference: lists of Fractions, schoolbook loops ----------


def ref_add(a, b):
    return [x + y for x, y in zip(a, b)]


def ref_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def ref_mul(a, b):
    m = min(len(a), len(b))
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(m)]


def ref_div(a, b):
    m = min(len(a), len(b))
    out = []
    for n in range(m):
        acc = a[n] - sum((b[j] * out[n - j] for j in range(1, n + 1)), Fraction(0))
        out.append(acc / b[0])
    return out


def ref_pow(a, k):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_sqrt(a):
    """Coefficient recurrence 2 s_n = a_n - sum_{0<j<n} s_j s_(n-j), s_0 = 1."""
    out = [Fraction(1)]
    for n in range(1, len(a)):
        acc = a[n] - sum((out[j] * out[n - j] for j in range(1, n)), Fraction(0))
        out.append(acc / 2)
    return out


def is_integral(s: Series) -> bool:
    return all(type(c) is int for c in s.coeffs)


orders = st.integers(min_value=1, max_value=40)
small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def coefficient_lists(draw):
    """A list of 1..40 small integer coefficients."""
    m = draw(orders)
    return draw(st.lists(small_ints, min_size=m, max_size=m))


@st.composite
def pairs(draw):
    """Two coefficient lists of independent orders (operations truncate to
    the shorter)."""
    return draw(coefficient_lists()), draw(coefficient_lists())


@st.composite
def divisor_pairs(draw):
    """A quotient and a divisor whose constant term is +-1 or another small
    nonzero integer."""
    q, b = draw(pairs())
    b[0] = draw(st.sampled_from([1, -1, 2, -2, 3, -5]))
    return q, b


kernel_settings = settings(max_examples=60, deadline=None)


@kernel_settings
@given(pairs())
def test_add_sub_match_reference(ab):
    a, b = ab
    assert list((Series(a) + Series(b)).coeffs) == ref_add(a, b)
    assert list((Series(a) - Series(b)).coeffs) == ref_sub(a, b)


@kernel_settings
@given(pairs())
def test_mul_matches_reference(ab):
    a, b = ab
    assert list((Series(a) * Series(b)).coeffs) == ref_mul(a, b)


@kernel_settings
@given(divisor_pairs())
def test_div_and_inverse_match_reference(qb):
    q, b = qb
    a, d = Series(q) * Series(b), Series(b)
    quo = a / d
    assert quo == Series(q[: quo.order])
    assert list(quo.coeffs) == ref_div(list(a.coeffs), b)
    if abs(b[0]) == 1:
        assert list(d.inverse().coeffs) == ref_div([1] + [0] * (len(b) - 1), b)
    else:  # 1/b[0] is not an integer
        with pytest.raises(ValueError, match="inexact"):
            d.inverse()


@kernel_settings
@given(coefficient_lists(), st.integers(min_value=0, max_value=7))
def test_pow_matches_reference(a, k):
    assert list((Series(a) ** k).coeffs) == ref_pow(a, k)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 40])
def test_quadratic_powers_match_reference(order):
    """The walk's powers of L (z L^2 - L + 1 = 0) and of r = 1/s1
    (z^2 r^2 - (1 - 2z^3) r + (1 + z^2) = 0) equal repeated products, also
    at orders at or below v, where the dot products give every coefficient."""
    L = catalan_gf(order).coeffs
    r = (Series.one(order + 2) / s1_series(order + 2)).coeffs[:order]
    for x, alpha, beta, v in ((L, (1,), (1,), 1), (r, (1, 0, 0, -2), (1, 0, 1), 2)):
        walk = islice(quadratic_powers(x, alpha, beta, v), 14)
        assert [*map(list, walk)] == [ref_pow(list(x), j) for j in range(14)]


@kernel_settings
@given(coefficient_lists())
def test_sqrt_matches_reference(s):
    s[0] = 1
    square = Series(s) * Series(s)
    root = square.sqrt()
    assert root == Series(s)
    assert list(root.coeffs) == ref_sqrt(list(square.coeffs))


@kernel_settings
@given(coefficient_lists(), coefficient_lists(), st.sampled_from([1, -1]))
def test_integer_operands_stay_integral(a, b, unit):
    b[0] = unit
    x, y = Series(a), Series(b)
    for result in (x + y, x - y, x * y, x / y, y.inverse(), x**3):
        assert is_integral(result)


def test_inexact_division_raises():
    assert Series([2, 6, 0]) / 2 == Series([1, 3, 0])
    with pytest.raises(ValueError, match="inexact"):
        Series([1, 3]) / 2
    with pytest.raises(ValueError, match="inexact"):
        Series([1, 1, 0]).sqrt()  # sqrt(1 + z) = 1 + z/2 - ...
    with pytest.raises(ValueError, match="inexact"):
        IntPoly([1]).exact_div(IntPoly([2]))
    with pytest.raises(ValueError, match="inexact"):
        RationalGF(IntPoly([1]), IntPoly([2])).expand(3)


# -- engine agreement past the n <= 9 grid ----------------------------------

@pytest.mark.parametrize("k", range(7))
def test_unbounded_series_match_closed_forms_to_order_256(k):
    for kind in KINDS:
        pre = prefix_series(k, kind, 256).integer_coefficients()
        suf = suffix_series(k, kind, 256).integer_coefficients()
        assert pre == [prefix_count(n, k, kind) for n in range(256)], kind
        assert suf == [suffix_count(n, k, kind) for n in range(256)], kind


@pytest.mark.parametrize("k", [0, 1, 4])
def test_alt_series_match_dp_to_order_160(k):
    for kind in KINDS:
        coeffs = alt_series(k, kind, 160).integer_coefficients()
        for n in (37, 101, 159):
            query = PathQuery(n, k, kind, Orientation.L2R, alternate=True)
            assert coeffs[n] == dp_count(query), (kind, n)


def test_series_for_query_is_integral_for_every_family():
    built = 0
    for orientation in Orientation:
        for kind in KINDS:
            for k in (None, 0, 1, 3):
                if k is None and kind is not EndKind.ANY:
                    continue
                for bound in (None, 3, 5):
                    if k is None and bound is None and orientation is Orientation.L2R:
                        continue
                    if k is not None and bound is not None and k > bound:
                        continue
                    s = series_for_query(k, kind, orientation, bound, order=48)
                    assert is_integral(s), (k, kind, orientation, bound)
                    built += 1
                if k is not None and orientation is Orientation.L2R:
                    s = series_for_query(k, kind, orientation, None, True, order=48)
                    assert is_integral(s), (k, kind, "alternate")
                    built += 1
    assert built > 60


# -- exact gf identities at order 64 -----------------------------------------

ORDER = 64


@pytest.mark.parametrize("orientation", list(Orientation))
def test_a_bound_above_reach_gives_the_unbounded_series(orientation):
    """Below order 64 no path climbs past k + 63 left to right (it must fall
    back to k by unit steps) or past 63 right to left (it rises by ones), so
    that bound's rational gf expands to the unbounded series."""
    for k in range(7):
        t = k + ORDER - 1 if orientation is Orientation.L2R else max(k, ORDER - 1)
        for kind in KINDS:
            want = series_for_query(k, kind, orientation, order=ORDER)
            assert bounded_gf(t, k, kind, orientation).expand(ORDER) == want, (k, kind)
    if orientation is Orientation.R2L:
        want = series_for_query(None, EndKind.ANY, orientation, order=ORDER)
        assert total_bounded_gf(ORDER - 1, orientation).expand(ORDER) == want


def _kind_partition_holds(series_of_kind) -> bool:
    """Any = Up + Flat + Down, coefficient by coefficient."""
    parts = [series_of_kind(kind).integer_coefficients()
             for kind in (EndKind.UP, EndKind.FLAT, EndKind.DOWN)]
    whole = series_of_kind(EndKind.ANY).integer_coefficients()
    return whole == [sum(column) for column in zip(*parts)]


@pytest.mark.parametrize("k", range(7))
def test_every_family_splits_by_last_step_kind(k):
    for family in (prefix_series, suffix_series, alt_series):
        assert _kind_partition_holds(lambda kind: family(k, kind, ORDER)), family.__name__
    for orientation in Orientation:
        for t in (k, k + 3):
            assert _kind_partition_holds(
                lambda kind: bounded_gf(t, k, kind, orientation).expand(ORDER)
            ), (orientation, t)


def test_n_poly_deep_columns_need_no_recursion():
    # right-to-left: N_3601^1200 = (-z)^1200 N_1^0 = z^1200 (z - 1)
    assert n_poly(1200, 3601, Orientation.R2L) == IntPoly([-1, 1]).shift_up(1200)
    # left-to-right: N_3601^1200 = (-1)^1199 N_4^1 = -N_3^1 = -(z - z^2)
    assert n_poly(1200, 3601, Orientation.L2R) == IntPoly([0, -1, 1])
