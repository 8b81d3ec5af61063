from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lukaspaths.series import (
    IntPoly,
    RationalGF,
    Series,
    catalan_gf,
)

from reference import PREFIX_ROWS, catalan, ref_mul, ref_pow


@pytest.mark.parametrize("make", [
    lambda: Series.constant(5, 0), lambda: Series.one(0), lambda: Series.z(0),
    lambda: IntPoly([1, 2]).to_series(0),
], ids=["constant", "one", "z", "to_series"])
def test_order_zero_is_refused(make):
    with pytest.raises(ValueError, match="at least its constant term"):
        make()


def test_catalan_gf_printed_row():
    assert catalan_gf(10).integer_coefficients() == PREFIX_ROWS[0]


def test_catalan_gf_coefficient_12_matches_recurrence_oracle():
    # independent oracle: C_{n+1} = sum C_i C_{n-i}
    cs = [1]
    for n in range(15):
        cs.append(sum(cs[i] * cs[n - i] for i in range(n + 1)))
    assert catalan_gf(16).integer_coefficients() == cs
    assert cs[12] == 208012
    assert catalan(12) == 208012


def test_mul_basic():
    one_plus = Series([1, 1, 0, 0])
    one_minus = Series([1, -1, 0, 0])
    assert (one_plus * one_minus).coeffs == Series([1, 0, -1, 0]).coeffs


def test_mul_truncates_to_min_order():
    a = Series([1, 2, 3])
    b = Series([1, 1, 1, 1, 1])
    assert (a * b).order == 3
    assert (a + b).order == 3
    assert (a - b).order == 3


def test_catalan_gf_equals_the_catalan_numbers_at_order_2001():
    # L comes from sqrt(1 - 4z); the binomial formula checks it far past the
    # orders the hypothesis kernels draw
    assert catalan_gf(2001).integer_coefficients() == [catalan(n) for n in range(2001)]


def test_functional_equation_of_catalan_gf():
    order = 32
    L = catalan_gf(order)
    z = Series.z(order)
    assert L * (Series.one(order) - z * L) == Series.one(order)


def test_z_L_squared_against_brute_convolution():
    L_coeffs = catalan_gf(8).integer_coefficients()
    sq = ref_pow(L_coeffs, 2)
    z = Series.z(8)
    prod = z * catalan_gf(8) * catalan_gf(8)
    assert prod.integer_coefficients()[1:5] == sq[0:4]
    assert prod.integer_coefficients()[1:5] == [1, 2, 5, 14]


def test_div_geometric():
    assert (Series.one(8) / Series([1, -1] + [0] * 6)).integer_coefficients() == [1] * 8
    assert (Series.one(8) / Series([1, -2] + [0] * 6)).integer_coefficients() == [
        2**n for n in range(8)
    ]


def test_div_requires_unit():
    with pytest.raises(ValueError, match="non-invertible"):
        Series.one(4) / Series([0, 1, 0, 0])


def test_catalan_via_sqrt_route():
    """`catalan_gf` takes sqrt(1 - 4z); two checks that take no square root
    hold it: L = 1 + z L^2, and the convolution C_(n+1) = sum C_i C_(n-i)."""
    order = 64
    L = catalan_gf(order)
    assert L == Series.one(order) + Series.z(order) * L * L
    cs = [1]
    for n in range(order - 1):
        cs.append(sum(cs[i] * cs[n - i] for i in range(n + 1)))
    assert L.integer_coefficients() == cs


def test_sqrt_examples():
    assert Series.one(6).sqrt() == Series.one(6)
    square = Series([1, 2, 1, 0, 0, 0])
    assert Series([1, 1, 0, 0, 0, 0]) == square.sqrt()
    s = Series([1, -4, 0, 0, 0]).sqrt()
    assert list(s.coeffs[:4]) == [1, -2, -2, -4]
    assert s * s == Series([1, -4, 0, 0, 0])


def test_sqrt_raises_at_its_first_non_integral_coefficient():
    # sqrt(1 + z) = 1 + z/2 - ...; sqrt(1 + 2z + 2z^2) = 1 + z + z^2/2 - ...
    with pytest.raises(ValueError, match="inexact square root: coefficient 1 "):
        Series([1, 1, 0, 0]).sqrt()
    with pytest.raises(ValueError, match="inexact square root: coefficient 2 "):
        Series([1, 2, 2, 0, 0]).sqrt()


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError, match="unit constant"):
        Series([4, 0, 0]).sqrt()


def test_expand_rational_fibonacci():
    gf = RationalGF(IntPoly([1]), IntPoly([1, -1, -1]))
    assert gf.expand(6).integer_coefficients() == [1, 1, 2, 3, 5, 8]


def test_expand_rational_bounded_rows():
    d0_over_d2 = RationalGF(IntPoly([-1, 1]), IntPoly([-1, 3, -1]))
    assert d0_over_d2.expand(6).integer_coefficients() == [1, 2, 5, 13, 34, 89]
    inv_f3 = RationalGF(IntPoly([1]), IntPoly([1, -4, 3]))
    assert inv_f3.expand(5).integer_coefficients() == [1, 4, 13, 40, 121]


def test_expand_rational_reproduces_numerator():
    num, den = IntPoly([2, -1, 3]), IntPoly([1, -2, 0, 5])
    s = RationalGF(num, den).expand(20)
    back = s * den.to_series(20)
    assert back == num.to_series(20)


def test_rational_gf_rejects_zero_den_at_origin():
    with pytest.raises(ValueError, match="non-expandable"):
        RationalGF(IntPoly([1]), IntPoly([0, 1]))


def test_coefficients_int_matches_expand():
    gf = RationalGF(IntPoly([1, 1]), IntPoly([-1, 3, -1]))
    assert gf.coefficients_int(12) == gf.expand(12).integer_coefficients()


def test_intpoly_canonical_form():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly().degree == -1
    # coefficients must be integers: nothing is silently truncated
    with pytest.raises(TypeError):
        IntPoly([Fraction(1, 2), 3])
    with pytest.raises(TypeError):
        IntPoly([1.7])


# half the drawn coefficients are 0: zero polynomials, divisors with
# b(0) = 0 and sparse operands all come up often
int_polys = st.lists(st.just(0) | st.integers(-(10**12), 10**12), max_size=7).map(IntPoly)


@given(int_polys, int_polys, int_polys)
@example(IntPoly([1, -3, 2, 4]), IntPoly([-1, 2]), IntPoly())
@example(IntPoly(), IntPoly([0, 0, 3]), IntPoly([1, 1]))
@example(IntPoly([2, -1]), IntPoly([0, 1, -4]), IntPoly([5, -7]))
def test_intpoly_exact_div_roundtrip(a, b, r):
    zeros = [0] * (len(a.coeffs) + len(b.coeffs))  # room for the whole product
    assert a * b == IntPoly(ref_mul([*a.coeffs, *zeros], [*b.coeffs, *zeros])) == b * a
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            (a * b).exact_div(b)
        return
    assert (a * b).exact_div(b) == a
    r = IntPoly(r.coeffs[: b.degree])  # a nonzero remainder of lower degree than b
    if not r.is_zero():
        with pytest.raises(ValueError, match="inexact"):
            (a * b + r).exact_div(b)


def test_intpoly_exact_div_errors():
    with pytest.raises(ValueError, match="inexact"):
        IntPoly([1, 1]).exact_div(IntPoly([0, 1]))
    with pytest.raises(ValueError, match="inexact"):
        IntPoly([1]).exact_div(IntPoly([2]))  # the quotient 1/2 is not integral
    with pytest.raises(ZeroDivisionError):
        IntPoly([1]).exact_div(IntPoly())


def test_intpoly_evaluation():
    p = IntPoly([-1, 0, 3])  # 3z^2 - 1
    assert p(2) == 11
    assert p(Fraction(1, 2)) == Fraction(-1, 4)


small_series = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=6, max_size=6
).map(Series)


@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_series, small_series)
def test_div_mul_roundtrip(a, b):
    if b.coeffs[0] == 0:
        return
    assert (a * b) / b == a


@given(small_series)
def test_sqrt_square_roundtrip(a):
    s = Series((1,) + a.coeffs[1:])  # force unit constant term
    assert (s * s).sqrt() == s


def test_series_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        Series([Fraction(1, 2)])
    with pytest.raises(TypeError):
        Series([1.0])


def test_shift_semantics():
    s = Series([1, 2, 3, 4])
    assert IntPoly([0, 3]).shift_up(2) == IntPoly([0, 0, 0, 3])
    assert IntPoly().shift_up(2) == IntPoly()
    t = Series([0, 0, 7, 9])
    assert t.shift_down(2).coeffs == Series([7, 9]).coeffs
    with pytest.raises(ValueError, match="valuation"):
        s.shift_down(1)


def test_repr_shows_at_most_eight_coefficients():
    assert repr(Series(range(8))) == "Series([0, 1, 2, 3, 4, 5, 6, 7] order=8)"
    assert repr(Series(range(9))) == "Series([0, 1, 2, 3, 4, 5, 6, 7, ...] order=9)"
    assert repr(RationalGF(IntPoly([1]), IntPoly([1, -1]))) == (
        "RationalGF(IntPoly([1]), IntPoly([1, -1]))")
