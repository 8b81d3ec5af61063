from fractions import Fraction

import pytest

from lukaspaths import series
from lukaspaths.alternate import (
    _SEXTIC,
    alt_asymptotic,
    alt_series,
    dominant_root,
    s1_series,
)
from lukaspaths.core import EndKind, Orientation, PathQuery, dp_count, enumerate_count
from lukaspaths.series import Series

from reference import ALT_ROWS, KINDS, s2_series


def _alt_dp(n: int, k: int, kind: EndKind = EndKind.ANY) -> int:
    """Left-to-right alternate-prefix count by the dynamic program."""
    return dp_count(PathQuery(n, k, kind, Orientation.L2R, alternate=True))


def _kernel_residual(s: Series) -> Series:
    order = s.order
    z = Series.z(order)
    one = Series.one(order)
    return (one + z * z) * s * s + (2 * z**3 - one) * s + z * z


def test_s1_constant_term_and_kernel():
    s1 = s1_series(24)
    assert s1[0] == 1
    assert _kernel_residual(s1) == Series([0] * 24)


def test_s1_satisfies_the_kernel_at_order_400():
    # (1 + z^2) s1^2 - (1 - 2z^3) s1 + z^2 = 0 past the orders the
    # hypothesis kernels draw
    assert _kernel_residual(s1_series(400)) == Series([0] * 400)


def test_s1_low_order_coefficients_by_back_substitution():
    # solving the kernel quadratic coefficient by coefficient gives
    # s1 = 1 - 2z^2 - 2z^3 + 0z^4 - ...
    s1 = s1_series(6)
    assert list(s1.coeffs[:4]) == [1, 0, -2, -2]


def test_s2_valuation_and_product_identity():
    order = 20
    s1, s2 = s1_series(order), s2_series(order)
    assert s2.coeffs[:3] == (0, 0, 1)
    z = Series.z(order)
    one = Series.one(order)
    assert s1 * s2 * (one + z * z) == z * z
    assert _kernel_residual(s2) == Series([0] * order)


def test_h0_series_matches_flat_end_dynamic_program():
    h0 = alt_series(0, EndKind.FLAT, 12)
    dp_row = [_alt_dp(n, 0, EndKind.FLAT) for n in range(12)]
    assert h0.integer_coefficients() == dp_row
    assert dp_row[:8] == [0, 1, 0, 1, 2, 3, 6, 13]


@pytest.mark.parametrize("k,row", ALT_ROWS.items())
def test_alt_any_printed_rows(k, row):
    assert alt_series(k, EndKind.ANY, 10).integer_coefficients() == row


def test_alternate_families_divide_by_no_dense_series(monkeypatch):
    """r = 1/s1 comes from the kernel's root sum and product, so every
    family divides only by 2 + 2z^2 (inside s1) and 1 + z^2, never by a
    power of s1."""
    divisors = []
    quotient = series._quotient

    def recorded(a, b, m, known=()):
        divisors.append(sum(1 for c in b[:m] if c))
        return quotient(a, b, m, known)

    monkeypatch.setattr(series, "_quotient", recorded)
    for k in range(7):
        for kind in KINDS:
            alt_series(k, kind, 224)
    assert divisors and max(divisors) <= 2


@pytest.mark.parametrize("k", [0, 1, 5])
def test_alt_series_equals_dp_at_n_300(k):
    # far past the wide grid's order 41 and the hypothesis kernels' order 80
    for kind in KINDS:
        assert alt_series(k, kind, 301)[300] == _alt_dp(300, k, kind), kind


def test_alt_series_examples():
    assert alt_series(2, EndKind.ANY, 8).integer_coefficients()[6] == 105
    got = alt_series(1, EndKind.UP, 4).integer_coefficients()[3]
    assert got == _alt_dp(3, 1, EndKind.UP) == 1


def test_alt_dp_examples():
    assert _alt_dp(3, 0) == 3
    assert _alt_dp(2, 0) == 1
    assert _alt_dp(9, 3) == 2645
    assert enumerate_count(PathQuery(2, 0, alternate=True)) == 1


def test_alt_series_equals_dp_wide_grid():
    """Every coefficient at orders 1, 2 and 41."""
    for order in (1, 2, 41):
        for k in range(0, 7):
            for kind in KINDS:
                coeffs = alt_series(k, kind, order).integer_coefficients()
                assert len(coeffs) == order
                for n in range(order):
                    assert coeffs[n] == _alt_dp(n, k, kind), (order, n, k, kind)


def test_alt_kind_additivity():
    for n in range(0, 12):
        for k in range(0, 5):
            assert _alt_dp(n, k) == sum(_alt_dp(n, k, kd) for kd in KINDS[1:])


def test_alternate_subset_of_unrestricted():
    for n in range(0, 10):
        for k in range(0, n + 1):
            for kind in KINDS:
                assert _alt_dp(n, k, kind) <= dp_count(PathQuery(n, k, kind))


def test_alt_flat_relation():
    # h = z (f + g): a flat step may follow an up or a down step, never a flat
    order = 24
    for k in range(0, 6):
        f = alt_series(k, EndKind.UP, order)
        g = alt_series(k, EndKind.DOWN, order)
        h = alt_series(k, EndKind.FLAT, order)
        assert h.coeffs == (0, *(f + g).coeffs[:-1]), k


def test_dominant_root_digits():
    root = dominant_root(Fraction(1, 10**12))
    assert abs(root.value - Fraction("0.403031716762")) < Fraction(1, 10**12) * 2
    assert root.residual < Fraction(1, 10**10)
    assert Fraction(0) < root.value < Fraction(1, 2)


def test_dominant_root_default_precision():
    root = dominant_root()
    assert root.residual < Fraction(1, 10**60)


def test_the_sextic_has_no_rational_root():
    """Why the bisection needs no branch for a midpoint that is a root: every
    midpoint is a dyadic rational, and by the rational-root theorem a
    rational root of 4z^6 - 4z^4 - 4z^3 - 4z^2 + 1 is +-1, +-1/2 or +-1/4."""
    assert _SEXTIC.coeffs == (1, 0, -4, -4, -4, 0, 4)
    candidates = [Fraction(s, q) for q in (1, 2, 4) for s in (1, -1)]
    assert [_SEXTIC(z) for z in candidates] == [
        -7, 1, Fraction(-11, 16), Fraction(5, 16), Fraction(689, 1024), Fraction(817, 1024),
    ]


def test_growth_rate_identity():
    a = dominant_root(Fraction(1, 10**20)).value
    assert abs(2 * a * (1 + a - a * a) - 1) < Fraction(1, 10**9)


def test_asymptotic_against_dp_oracle():
    root = dominant_root(Fraction(1, 10**30))
    deviations = []
    for n in (50, 100, 200, 300, 400):
        ratio = alt_asymptotic(n, root) / _alt_dp(n, 0)
        assert ratio > 0
        deviations.append(abs(ratio - 1))
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] < 0.01


def test_asymptotic_positive_and_needs_positive_length():
    assert alt_asymptotic(7) > 0
    with pytest.raises(ValueError):
        alt_asymptotic(0)
