from itertools import islice
from math import comb

import pytest

from lukaspaths import bounded
from lukaspaths.bounded import (
    bounded_gf,
    d_poly,
    n_poly,
    total_bounded_gf,
)
from lukaspaths.core import EndKind, Orientation, PathQuery, _bound_sweep, dp_count
from lukaspaths.counts import prefix_series, suffix_series
from lukaspaths.series import IntPoly

from reference import (
    F2_ROWS, KINDS, N_TABLE, TOTAL_L2R_ROWS, TOTAL_R2L_ROWS,
    _bareiss, build_system_matrix, catalan, det_poly,
)

Z = IntPoly([0, 1])
NEG1 = IntPoly([-1])
ZM1 = IntPoly([-1, 1])
ZERO = IntPoly()


def _rows(*rows):
    return tuple(tuple(r) for r in rows)


def _cramer_n_poly(t, idx, orientation):
    """N_idx^t straight from its definition: the determinant of the system
    matrix with column idx replaced by (-1, 0, ..., 0)^T."""
    m = [list(row) for row in build_system_matrix(t, orientation)]
    for r, row in enumerate(m):
        row[idx - 1] = NEG1 if r == 0 else ZERO
    return _bareiss(m)


def _fibonacci_poly(t):
    """The alternating-binomial Fibonacci polynomial
    F_t = 1 - C(t+1, 1) z + C(t, 2) z^2 - C(t-1, 3) z^3 + ..."""
    return IntPoly([(-1) ** j * comb(t + 2 - j, j) for j in range(t // 2 + 2)])


# the displayed 9x9 systems for bound t = 2
L2R_T2 = _rows(
    [NEG1, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO],
    [ZERO, NEG1, ZERO, Z, Z, Z, ZERO, ZERO, ZERO],
    [Z, Z, ZM1, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO],
    [Z, Z, Z, NEG1, ZERO, ZERO, ZERO, ZERO, ZERO],
    [ZERO, ZERO, ZERO, ZERO, NEG1, ZERO, Z, Z, Z],
    [ZERO, ZERO, ZERO, Z, Z, ZM1, ZERO, ZERO, ZERO],
    [Z, Z, Z, Z, Z, Z, NEG1, ZERO, ZERO],
    [ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, NEG1, ZERO],
    [ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, Z, Z, ZM1],
)
R2L_T2 = _rows(
    [NEG1, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO],
    [ZERO, NEG1, ZERO, Z, Z, Z, Z, Z, Z],
    [Z, Z, ZM1, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO],
    [Z, Z, Z, NEG1, ZERO, ZERO, ZERO, ZERO, ZERO],
    [ZERO, ZERO, ZERO, ZERO, NEG1, ZERO, Z, Z, Z],
    [ZERO, ZERO, ZERO, Z, Z, ZM1, ZERO, ZERO, ZERO],
    [ZERO, ZERO, ZERO, Z, Z, Z, NEG1, ZERO, ZERO],
    [ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, NEG1, ZERO],
    [ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, Z, Z, ZM1],
)

def test_matrix_displays_t2():
    assert build_system_matrix(2, Orientation.L2R) == L2R_T2
    assert build_system_matrix(2, Orientation.R2L) == R2L_T2


def test_matrix_examples():
    rows = build_system_matrix(2, Orientation.L2R)
    assert rows[2][2] == ZM1
    for orientation in Orientation:
        small = build_system_matrix(0, orientation)
        assert len(small) == 3 and all(len(row) == 3 for row in small)
    assert build_system_matrix(2, Orientation.R2L)[1] == R2L_T2[1]


def test_det_examples():
    assert det_poly(build_system_matrix(3)) == IntPoly([1, -4, 3])
    assert det_poly(build_system_matrix(4)) == IntPoly([-1, 5, -6, 1])
    assert det_poly(build_system_matrix(0)) == IntPoly([-1, 1])


def test_d_poly_recurrence():
    assert d_poly(0) == IntPoly([-1, 1])
    assert d_poly(1) == IntPoly([1, -2])
    assert d_poly(3) == IntPoly([1, -4, 3])
    for t in range(0, 7):
        assert d_poly(t) == det_poly(build_system_matrix(t)), t


def _walked_d(t):
    """D_t walked up from D_(-3) = 0 and D_(-2) = -1 by D_(t+2) = -D_(t+1) -
    z D_t, with no memo."""
    a, b = ZERO, NEG1
    for _ in range(t + 3):
        a, b = b, -b - Z * a
    return a


def test_the_d_memo_answers_in_any_call_order(monkeypatch):
    """`d_poly` and `n_poly` read D_t from a memo that grows on demand:
    from its two seeds, bounds asked out of order, below and past the last
    D_t it keeps, must each get their own D_t, and the memo grows a copy,
    never the list another caller holds."""
    seeds = [ZERO, NEG1]
    monkeypatch.setattr(bounded, "_D", seeds)
    for t in (60, 0, 61, 5, 30, 2, 59, 90, 64):
        assert d_poly(t) == _walked_d(t), t
        for orientation in (Orientation.L2R, Orientation.R2L):
            assert n_poly(t, 1, orientation) == _walked_d(t), t
            assert n_poly(t, 2, orientation) == -(Z * Z * _walked_d(t - 3)), t
            assert n_poly(t, 3, orientation) == -(Z * _walked_d(t - 1)), t
    assert seeds == [ZERO, NEG1]
    # D_(-3)..D_60 are kept; D_61 and up are walked on from D_59, D_60
    assert len(bounded._D) == bounded._D_KEPT == 64


def test_det_same_for_both_orientations():
    for t in range(0, 7):
        l2r = det_poly(build_system_matrix(t, Orientation.L2R))
        r2l = det_poly(build_system_matrix(t, Orientation.R2L))
        assert l2r == r2l, t


def test_fibonacci_poly():
    assert _fibonacci_poly(0) == IntPoly([1, -1])
    assert _fibonacci_poly(3) == IntPoly([1, -4, 3])
    assert _fibonacci_poly(4) == IntPoly([1, -5, 6, -1])
    for t in range(0, 13):
        sign = (-1) ** (t + 1)
        assert d_poly(t) == sign * _fibonacci_poly(t), t


def test_n_poly_table():
    for (t, idx), coeffs in N_TABLE.items():
        assert n_poly(t, idx) == IntPoly(coeffs), (t, idx)


def test_n_poly_spec_picks():
    assert n_poly(2, 3) == IntPoly([0, -1, 2])        # -z(1 - 2z)
    assert n_poly(4, 2) == IntPoly([0, 0, -1, 2])     # -z^2 (1 - 2z)
    assert n_poly(3, 7) == IntPoly([0, 1, -2])        # z(1 - 2z)


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
def test_n_poly_matches_cramer_determinants(orientation):
    """Every column by Cramer's rule, and their sum over D_t, the generating
    function of all bounded paths, against the hard-coded totals: the same
    numerator over the same determinant."""
    for t in range(0, 5):
        total = ZERO
        for idx in range(1, 3 * (t + 1) + 1):
            cramer = _cramer_n_poly(t, idx, orientation)
            assert n_poly(t, idx, orientation) == cramer, (t, idx, orientation)
            total = total + cramer
        gf = total_bounded_gf(t, orientation)
        assert (gf.num, gf.den) == (total, d_poly(t)), t


def test_n_poly_range_check():
    with pytest.raises(ValueError, match="out of range"):
        n_poly(1, 7)


def test_n1_equals_d():
    for t in range(0, 9):
        assert n_poly(t, 1) == d_poly(t)


def test_table_column_identities():
    for t in range(1, 7):
        assert n_poly(t, 4) == n_poly(t, 3), t
        assert n_poly(t, 5) == -n_poly(t - 1, 2), t
        assert n_poly(t, 6) == n_poly(t, 2), t


def test_theorem_closed_forms_match_cramer():
    """Per-kind bounded generating functions, 2 <= k <= t, as signed shifts
    of the N_2/N_3 columns over D_t."""
    for t in range(2, 7):
        den = d_poly(t)
        for k in range(2, t + 1):
            sign = (-1) ** (k - 1)
            f = sign * n_poly(t - k + 1, 3)
            g = -sign * n_poly(t - k, 2)
            h = sign * n_poly(t - k + 1, 2)
            for kind, num in ((EndKind.UP, f), (EndKind.DOWN, g), (EndKind.FLAT, h)):
                gf = bounded_gf(t, k, kind)
                assert (gf.num, gf.den) == (num, den), (t, k, kind)


def test_theorem_closed_forms_match_cramer_r2l():
    for t in range(0, 6):
        den = d_poly(t)
        for k in range(0, t + 1):
            sign = (-1) ** k
            zk = IntPoly([0] * k + [1])
            for kind, col in ((EndKind.UP, 1), (EndKind.DOWN, 2), (EndKind.FLAT, 3)):
                gf = bounded_gf(t, k, kind, Orientation.R2L)
                assert (gf.num, gf.den) == (sign * (zk * n_poly(t - k, col)), den), (t, k, kind)


def test_bounded_gf_examples():
    assert bounded_gf(3, 2, EndKind.UP).expand(6).integer_coefficients() == [
        0, 1, 2, 5, 14, 41,
    ]
    assert bounded_gf(4, 2, EndKind.UP).coefficients_int(10)[9] == 4334
    got = bounded_gf(2, 2, EndKind.ANY, Orientation.R2L).coefficients_int(5)[4]
    assert got == dp_count(PathQuery(4, 2, EndKind.ANY, Orientation.R2L, bound=2))


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
def test_bounded_gf_keeps_the_determinant_as_denominator(orientation):
    # rows f (up), g (down), h (flat) of height k are columns 3k+1, 3k+2, 3k+3
    columns = {EndKind.UP: (1,), EndKind.DOWN: (2,), EndKind.FLAT: (3,), EndKind.ANY: (1, 2, 3)}
    for t in range(0, 9):
        assert total_bounded_gf(t, orientation).den == d_poly(t), t
        for k in range(0, t + 1):
            for kind in KINDS:
                gf = bounded_gf(t, k, kind, orientation)
                num = ZERO
                for off in columns[kind]:
                    num = num + n_poly(t, 3 * k + off, orientation)
                assert gf.den == d_poly(t), (t, k, kind)
                assert gf.num == num, (t, k, kind)


def test_bounded_gf_height_above_bound():
    with pytest.raises(ValueError, match="end height exceeds the height bound"):
        bounded_gf(2, 3, EndKind.ANY)


@pytest.mark.parametrize("t,row", F2_ROWS.items())
def test_f2_printed_rows(t, row):
    assert bounded_gf(t, 2, EndKind.UP).coefficients_int(10) == row


@pytest.mark.parametrize("t,row", TOTAL_L2R_ROWS.items())
def test_total_rows_l2r(t, row):
    total = total_bounded_gf(t)
    assert total.coefficients_int(10) == row
    gf = bounded_gf(t, None, EndKind.ANY, Orientation.L2R)
    assert (gf.num, gf.den) == (total.num, total.den)


@pytest.mark.parametrize("t,row", TOTAL_R2L_ROWS.items())
def test_total_rows_r2l(t, row):
    total = total_bounded_gf(t, Orientation.R2L)
    assert total.coefficients_int(10) == row
    gf = bounded_gf(t, None, EndKind.ANY, Orientation.R2L)
    assert (gf.num, gf.den) == (total.num, total.den)


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
def test_total_is_sum_over_heights_and_kinds(orientation):
    order = 12
    for t in range(0, 5):
        total = total_bounded_gf(t, orientation).expand(order)
        acc = None
        for k in range(0, t + 1):
            s = bounded_gf(t, k, EndKind.ANY, orientation).expand(order)
            acc = s if acc is None else acc + s
        assert acc == total, (t, orientation)


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
def test_bounded_gf_agrees_with_dp(orientation):
    for t in range(0, 6):
        for k in range(0, t + 1):
            for kind in KINDS:
                coeffs = bounded_gf(t, k, kind, orientation).coefficients_int(13)
                for n in range(1, 13):
                    dp = dp_count(PathQuery(n, k, kind, orientation, bound=t))
                    assert coeffs[n] == dp, (t, k, kind, n, orientation)


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
def test_per_kind_stabilization_at_large_bounds(orientation):
    """With the end height fixed, bounded coefficients equal the unbounded
    ones once the bound clears the reachable heights (t >= n + k)."""
    order = 9
    unbounded = prefix_series if orientation is Orientation.L2R else suffix_series
    for k in range(0, 4):
        for kind in KINDS:
            free = unbounded(k, kind, order).integer_coefficients()
            for n in range(1, order):
                t = max(n + k, k)
                got = bounded_gf(t, k, kind, orientation).coefficients_int(n + 1)[n]
                assert got == free[n], (k, kind, n)


def test_total_stabilization_is_a_suffix_model_property():
    """Right-to-left totals saturate once t >= n (heights never exceed the
    length); left-to-right totals keep growing with t because the end height
    itself is unbounded."""
    for n in range(0, 9):
        tot = total_bounded_gf(n, Orientation.R2L).coefficients_int(n + 1)[n]
        for extra in (1, 3):
            bigger = total_bounded_gf(n + extra, Orientation.R2L).coefficients_int(n + 1)[n]
            assert bigger == tot, (n, extra)
        assert tot == catalan(n + 1)
    for n in range(1, 6):
        values = [
            total_bounded_gf(t, Orientation.L2R).coefficients_int(n + 1)[n]
            for t in range(n, n + 4)
        ]
        assert all(a < b for a, b in zip(values, values[1:])), (n, values)


def _return_to_zero_by_bound(n: int) -> list[int]:
    """c_t(n) for t = 0..n: length-n paths returning to height 0 whose height
    never exceeds t, by the dynamic program's sweep of the bound."""
    return list(islice(_bound_sweep(n, 0, Orientation.L2R), n + 1))


def test_bound_sweep_return_to_zero_examples():
    assert _return_to_zero_by_bound(3) == [1, 4, 5, 5]
    assert _return_to_zero_by_bound(0) == [1]
    hd9 = _return_to_zero_by_bound(9)
    assert hd9[2] == 1597
    assert hd9[9] == catalan(9)
    assert all(a <= b for a, b in zip(hd9, hd9[1:]))


def test_bound_sweep_return_to_zero_matches_gf_route():
    for n in range(0, 13):
        hd = _return_to_zero_by_bound(n)
        for t in range(0, n + 1):
            via_gf = bounded_gf(t, 0, EndKind.ANY).coefficients_int(n + 1)[n]
            assert hd[t] == via_gf, (n, t)


def test_d_poly_rejects_negative_bound():
    # D_{-2} and D_{-1} anchor the recurrence internally but stay private
    for t in (-1, -2):
        with pytest.raises(ValueError, match="nonnegative"):
            d_poly(t)
