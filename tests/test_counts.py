import pytest
from hypothesis import example, given, settings, strategies as st

from lukaspaths import series
from lukaspaths.alternate import alt_series
from lukaspaths.core import EndKind, Orientation, PathQuery, dp_count, enumerate_count
from lukaspaths.counts import prefix_count, prefix_series, suffix_count, suffix_series
from lukaspaths.series import Series, catalan_gf

from reference import KINDS, PREFIX_ROWS, SUFFIX_ROWS, catalan, shapes


@pytest.mark.parametrize("k,row", PREFIX_ROWS.items())
def test_prefix_any_rows(k, row):
    assert prefix_series(k, EndKind.ANY, 10).integer_coefficients() == row


@pytest.mark.parametrize("k,row", SUFFIX_ROWS.items())
def test_suffix_any_rows(k, row):
    assert suffix_series(k, EndKind.ANY, 10).integer_coefficients() == row


def test_prefix_series_examples():
    assert prefix_series(2, EndKind.ANY, 6).integer_coefficients()[1:] == [1, 4, 14, 48, 165]
    assert prefix_series(0, EndKind.UP, 8) == Series.one(8)
    assert prefix_series(1, EndKind.FLAT, 4).integer_coefficients()[2] == 1  # the path U1 F


def test_prefix_count_examples():
    assert prefix_count(4, 2) == 48
    assert prefix_count(9, 3) == 48450
    assert prefix_count(5, 2, EndKind.UP) == 42
    assert enumerate_count(PathQuery(5, 2, EndKind.UP)) == 42


def test_count_empty_path_convention():
    # the empty path is in the k = 0 up family, as in the paper's f_0
    for count in (prefix_count, suffix_count):
        assert [count(0, 0, kind) for kind in KINDS] == [1, 1, 0, 0]
        assert count(0, 1) == 0
    # the up closed form stays zero at k = 0 for every positive length
    assert all(prefix_count(n, 0, EndKind.UP) == 0 for n in range(1, 12))


def test_prefix_flat_k0_includes_single_flat_step():
    assert prefix_count(1, 0, EndKind.FLAT) == 1
    assert prefix_series(0, EndKind.FLAT, 5).integer_coefficients() == [0, 1, 1, 2, 5]


def test_suffix_series_examples():
    assert suffix_series(1, EndKind.ANY, 5).integer_coefficients() == [0, 1, 2, 5, 14]
    assert suffix_series(2, EndKind.ANY, 3).integer_coefficients()[1] == 0
    assert suffix_series(0, EndKind.FLAT, 4).integer_coefficients()[3] == 2
    assert enumerate_count(PathQuery(3, 0, EndKind.FLAT, Orientation.R2L)) == 2


def test_suffix_count_examples():
    assert suffix_count(9, 2) == 3432
    assert suffix_count(3, 3) == 1
    assert suffix_count(12, 13) == 0
    # end height 1 after a fall: oracle pins the value, the formulas agree
    assert suffix_count(4, 1, EndKind.DOWN) == 4
    assert enumerate_count(PathQuery(4, 1, EndKind.DOWN, Orientation.R2L)) == 4


def test_suffix_kind_split_sums_to_any():
    for n in range(0, 10):
        for k in range(0, n + 1):
            total = suffix_count(n, k)
            split = sum(suffix_count(n, k, kd) for kd in KINDS[1:])
            assert total == split


@pytest.mark.parametrize("orientation", [Orientation.L2R, Orientation.R2L])
def test_triple_agreement(orientation):
    """closed form == series coefficient == dynamic program, n <= 9, and
    right to left over every end height too."""
    l2r = orientation is Orientation.L2R
    count_fn = prefix_count if l2r else suffix_count
    series_fn = prefix_series if l2r else suffix_series
    for k, kind, *_ in shapes([None, *range(0, 10)], [None], [orientation], [False]):
        coeffs = series_fn(k, kind, 10).integer_coefficients()  # k None: the r2l total
        for n in range(0, 10):
            dp = dp_count(PathQuery(n, k, kind, orientation))
            assert count_fn(n, k, kind) == dp, (n, k, kind)
            assert coeffs[n] == dp, (n, k, kind)


@pytest.mark.parametrize("n", [100, 300])
def test_every_family_row_matches_dp_at_large_n(n):
    """Every (power, shift) row the closed engine reads, k <= 12 and the
    right-to-left total, against the dynamic program far past the grid."""
    for k, kind, orientation, *_ in shapes([None, *range(13)], [None], alternates=[False]):
        count_fn = prefix_count if orientation is Orientation.L2R else suffix_count
        assert count_fn(n, k, kind) == dp_count(PathQuery(n, k, kind, orientation)), (k, kind)


#: Each unbounded gf family with the DP query fields it counts.
SERIES_FAMILIES = {
    "prefix": (prefix_series, Orientation.L2R, False),
    "suffix": (suffix_series, Orientation.R2L, False),
    "alternate": (alt_series, Orientation.L2R, True),
}


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(SERIES_FAMILIES)),
    k=st.integers(0, 12),
    kind=st.sampled_from(KINDS),
    order=st.integers(1, 81),
    far=st.integers(81, 300),
)
@example(family="prefix", k=3000, kind=EndKind.ANY, order=8, far=81)
@example(family="suffix", k=3000, kind=EndKind.ANY, order=8, far=81)
@example(family="alternate", k=3000, kind=EndKind.ANY, order=8, far=81)
def test_unbounded_series_match_dp_past_the_grid(family, k, kind, order, far):
    """Every coefficient of every unbounded gf family equals the DP count,
    for k <= 12 and n <= 80, and so does one coefficient at n = `far`, up to
    300.  At k = 3000 and order 8 the power walk takes thousands of steps at
    a tiny order, where the dot products that give each power's top
    coefficients carry every term."""
    series_fn, orientation, alternate = SERIES_FAMILIES[family]
    coeffs = series_fn(k, kind, order).integer_coefficients()
    dp = [dp_count(PathQuery(n, k, kind, orientation, alternate=alternate)) for n in range(order)]
    assert coeffs == dp
    want = dp_count(PathQuery(far, k, kind, orientation, alternate=alternate))
    assert series_fn(k, kind, far + 1)[far] == want


def test_flat_relation():
    """h = z/(1-z) (f + g) as a series identity, both orientations."""
    order = 24
    z = Series.z(order)
    ratio = z / (Series.one(order) - z)
    for series_fn in (prefix_series, suffix_series):
        for k in range(0, 7):
            f = series_fn(k, EndKind.UP, order)
            g = series_fn(k, EndKind.DOWN, order)
            h = series_fn(k, EndKind.FLAT, order)
            # at k = 0 left to right the empty path, in f_0, feeds the flat state:
            # z/(1-z) * f0 covers F, FF, ...
            assert h == ratio * (f + g), (series_fn.__name__, k)


def test_shift_bijection_total_is_next_catalan():
    for n in range(0, 13):
        total = dp_count(PathQuery(n, None, orientation=Orientation.R2L))
        assert total == catalan(n + 1)
        by_formula = sum(suffix_count(n, k) for k in range(0, n + 1))
        assert by_formula == catalan(n + 1)


def test_prefix_any_k0_is_catalan():
    for n in range(0, 12):
        assert prefix_count(n, 0) == catalan(n)


@pytest.fixture
def full_products(monkeypatch):
    """The `series._convolve` calls whose shorter operand has more than two
    nonzero terms: the full products, not a product with z, 1 + z^2 or
    1 - 2z^3."""
    calls = []
    convolve = series._convolve

    def counted(a, b, m):
        if min(sum(map(bool, a[:m])), sum(map(bool, b[:m]))) > 2:
            calls.append(m)
        return convolve(a, b, m)

    monkeypatch.setattr(series, "_convolve", counted)
    return calls


def test_no_unbounded_family_takes_a_full_product(full_products):
    """Every power of L and of r = 1/s1 comes from a three-term walk, so no
    unbounded family multiplies two long series: order 64, k <= 12, every
    kind, plain in both orientations with the right-to-left total, and
    alternate."""
    order = 64
    square = catalan_gf(order) * catalan_gf(order)
    assert full_products == [order], square  # the counter sees a full product
    full_products.clear()
    suffix_series(None, EndKind.ANY, order)
    for k in range(13):
        for kind in KINDS:
            for build in (prefix_series, suffix_series, alt_series):
                build(k, kind, order)
    assert full_products == []
