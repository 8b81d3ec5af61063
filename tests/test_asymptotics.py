import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from lukaspaths.asymptotics import (
    FAMILIES,
    _family_model,
    avg_height,
    substitution_check,
)
from lukaspaths.bounded import _gf_bound_sweep, bounded_gf, d_poly
from lukaspaths.core import (
    EndKind,
    InfiniteFamilyError,
    Orientation,
    PathQuery,
    _bound_sweep,
    dp_count,
)
from lukaspaths.counts import prefix_count, suffix_count

from reference import catalan, run_python

#: (family, k) for the four finite families, end heights k <= 5
FAMILY_GRID = [("return-to-zero", None), ("suffix-any", None)] + [
    (family, k) for family in ("prefix-at-k", "suffix-at-k") for k in range(6)
]


def test_avg_height_small_exact_values():
    assert avg_height(1, "return-to-zero").mean_height == 0
    assert avg_height(2, "return-to-zero").mean_height == Fraction(1, 2)
    assert avg_height(3, "return-to-zero").mean_height == 1


def test_avg_height_prefix_at_k_small():
    # the nine length-3 prefixes ending at height 1 have max heights
    # 1,1,1,1,2,2,2,3,2 -> mean 15/9
    assert avg_height(3, "prefix-at-k", k=1).mean_height == Fraction(5, 3)


def test_avg_height_routes_agree():
    for family, k in (
        ("return-to-zero", None),
        ("suffix-any", None),
        ("prefix-at-k", 2),
        ("suffix-at-k", 1),
    ):
        for n in range(max(1, k or 0), 13):
            gf = avg_height(n, family, k=k, route="gf")
            dp = avg_height(n, family, k=k, route="dp")
            assert gf.mean_height == dp.mean_height, (family, n)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["return-to-zero", "suffix-any", "prefix-at-k", "suffix-at-k"]),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=5),
    st.data(),
)
def test_avg_height_routes_agree_wide(family, n, k, data):
    if not family.endswith("-at-k"):
        k = None
    elif family == "prefix-at-k":  # rises of any size: every k is reachable
        k = data.draw(st.integers(min_value=0, max_value=n + 3), label="k")
    elif k > n:
        k = n
    gf = avg_height(n, family, k=k, route="gf")
    dp = avg_height(n, family, k=k, route="dp")
    assert gf.mean_height == dp.mean_height


@pytest.mark.parametrize("family, k", [
    ("return-to-zero", None), ("suffix-any", None), ("prefix-at-k", 4), ("suffix-at-k", 4),
])
def test_avg_height_routes_agree_at_n_128(family, k):
    # n = 128 is the largest length of the benchmark's `height` workload
    gf = avg_height(128, family, k=k, route="gf")
    dp = avg_height(128, family, k=k, route="dp")
    assert gf.mean_height == dp.mean_height


def _dp_mean(n, k, orientation):
    """The mean height from one unbounded and one bounded `dp_count` per t;
    k is None for right-to-left paths with any end height."""
    total = dp_count(PathQuery(n, k, EndKind.ANY, orientation))
    low = k or 0
    excess = sum(
        total - (dp_count(PathQuery(n, k, EndKind.ANY, orientation, bound=t)) if t >= low else 0)
        for t in range(n + low + 1)
    )
    return Fraction(excess, total)


#: FAMILY_GRID's families with end heights k <= 3
SMALL_K = [(family, k) for family, k in FAMILY_GRID if (k or 0) <= 3]


@pytest.mark.parametrize("route, blocked", [
    ("dp", ["lukaspaths.counts", "lukaspaths.series", "lukaspaths.bounded"]),
    ("gf", ["lukaspaths.counts"]),
], ids=["dp", "gf"])
def test_each_route_counts_its_own_family(route, blocked):
    """With the closed forms unimportable, and for the dp route all series
    code too, each route still gives the exact means at n = 40."""
    code = (
        "import sys\n"
        f"sys.modules.update(dict.fromkeys({blocked!r}))\n"
        "from lukaspaths.asymptotics import avg_height\n"
        f"for family, k in {SMALL_K!r}:\n"
        f"    print(avg_height(40, family, k=k, route={route!r}).mean_height)\n"
    )
    want = [str(_dp_mean(40, *_family_model(family, k))) for family, k in SMALL_K]
    assert run_python(code).split() == want


def test_each_routes_family_size_is_the_closed_form():
    """c_(n+k)(n), the count at a height no member exceeds, is the family's
    size by either route; the closed forms check it here.  Both sweeps start
    at t = k, so it is their n-th value."""
    for family, k in SMALL_K:
        end, orientation = _family_model(family, k)
        for n in range(1, 41):
            if end is None:
                want = catalan(n + 1)
            else:
                count = prefix_count if orientation is Orientation.L2R else suffix_count
                want = count(n, end, EndKind.ANY)
            for sweep in (_gf_bound_sweep, _bound_sweep):
                counts = sweep(n, end, orientation)
                assert next(islice(counts, n, None)) == want, (family, k, n)


def test_prefix_at_k_above_the_length():
    # rises have any size, so prefixes of length n reach every k > n
    assert avg_height(3, "prefix-at-k", k=7).mean_height == Fraction(65, 9)
    for n in range(1, 5):
        for k in range(n + 1, n + 4):
            want = _dp_mean(n, k, Orientation.L2R)
            for route in ("gf", "dp"):
                assert avg_height(n, "prefix-at-k", k=k, route=route).mean_height == want
    for route in ("gf", "dp"):  # suffixes rise by one: k > n is an empty family
        with pytest.raises(ValueError, match="exceeds the length"):
            avg_height(3, "suffix-at-k", k=4, route=route)


def test_gf_counts_match_each_bounds_expansion():
    # one order-31 expansion per bound serves every n <= 30 of that bound
    for family, k in FAMILY_GRID:
        end, orientation = _family_model(family, k)
        # one row per bound t = k .. k + 31, up to saturation for every n <= 30
        reference = [bounded_gf(t, end, orientation=orientation).coefficients_int(31)
                     for t in range(k or 0, 30 + (k or 0) + 2)]
        for n in range(0, 31):
            stop = n + 2
            got = list(islice(_gf_bound_sweep(n, end, orientation), stop))
            assert got == [row[n] for row in reference[:stop]], (family, k, n)


def test_casoratian_valuation_rises_by_one_per_bound():
    # W_t = N_t D_(t-1) - N_(t-1) D_t, by direct products of each bound's GF
    for family, k in FAMILY_GRID:
        end, orientation = _family_model(family, k)
        gfs = [bounded_gf(t, end, orientation=orientation) for t in range(k or 0, (k or 0) + 21)]
        vals = []
        for prev, cur in zip(gfs, gfs[1:]):
            w = (cur.num * prev.den - prev.num * cur.den).coeffs
            assert any(w), (family, k)
            vals.append(next(i for i, c in enumerate(w) if c))
        assert vals == list(range(vals[0], vals[0] + 20)), (family, k, vals)


def test_avg_height_infinite_family():
    # prefix-any, left to right with no end height and no bound, is infinite
    # and is no family of `FAMILIES`
    with pytest.raises(ValueError, match="unknown family"):
        avg_height(8, "prefix-any")


@pytest.mark.parametrize("route", ["gf", "dp"])
@pytest.mark.parametrize("family", ["prefix-at-k", "suffix-at-k"])
def test_avg_height_rejects_a_negative_end_height(family, route):
    with pytest.raises(ValueError, match="^end height must be nonnegative$"):
        avg_height(5, family, k=-1, route=route)


@pytest.mark.parametrize("sweep", [_gf_bound_sweep, _bound_sweep])
def test_the_sweeps_refuse_the_left_to_right_total(sweep):
    """Left to right, the total over end heights is finite only under a
    bound, so neither sweep has a first value for it."""
    for n in (0, 6):
        with pytest.raises(InfiniteFamilyError, match="^infinite family"):
            next(sweep(n, None, Orientation.L2R))


def test_avg_height_argument_checks():
    with pytest.raises(ValueError, match="needs an end height"):
        avg_height(5, "prefix-at-k")
    with pytest.raises(ValueError, match="unknown family"):
        avg_height(5, "no-such-family")
    with pytest.raises(ValueError):
        avg_height(0, "return-to-zero")


def test_avg_height_rejects_k_without_end_height():
    for family in ("return-to-zero", "suffix-any"):
        for route in ("gf", "dp"):
            with pytest.raises(ValueError, match="has no end height"):
                avg_height(5, family, k=2, route=route)


def test_mean_is_nondecreasing_in_length():
    for family, k in (("return-to-zero", None), ("suffix-any", None), ("suffix-at-k", 1)):
        means = [
            avg_height(n, family, k=k).mean_height for n in range(max(1, k or 0), 12)
        ]
        assert all(a <= b for a, b in zip(means, means[1:])), family


def test_ratio_profile_increasing_moderate_lengths():
    stats = [avg_height(n, "return-to-zero") for n in (16, 32, 64)]
    ratios = [st.ratio for st in stats]
    assert ratios == sorted(ratios)
    assert all(0 < r < 1 for r in ratios)


def test_suffix_any_ratios_in_window():
    stats = [avg_height(n, "suffix-any") for n in (64, 256)]
    for st in stats:
        assert 0.7 < st.ratio < 1.05, st


def test_ratio_at_length_one():
    st = avg_height(1, "suffix-any")
    # two paths of length 1 (U and F) of heights 1 and 0
    assert st.mean_height == Fraction(1, 2)
    assert st.ratio == pytest.approx(0.5 / math.sqrt(math.pi))


def test_second_order_diagnostic_stays_bounded():
    # mean + 3/2 tracks sqrt(pi n) to within O(1); the window is an artifact
    # calibration, not a claimed constant
    for n in (32, 64, 128):
        st = avg_height(n, "return-to-zero")
        assert abs(float(st.mean_height) + 1.5 - st.sqrt_pi_n) < 2.0


def test_substitution_examples():
    u = Fraction(1, 2)
    z = u / (1 + u) ** 2
    assert d_poly(0)(z) == Fraction(-7, 9)
    assert substitution_check(0, u)
    assert substitution_check(3, Fraction(1, 3))
    assert substitution_check(5, Fraction(2, 5))


def test_substitution_excluded_points():
    with pytest.raises(ValueError, match="excluded"):
        substitution_check(2, Fraction(1))
    with pytest.raises(ValueError, match="excluded"):
        substitution_check(2, Fraction(-1))


def test_substitution_random_sweep():
    rng = random.Random(20240817)
    for t in range(0, 9):
        for _ in range(20):
            u = Fraction(rng.randint(1, 60), rng.randint(61, 199))
            assert substitution_check(t, u), (t, u)


def test_substitution_fails_on_wrong_polynomial():
    # sanity: the checker is not a tautology; a perturbed comparison fails
    u = Fraction(1, 3)
    z = u / (1 + u) ** 2
    lhs = d_poly(4)(z)
    rhs = (-1) ** (4 + 3) * (1 - u ** (4 + 3)) / ((1 - u) * (1 + u) ** (4 + 2))
    assert lhs == rhs
    assert lhs != rhs + 1


def test_families_tuple_contents():
    assert set(FAMILIES) == {
        "return-to-zero", "prefix-at-k", "suffix-at-k", "suffix-any",
    }
