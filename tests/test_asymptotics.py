import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lukaspaths.asymptotics import (
    FAMILIES,
    avg_height,
    sqrt_pi_ratio_profile,
    substitution_check,
)
from lukaspaths.bounded import d_poly, n_poly
from lukaspaths.core import InfiniteFamilyError


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
)
def test_avg_height_routes_agree_wide(family, n, k):
    if not family.endswith("-at-k"):
        k = None
    elif k > n:
        k = n
    gf = avg_height(n, family, k=k, route="gf")
    dp = avg_height(n, family, k=k, route="dp")
    assert gf.mean_height == dp.mean_height


def test_avg_height_infinite_family():
    with pytest.raises(InfiniteFamilyError):
        avg_height(8, "prefix-any")


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
    stats = sqrt_pi_ratio_profile("return-to-zero", [16, 32, 64])
    ratios = [st.ratio for st in stats]
    assert ratios == sorted(ratios)
    assert all(0 < r < 1 for r in ratios)


def test_suffix_any_ratios_in_window():
    stats = sqrt_pi_ratio_profile("suffix-any", [64, 256])
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
        "return-to-zero", "prefix-at-k", "suffix-at-k", "suffix-any", "prefix-any",
    }
