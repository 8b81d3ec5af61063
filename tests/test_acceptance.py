"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them live).

Every expected value is either a table frozen from the printed rows (in
`reference.py`) or recomputed through an independent oracle inside the test;
tolerances are stated inline and are exact (== on integers) unless noted.
"""
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from lukaspaths.alternate import (
    alt_asymptotic,
    alt_series,
    dominant_root,
)
from lukaspaths.asymptotics import avg_height, substitution_check
from lukaspaths.bounded import bounded_gf, n_poly, total_bounded_gf
from lukaspaths.core import EndKind, Orientation, PathQuery, dp_count, enumerate_count
from lukaspaths.counts import prefix_count, prefix_series, suffix_count, suffix_series
from lukaspaths.engines import cross_engine_grid, run_fixture_checks
from lukaspaths.series import IntPoly

from reference import (
    ALT_ROWS, F2_ROWS, N_TABLE, PREFIX_ROWS, SUFFIX_ROWS, TOTAL_L2R_ROWS, TOTAL_R2L_ROWS,
    build_system_matrix, catalan, det_poly,
)


@contextmanager
def criterion(num: int, label: str, limit_s: float | None = None):
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        if limit_s is not None and elapsed >= limit_s:
            raise AssertionError(f"criterion {num} exceeded {limit_s}s ({elapsed:.1f}s)")
    except Exception:
        print(f"ACCEPTANCE {num:2d} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{label}]: PASS ({elapsed:.1f}s)")


def test_criterion_01_catalan_baseline():
    with criterion(1, "Catalan baseline", limit_s=1.0):
        row = prefix_series(0, EndKind.ANY, 10).integer_coefficients()
        assert row == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_criterion_02_prefix_tables_four_engines():
    with criterion(2, "prefix tables, four engines", limit_s=30.0):
        for k, row in PREFIX_ROWS.items():
            series = prefix_series(k, EndKind.ANY, 10).integer_coefficients()
            for n in range(0, 10):
                want = row[n]
                assert series[n] == want, ("gf", n, k)
                assert dp_count(PathQuery(n, k)) == want, ("dp", n, k)
                assert enumerate_count(PathQuery(n, k)) == want, ("oracle", n, k)
                if n >= 1:
                    assert prefix_count(n, k) == want, ("closed", n, k)


def test_criterion_03_suffix_tables_and_shift_bijection():
    with criterion(3, "suffix tables and shift bijection"):
        for k, row in SUFFIX_ROWS.items():
            series = suffix_series(k, EndKind.ANY, 10).integer_coefficients()
            for n in range(0, 10):
                want = row[n]
                assert series[n] == want
                assert dp_count(PathQuery(n, k, orientation=Orientation.R2L)) == want
                assert enumerate_count(PathQuery(n, k, orientation=Orientation.R2L)) == want
                if n >= 1:
                    assert suffix_count(n, k) == want
        # the k-shifts: the suffix row at height k is the prefix row at
        # height k-1 advanced by k-1 positions
        for k in range(1, 4):
            for n in range(k, 10):
                assert SUFFIX_ROWS[k][n] == PREFIX_ROWS[k - 1][n - k + 1]
        for n in range(0, 13):
            assert dp_count(PathQuery(n, None, orientation=Orientation.R2L)) == catalan(n + 1)


def test_criterion_04_bounded_l2r():
    with criterion(4, "bounded l2r: determinants, N table, series", limit_s=30.0):
        assert det_poly(build_system_matrix(3)) == IntPoly([1, -4, 3])
        assert det_poly(build_system_matrix(4)) == IntPoly([-1, 5, -6, 1])
        for (t, idx), coeffs in N_TABLE.items():
            assert n_poly(t, idx) == IntPoly(coeffs), (t, idx)
        for t, row in F2_ROWS.items():
            assert bounded_gf(t, 2, EndKind.UP).coefficients_int(10) == row
        for t, row in TOTAL_L2R_ROWS.items():
            assert total_bounded_gf(t).coefficients_int(10) == row


def test_criterion_05_bounded_r2l():
    with criterion(5, "bounded r2l: determinant equality, totals"):
        for t in range(0, 7):
            assert det_poly(build_system_matrix(t, Orientation.R2L)) == det_poly(
                build_system_matrix(t, Orientation.L2R)
            ), t
        for t, row in TOTAL_R2L_ROWS.items():
            assert total_bounded_gf(t, Orientation.R2L).coefficients_int(10) == row


def test_criterion_06_substitution_identities():
    with criterion(6, "magic substitution identities"):
        rng = random.Random(1618)
        for t in range(0, 9):
            for _ in range(20):
                u = Fraction(rng.randint(1, 97), rng.randint(98, 299))
                assert substitution_check(t, u), (t, u)


def test_criterion_07_average_height_ratios():
    with criterion(7, "average height vs sqrt(pi n)", limit_s=120.0):
        stats = [avg_height(n, "return-to-zero", route="gf") for n in (64, 128, 256)]
        ratios = [st.ratio for st in stats]
        assert ratios[0] < ratios[1] < ratios[2], ratios
        assert 0.80 <= ratios[2] <= 1.02, ratios


def test_criterion_08_alternate_tables():
    with criterion(8, "alternate tables: dp, kernel series, oracle"):
        for k, row in ALT_ROWS.items():
            series = alt_series(k, EndKind.ANY, 10).integer_coefficients()
            for n in range(0, 10):
                want = row[n]
                assert series[n] == want, ("gf", n, k)
                assert dp_count(PathQuery(n, k, alternate=True)) == want, ("dp", n, k)
                assert enumerate_count(PathQuery(n, k, alternate=True)) == want, (
                    "oracle", n, k,
                )


def test_criterion_09_dominant_root():
    with criterion(9, "dominant root digits and growth identity"):
        root = dominant_root(Fraction(1, 10**12))
        assert abs(root.value - Fraction("0.403031716762")) < Fraction(2, 10**12)
        a = root.value
        assert abs(2 * a * (1 + a - a * a) - 1) < Fraction(1, 10**9)


def test_criterion_10_alternate_asymptotics():
    with criterion(10, "alternate asymptotics vs exact dp", limit_s=60.0):
        root = dominant_root(Fraction(1, 10**30))
        deviations = {
            n: abs(alt_asymptotic(n, root) / dp_count(PathQuery(n, 0, alternate=True)) - 1)
            for n in (100, 300, 400)
        }
        assert deviations[300] <= 0.05, deviations
        assert deviations[400] < deviations[100], deviations


def test_criterion_11_cross_engine_grid():
    with criterion(11, "master cross-engine grid n <= 9", limit_s=300.0):
        failure = cross_engine_grid(n_max=9)
        assert failure is None, failure
        for name, ncomp, nmiss in run_fixture_checks():
            assert nmiss == 0, name
            assert ncomp > 0, name
