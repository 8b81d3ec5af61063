"""Alternate-path counting: no two consecutive steps of the same direction.

The layered system for these paths has the bivariate kernel
(1 + z^2) u^2 - (1 - 2z^3) u + z^2, whose roots in u are the algebraic series
s1 (constant term 1) and s2 = z^2 / ((1 + z^2) s1) (valuation 2).  Every
family is a sum of z-polynomials times powers of 1/s1, over 1 + z^2, read
from one table; the flat-ending paths at height 0 are generated by s2 / z.

The dominant singularity of the height-0 series is the smallest positive
root of 4z^6 - 4z^4 - 4z^3 - 4z^2 + 1, located between 0 and 1/2 and computed
here by exact-rational bisection.
"""
from __future__ import annotations

import math
from itertools import islice, zip_longest
from typing import NamedTuple

from .core import EndKind, PathQuery
from .series import DEFAULT_ORDER, IntPoly, Series, quadratic_powers

# Only the bisection below works in rationals, so `dominant_root` and
# `alt_asymptotic` import `fractions` themselves and alternate `count` and
# `series` jobs never load it; the `Fraction` annotations are never evaluated.

#: p(z) = 4z^6 - 4z^4 - 4z^3 - 4z^2 + 1, the discriminant of the kernel in u,
#: and the other fixed polynomials of the closed forms.
_SEXTIC = IntPoly([1, 0, -4, -4, -4, 0, 4])
_ONE_MINUS_2Z3 = IntPoly([1, 0, 0, -2])
_TWO_PLUS_2Z2 = IntPoly([2, 0, 2])
_ONE_PLUS_Z2 = IntPoly([1, 0, 1])


def s1_series(order: int = DEFAULT_ORDER) -> Series:
    """The kernel root with constant term 1:
    s1 = (1 - 2z^3 + sqrt(4z^6 - 4z^4 - 4z^3 - 4z^2 + 1)) / (2 + 2z^2)."""
    if order < 1:
        raise ValueError("order must be positive")
    root = _SEXTIC.to_series(order).sqrt()
    return (_ONE_MINUS_2Z3.to_series(order) + root) / _TWO_PLUS_2Z2.to_series(order)


#: The rows (a_0, a_1, ...) of each kind, for k >= 1 and then k = 0: the
#: family is sum_j a_j r^(k+j) / (1 + z^2) with r = 1/s1.  At k = 0 up is the
#: empty path alone and flat is s2 / z; Any is the sum of the kind rows.
_ROWS = {
    EndKind.UP: (IntPoly([0, 1, 1]),),
    EndKind.FLAT: (IntPoly([0, -1, 1]), IntPoly([0, 1])),
    EndKind.DOWN: (IntPoly(), IntPoly([0, 0, 0, 2]), IntPoly([0, 0, 1])),
}
_ROWS_AT_0 = {**_ROWS, EndKind.UP: (_ONE_PLUS_Z2,), EndKind.FLAT: (IntPoly(), IntPoly([0, 1]))}
for _rows in (_ROWS, _ROWS_AT_0):
    _rows[EndKind.ANY] = tuple(
        sum(col, IntPoly()) for col in zip_longest(*_rows.values(), fillvalue=IntPoly())
    )


def alt_series(k: int, kind: EndKind = EndKind.ANY, order: int = DEFAULT_ORDER) -> Series:
    """Generating function of alternate prefixes ending at height k with the
    given kind of step: sum_j a_j r^(k+j) / (1 + z^2) over its `_ROWS` row.

    The kernel's root sum s1 + s2 = (1 - 2z^3)/(1 + z^2) and product
    s1 s2 (1 + z^2) = z^2 give r = 1/s1 = (1 - 2z^3 - (1 + z^2) s1) / z^2, a
    short product and a shift, so the only series divisions are by 2 + 2z^2
    in `s1_series` and by 1 + z^2.  `quadratic_powers` walks the powers of r,
    a root of z^2 r^2 - (1 - 2z^3) r + (1 + z^2) = 0, up to the row's end.
    """
    if order < 1:
        raise ValueError("order must be positive")
    PathQuery(order - 1, k, kind, alternate=True)
    m = order + 2
    r = (_ONE_MINUS_2Z3.to_series(m) - _ONE_PLUS_Z2.to_series(m) * s1_series(m)).shift_down(2)
    powers = quadratic_powers(r.coeffs, _ONE_MINUS_2Z3.coeffs, _ONE_PLUS_Z2.coeffs, 2)
    num = Series.constant(0, order)
    for a, power in zip((_ROWS_AT_0 if k == 0 else _ROWS)[kind], islice(powers, k, None)):
        num = num + a.to_series(order) * Series(power)
    return num / _ONE_PLUS_Z2.to_series(order)


class SexticRoot(NamedTuple):
    """The dominant singularity: smallest positive root of
    4z^6 - 4z^4 - 4z^3 - 4z^2 + 1, held as an exact rational enclosure
    midpoint with its residual."""

    value: Fraction
    residual: Fraction


def dominant_root(tolerance: Fraction | float | None = None) -> SexticRoot:
    """Locate the root in (0, 1/2) by bisection in exact rational arithmetic
    until the enclosure is narrower than `tolerance` (None: 10^-64).

    p(0) = 1 > 0 and p(1/2) < 0 guarantee the sign change; the other factor
    of the sextic, 2z^3 + 2z^2 + 2z + 1, has no positive roots, so this is the
    smallest positive real root overall.  p(lo) > 0 > p(hi) throughout: no
    midpoint k/2^m (m >= 2) is a root, as p is nonzero at its only rational
    root candidates, +-1, +-1/2 and +-1/4.
    """
    from fractions import Fraction

    tol = Fraction(1, 10**64) if tolerance is None else Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = Fraction(0), Fraction(1, 2)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _SEXTIC(mid) > 0:
            lo = mid
        else:
            hi = mid
    value = (lo + hi) / 2
    return SexticRoot(value=value, residual=abs(_SEXTIC(value)))


def alt_asymptotic(n: int, root: SexticRoot | None = None) -> float:
    """Leading-order asymptotic for the number of alternate paths of length n
    returning to height 0:

        sqrt(-6a^6 + 4a^4 + 3a^3 + 2a^2) (a + 1) 2^n (-a^2 + a + 1)^n
        ---------------------------------------------------------------
                    2 sqrt(pi) a^2 (a^2 + 1) n^(3/2)

    evaluated at the dominant root a.  The growth base 2(-a^2 + a + 1)
    equals 1/a exactly.

    The constant comes out of the square-root singularity at a: the singular
    part of the series is -(z+1)/(2 z^2 (1+z^2)) sqrt(p(z)) with p the sextic,
    and sqrt(-a p'(a))/4 is exactly half the radical above.  (An exact-DP
    sweep pins the factor: the ratio against the true counts tends to 1.)
    """
    if n < 1:
        raise ValueError("length must be positive")
    if root is None:
        from fractions import Fraction

        root = dominant_root(Fraction(1, 10**30))
    a = float(root.value)
    prefactor = (
        math.sqrt(-6 * a**6 + 4 * a**4 + 3 * a**3 + 2 * a**2)
        * (a + 1)
        / (2.0 * math.sqrt(math.pi) * a * a * (a * a + 1))
    )
    growth = 2.0 * (-a * a + a + 1.0)
    return prefactor * math.exp(n * math.log(growth)) / n**1.5
