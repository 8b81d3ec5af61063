"""Reference constructions that only the tests use.

The library computes D_t and every Cramer numerator N_k^t by recurrence
(`bounded.d_poly`, `bounded.n_poly`), Catalan numbers through the series of
sqrt(1 - 4z), and the alternate paths through the kernel root s1 alone.  The
explicit objects those shortcuts replace live here, so the tests can check
the shortcuts against them:

- `build_system_matrix` writes out the 3(t+1)-state transfer system and
  `det_poly` takes its determinant by fraction-free (Bareiss) elimination;
- `catalan` is the binomial C(2n, n)/(n + 1);
- `s2_series` is the small kernel root, from s1 s2 (1 + z^2) = z^2.

pytest does not collect this module (its name does not start with `test_`);
the test modules import it by name, since pytest puts `tests/` on `sys.path`.
"""
from __future__ import annotations

from math import comb
from typing import Sequence

from lukaspaths.alternate import s1_series
from lukaspaths.core import Orientation
from lukaspaths.series import DEFAULT_ORDER, IntPoly, Series

_ZERO = IntPoly()
_ONE = IntPoly([1])
_NEG1 = IntPoly([-1])
_Z = IntPoly([0, 1])
_ONE_PLUS_Z2 = IntPoly([1, 0, 1])


def build_system_matrix(
    t: int, orientation: Orientation = Orientation.L2R
) -> tuple[tuple[IntPoly, ...], ...]:
    """The rows of the 3(t+1)-dimensional coefficient matrix for bound t,
    read off the step set.

    The row of state (h, kind), in the order f (up), g (down), h (flat) per
    level, holds -1 on its own diagonal and z at all three states of every
    level h0 from which one step of that kind reaches h.  The step from h0 to
    h rises by h - h0: at least -1 left to right (a fall of one, a flat step,
    or a rise of any size), at most 1 right to left (the mirror image).
    """
    if t < 0:
        raise ValueError("bound must be nonnegative")
    size = 3 * (t + 1)
    lo, hi = (-1, t) if orientation is Orientation.L2R else (-t, 1)  # one step's rises
    rows = []
    for h in range(t + 1):
        for rises in (range(1, hi + 1), range(lo, 0), (0,)):  # up, down, flat
            row = [_ZERO] * size
            for h0 in (h - r for r in rises if 0 <= h - r <= t):
                row[3 * h0 : 3 * h0 + 3] = (_Z, _Z, _Z)
            row[len(rows)] += _NEG1
            rows.append(tuple(row))
    return tuple(rows)


def det_poly(rows: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant over Z[z] of the square matrix with these rows, by
    fraction-free (Bareiss) elimination on a copy."""
    return _bareiss([list(row) for row in rows])


def _bareiss(m: list[list[IntPoly]]) -> IntPoly:
    n = len(m)
    if n == 0:
        return _ONE
    sign = 1
    prev = _ONE
    for col in range(n - 1):
        if m[col][col].is_zero():
            for r in range(col + 1, n):
                if not m[r][col].is_zero():
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return _ZERO
        pivot = m[col][col]
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][col] * m[col][j]).exact_div(prev)
            m[i][col] = _ZERO
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1)."""
    return comb(2 * n, n) // (n + 1)


def s2_series(order: int = DEFAULT_ORDER) -> Series:
    """The small kernel root, from the product identity
    s1 s2 (1 + z^2) = z^2; it has valuation 2."""
    if order < 3:
        raise ValueError("order must be at least 3 to see the valuation")
    s1 = s1_series(order)
    return (_ONE_PLUS_Z2.to_series(order) * s1).inverse().shift_up(2)
