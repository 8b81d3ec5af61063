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

The paper's printed rows, which several test modules pin the engines to,
are frozen here once: `PREFIX_ROWS`, `SUFFIX_ROWS`, `F2_ROWS`,
`TOTAL_L2R_ROWS`, `TOTAL_R2L_ROWS` and `ALT_ROWS` (coefficients of z^0 ..
z^9), `N_TABLE` (N_k^t for t <= 4, k <= 12, lowest degree first), and
`KINDS`, the end kinds with Any first.

pytest does not collect this module (its name does not start with `test_`);
the test modules import it by name, since pytest puts `tests/` on `sys.path`.
"""
from __future__ import annotations

from math import comb
from typing import Sequence

from lukaspaths.alternate import s1_series
from lukaspaths.core import EndKind, Orientation
from lukaspaths.series import DEFAULT_ORDER, IntPoly, Series

_ZERO = IntPoly()
_ONE = IntPoly([1])
_NEG1 = IntPoly([-1])
_Z = IntPoly([0, 1])
_ONE_PLUS_Z2 = IntPoly([1, 0, 1])

KINDS = (EndKind.ANY, EndKind.UP, EndKind.FLAT, EndKind.DOWN)

PREFIX_ROWS = {
    0: [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862],
    1: [0, 1, 3, 9, 28, 90, 297, 1001, 3432, 11934],
    2: [0, 1, 4, 14, 48, 165, 572, 2002, 7072, 25194],
    3: [0, 1, 5, 20, 75, 275, 1001, 3640, 13260, 48450],
}
SUFFIX_ROWS = {
    0: [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862],
    1: [0, 1, 2, 5, 14, 42, 132, 429, 1430, 4862],
    2: [0, 0, 1, 3, 9, 28, 90, 297, 1001, 3432],
    3: [0, 0, 0, 1, 4, 14, 48, 165, 572, 2002],
}
N_TABLE = {
    (0, 1): [-1, 1], (0, 2): [], (0, 3): [0, -1],
    (1, 1): [1, -2], (1, 2): [0, 0, 1], (1, 3): [0, 1, -1],
    (1, 4): [0, 1, -1], (1, 5): [], (1, 6): [0, 0, 1],
    (2, 1): [-1, 3, -1], (2, 2): [0, 0, -1], (2, 3): [0, -1, 2],
    (2, 4): [0, -1, 2], (2, 5): [0, 0, -1], (2, 6): [0, 0, -1],
    (2, 7): [0, -1, 1], (2, 8): [], (2, 9): [0, 0, -1],
    (3, 1): [1, -4, 3], (3, 2): [0, 0, 1, -1], (3, 3): [0, 1, -3, 1],
    (3, 4): [0, 1, -3, 1], (3, 5): [0, 0, 1], (3, 6): [0, 0, 1, -1],
    (3, 7): [0, 1, -2], (3, 8): [0, 0, 1], (3, 9): [0, 0, 1],
    (3, 10): [0, 1, -1], (3, 11): [], (3, 12): [0, 0, 1],
    (4, 1): [-1, 5, -6, 1], (4, 2): [0, 0, -1, 2], (4, 3): [0, -1, 4, -3],
    (4, 4): [0, -1, 4, -3], (4, 5): [0, 0, -1, 1], (4, 6): [0, 0, -1, 2],
    (4, 7): [0, -1, 3, -1], (4, 8): [0, 0, -1], (4, 9): [0, 0, -1, 1],
    (4, 10): [0, -1, 2], (4, 11): [0, 0, -1], (4, 12): [0, 0, -1],
}
F2_ROWS = {
    2: [0, 1, 2, 5, 13, 34, 89, 233, 610, 1597],
    3: [0, 1, 2, 5, 14, 41, 122, 365, 1094, 3281],
    4: [0, 1, 2, 5, 14, 42, 131, 417, 1341, 4334],
}
TOTAL_L2R_ROWS = {
    0: [1] * 10,
    1: [2**n for n in range(10)],
    2: [1, 3, 8, 21, 55, 144, 377, 987, 2584, 6765],
    3: [1, 4, 13, 40, 121, 364, 1093, 3280, 9841, 29524],
    4: [1, 5, 19, 66, 221, 728, 2380, 7753, 25213, 81927],
}
TOTAL_R2L_ROWS = {
    0: [1] * 10,
    1: [2**n for n in range(10)],
    2: [1, 2, 5, 13, 34, 89, 233, 610, 1597, 4181],
    3: [1, 2, 5, 14, 41, 122, 365, 1094, 3281, 9842],
}
ALT_ROWS = {
    0: [1, 1, 1, 3, 5, 9, 19, 39, 81, 173],
    1: [0, 1, 3, 5, 11, 25, 53, 115, 255, 565],
    2: [0, 1, 3, 7, 19, 45, 105, 247, 575, 1333],
    3: [0, 1, 3, 9, 27, 69, 177, 443, 1087, 2645],
}


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
