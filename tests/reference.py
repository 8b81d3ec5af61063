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
`KINDS`, the end kinds with Any first; `ZERO`, `NEG1` and `Z` are the
polynomials 0, -1 and z the system matrices are written in.

The helpers that several test modules need are bound here once too:

- `ROOT` and `SRC`, the repository and its `src` directory;
- `shapes` asks `PathQuery` which query shapes of a grid exist, so no test
  restates its refusals;
- `load_tool` imports a script of `tools/` as a module;
- `run_main` runs `cli.main` in this process and `run_python` runs
  `python -c` in a fresh interpreter with PYTHONPATH=src;
- `ref_add`, `ref_sub`, `ref_mul`, `ref_div`, `ref_pow` and `ref_sqrt` are
  schoolbook kernels on coefficient lists, which keep the shorter operand's
  length: ints stay ints, and a division or root gives Fractions.

pytest does not collect this module (its name does not start with `test_`);
the test modules import it by name, since pytest puts `tests/` on `sys.path`.
"""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path
from types import ModuleType
from typing import Sequence

from lukaspaths import cli
from lukaspaths.alternate import s1_series
from lukaspaths.core import EndKind, Orientation, PathQuery
from lukaspaths.series import DEFAULT_ORDER, IntPoly, Series

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ZERO = IntPoly()
_ONE = IntPoly([1])
NEG1 = IntPoly([-1])
Z = IntPoly([0, 1])
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
            row = [ZERO] * size
            for h0 in (h - r for r in rises if 0 <= h - r <= t):
                row[3 * h0 : 3 * h0 + 3] = (Z, Z, Z)
            row[len(rows)] += NEG1
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
                return ZERO
        pivot = m[col][col]
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][col] * m[col][j]).exact_div(prev)
            m[i][col] = ZERO
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
    return Series((0, 0, *(_ONE_PLUS_Z2.to_series(order) * s1).inverse().coeffs[:-2]))


def shapes(ks, bounds, orientations=tuple(Orientation), alternates=(False, True)):
    """Each (k, kind, orientation, bound, alternate) in ks x KINDS x bounds,
    over the orientations and alternates given, that `PathQuery(0, ...)`
    builds: it alone refuses a total of a kind other than Any, an end height
    above the bound, and the left-to-right total with no bound."""
    grid = product(orientations, alternates, ks, KINDS, bounds)
    for orientation, alternate, k, kind, bound in grid:
        try:
            PathQuery(0, k, kind, orientation, bound, alternate)
        except ValueError:
            continue
        yield k, kind, orientation, bound, alternate


def load_tool(name: str) -> ModuleType:
    """`tools/<name>.py`, which is no package, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(capsys, *argv: str) -> tuple:
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process; a
    `SystemExit`, as argparse raises one, gives its code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(code: str) -> str:
    """The stdout of `python -c code` in a fresh interpreter with
    PYTHONPATH=src, which must exit 0 and write nothing to stderr."""
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return proc.stdout


def ref_add(a, b):
    return [x + y for x, y in zip(a, b)]


def ref_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def ref_mul(a, b):
    """The Cauchy product."""
    m = min(len(a), len(b))
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(m)]


def ref_div(a, b):
    """The quotient, by solving b * out = a term by term."""
    m = min(len(a), len(b))
    out = []
    for n in range(m):
        acc = a[n] - sum(b[j] * out[n - j] for j in range(1, n + 1))
        out.append(Fraction(acc) / b[0])
    return out


def ref_pow(a, k):
    """The k-fold Cauchy product, by k products."""
    out = [1] + [0] * (len(a) - 1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_sqrt(a):
    """Coefficient recurrence 2 s_n = a_n - sum_{0<j<n} s_j s_(n-j), s_0 = 1."""
    out = [Fraction(1)]
    for n in range(1, len(a)):
        acc = a[n] - sum(out[j] * out[n - j] for j in range(1, n))
        out.append(Fraction(acc) / 2)
    return out
