"""Height-bounded counting via the layered transfer-matrix system.

For a bound t the truncated state diagram yields a 3(t+1) x 3(t+1) linear
system over Z[z] in the unknowns f_0, g_0, h_0, ..., f_t, g_t, h_t (that row
order) with right-hand side (-1, 0, ..., 0)^T; state (h, kind) is a path at
height h whose last step is up (f), down (g) or flat (h), and each row is
read off the step set of the orientation.  The determinant D_t of the
coefficient matrix satisfies D_{t+2} = -D_{t+1} - z D_t and equals, up to
sign, the Fibonacci polynomial; every Cramer numerator N_k^t is a signed
z-shift of one D_t', read from `core._column`.  The library solves the
system by the recurrence alone (`d_poly`, `n_poly`), and the gf route of the
mean height sweeps one family's counts up in t.  The matrix and its
determinant are written out only in the tests, which check the recurrence
and the column table against them.
"""
from __future__ import annotations

from typing import Iterator, Optional

from .core import EndKind, Orientation, PathQuery, _OFFSETS, _column
from .series import IntPoly, RationalGF


def _step(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(x_t, x_{t+1}) -> (x_{t+1}, x_{t+2}) under the length recurrence
    x_{t+2} = -x_{t+1} - z x_t, which D_t and every Cramer numerator column
    obey."""
    return b, -b - a.shift_up(1)


#: D_{-3}, D_{-2}, D_{-1}, ...: the D_t built so far in this process, from
#: the seeds D_{-3} = 0 and D_{-2} = -1.  It keeps at most `_D_KEPT` of them
#: (up to D_60): all of D_0..D_t take about 0.07 t^3 bits, 19 MB at t = 1000,
#: so a larger t is walked on from the last pair kept and not stored.
_D = [IntPoly(), IntPoly([-1])]
_D_KEPT = 64


def _d(t: int) -> IntPoly:
    """D_t for t >= -3, read from the memo `_D`.  A t past its end is
    walked on by the length recurrence from the memo's last pair, and a copy
    of the memo, extended by the D_t it may keep, replaces it.  The shared
    list is never appended to, so a concurrent caller that read a shorter
    memo still extends a consistent list, and each kept D_t is built once
    per process unless two threads extend the memo at the same time."""
    global _D
    memo = _D
    if t + 3 < len(memo):
        return memo[t + 3]
    a, b = memo[-2:]
    grown = [*memo]
    for _ in range(t + 4 - len(memo)):
        a, b = _step(a, b)
        if len(grown) < _D_KEPT:
            grown.append(b)
    _D = grown
    return b


def d_poly(t: int) -> IntPoly:
    """D_t by the linear recurrence D_{t+2} = -D_{t+1} - z D_t (so
    D_0 = z - 1 and D_1 = 1 - 2z)."""
    if t < 0:
        raise ValueError("bound must be nonnegative")
    return _d(t)


def n_poly(t: int, idx: int, orientation: Orientation = Orientation.L2R) -> IntPoly:
    """Cramer numerator N_idx^t = sign z^power D_(t+offset) by recurrence,
    with (sign, power, offset) from `core._column`, the column table the
    unbounded families read too: N_1^t = D_t, N_2^t = -z^2 D_(t-3), ..."""
    if t < 0:
        raise ValueError("bound must be nonnegative")
    if not 1 <= idx <= 3 * (t + 1):
        raise ValueError(f"column index {idx} out of range for bound {t}")
    sign, power, offset = _column(idx, orientation)
    col = _d(t + offset).shift_up(power)
    return col if sign > 0 else -col


def bounded_gf(
    t: int,
    k: Optional[int],
    kind: EndKind = EndKind.ANY,
    orientation: Orientation = Orientation.L2R,
) -> RationalGF:
    """Generating function of height-bounded paths ending at height k with
    the given kind of step, as the Cramer solution N/D_t: N is the sum of
    the kind's `n_poly` columns and D_t is `d_poly(t)`, the determinant.
    The signs live in these polynomials, so expansions are the counts.
    ``k is None`` is the total over end heights, `total_bounded_gf`; the
    fields are checked as `PathQuery` checks them."""
    PathQuery(0, k, kind, orientation, t)
    if k is None:
        return total_bounded_gf(t, orientation)
    num = IntPoly()
    for off in _OFFSETS[kind]:
        num = num + n_poly(t, 3 * k + off, orientation)
    return RationalGF(num, d_poly(t))


def total_bounded_gf(t: int, orientation: Orientation = Orientation.L2R) -> RationalGF:
    """Generating function of bounded paths of any end height and kind:
    1/F_t left-to-right; D_{t-2}/D_t right-to-left."""
    PathQuery(0, None, EndKind.ANY, orientation, t)
    if orientation is Orientation.L2R:
        return RationalGF(IntPoly([(-1) ** (t + 1)]), d_poly(t))
    return RationalGF(_d(t - 2), d_poly(t))


def _gf_bound_sweep(n: int, k: Optional[int], orientation: Orientation) -> Iterator[int]:
    """c_t(n), the n-th coefficient of `bounded_gf(t, k, EndKind.ANY,
    orientation)`, for t = k, k+1, ... (t = 0, 1, ... with k None, the
    right-to-left total); what `PathQuery` refuses, the left-to-right total
    included, raises before the first value.

    The GFs of the first two bounds seed the sweep.  Each numerator column
    is a signed z-shift of D_{t-r} with r fixed by the column, and the
    right-to-left total's numerator is D_{t-2}, so numerator and D_t follow
    the same length recurrence: every later bound costs two recurrence
    steps, and only the last two (N, D_t) pairs are kept.  The Casoratian
    W_t = N_t D_(t-1) - N_(t-1) D_t then gains a factor z per bound, and
    with D_t(0) = +-1 the difference N_t/D_t - N_(t-1)/D_(t-1) =
    W_t/(D_t D_(t-1)) starts at z^val(W_t).  Each expansion therefore reuses
    the previous one below that power and runs the quotient recurrence only
    above it.
    """
    PathQuery(n, k, EndKind.ANY, orientation)
    seeds = [bounded_gf(t, k, EndKind.ANY, orientation) for t in (k or 0, (k or 0) + 1)]
    num, den = tuple(gf.num for gf in seeds), tuple(gf.den for gf in seeds)
    w = (num[1] * den[0] - num[0] * den[1]).coeffs
    same = next(i for i, c in enumerate(w) if c)  # val(W) at the second seed's bound
    coeffs = seeds[0].expand(n + 1).coeffs
    while True:
        yield coeffs[n]
        num, den = _step(*num), _step(*den)
        coeffs = RationalGF(num[0], den[0]).expand(n + 1, coeffs[:same]).coeffs
        same += 1
