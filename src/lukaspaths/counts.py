"""Closed-form counting of unbounded prefixes and right-to-left (suffix)
paths, by end height and end-step kind, with the matching generating-function
series.

Series follow the state-diagram families: the empty path sits in the k = 0
"up" family (its series has constant term 1), while the query-level counters
charge it to the Any kind only.  For n >= 1 the two conventions agree, and
the triple agreement with the dynamic program is asserted by the test suite.
"""
from __future__ import annotations


from .core import EndKind
from .series import DEFAULT_ORDER, Series, binom, catalan_gf


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-integral count {num}/{den}")
    return q


def prefix_series(k: int, kind: EndKind = EndKind.ANY, order: int = DEFAULT_ORDER) -> Series:
    """Generating function of left-to-right prefixes ending at height k with
    the given kind of step.

    All four families are shifted powers of the Catalan series L, one power
    per call: the up family is z L^k (with the empty path at k = 0), the down
    family z L^(k+2) - z L^(k+1) = z^2 L^(k+3) (as L - 1 = z L^2), the flat
    family z^2 L^(k+2) plus a lone z at k = 0 (the single flat step), and the
    Any family [k = 0] + z L^(k+2).
    """
    if k < 0:
        raise ValueError("end height must be nonnegative")
    L = catalan_gf(order)
    if kind is EndKind.UP:
        if k == 0:
            return Series.one(order)
        return (L**k).shift_up(1)
    if kind is EndKind.DOWN:
        return (L ** (k + 3)).shift_up(2)
    if kind is EndKind.FLAT:
        s = (L ** (k + 2)).shift_up(2)
        if k == 0:
            s = s + Series.one(order).shift_up(1)
        return s
    s = (L ** (k + 2)).shift_up(1)
    if k == 0:
        s = s + Series.one(order)
    return s


def prefix_count(n: int, k: int, kind: EndKind = EndKind.ANY) -> int:
    """Exact number of left-to-right prefixes of length n ending at height k
    with the given kind of step, by direct binomial evaluation."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if n == 0:
        return 1 if k == 0 and kind is EndKind.ANY else 0
    if kind is EndKind.ANY:
        return _exact((k + 2) * binom(2 * n + k - 1, n - 1), n + k + 1)
    if kind is EndKind.UP:
        if k == 0:
            return 0
        return _exact(k * binom(2 * n + k - 3, n - 1), n + k - 1)
    if kind is EndKind.DOWN:
        return _exact((k + 3) * binom(2 * n + k - 2, n - 2), n + k + 1)
    # flat: the single step F is the k = 0, n = 1 path the generic formula misses
    if k == 0 and n == 1:
        return 1
    return _exact((k + 2) * binom(2 * n + k - 3, n - 2), n + k)


def suffix_series(k: int, kind: EndKind = EndKind.ANY, order: int = DEFAULT_ORDER) -> Series:
    """Generating function of right-to-left paths (Lukasiewicz suffixes read
    backwards) ending at height k with the given kind of step.

    Up family (z L)^k, down family z^(k+2) L^(k+3), flat family
    z^(k+1) L^(k+1), Any family z^k L^(k+1).
    """
    if k < 0:
        raise ValueError("end height must be nonnegative")
    L = catalan_gf(order)
    if kind is EndKind.UP:
        return (L**k).shift_up(k)
    if kind is EndKind.DOWN:
        return (L ** (k + 3)).shift_up(k + 2)
    if kind is EndKind.FLAT:
        return (L ** (k + 1)).shift_up(k + 1)
    return (L ** (k + 1)).shift_up(k)


def suffix_count(n: int, k: int, kind: EndKind = EndKind.ANY) -> int:
    """Exact number of right-to-left paths of length n ending at height k
    with the given kind of step; k > n is unreachable and counts zero."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if n == 0:
        return 1 if k == 0 and kind is EndKind.ANY else 0
    if k > n:
        return 0
    if kind is EndKind.ANY:
        return _exact((k + 1) * binom(2 * n - k, n), n + 1)
    if kind is EndKind.UP:
        if k == 0:
            return 0
        return _exact(k * binom(2 * n - k - 1, n - 1), n)
    if kind is EndKind.DOWN:
        return _exact((k + 3) * binom(2 * n - k - 2, n), n + 1)
    return _exact((k + 1) * binom(2 * n - k - 2, n - 1), n)
