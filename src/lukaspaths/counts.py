"""Unbounded prefixes and right-to-left (suffix) paths by end height and kind
of last step.  Each family is one shifted power z^s L^p of the Catalan
series L, in one table; the gf engine expands it, and the closed engine
reads [z^m] L^p as the ballot number p/(2m + p) C(2m + p, m) (Lagrange
inversion, Flajolet & Sedgewick, Analytic Combinatorics, App. A.6).

The series put the empty path in the k = 0 up family (constant term 1); the
counters charge it to the Any kind only.  For n >= 1 the two agree.
"""
from __future__ import annotations

from math import comb
from typing import Optional

from .core import EndKind, Orientation
from .series import DEFAULT_ORDER, Series, catalan_gf

#: (power, shift) of each family z^shift L^power, by end height k.  Left to
#: right the up family at k = 0 is the empty path alone, z^0 L^0.
_FAMILIES = {
    (Orientation.L2R, EndKind.UP): lambda k: (k, min(k, 1)),
    (Orientation.L2R, EndKind.FLAT): lambda k: (k + 2, 2),
    (Orientation.L2R, EndKind.DOWN): lambda k: (k + 3, 2),
    (Orientation.L2R, EndKind.ANY): lambda k: (k + 2, 1),
    (Orientation.R2L, EndKind.UP): lambda k: (k, k),
    (Orientation.R2L, EndKind.FLAT): lambda k: (k + 1, k + 1),
    (Orientation.R2L, EndKind.DOWN): lambda k: (k + 3, k + 2),
    (Orientation.R2L, EndKind.ANY): lambda k: (k + 1, k),
}
#: Left to right at k = 0, the exponent e of a lone term z^e outside the
#: power: the single flat step in the flat family, the empty path in Any.
_LONE = {EndKind.FLAT: 1, EndKind.ANY: 0}


def _family(orientation: Orientation, k: Optional[int], kind: EndKind) -> tuple:
    """(power, shift, lone exponent or None); ``k is None`` is the
    right-to-left total over end heights, L^2."""
    if k is None and orientation is Orientation.R2L and kind is EndKind.ANY:
        return 2, 0, None
    if k is None or k < 0:
        raise ValueError("end height must be nonnegative")
    p, s = _FAMILIES[orientation, kind](k)
    return p, s, _LONE.get(kind) if orientation is Orientation.L2R and k == 0 else None


def _ballot(p: int, m: int) -> int:
    """[z^m] L^p = p/(2m + p) C(2m + p, m), and [z^m] L^0 = [m = 0]."""
    if m < 0 or p == 0:
        return int(m == 0)
    return p * comb(2 * m + p, m) // (2 * m + p)


def _count(orientation: Orientation, n: int, k: Optional[int], kind: EndKind) -> int:
    p, s, lone = _family(orientation, k, kind)
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n == 0 and kind is not EndKind.ANY:
        return 0  # the query convention charges the empty path to Any only
    return _ballot(p, n - s) + (n == lone)


def _series(orientation: Orientation, k: Optional[int], kind: EndKind, order: int) -> Series:
    """z^s L^p as (L^2)^(p // 2) L^(p % 2), where L^2 = (L - 1)/z takes no
    product once L is one order longer (L = 1 + z L^2), plus the lone term."""
    p, s, lone = _family(orientation, k, kind)
    out = Series.constant(0, order)
    if order > s:
        L = catalan_gf(order - s + 1)
        power = (L - 1).shift_down(1) ** (p // 2)
        out = Series((0,) * s + (power * L if p % 2 else power).coeffs)
    return out if lone is None else out + Series.one(order).shift_up(lone)


def prefix_series(k: int, kind: EndKind = EndKind.ANY, order: int = DEFAULT_ORDER) -> Series:
    """Generating function of left-to-right prefixes ending at height k with
    the given kind of step: up z L^k (the empty path alone at k = 0), down
    z L^(k+2) - z L^(k+1) = z^2 L^(k+3), flat z^2 L^(k+2) plus the single
    flat step z at k = 0, and Any [k = 0] + z L^(k+2)."""
    return _series(Orientation.L2R, k, kind, order)


def prefix_count(n: int, k: int, kind: EndKind = EndKind.ANY) -> int:
    """Left-to-right prefixes of length n ending at height k by kind; at n >= 1
    Any (k+2) C(2n+k-1, n-1)/(n+k+1), up k C(2n+k-3, n-1)/(n+k-1), down (k+3)
    C(2n+k-2, n-2)/(n+k+1), flat (k+2) C(2n+k-3, n-2)/(n+k) + [n = 1, k = 0]."""
    return _count(Orientation.L2R, n, k, kind)


def suffix_series(k: Optional[int], kind: EndKind = EndKind.ANY,
                  order: int = DEFAULT_ORDER) -> Series:
    """Generating function of right-to-left paths (suffixes read backwards)
    ending at height k with the given kind of step: up (z L)^k, down
    z^(k+2) L^(k+3), flat z^(k+1) L^(k+1), Any z^k L^(k+1), and L^2 over
    every end height (``k is None``)."""
    return _series(Orientation.R2L, k, kind, order)


def suffix_count(n: int, k: Optional[int], kind: EndKind = EndKind.ANY) -> int:
    """Right-to-left paths of length n ending at height k by kind; at n >= 1
    Any (k+1) C(2n-k, n)/(n+1), up k C(2n-k-1, n-1)/n, down (k+3)
    C(2n-k-2, n)/(n+1), flat (k+1) C(2n-k-2, n-1)/n, k > n 0; every k C(n+1)."""
    return _count(Orientation.R2L, n, k, kind)
