"""Unbounded prefixes and right-to-left (suffix) paths by end height and kind
of last step.  Each family is read from the bounded system's Cramer columns
(`core._column`) at t -> oo: a column sign z^P D_(t+d) over D_t tends to
z^P L^(-d), with L the Catalan series, so a family is a sum of shifted
powers z^s L^p, one per column of its kind.  The gf engine expands them,
with every power of L from one walk of L = 1 + z L^2, and the closed engine
reads [z^m] L^p as the ballot number p/(2m + p) C(2m + p, m) (Lagrange
inversion, Flajolet & Sedgewick, Analytic Combinatorics, App. A.6).

The empty path is in the k = 0 up family, as in the paper's f_0, so every
count is its series coefficient at every length, n = 0 included.  Every
entry point checks its fields by building the unbounded `PathQuery`, so a
bad query is refused in its words; the one total it admits is right to left.
"""
from __future__ import annotations

from itertools import islice
from math import comb
from operator import add
from typing import Optional

from .core import EndKind, Orientation, PathQuery, _OFFSETS, _column
from .series import DEFAULT_ORDER, Series, catalan_gf, quadratic_powers


def _family(orientation: Orientation, k: Optional[int], kind: EndKind) -> list[tuple[int, int]]:
    """The (power, shift) of each term z^shift L^power of a family that
    `PathQuery` admits: its kind's columns at t -> oo.  ``k is None`` is
    then the right-to-left total over end heights, D_(t-2)/D_t -> L^2."""
    if k is None:
        return [(2, 0)]
    columns = (_column(3 * k + off, orientation) for off in _OFFSETS[kind])
    return [(-offset, power) for _, power, offset in columns]


def _ballot(p: int, m: int) -> int:
    """[z^m] L^p = p/(2m + p) C(2m + p, m), and [z^m] L^0 = [m = 0]."""
    if m < 0 or p == 0:
        return int(m == 0)
    return p * comb(2 * m + p, m) // (2 * m + p)


def _count(orientation: Orientation, n: int, k: Optional[int], kind: EndKind) -> int:
    PathQuery(n, k, kind, orientation)
    return sum(_ballot(p, n - s) for p, s in _family(orientation, k, kind))


def _series(orientation: Orientation, k: Optional[int], kind: EndKind, order: int) -> Series:
    """The sum of the family's terms z^s L^p, every L^p from one walk of
    L^p = (L^(p-1) - L^(p-2)) / z at the order the smallest shift needs; a
    term with s >= order adds nothing."""
    PathQuery(order - 1, k, kind, orientation)
    terms = sorted((p, s) for p, s in _family(orientation, k, kind) if s < order)
    out, j = [0] * order, -1
    if terms:
        walk = quadratic_powers(catalan_gf(order - min(s for _, s in terms)).coeffs, (1,), (1,), 1)
    for p, s in terms:
        if p > j:  # walk on to L^p
            power, j = next(islice(walk, p - j - 1, None)), p
        out[s:] = map(add, out[s:], power)
    return Series(out)


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
