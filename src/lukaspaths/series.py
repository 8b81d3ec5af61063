"""Exact arithmetic kernels over Z: truncated power series, polynomials, and
rational generating functions.

Every coefficient is a Python int.  The library counts paths, so every series
it builds has integer coefficients, and the kernels keep it that way: a float
or rational coefficient raises TypeError, and a division whose quotient is not
integral raises ValueError rather than leaving the integers.
"""
from __future__ import annotations

from itertools import starmap, zip_longest
from operator import add, index, mul, sub
from typing import Any, Iterable, Iterator, Sequence

#: Default truncation order for generating-function expansions.  Overridable
#: per call and, on the command line, by `--order` alone.
DEFAULT_ORDER = 64


def _trim(c: Sequence[int]) -> Sequence[int]:
    """`c` without its trailing zeros."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def _convolve(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    """Coefficients 0..m-1 of a*b, each one C-level dot product against the
    shorter operand reversed, so a product with z or 1 + z^2 costs O(m)."""
    a, b = _trim(a[:m]), _trim(b[:m])
    if len(a) < len(b):
        a, b = b, a
    rb, lb = b[::-1], len(b)
    out = []
    for n in range(m):
        lo = n - lb + 1  # pair a_lo.. with b_(n-lo)..b_0; map stops at the shorter
        out.append(sum(map(mul, a[lo : n + 1], rb) if lo > 0 else map(mul, a, rb[-lo:])))
    return out


def _quotient(
    a: Sequence[int], b: Sequence[int], m: int, known: Sequence[int] = ()
) -> list[int]:
    """Coefficients 0..m-1 of the series a/b (both zero past their ends,
    b[0] != 0) by b[0] q_n = a_n - sum_j b_j q_(n-j).  Every division by b[0]
    must be exact, as it always is for b[0] = +-1; a remainder raises
    ValueError.  `known` holds the first coefficients when the caller already
    has them; the recurrence then starts after them."""
    b0, tail = b[0], _trim(b[1:m])
    out = list(known[:m])
    for n in range(len(out), m):
        q, r = divmod((a[n] if n < len(a) else 0) - sum(map(mul, tail, reversed(out))), b0)
        if r:
            raise ValueError(f"inexact division: quotient coefficient {n} is not an integer")
        out.append(q)
    return out


class Series:
    """Truncated formal power series with integer coefficients.

    A series knows its coefficients for z^0 .. z^(order-1) and nothing beyond;
    binary operations truncate to the shorter operand, so results never claim
    coefficients that were not actually determined.

    `coeffs` is a tuple of ints.  A coefficient that is not an integer, such
    as a float or a rational, raises TypeError; a division whose quotient is
    not integral raises ValueError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(map(index, coeffs))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs = cs

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: int, order: int) -> "Series":
        return cls(([value] + [0] * (order - 1))[:order])

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def z(cls, order: int) -> "Series":
        """z, truncated to `order`: at order 1 that is the zero series."""
        return cls(([0, 1] + [0] * (order - 2))[:order])

    # -- basic views -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self.coeffs):
            raise IndexError(f"coefficient {n} unknown at truncation order {self.order}")
        return self.coeffs[n]

    def integer_coefficients(self) -> list[int]:
        """The coefficients as a list of ints."""
        return list(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        return Series([p + q for p, q in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __sub__(self, other) -> "Series":
        return self + (-other)

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series([c * other for c in self.coeffs])
        m = min(self.order, other.order)
        return Series(_convolve(self.coeffs, other.coeffs, m))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        """k-th power by repeated squaring: O(log k) products, none by 1."""
        if k < 0:
            raise ValueError("negative powers: invert first")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Series.one(self.order) if result is None else result

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term."""
        return Series.one(self.order) / self

    def __truediv__(self, other) -> "Series":
        if not isinstance(other, Series):
            other = Series.constant(other, self.order)
        if other.coeffs[0] == 0:
            raise ValueError("non-invertible series (zero constant term)")
        m = min(self.order, other.order)
        return Series(_quotient(self.coeffs, other.coeffs, m))

    def sqrt(self) -> "Series":
        """Square root with constant term +1, one coefficient per step: the
        root y of f solves 2 f y' = f' y, so 2n y_n = sum_(j>=1) (3j - 2n) f_j
        y_(n-j), two dot products against f's tail, and a polynomial's root
        costs O(order) steps.  Each division by 2n is exact while the root is
        integral; the first coefficient that is not raises ValueError."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires unit constant term")
        f = _trim(self.coeffs[1:])
        f3 = [3 * j * c for j, c in enumerate(f, 1)]
        y = [1]
        for n in range(1, self.order):
            # 2n y_n = sum 3j f_j y_(n-j) - 2n sum f_j y_(n-j)
            q, r = divmod(sum(map(mul, f3, reversed(y))), 2 * n)
            if r:
                raise ValueError(f"inexact square root: coefficient {n} is not an integer")
            y.append(q - sum(map(mul, f, reversed(y))))
        return Series(y)

    # -- shifts ------------------------------------------------------------

    def shift_down(self, j: int) -> "Series":
        """Divide by z^j; requires valuation >= j.  The order shrinks by j."""
        if self.order <= j:
            raise ValueError("order too small to shift down")
        if any(self.coeffs[:j]):
            raise ValueError("valuation too small to divide by z^j")
        return Series(self.coeffs[j:])

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    __hash__ = None  # mutable-free but equality is structural; keep unhashable

    def __repr__(self) -> str:
        head = ", ".join(str(self[i]) for i in range(min(self.order, 8)))
        tail = ", ..." if self.order > 8 else ""
        return f"Series([{head}{tail}] order={self.order})"


class IntPoly:
    """Integer-coefficient polynomial, lowest degree first.

    Canonical form: no trailing zero coefficients; the zero polynomial is the
    empty tuple.  A coefficient that is not an integer, such as a float or a
    rational, raises TypeError rather than being truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _trim(tuple(map(index, coeffs)))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Any) -> Any:
        """The value at x by Horner's rule: an int at an int, an exact
        rational at a rational point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(starmap(add, zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        return IntPoly(_convolve(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def shift_up(self, j: int) -> "IntPoly":
        """Multiply by z^j."""
        return IntPoly([0] * j + list(self.coeffs))

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial quotient over Z; raises ValueError if the division
        leaves a remainder or a fractional coefficient.

        Reversed, a = q b is the series identity rev(a) = rev(q) rev(b), and
        rev(b) starts with b's leading coefficient.  So the first m =
        len(a) - len(b) + 1 coefficients of rev(a)/rev(b) are rev(q), and the
        division is exact only if `_quotient` finds each of the len(a) an
        integer and each one past m is zero."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        a, b = self.coeffs, other.coeffs
        m = max(len(a) - len(b) + 1, 0)
        q = _quotient(a[::-1], b[::-1], len(a))
        if any(q[m:]):
            raise ValueError("inexact polynomial division")
        return IntPoly(reversed(q[:m]))

    def to_series(self, order: int) -> Series:
        cs = list(self.coeffs[:order])
        return Series(cs + [0] * (order - len(cs)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


class RationalGF:
    """A rational generating function num/den over Z[z] with den(0) != 0,
    kept with the signs it was built with; compare two by `num` and `den`."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den(0) == 0:
            raise ValueError("non-expandable: denominator vanishes at z = 0")
        self.num = num
        self.den = den

    def expand(self, order: int, known: Sequence[int] = ()) -> Series:
        """Power-series expansion to the given order, by the linear
        recurrence the denominator induces.  `known` may give the first
        coefficients, when the caller has them from an equal expansion."""
        return Series(_quotient(self.num.coeffs, self.den.coeffs, order, known))

    def coefficients_int(self, order: int) -> list[int]:
        """The expansion's coefficients as a list of ints."""
        return self.expand(order).integer_coefficients()

    def __repr__(self) -> str:
        return f"RationalGF({self.num!r}, {self.den!r})"


def catalan_gf(order: int) -> Series:
    """The Catalan generating function L = (1 - sqrt(1-4z)) / (2z) to the
    given order, computed as written and with no closed form; coefficient n is
    the n-th Catalan number."""
    if order < 1:
        raise ValueError("order must be positive")
    one, z = Series.one(order + 1), Series.z(order + 1)
    return (one - (one - 4 * z).sqrt()).shift_down(1) / 2


def quadratic_powers(x: Sequence[int], alpha: Sequence[int], beta: Sequence[int],
                     v: int) -> Iterator[list[int]]:
    """x^0, x^1, ... without end, each to x's length m, for a series root x
    of z^v x^2 - alpha x + beta = 0, with no series product.

    x^j = (alpha x^(j-1) - beta x^(j-2)) / z^v gives x^j's first m - v
    coefficients, by additions over the nonzero terms of alpha and beta.
    The last v, which that division leaves unknown, come from x^j = x x^(j-1),
    one dot product each, so every power keeps x's length and a step costs
    O(m) operations whatever j is."""
    m = len(x)
    top = max(m - v, 0)
    # A term c z^i of alpha (on x^(j-1)) or of -beta (on x^(j-2)) adds
    # c src[n + v - i] to out[n] for lo <= n < top, src[start:stop] in all.
    terms = [(newer, add if c > 0 else sub, abs(c), max(i - v, 0), max(v - i, 0), m - i)
             for newer, poly in ((True, alpha), (False, [-c for c in beta]))
             for i, c in enumerate(poly) if c and i < m]
    older, newer = [1] + [0] * (m - 1), list(x)
    yield older
    while True:
        yield newer
        acc = None
        for from_newer, op, c, lo, start, stop in terms:
            part = (newer if from_newer else older)[start:stop]
            if c != 1:
                part = [c * s for s in part]
            if lo:
                part = [0] * lo + part
            acc = part if acc is None and op is add else map(op, acc or [0] * top, part)
        out = [*acc]
        for n in range(top, m):
            out.append(sum(map(mul, x, reversed(newer[: n + 1]))))
        older, newer = newer, out
